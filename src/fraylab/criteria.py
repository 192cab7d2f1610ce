"""The paper's ten acceptance criteria, each defined once.

Each function returns check records {"name", "params", "status"}, status
"pass" or "fail".  Its keyword parameters default to the `fraylab verify`
values; the CLI sets a parameter from the flag of the same name (cli.py
maps suites to criteria), and tests/test_acceptance.py passes its own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional

from .grading import MultiDegree
from .hochschild import trace_check, unknot_invariant
from .homalg import (
    CurvedComplex,
    Entry,
    GradedRing,
    PM_ONE,
    ParamSpec,
    RC_Object,
    RingSpec,
    gaussian_eliminate,
    homology_truncated,
)
from .qseries import RationalSeriesExpr, TriSeries, Window, quantum_factorial, unknot_table
from .ssbim import (
    CN_VARIANTS,
    PROJECTOR_VARIANTS,
    basis_change_check,
    build_W,
    cn_family,
    cone_iota_eliminate,
    graded_rank_check,
    ladder_collapse,
    projector,
)
from .symfun import (
    BOTTOM,
    Composition,
    Poly,
    a_family,
    a_identity_defect,
    a_thin_recursive,
    block_differences,
    compositions,
    curvature_transport_defect,
    eval_at_point,
    expand_to_x,
    g_polys,
    psi_rho_roundtrip,
    rho_psi_roundtrip,
    thin_legs,
    vanishing_locus_sampler,
    x_gen,
)


def _record(name: str, ok: bool, params: Optional[dict] = None) -> dict:
    return {"name": name, "params": params or {}, "status": "pass" if ok else "fail"}


def _built(build: Callable[[], object]) -> object:
    """What `build` returns, or None if it failed its own checks."""
    try:
        return build()
    except (ValueError, AssertionError):
        return None


# Theorem 1.1: each key's row is [k]! times its value's row, and for finite
# also times (1 + t q^{-2})^k, one factor per Koszul generator of (1^k)
FACTOR_LAWS = {"finite": "intrinsic", "def_finite": "intrinsic", "def_infinite": "def_intrinsic"}


def _obeys_factor_law(series: TriSeries, variant: str, k: int) -> bool:
    # the law is multiplied out before expanding: products of truncated
    # series are wrong near the window boundary
    law = unknot_table(FACTOR_LAWS[variant], k).times_laurent(quantum_factorial(k))
    if variant == "finite":
        koszul = [{(0, 0, 0): Fraction(1), (0, -2, 1): Fraction(1)} for _ in range(k)]
        law = law * RationalSeriesExpr(koszul, [])
    return series.equal_on(law.expand(series.window), series.window)


def unknot_row(
    variant: str = "intrinsic",
    k: int = 1,
    cap: int = 3,
    window: Optional[Window] = None,
) -> list[dict]:
    """Criteria 1-4: the unknot series of one variant equals its table row on
    the window (hochschild.unknot_invariant) and the row is not zero there;
    a variant in FACTOR_LAWS obeys its law (finite: DISCREPANCIES.md item 1)."""
    rep, computed, expected = unknot_invariant(variant, k, cap=cap, window=window)
    params = {"variant": variant, "k": k}
    ok = rep["match"] and bool(expected.coeffs)
    out = [{**_record(f"table {variant} k={k}", ok, params), "details": rep}]
    if variant in FACTOR_LAWS:
        ok = _obeys_factor_law(computed, variant, k)
        out.append(_record(f"{variant} k={k} factor law", ok, params))
    return out


def factor_relations() -> list[dict]:
    """Theorem 1.1's factor laws on the table rows for k <= 3."""
    window = Window((0, 3), (-8, 14), (0, 8))
    out = []
    for k in (1, 2, 3):
        for variant, base in FACTOR_LAWS.items():
            koszul = "(1+tq^-2)^k*" if variant == "finite" else ""
            ok = _obeys_factor_law(unknot_table(variant, k).expand(window), variant, k)
            out.append(_record(f"{variant}=[k]!*{koszul}{base}, k={k}", ok, {"k": k}))
    return out


def a_identities(max_n: int = 5) -> list[dict]:
    """Criterion 5: the a_ijk identities for every composition of N <= max_n."""
    out = []
    for N in range(1, max_n + 1):
        for parts in compositions(N):
            b = Composition(parts)
            fam = a_family(b)
            ok = all(a_identity_defect(fam, b, i).is_zero() for i in range(1, N + 1))
            out.append(_record(f"a_family identity b={parts}", ok, {"N": N}))
    return out


def thin_recursion(max_n: int = 6) -> list[dict]:
    """Criterion 5: the thin recursion's a_ij satisfy the identities for
    n <= max_n, and at n = 3 they are the values written out in the paper."""
    x = lambda i: Poly.gen(x_gen(i))
    xp = lambda i: Poly.gen(x_gen(i, BOTTOM))
    out = []
    for n in range(1, max_n + 1):
        fam = a_thin_recursive(n)
        ok = all(
            a_identity_defect(thin_legs(fam), Composition.thin(n), i).is_zero()
            for i in range(1, n + 1)
        )
        out.append(_record(f"thin recursion n={n}", ok, {"n": n}))
        if n == 3:
            verbatim = {
                (1, 1): Poly.one(), (1, 2): Poly.one(), (1, 3): Poly.one(),
                (2, 1): xp(2) + xp(3), (2, 2): x(1) + xp(3), (2, 3): x(1) + x(2),
                (3, 1): xp(2) * xp(3), (3, 2): x(1) * xp(3), (3, 3): x(1) * x(2),
            }
            ok = all(fam[key] == val for key, val in verbatim.items())
            out.append(_record("thin recursion n=3 verbatim values", ok, {"n": 3}))
    return out


def psi_rho(max_n: int = 4) -> list[dict]:
    """Criterion 6, for a <= max_n: psi and rho are mutually inverse, and the
    curvature transports along them."""
    out = []
    for a in range(1, max_n + 1):
        comp = Composition.of(a)
        defects = psi_rho_roundtrip(a) + rho_psi_roundtrip(a)
        ok = all(expand_to_x(d, comp).is_zero() for d in defects)
        out.append(_record(f"psi/rho mutual inversion a={a}", ok, {"a": a}))
        ok = curvature_transport_defect(a).is_zero()
        out.append(_record(f"curvature transport a={a}", ok, {"a": a}))
    return out


def g_congruences(max_n: int = 4, seed: int = 0) -> list[dict]:
    """Criterion 7, for n <= max_n and i <= n + 1: xi_{2,1} g_i + xi_{1,i} =
    (x_{n+1} - x'_{n+1}) g_i + e_i(X_1) - e_i(X'_1), with xi_{1,n+1} = 0,
    vanishes on 100 seeded points of the (n, 1) vanishing locus, and for
    i = n + 1 it is zero in the ring of W_{(n,1)}."""
    samples = 100
    out = []
    for n in range(1, max_n + 1):
        b = Composition.of(n, 1)
        *xis, xlast = [xi for _, _, xi in block_differences(b)]
        legs = [xlast * g + xi for g, xi in zip(g_polys(n), xis + [Poly.zero()])]
        pts = vanishing_locus_sampler(b, samples, seed)
        ok = all(eval_at_point(expanded, pt, b) == 0
                 for expanded in (expand_to_x(leg, b) for leg in legs) for pt in pts)
        out.append(_record(f"g congruence n={n} ({samples} samples, i<=n+1)", ok,
                           {"n": n, "samples": samples}))
        ok = build_W(b).reduces_to_zero(legs[n])
        out.append(_record(f"g congruence n={n}, i=n+1 exact", ok, {"n": n}))
    return out


def maurer_cartan(max_n: int = 3, cap: int = 2) -> list[dict]:
    """Criterion 8a: every projector variant on every lambda with |lambda| <=
    max_n, and every C_n variant for n = 1, 2, is built with its own checks
    (Maurer-Cartan once, and the a-family identity for the infinite
    variants); a build that raises is recorded as a failure."""
    out = []
    for N in range(1, max_n + 1):
        for parts in compositions(N):
            for variant in PROJECTOR_VARIANTS:
                proj = _built(lambda: projector(Composition(parts), variant, cap=cap))
                out.append(_record(f"mc {variant} lambda={parts}", proj is not None,
                                   {"lambda": list(parts), "cap": cap}))
    for n in (1, 2):
        for variant in CN_VARIANTS:
            cx = _built(lambda: cn_family(n, variant, cap=cap))
            out.append(_record(f"mc C_{n}^{variant}", cx is not None, {"n": n}))
    return out


def random_zero_curvature_complex(rng: random.Random):
    """A small random complex over Q[x] with d^2 = 0 and at least one unit
    entry, built as a twist of a direct sum of two-term pieces."""
    ring = GradedRing(RingSpec("Qx", [(x_gen(1), 2)], []))
    objects = []
    d0: dict = {}
    # two independent two-term pieces, entries in {0, 1, x}
    for piece in range(2):
        t0 = rng.choice([0, 1])
        q0 = rng.choice([-2, 0, 2])
        entry = rng.choice(["one", "x", "zero"])
        qq = q0 - (2 if entry == "x" else 0)
        objects.append(RC_Object(MultiDegree(0, q0, t0), ring))
        objects.append(RC_Object(MultiDegree(0, qq, t0 + 1), ring))
        if entry != "zero":
            p = Poly.one() if entry == "one" else Poly.gen(x_gen(1))
            d0[(2 * piece + 1, 2 * piece)] = Entry.plain(p)
    cx = CurvedComplex(objects, ParamSpec.make([]), {PM_ONE: d0} if d0 else {})
    cx.check_homogeneous()
    return cx


def gauss(max_n: int = 50, seed: int = 0) -> list[dict]:
    """Criterion 8b, on max_n seeded random complexes with a unit entry:
    eliminating it keeps the homology on a fixed window, and the emitted
    strong deformation retraction passes its checks.  Finding fewer such
    complexes in 10 * max_n draws is a failure."""
    rng = random.Random(seed)
    window = Window((0, 0), (-8, 8), (-2, 4))
    out = []
    draws = 0
    while len(out) < max_n and draws < 10 * max_n:
        draws += 1
        cx = random_zero_curvature_complex(rng)
        units = [
            ij for ij, e in cx.terms.get(PM_ONE, {}).items()
            if e.is_plain() and e.plain_part().constant_value() not in (None, 0)
        ]
        if not units:
            continue
        # the record is the check: a bad SDR is a "fail", not a raise
        red, sdr = gaussian_eliminate(cx, units[0])
        before, after = homology_truncated(cx, window), homology_truncated(red, window)
        ok = bool(sdr.verify()) and before.equal_on(after, window)
        out.append(_record(f"gauss homology preserved #{len(out) + 1}", ok))
    if len(out) < max_n:
        out.append(_record(f"gauss: {len(out)} of {max_n} complexes had a unit entry",
                           False, {"draws": draws}))
    return out


def ladder(n: int = 3, cap: int = 2) -> list[dict]:
    """Criterion 9: for m <= n, the thin-recursion basis change and the
    collapse of every C_m variant to two terms under cone-iota elimination;
    for m <= min(n, 3), the ladder collapse passes its checks.  The ladder
    collapse stops at 3: its cost grows about fivefold per step, from under
    0.01 s at m = 1 to about 1 s at m = 7 (2-core container), while the four
    cone-iota collapses of one m take under 0.1 s for every m <= 7."""
    out = [_record(f"ladder basis change n={m}", basis_change_check(m, cap=cap).ok, {"n": m})
           for m in range(1, n + 1)]
    for m in range(1, n + 1):
        for variant in CN_VARIANTS:
            red = _built(lambda: cone_iota_eliminate(m, variant, cap=cap))
            ok = red is not None and len(red.objects) == 2
            out.append(_record(f"cone-iota collapse C_{m}^{variant}", ok, {"n": m}))
        if m <= 3:
            ok = _built(lambda: ladder_collapse(m, cap=cap)) is not None
            out.append(_record(f"ladder collapse n={m}", ok, {"n": m}))
    return out


def trace_pair(top: tuple, bottom: tuple, window: Window) -> dict:
    """Criterion 10 for one pair: hh(W_a^b W_b^a) equals hh(W_b^a W_a^b) on
    the window, for a = top and b = bottom."""
    a, b = Composition(top), Composition(bottom)
    rep = trace_check(build_W(a, b), build_W(b, a), window)
    return _record(f"trace {top} <-> {bottom}, q {window.q[0]}..{window.q[1]}", rep["ok"],
                   {"a": list(top), "b": list(bottom), "window": window.to_json()})


def trace(max_n: int = 3, seed: int = 0) -> list[dict]:
    """Criterion 10: the trace property on every merge/split pair a <-> (N)
    for 2 <= N <= max_n, and on each ordered pair of compositions of 2 once,
    in seeded order on a seeded window; the blamgon ranks for every lambda
    with |lambda| <= max_n."""
    window = Window((0, max_n), (-8, 12), (0, 0))
    out = [trace_pair(parts, (N,), window)
           for N in range(2, max_n + 1) for parts in compositions(N) if parts != (N,)]
    rng = random.Random(seed)
    pairs = [(a, b) for a in compositions(2) for b in compositions(2)]
    rng.shuffle(pairs)
    for a, b in pairs:
        out.append(trace_pair(a, b, Window((0, 2), (rng.randint(-8, -4), rng.randint(6, 10)), (0, 0))))
    for N in range(1, max_n + 1):
        for parts in compositions(N):
            ok = graded_rank_check(Composition(parts), 12)
            out.append(_record(f"blamgon rank lambda={parts}", ok, {"lambda": list(parts)}))
    return out
