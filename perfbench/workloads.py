"""The three workloads: each is a fixed list of exact computations.

``build(workload, seed)`` is the set-up step.  It builds the bimodules the
workload names and the seeded random inputs, and returns the case list.
Each case runs one computation and returns its checks as
``[(check name, passed), ...]``; the checks are the ones the acceptance
tests make.  The seed chooses only the random inputs (trace pairs on
``ranks``, zero-curvature complexes on ``complexes``); every other case is
the same for every seed.

fraylab functions are always reached through their module (``ssbim.build_W``,
not an imported name), so the tracer's patched bindings are the ones called.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from fraylab import hochschild, homalg, qseries, ssbim, symfun
from fraylab.grading import MultiDegree

Checks = list[tuple[str, bool]]

VARIANTS = ("finite", "def_finite", "infinite", "def_infinite")

# Known disagreement with the paper's tables (ROADMAP, open item 0): the
# engine's finite k=2 series differs from the displayed table row at q^-3 t
# and equals the paper's own factor law instead.  The table check still runs
# and still counts as failed; this set only keeps the run "correct" while the
# failure is exactly the documented one.
KNOWN_FAILURES = frozenset({"finite_k2.table"})

# Case groups per workload, in run order.  Each group reports its seconds
# as ``case.<group>.s`` in the traced run.
GROUPS = {
    "unknot": (
        "unknot_k1", "intrinsic_k2", "intrinsic_k3", "finite_k2",
        "def_finite_k2", "infinite_k2", "def_infinite_k2", "fray_111",
        "yfray_111",
    ),
    "ranks": ("trace_pairs", "trace_random", "rank"),
    "complexes": ("mc", "cone_iota", "ladder", "basis_change", "gauss"),
}


@dataclass
class Case:
    name: str
    group: str
    run: Callable[[], Checks]


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def compositions_upto(total: int) -> list[symfun.Composition]:
    return [symfun.Composition(p) for n in range(1, total + 1) for p in _compositions(n)]


def _label(parts: tuple[int, ...]) -> str:
    return "".join(map(str, parts))


# ---------------------------------------------------------------------------
# unknot: the paper's headline series against the table rows


def _unknot_case(variant: str, k: int) -> Callable[[], Checks]:
    def run() -> Checks:
        rep, computed, _ = hochschild.unknot_invariant(variant, k, cap=3)
        if variant in ("infinite", "def_infinite") and k == 1:
            checks = [("table", rep["match"] and rep["monomial_defect"] is None)]
        else:
            checks = [("table", rep["match"])]
        if variant == "finite" and k == 2:
            # the paper's factor law [2]! (1 + t q^-2)^2 x intrinsic
            law = qseries.unknot_table("def_finite", k)
            for _ in range(k):
                law.numerator.append({(0, 0, 0): Fraction(1), (0, -2, 1): Fraction(1)})
            w = computed.window
            checks.append(("factor_law", computed.equal_on(law.expand(w), w)))
        return checks

    return run


def _natural_factor_case(lam: symfun.Composition, variant: str, t_hi: int) -> Callable[[], Checks]:
    """hh(projector) against f_{n,lam} x (t-factors) x hh(1_(n)) in the
    natural Tor orientation, on the windows of the n = 3 factor-law tests."""
    t_factors = []
    if variant == "finite":
        t_factors = [(0, -2 * k, 1) for size in lam.parts for k in range(1, size + 1)]

    def run() -> Checks:
        n = lam.total
        q_hi = 4 if n >= 3 else 2 * n + 6
        w = qseries.Window((0, n), (0, q_hi), (0, t_hi))
        slack = 2 * n + 2 * t_hi + 4
        big = qseries.Window((0, n), (-slack, q_hi + slack), (0, t_hi))
        proj = ssbim.projector(lam, variant, cap=3)
        got = hochschild.hh_complex(proj.complex, lam, w, orientation="natural").series
        base = hochschild.hh_bimodule(
            ssbim.build_identity(symfun.Composition.of(n)), big, orientation="natural"
        ).series
        factor = qseries.TriSeries(
            big, {(0, d, 0): c for d, c in qseries.f_factor(n, lam).c.items()}
        )
        for mono in t_factors:
            factor = factor * qseries.TriSeries(big, {(0, 0, 0): Fraction(1), mono: Fraction(1)})
        expected = (base * factor).restrict(w)
        return [("factor_law", got.equal_on(expected, w))]

    return run


def _build_unknot(rng: random.Random) -> list[Case]:
    for k in (1, 2, 3):
        ssbim.build_identity(symfun.Composition.of(k))
    cases = [Case("intrinsic_k1", "unknot_k1", _unknot_case("intrinsic", 1))]
    cases += [Case(f"{v}_k1", "unknot_k1", _unknot_case(v, 1)) for v in VARIANTS]
    cases += [Case(f"intrinsic_k{k}", f"intrinsic_k{k}", _unknot_case("intrinsic", k)) for k in (2, 3)]
    cases += [Case(f"{v}_k2", f"{v}_k2", _unknot_case(v, 2)) for v in VARIANTS]
    thin3 = symfun.Composition.thin(3)
    cases.append(Case("fray_111", "fray_111", _natural_factor_case(thin3, "finite", t_hi=3)))
    cases.append(Case("yfray_111", "yfray_111", _natural_factor_case(thin3, "def_finite", t_hi=2)))
    return cases


# ---------------------------------------------------------------------------
# ranks: criterion 10, trace property and graded ranks


def _trace_case(m1, m2, window) -> Callable[[], Checks]:
    def run() -> Checks:
        return [("trace", hochschild.trace_check(m1, m2, window)["ok"])]

    return run


def _rank_case(lam: symfun.Composition) -> Callable[[], Checks]:
    def run() -> Checks:
        return [("rank", ssbim.graded_rank_check(lam, 12))]

    return run


def _build_ranks(rng: random.Random) -> list[Case]:
    cases = []
    window = qseries.Window((0, 3), (-6, 10), (0, 0))
    for N in (2, 3):
        full = symfun.Composition.of(N)
        for a in compositions_upto(N):
            if a.total != N or a == full:
                continue
            pair = (ssbim.build_W(a, full), ssbim.build_W(full, a))
            cases.append(Case(f"trace_{_label(a.parts)}_{N}", "trace_pairs", _trace_case(*pair, window)))
    # every ordered N = 2 pair once, in seeded order, each on a seeded window
    small = [symfun.Composition.of(1, 1), symfun.Composition.of(2)]
    pairs = [(a, b) for a in small for b in small]
    rng.shuffle(pairs)
    for a, b in pairs:
        w = qseries.Window((0, 2), (rng.randint(-8, -4), rng.randint(6, 10)), (0, 0))
        pair = (ssbim.build_W(a, b), ssbim.build_W(b, a))
        name = f"trace_random_{_label(a.parts)}_{_label(b.parts)}"
        cases.append(Case(name, "trace_random", _trace_case(*pair, w)))
    for lam in compositions_upto(4):
        ssbim.build_W(lam)
        ssbim.build_identity(lam)
        cases.append(Case(f"rank_{_label(lam.parts)}", "rank", _rank_case(lam)))
    return cases


# ---------------------------------------------------------------------------
# complexes: criteria 8-9, curved-complex algebra over many small rings


def _mc_case(lam: symfun.Composition, variant: str) -> Callable[[], Checks]:
    def run() -> Checks:
        proj = ssbim.projector(lam, variant, cap=2, check=True)
        return [("mc", proj.complex.mc_check().ok)]

    return run


def _cone_case(n: int, variant: str) -> Callable[[], Checks]:
    def run() -> Checks:
        red = ssbim.cone_iota_eliminate(n, variant, cap=2)
        return [("two_terms", len(red.objects) == 2)]

    return run


def _ladder_case(n: int) -> Callable[[], Checks]:
    def run() -> Checks:
        ssbim.ladder_collapse(n, cap=2)
        return [("collapses", True)]

    return run


def _basis_change_case(n: int) -> Callable[[], Checks]:
    def run() -> Checks:
        return [("basis_change", bool(ssbim.basis_change_check(n, cap=2).ok))]

    return run


GAUSS_WINDOW = qseries.Window((0, 0), (-8, 8), (-2, 4))


def random_two_term_sum(rng: random.Random):
    """A random complex over Q[x] with d^2 = 0: a direct sum of two or three
    two-term pieces obj0 -> obj1 with entry 1, x, x^2 or 0.  Returns the
    complex and the pieces that define it."""
    x = symfun.x_gen(1)
    ring = homalg.GradedRing(homalg.RingSpec("Qx", [(x, 2)], []))
    pieces = tuple(
        (rng.choice([0, 1]), rng.choice([-4, -2, 0, 2, 4]), rng.choice([0, 1, 2, None]))
        for _ in range(rng.choice([2, 3]))
    )
    objects, d0 = [], {}
    for i, (t0, q0, power) in enumerate(pieces):
        objects.append(homalg.RC_Object(MultiDegree(0, q0, t0), ring))
        objects.append(homalg.RC_Object(MultiDegree(0, q0 - 2 * (power or 0), t0 + 1), ring))
        if power is not None:
            d0[(2 * i + 1, 2 * i)] = homalg.Entry.plain(symfun.Poly.gen(x, power) if power else symfun.Poly.one())
    cx = homalg.CurvedComplex(objects, homalg.ParamSpec.make([]), {homalg.PM_ONE: d0} if d0 else {})
    cx.check_homogeneous()
    return cx, pieces


def _unit_entries(cx) -> list[tuple[int, int]]:
    return [
        ij for ij, e in cx.terms.get(homalg.PM_ONE, {}).items()
        if e.is_plain() and e.plain_part().constant_value() not in (None, 0)
    ]


def _gauss_case(cx, unit) -> Callable[[], Checks]:
    def run() -> Checks:
        before = homalg.homology_truncated(cx, GAUSS_WINDOW)
        red, sdr = homalg.gaussian_eliminate(cx, unit)
        after = homalg.homology_truncated(red, GAUSS_WINDOW)
        return [("sdr", bool(sdr.verify())), ("homology", before.equal_on(after, GAUSS_WINDOW))]

    return run


def _build_complexes(rng: random.Random) -> list[Case]:
    cases = []
    for lam in compositions_upto(4):
        for v in VARIANTS:
            cases.append(Case(f"mc_{v}_{_label(lam.parts)}", "mc", _mc_case(lam, v)))
    for n in range(1, 5):
        for v in ("plain", "y", "u", "yu"):
            cases.append(Case(f"cone_iota_{v}_{n}", "cone_iota", _cone_case(n, v)))
    cases += [Case(f"ladder_{n}", "ladder", _ladder_case(n)) for n in range(1, 4)]
    cases += [Case(f"basis_change_{n}", "basis_change", _basis_change_case(n)) for n in range(1, 8)]
    # 50 distinct random complexes that have a unit entry to eliminate
    seen = set()
    while len(seen) < 50:
        cx, pieces = random_two_term_sum(rng)
        units = _unit_entries(cx)
        if not units or pieces in seen:
            continue
        seen.add(pieces)
        cases.append(Case(f"gauss_{len(seen)}", "gauss", _gauss_case(cx, units[0])))
    return cases


_CASE_LISTS = {"unknot": _build_unknot, "ranks": _build_ranks, "complexes": _build_complexes}


def build(workload: str, seed: int) -> list[Case]:
    """Set-up: build the workload's inputs and return its cases in run order."""
    cases = _CASE_LISTS[workload](random.Random(seed))
    names = [c.name for c in cases]
    if len(set(names)) != len(names):
        raise ValueError(f"workload {workload} repeats a case")
    return cases


def run_case(case: Case) -> Checks:
    """Run one case; a case that raises counts as one failed check."""
    try:
        checks = case.run()
    except Exception as exc:  # a failing case must not stop the workload
        traceback.print_exc()
        return [(f"{case.name}.raised {type(exc).__name__}: {exc}", False)]
    return [(f"{case.name}.{check}", ok) for check, ok in checks]
