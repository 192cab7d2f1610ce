"""Merge-split bimodules, frayed projectors, and the two-strand recursions.

A merge-split bimodule W_a^b is presented as the quotient of the
polynomial ring on blockwise elementary symmetric generators (top side 0,
bottom side 1) by the total-alphabet differences e_i(X) - e_i(X').  The
identity bimodule 1_a instead kills every blockwise difference.  Overall
quantum shifts (the ell-bookkeeping of merges) are tracked as an explicit
qshift on the ring, never baked into generator degrees.

Frayed projectors are curved complexes on W_lambda: the Koszul twist over
the odd alphabet Theta (finite), plus theta-dual y-twists (deformed
finite), plus bulk u-twists built from an a_ijk family (infinite).

The C_n family is the three-term complex q^n W -> tq^{n-2} W -> t^2q^{-2} 1
on the (n,1)-strands with the 'unzip' arrow kept opaque; its variants add
the y/u backward twists and the ladder collapse packages the semi-infinite
u_{n+1}-ladder into tw_{tau_n} on W_{(1^{n+1})}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .grading import MultiDegree
from .homalg import (
    ChainMap,
    CheckReport,
    CurvedComplex,
    Entry,
    GradedRing,
    PM_ONE,
    PMono,
    ParamSpec,
    RC_Object,
    RingSpec,
    Terms,
    cone,
    gaussian_eliminate,
)
from .qseries import Laurent, f_factor, quantum_binomial
from .symfun import (
    BOTTOM,
    Composition,
    Poly,
    TOP,
    a_family,
    a_thin_recursive,
    e_gen,
    elementary_of_total,
    expand_to_x,
    g_polys,
    vanishing_locus_sampler,
    x_gen,
)


# ---------------------------------------------------------------------------
# presented bimodules


@dataclass
class MergeSplitBimodule:
    top: Composition
    bottom: Composition
    ring: GradedRing

    @property
    def qshift(self) -> int:
        return self.ring.qshift


def _ring_generators(top: Composition, bottom: Composition):
    gens = []
    for j, size in enumerate(top.parts, start=1):
        for k in range(1, size + 1):
            gens.append((e_gen(j, k, TOP), 2 * k))
    for j, size in enumerate(bottom.parts, start=1):
        for k in range(1, size + 1):
            gens.append((e_gen(j, k, BOTTOM), 2 * k))
    return gens


_BIMODULE_CACHE: dict[tuple, MergeSplitBimodule] = {}


def build_W(top: Composition, bottom: Composition | None = None) -> MergeSplitBimodule:
    """W_a^b: relations are the total-alphabet elementary differences.
    qshift = ell((N)) - ell(bottom), the shift of the merge to the full
    symmetric ring."""
    if bottom is None:
        bottom = top
    if top.total != bottom.total:
        raise ValueError("top and bottom compositions must share a total")
    key = ("W", top.parts, bottom.parts)
    if key in _BIMODULE_CACHE:
        return _BIMODULE_CACHE[key]
    N = top.total
    relations = [
        elementary_of_total(i, top, TOP) - elementary_of_total(i, bottom, BOTTOM)
        for i in range(1, N + 1)
    ]
    qshift = N * (N - 1) // 2 - bottom.ell()

    mixed = top.concat(bottom)

    def sampler(count, seed):
        pts = vanishing_locus_sampler(top, count, seed)
        out = []
        for pt in pts:
            full = {}
            for i in range(1, N + 1):
                full[x_gen(i, TOP)] = pt[x_gen(i, TOP)]
                full[x_gen(N + i, TOP)] = pt[x_gen(i, BOTTOM)]
            out.append(full)
        return out

    spec = RingSpec(
        name=f"W[{'.'.join(map(str, top.parts))}^{'.'.join(map(str, bottom.parts))}]",
        generators=_ring_generators(top, bottom),
        relations=relations,
        qshift=qshift,
        sampler=sampler,
        eval_composition=mixed,
    )
    # relation polys use side-1 gens for the bottom; rewrite them to the
    # concatenated-alphabet convention used by the sampler
    spec.relations = [_reside(r, len(top)) for r in spec.relations]
    spec.generators = [(_reside_gen(g, len(top)), d) for g, d in spec.generators]
    out = MergeSplitBimodule(top, bottom, GradedRing(spec))
    _BIMODULE_CACHE[key] = out
    return out


def _reside_gen(g: tuple, top_blocks: int) -> tuple:
    """Move side-1 (bottom) block j to side-0 block top_blocks + j so that a
    single concatenated composition drives raw expansion and sampling."""
    if g[0] == "e" and g[1] == BOTTOM:
        return ("e", TOP, g[2] + top_blocks, g[3])
    return g


def _reside(p: Poly, top_blocks: int) -> Poly:
    table = {}
    for g in p.gens():
        ng = _reside_gen(g, top_blocks)
        if ng != g:
            table[g] = Poly.gen(ng)
    return p.substitute(table) if table else p


def build_identity(a: Composition) -> MergeSplitBimodule:
    """The identity bimodule 1_a: blockwise differences are killed."""
    key = ("1", a.parts)
    if key in _BIMODULE_CACHE:
        return _BIMODULE_CACHE[key]
    relations = []
    for j, size in enumerate(a.parts, start=1):
        for k in range(1, size + 1):
            relations.append(
                Poly.gen(e_gen(j, k, TOP)) - Poly.gen(e_gen(j, k, BOTTOM))
            )
    mixed = a.concat(a)

    def sampler(count, seed):
        pts = vanishing_locus_sampler(a, count, seed, block_preserving=True)
        out = []
        N = a.total
        for pt in pts:
            full = {}
            for i in range(1, N + 1):
                full[x_gen(i, TOP)] = pt[x_gen(i, TOP)]
                full[x_gen(N + i, TOP)] = pt[x_gen(i, BOTTOM)]
            out.append(full)
        return out

    spec = RingSpec(
        name=f"1[{'.'.join(map(str, a.parts))}]",
        generators=_ring_generators(a, a),
        relations=relations,
        qshift=0,
        sampler=sampler,
        eval_composition=mixed,
    )
    spec.relations = [_reside(r, len(a)) for r in spec.relations]
    spec.generators = [(_reside_gen(g, len(a)), d) for g, d in spec.generators]
    out = MergeSplitBimodule(a, a, GradedRing(spec))
    _BIMODULE_CACHE[key] = out
    return out


def bimodule_poly(p: Poly, top_blocks: int) -> Poly:
    """Rewrite a Poly in (side 0 / side 1) block coordinates to the
    concatenated convention of build_W / build_identity rings."""
    return _reside(p, top_blocks)


# graded-dimension checks ----------------------------------------------------


def digon_rank(j: int, k: int) -> Laurent:
    return quantum_binomial(j + k, k)


def blamgon_rank(lam: Composition) -> Laurent:
    return f_factor(lam.total, lam)


def graded_rank_check(lam: Composition, qmax: int) -> bool:
    """dim_q W_lambda * q^{-qshift} == blamgon_rank * dim_q 1_lambda on
    [0..qmax] (both sides as honest q-series)."""
    W = build_W(lam)
    ident = build_identity(lam)
    lhs = {}
    for d in range(0, qmax + 1):
        lhs[d - W.qshift] = W.ring.dim(d)
    rhs_series = {d: ident.ring.dim(d) for d in range(0, qmax + 1)}
    rank = blamgon_rank(lam)
    rhs = {}
    for k, c in rank.c.items():
        for d, v in rhs_series.items():
            rhs[k + d] = rhs.get(k + d, 0) + int(c) * v
    top = qmax - W.qshift - max((abs(k) for k in rank.c), default=0)
    for d in range(-abs(W.qshift) - 4, top + 1):
        if lhs.get(d, 0) != rhs.get(d, 0):
            return False
    return True


# ---------------------------------------------------------------------------
# frayed projectors


@dataclass
class FrayedProjector:
    lam: Composition
    variant: str
    complex: CurvedComplex
    cap: Optional[int]

    def to_json(self):
        out = self.complex.to_json()
        out.update(
            {
                "lambda": list(self.lam.parts),
                "variant": self.variant,
                "cap": self.cap,
                "qshift": self.complex.objects[0].ring.qshift,
            }
        )
        return out


def _theta_params(lam: Composition) -> list[tuple[str, MultiDegree, str]]:
    out = []
    for j, size in enumerate(lam.parts, start=1):
        for k in range(1, size + 1):
            out.append((f"th{j}_{k}", MultiDegree(0, -2 * k, 1), "odd"))
    return out


def _y_params(lam: Composition) -> list[tuple[str, MultiDegree, str]]:
    out = []
    for j, size in enumerate(lam.parts, start=1):
        for k in range(1, size + 1):
            out.append((f"y{j}_{k}", MultiDegree(0, -2 * k, 2), "even"))
    return out


def _u_params(n: int) -> list[tuple[str, MultiDegree, str]]:
    return [(f"u{i}", MultiDegree(0, -2 * i, 2), "even") for i in range(1, n + 1)]


def _block_diffs(lam: Composition) -> list[tuple[int, int, Poly]]:
    """(j, k, e_k(X_j) - e_k(X'_j)) in the concatenated coordinates."""
    m = len(lam)
    out = []
    for j, size in enumerate(lam.parts, start=1):
        for k in range(1, size + 1):
            diff = Poly.gen(e_gen(j, k, TOP)) - Poly.gen(e_gen(j + m, k, TOP))
            out.append((j, k, diff))
    return out


def finite_projector(lam: Composition, check: bool = True) -> FrayedProjector:
    """Koszul twist sum (e_k(X_j) - e_k(X'_j)) (x) theta_jk on W_lambda."""
    W = build_W(lam)
    params = ParamSpec.make(_theta_params(lam))
    obj = RC_Object(MultiDegree(0, 0, 0), W.ring, "W")
    cx = CurvedComplex([obj], params)
    alpha: Terms = {}
    for j, k, diff in _block_diffs(lam):
        alpha[PMono((), (f"th{j}_{k}",), ())] = {(0, 0): Entry.plain(diff)}
    cx = cx.twist(alpha, {}, check=check)
    return FrayedProjector(lam, "finite", cx, None)


def deformed_finite_projector(lam: Composition, cap: int = 3, check: bool = True) -> FrayedProjector:
    """Finite projector twisted by delta = sum theta-dual_jk y_jk; curvature
    F_y = sum (e_k(X_j) - e_k(X'_j)) (x) y_jk."""
    base = finite_projector(lam, check=check)
    params = base.complex.params.merge(ParamSpec.make(_y_params(lam)))
    cx = base.complex.with_params(params, cap=cap)
    delta: Terms = {}
    curv: dict[PMono, Poly] = {}
    for j, k, diff in _block_diffs(lam):
        mono = PMono(((f"y{j}_{k}", 1),), (), (f"th{j}_{k}",))
        delta[mono] = {(0, 0): Entry.plain(Poly.one())}
        curv[PMono(((f"y{j}_{k}", 1),), (), ())] = diff
    cx = cx.twist(delta, curv, check=check)
    return FrayedProjector(lam, "def_finite", cx, cap)


def _a_coefficients(lam: Composition) -> dict[tuple[int, int, int], Poly]:
    """a_ijk in concatenated coordinates; the thin recursion for (1^n),
    the telescoping family otherwise (any valid family is acceptable)."""
    n = lam.total
    m = len(lam)
    if all(p == 1 for p in lam.parts):
        thin = a_thin_recursive(n)
        out = {}
        for (i, j), p in thin.items():
            table = {}
            for g in p.gens():
                if g[0] == "x":
                    _, side, idx = g
                    blk = idx if side == TOP else idx + m
                    table[g] = Poly.gen(e_gen(blk, 1, TOP))
            out[(i, j, 1)] = p.substitute(table)
        return out
    fam = a_family(lam)
    return {ijk: bimodule_poly(p, m) for ijk, p in fam.items()}


def infinite_projector(
    lam: Composition, cap: int = 3, check: bool = True, family: str = "auto"
) -> FrayedProjector:
    """Finite projector twisted by -gamma, gamma = sum_i eta_i (x) u_i with
    eta_i = sum_{jk} a_ijk (x) theta-dual_jk; declared curvature -F_u."""
    base = finite_projector(lam, check=check)
    n = lam.total
    params = base.complex.params.merge(ParamSpec.make(_u_params(n)))
    cx = base.complex.with_params(params, cap=cap)
    if family == "telescope":
        fam = {ijk: bimodule_poly(p, len(lam)) for ijk, p in a_family(lam).items()}
    else:
        fam = _a_coefficients(lam)
    gamma: Terms = {}
    curv: dict[PMono, Poly] = {}
    for i in range(1, n + 1):
        for j, size in enumerate(lam.parts, start=1):
            for k in range(1, size + 1):
                a_ijk = fam.get((i, j, k), Poly.zero())
                if a_ijk.is_zero():
                    continue
                mono = PMono(((f"u{i}", 1),), (), (f"th{j}_{k}",))
                prev = gamma.get(mono, {}).get((0, 0))
                entry = Entry.plain(-1 * a_ijk)
                gamma.setdefault(mono, {})[(0, 0)] = (
                    entry if prev is None else prev + entry
                )
        top = elementary_of_total(i, lam, TOP)
        bot = bimodule_poly(elementary_of_total(i, lam, BOTTOM), len(lam))
        curv[PMono(((f"u{i}", 1),), (), ())] = -1 * (top - bot)
    cx = cx.twist(gamma, curv, check=check)
    return FrayedProjector(lam, "infinite", cx, cap)


def deformed_infinite_projector(
    lam: Composition, cap: int = 3, check: bool = True
) -> FrayedProjector:
    """Twist by delta - gamma; curvature F_y - F_u."""
    base = infinite_projector(lam, cap=cap, check=check)
    params = base.complex.params.merge(ParamSpec.make(_y_params(lam)))
    cx = base.complex.with_params(params, cap=cap)
    delta: Terms = {}
    curv: dict[PMono, Poly] = {}
    for j, k, diff in _block_diffs(lam):
        mono = PMono(((f"y{j}_{k}", 1),), (), (f"th{j}_{k}",))
        delta[mono] = {(0, 0): Entry.plain(Poly.one())}
        curv[PMono(((f"y{j}_{k}", 1),), (), ())] = diff
    cx = cx.twist(delta, curv, check=check)
    return FrayedProjector(lam, "def_infinite", cx, cap)


def projector(lam: Composition, variant: str, cap: int = 3, check: bool = True) -> FrayedProjector:
    if variant == "finite":
        return finite_projector(lam, check=check)
    if variant == "def_finite":
        return deformed_finite_projector(lam, cap=cap, check=check)
    if variant == "infinite":
        return infinite_projector(lam, cap=cap, check=check)
    if variant == "def_infinite":
        return deformed_infinite_projector(lam, cap=cap, check=check)
    raise ValueError(f"unknown projector variant {variant!r}")


# ---------------------------------------------------------------------------
# the C_n family on (n, 1)-strands


UNZIP_RULES = {("unit", "unzip"): None}


def _cn_rings(n: int):
    a = Composition.of(n, 1)
    W = build_W(a)
    ident = build_identity(a)
    return a, W, ident


def _xdiff(n: int) -> Poly:
    """x_{n+1} - x'_{n+1} in the concatenated (n,1,n,1) coordinates."""
    return Poly.gen(e_gen(2, 1, TOP)) - Poly.gen(e_gen(4, 1, TOP))


def _g_concat(n: int) -> list[Poly]:
    """g_1..g_{n+1} rewritten to concatenated coordinates: block 1 = X_n,
    block 2 = x_{n+1}, block 3 = X'_n, block 4 = x'_{n+1}."""
    out = []
    for g in g_polys(n):
        out.append(bimodule_poly(g, 2))
    return out


def cn_family(n: int, variant: str = "plain", cap: int = 3, check: bool = True) -> CurvedComplex:
    """The three-term complex q^n W -> tq^{n-2} W -> t^2 q^{-2} 1 with the
    variant backward twists:

        plain: none            y: + y_{n+1} backward
        u: - sum g_i u_i       yu: both.

    The unzip arrow is an opaque symbol of forced internal degree q^n; the
    Maurer-Cartan check reduces every component, with unzip-tagged scalars
    vanishing in the identity bimodule's quotient.
    """
    if n < 1:
        raise ValueError("C_n needs n >= 1")
    a, W, ident = _cn_rings(n)
    objects = [
        RC_Object(MultiDegree(0, n, 0), W.ring, "qnW", offset=0),
        RC_Object(MultiDegree(0, n - 2, 1), W.ring, "tqn2W", offset=0),
        RC_Object(MultiDegree(0, -2, 2), ident.ring, "t2q21"),
    ]
    entries: list[tuple[str, MultiDegree, str]] = []
    if variant in ("y", "yu"):
        entries.append((f"y{n + 1}", MultiDegree(0, -2, 2), "even"))
    if variant in ("u", "yu"):
        entries.extend(_u_params(n))
    params = ParamSpec.make(entries)

    terms: Terms = {
        PM_ONE: {
            (1, 0): Entry.plain(_xdiff(n)),
            (2, 1): Entry.opaque("unzip"),
        }
    }
    curv: dict[PMono, Poly] = {}
    gs = _g_concat(n)
    if variant in ("y", "yu"):
        mono = PMono(((f"y{n + 1}", 1),), (), ())
        terms.setdefault(mono, {})[(0, 1)] = Entry.plain(Poly.one())
        curv[mono] = _xdiff(n)
    if variant in ("u", "yu"):
        for i in range(1, n + 1):
            mono = PMono(((f"u{i}", 1),), (), ())
            terms.setdefault(mono, {})[(0, 1)] = Entry.plain(-1 * gs[i - 1])
            diff = Poly.gen(e_gen(1, i, TOP)) - Poly.gen(e_gen(3, i, TOP))
            curv[mono] = curv.get(mono, Poly.zero()) + diff

    cx = CurvedComplex(
        objects,
        params,
        terms,
        curv,
        cap=cap,
        opaque_rules=UNZIP_RULES,
        opaque_degrees={"unzip": MultiDegree(0, n, 0), "unit": MultiDegree(0, -n, 0)},
    )
    cx.check_homogeneous()
    if check:
        rep = cx.mc_check()
        if not rep:
            raise ValueError(f"C_{n}^{variant} fails Maurer-Cartan: {rep.details}")
    return cx


def cone_iota_eliminate(n: int, variant: str = "plain", cap: int = 3) -> CurvedComplex:
    """Cone of the inclusion of the last term of C_n^variant, Gaussian
    elimination of the identity rung, and comparison with the displayed
    two-term complex q^n W <-> tq^{n-2} W."""
    cx = cn_family(n, variant, cap=cap)
    ident_obj = cx.objects[2]
    source = CurvedComplex(
        [RC_Object(ident_obj.degree, ident_obj.ring, "src", ident_obj.offset)],
        cx.params,
        {},
        dict(cx.curvature),
        cap=cx.cap,
        opaque_rules=cx.opaque_rules,
        opaque_degrees=cx.opaque_degrees,
    )
    iota = ChainMap(source, cx, {PM_ONE: {(2, 0): Entry.plain(Poly.one())}})
    total = cone(iota)
    reduced, sdr = gaussian_eliminate(total, (3, 0))
    rep = sdr.verify()
    if not rep:
        raise ValueError(f"cone-iota SDR fails: {rep.details}")
    bad = _terms_mismatch(reduced, _expected_two_term(n, variant, cap, cx))
    if bad:
        raise AssertionError(f"two-term complex after elimination: {bad}")
    return reduced


def _expected_two_term(n, variant, cap, model: CurvedComplex) -> CurvedComplex:
    a, W, ident = _cn_rings(n)
    objects = [
        RC_Object(MultiDegree(0, n, 0), W.ring, "qnW"),
        RC_Object(MultiDegree(0, n - 2, 1), W.ring, "tqn2W"),
    ]
    terms: Terms = {PM_ONE: {(1, 0): Entry.plain(_xdiff(n))}}
    gs = _g_concat(n)
    if variant in ("y", "yu"):
        mono = PMono(((f"y{n + 1}", 1),), (), ())
        terms.setdefault(mono, {})[(0, 1)] = Entry.plain(Poly.one())
    if variant in ("u", "yu"):
        for i in range(1, n + 1):
            mono = PMono(((f"u{i}", 1),), (), ())
            terms.setdefault(mono, {})[(0, 1)] = Entry.plain(-1 * gs[i - 1])
    return CurvedComplex(
        objects, model.params, terms, dict(model.curvature), cap,
        model.opaque_rules, model.opaque_degrees,
    )


def _terms_mismatch(got: CurvedComplex, want: CurvedComplex) -> Optional[str]:
    """The first (monomial, cell) where the two connections differ modulo
    the target ring's relations, described; None if they agree.  Any opaque
    residue is a mismatch, and no sample points are asked."""
    if len(got.objects) != len(want.objects):
        return "object count mismatch"
    for mono in sorted(set(got.terms) | set(want.terms), key=repr):
        g, w = got.terms.get(mono, {}), want.terms.get(mono, {})
        for ij in sorted(set(g) | set(w)):
            diff = g.get(ij, Entry()) + (-w.get(ij, Entry()))
            if not diff.is_plain():
                return f"unexpected opaque residue at {mono}, {ij}"
            if not got.objects[ij[0]].ring.reduces_to_zero(diff.plain_part()):
                return f"mismatch at {mono}, {ij}: {diff!r}"
    return None


# ---------------------------------------------------------------------------
# ladder collapse and the thin recursion's change of basis


def ladder_collapse(n: int, cap: int = 2, check: bool = True):
    """Build Cone(Phi), Phi = iota (x) 1 + psi (x) u_{n+1}, eliminate the
    identity rung, verify the two-term answer with backward
    -sum_{i<=n+1} g_i u_i, and return tw_{tau_n} on W_{(1^{n+1})}."""
    cx = cn_family(n, "u", cap=cap)
    params = cx.params.merge(
        ParamSpec.make([(f"u{n + 1}", MultiDegree(0, -2 * (n + 1), 2), "even")])
    )
    cx = cx.with_params(params, cap=cap)
    ident_obj = cx.objects[2]
    source = CurvedComplex(
        [RC_Object(ident_obj.degree, ident_obj.ring, "src", ident_obj.offset)],
        params,
        {},
        dict(cx.curvature),
        cap=cap,
        opaque_rules=cx.opaque_rules,
        opaque_degrees=cx.opaque_degrees,
    )
    gs = _g_concat(n)
    phi_terms: Terms = {
        PM_ONE: {(2, 0): Entry.plain(Poly.one())},
        PMono(((f"u{n + 1}", 1),), (), ()): {
            (0, 0): Entry.opaque("unit", gs[n])
        },
    }
    Phi = ChainMap(source, cx, phi_terms)
    total = cone(Phi)
    reduced, sdr = gaussian_eliminate(total, (3, 0))
    if check:
        rep = sdr.verify()
        if not rep:
            raise ValueError(f"ladder SDR fails: {rep.details}")
        bad = _terms_mismatch(reduced, _expected_ladder_two_term(n, cap, cx))
        if bad:
            raise AssertionError(f"two-term complex after elimination: {bad}")
    return reduced, tau_complex(n, cap=cap, check=check)


def _expected_ladder_two_term(n, cap, model) -> CurvedComplex:
    a, W, ident = _cn_rings(n)
    objects = [
        RC_Object(MultiDegree(0, n, 0), W.ring, "qnW"),
        RC_Object(MultiDegree(0, n - 2, 1), W.ring, "tqn2W"),
    ]
    terms: Terms = {PM_ONE: {(1, 0): Entry.plain(_xdiff(n))}}
    gs = _g_concat(n)
    for i in range(1, n + 2):
        mono = PMono(((f"u{i}", 1),), (), ())
        terms.setdefault(mono, {})[(0, 1)] = Entry.plain(-1 * gs[i - 1])
    return CurvedComplex(
        objects, model.params, terms, dict(model.curvature), cap,
        model.opaque_rules, model.opaque_degrees,
    )


def extended_thin_family(n: int) -> dict[tuple[int, int], Poly]:
    """The (n+1) x (n+1) coefficient family of tau_n: the thin a-family of
    size n extended by a_{i,n+1} := g_i (expanded to thin variables),
    a_{n+1,j} := 0."""
    thin = a_thin_recursive(n) if n >= 1 else {}
    gs = g_polys(n)
    out: dict[tuple[int, int], Poly] = {}
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if j == n + 1:
                out[(i, j)] = expand_to_x(gs[i - 1], Composition.of(n, 1))
            elif i == n + 1:
                out[(i, j)] = Poly.zero()
            else:
                out[(i, j)] = thin.get((i, j), Poly.zero())
    return out


def tau_complex(n: int, cap: int = 2, check: bool = True) -> CurvedComplex:
    """tw_{tau_n}(W_{(1^{n+1})} (x) Lambda[Theta_{n+1}] (x) R[U_{n+1}]):
    Koszul legs (x_j - x'_j) theta_j plus u-legs -a_{ij} theta-dual_j u_i
    over the extended thin family."""
    return _tau_like(n, extended_thin_family(n), cap, check)


def tau_next_on_same_ring(n: int, cap: int = 2, check: bool = True) -> CurvedComplex:
    """tw_{tau_{n+1}} on the same W_{(1^{n+1})}: the honest thin family of
    size n+1 (the infinite projector's twist)."""
    thin = a_thin_recursive(n + 1)
    fam = {
        (i, j): thin.get((i, j), Poly.zero())
        for i in range(1, n + 2)
        for j in range(1, n + 2)
    }
    return _tau_like(n, fam, cap, check)


def _tau_like(n: int, fam: Mapping[tuple[int, int], Poly], cap: int, check: bool) -> CurvedComplex:
    lam = Composition.thin(n + 1)
    W = build_W(lam)
    m = n + 1

    def to_ring(p: Poly) -> Poly:
        table = {}
        for g in p.gens():
            if g[0] == "x":
                _, side, idx = g
                blk = idx if side == TOP else idx + m
                table[g] = Poly.gen(e_gen(blk, 1, TOP))
        return p.substitute(table)

    entries = [(f"th{j}", MultiDegree(0, -2, 1), "odd") for j in range(1, m + 1)]
    entries += [(f"u{i}", MultiDegree(0, -2 * i, 2), "even") for i in range(1, m + 1)]
    params = ParamSpec.make(entries)
    obj = RC_Object(MultiDegree(0, 0, 0), W.ring, "W")
    terms: Terms = {}
    curv: dict[PMono, Poly] = {}
    for j in range(1, m + 1):
        diff = Poly.gen(e_gen(j, 1, TOP)) - Poly.gen(e_gen(j + m, 1, TOP))
        terms[PMono((), (f"th{j}",), ())] = {(0, 0): Entry.plain(diff)}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            a_ij = to_ring(fam.get((i, j), Poly.zero()))
            if a_ij.is_zero():
                continue
            mono = PMono(((f"u{i}", 1),), (), (f"th{j}",))
            terms[mono] = {(0, 0): Entry.plain(-1 * a_ij)}
        total_diff = elementary_of_total(i, lam, TOP) - bimodule_poly(
            elementary_of_total(i, lam, BOTTOM), m
        )
        curv[PMono(((f"u{i}", 1),), (), ())] = -1 * total_diff
    cx = CurvedComplex([obj], params, terms, curv, cap=cap)
    cx.check_homogeneous()
    if check:
        rep = cx.mc_check()
        if not rep:
            raise ValueError(f"tau complex fails Maurer-Cartan: {rep.details}")
    return cx


def basis_change_check(n: int, cap: int = 2) -> CheckReport:
    """The proof identities behind the thin recursion:

    (1) a^{(lambda,1)}_{ij} - a^lambda_{ij} = x'_{n+1} a^lambda_{i-1,j}
        for all 1 <= i, j <= n+1, with the conventions a^lambda_{i,n+1} = g_i,
        a^lambda_{n+1,j} = 0, a^lambda_{0,j} = 0;
    (2) the parameter change with matrix u_i -> sum_k (-x'_{n+1})^k u_{i+k}
        carries tau_n to tau_{n+1} entrywise within the cap, and its inverse
        u_i -> u_i + x'_{n+1} u_{i+1} round-trips.

    The change of basis acts on a twist sum_i a_i (x) u_i through the
    transpose: substituting u_i -> u_i + x' u_{i+1} into the coefficients of
    tau_n produces exactly the recursion a^{(lam,1)}_{mj} = a^lam_{mj} +
    x' a^lam_{m-1,j}, i.e. tau_{n+1}; the (-x')^k sum is the inverse.
    """
    lamfam = extended_thin_family(n)
    bad = _case_identity_failure(n, lamfam)
    if bad is not None:
        return CheckReport(False, f"case identity fails at (i,j)=({bad[0]},{bad[1]})")

    tau_n = _tau_like(n, lamfam, cap, False)
    m = n + 1
    xp_ring = Poly.gen(e_gen(2 * m, 1, TOP))  # x'_{n+1} in the W ring

    forward = {}
    for i in range(1, m + 1):
        acc = [(f"u{i}", Poly.one())]
        if i + 1 <= m:
            acc.append((f"u{i + 1}", xp_ring))
        forward[f"u{i}"] = acc
    transformed = _substitute_u_linear(tau_n, forward)
    # tau_{n+1} lives only for this comparison, not through the round trip
    bad = _terms_mismatch(transformed, tau_next_on_same_ring(n, cap=cap, check=False))
    if bad:
        return CheckReport(False, f"substitution does not carry tau_n to tau_{{n+1}}: {bad}")

    inverse = {}
    for i in range(1, m + 1):
        acc = []
        for k in range(0, m - i + 1):
            acc.append((f"u{i + k}", ((-1) ** k) * (xp_ring ** k)))
        inverse[f"u{i}"] = acc
    back = _substitute_u_linear(transformed, inverse)
    bad = _terms_mismatch(back, tau_n)
    if bad:
        return CheckReport(False, f"inverse substitution does not round-trip: {bad}")
    return CheckReport(True)


def _case_identity_failure(
    n: int, lamfam: Mapping[tuple[int, int], Poly]
) -> Optional[tuple[int, int]]:
    """The first (i, j) where identity (1) of basis_change_check fails, if
    any.  Its own frame, so a^{(lambda,1)} is freed before the complexes
    are built."""
    nextfam = a_thin_recursive(n + 1)
    xp = Poly.gen(x_gen(n + 1, BOTTOM))
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            lhs = nextfam.get((i, j), Poly.zero()) - lamfam[(i, j)]
            prev = lamfam.get((i - 1, j), Poly.zero()) if i >= 2 else Poly.zero()
            if not (lhs - xp * prev).is_zero():
                return (i, j)
    return None


def _substitute_u_linear(cx: CurvedComplex, table: Mapping[str, list]) -> CurvedComplex:
    """Apply a substitution u -> sum (coeff poly) u' to terms linear in the
    u-parameters (the tau twists are)."""
    new_terms: Terms = {}
    for mono, mat in cx.terms.items():
        u_hits = [(name, e) for name, e in mono.evens if name in table]
        if not u_hits:
            tgt = new_terms.setdefault(mono, {})
            for ij, ent in mat.items():
                prev = tgt.get(ij)
                tgt[ij] = ent if prev is None else prev + ent
            continue
        if len(u_hits) > 1 or u_hits[0][1] != 1:
            raise ValueError("substitution implemented for u-linear terms only")
        name, _ = u_hits[0]
        rest_evens = tuple((nm, e) for nm, e in mono.evens if nm != name)
        for new_name, coeff in table[name]:
            new_evens = dict(rest_evens)
            new_evens[new_name] = new_evens.get(new_name, 0) + 1
            new_mono = PMono(
                tuple(sorted(new_evens.items())), mono.thetas, mono.duals
            )
            if not cx._within_cap(new_mono):
                continue
            tgt = new_terms.setdefault(new_mono, {})
            for ij, ent in mat.items():
                piece = ent.times_poly(coeff)
                prev = tgt.get(ij)
                tgt[ij] = piece if prev is None else prev + piece
    return CurvedComplex(
        cx.objects, cx.params, new_terms, dict(cx.curvature), cx.cap,
        cx.opaque_rules, cx.opaque_degrees,
    )


# ---------------------------------------------------------------------------
# Rickard chain-object bookkeeping and parameter bundling


@dataclass(frozen=True)
class RickardShape:
    colors: tuple[int, int]
    sign: int
    objects: tuple[tuple[MultiDegree, int], ...]  # (degree, web label k)


def rickard_shape(a: int, b: int, sign: int = 1) -> RickardShape:
    """Chain objects of the 2-strand Rickard complex: label k = 0..min(a,b)
    at degree q^{-k} t^k (positive crossing) or q^k t^{-k} (negative)."""
    if a < 0 or b < 0:
        raise ValueError("colors must be nonnegative")
    objs = []
    for k in range(min(a, b) + 1):
        d = MultiDegree(0, -k, k) if sign > 0 else MultiDegree(0, k, -k)
        objs.append((d, k))
    return RickardShape((a, b), sign, tuple(objs))


def bundle_substitute(cx: CurvedComplex, orbit_map: Mapping[str, str]) -> CurvedComplex:
    """Identify parameters along an orbit map (bundling): connection and
    curvature terms merge additively."""
    new_entries = []
    seen: dict[str, tuple] = {}
    for n, d, p in cx.params.params:
        tgt = orbit_map.get(n, n)
        if tgt in seen:
            if seen[tgt] != (d, p):
                raise ValueError("bundled parameters must share degree and parity")
            continue
        seen[tgt] = (d, p)
        new_entries.append((tgt, d, p))
    params = ParamSpec.make(new_entries)

    def map_mono(m: PMono) -> PMono:
        evens: dict[str, int] = {}
        for nm, e in m.evens:
            t = orbit_map.get(nm, nm)
            evens[t] = evens.get(t, 0) + e
        thetas = tuple(sorted(orbit_map.get(nm, nm) for nm in m.thetas))
        duals = tuple(sorted(orbit_map.get(nm, nm) for nm in m.duals))
        if len(set(thetas)) != len(thetas) or len(set(duals)) != len(duals):
            raise ValueError("bundling collided odd parameters")
        return PMono(tuple(sorted(evens.items())), thetas, duals)

    new_terms: Terms = {}
    for mono, mat in cx.terms.items():
        nm = map_mono(mono)
        tgt = new_terms.setdefault(nm, {})
        for ij, e in mat.items():
            prev = tgt.get(ij)
            tgt[ij] = e if prev is None else prev + e
    new_curv: dict[PMono, Poly] = {}
    for mono, p in cx.curvature.items():
        nm = map_mono(mono)
        new_curv[nm] = new_curv.get(nm, Poly.zero()) + p
    return CurvedComplex(
        cx.objects, params, new_terms, new_curv, cx.cap,
        cx.opaque_rules, cx.opaque_degrees,
    )
