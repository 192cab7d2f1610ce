"""Merge-split bimodules, frayed projectors, and the two-strand recursions.

A merge-split bimodule W_a^b is presented as the quotient of the
polynomial ring on blockwise elementary symmetric generators, the symfun
symbols e_k(X_j) of a on side 0 (X) and e_k(X'_j) of b on side 1 (X'), by
the total-alphabet differences e_i(X) - e_i(X').  The identity bimodule 1_a
instead kills every blockwise difference.  Overall quantum shifts (the
ell-bookkeeping of merges) are tracked as an explicit qshift on the ring,
never baked into generator degrees.

Frayed projectors are curved complexes on W_lambda: the Koszul twist over
the odd alphabet Theta (finite), plus theta-dual y-twists (deformed
finite), plus bulk u-twists built from an a_ijk family (infinite).  One
builder, _twisted_koszul, writes all four, and the thin tau_n complex of
the ladder (the u-twist over the extended thin family), as one connection
and one curvature, and checks Maurer-Cartan once.  One check covers every
stage: the Koszul legs carry no even parameter, the u-legs only u and the
y-legs only y, so the square's part at monomials free of y (of u, of both)
is the square of the complex without the y-legs (the u-legs, both).
`projector` also checks the a-family of the infinite variants before the
quotient, where Maurer-Cartan cannot see it.

The C_n family is the three-term complex q^n W -> tq^{n-2} W -> t^2q^{-2} 1
on the (n,1)-strands with the 'unzip' arrow kept opaque; its variants add
the y/u backward twists.  Cone-iota elimination and the ladder collapse
are one routine (_collapse): the ladder's semi-infinite u_{n+1}-ladder is
the u-variant's cone with one more leg, packaged into tw_{tau_n} on
W_{(1^{n+1})}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
from .qseries import f_factor
from .symfun import (
    BOTTOM,
    Composition,
    Poly,
    TOP,
    a_family,
    a_thin_recursive,
    alphabet_gens,
    block_differences,
    e_gen,
    elementary_of_total,
    expand_to_x,
    g_polys,
    thin_legs,
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


_BIMODULE_CACHE: dict[tuple, MergeSplitBimodule] = {}


def _bimodule(name: str, top: Composition, bottom: Composition, relations: list[Poly],
              qshift: int, block_preserving: bool) -> MergeSplitBimodule:
    """The bimodule presented on the e_k(X_j) of top (side TOP) and the
    e_k(X'_j) of bottom (side BOTTOM), sampled on the vanishing locus of
    the total (or, block_preserving, the blockwise) differences."""
    spec = RingSpec(
        name=name,
        generators=[(g, 2 * g[3]) for g in alphabet_gens(top, TOP) + alphabet_gens(bottom, BOTTOM)],
        relations=relations,
        qshift=qshift,
        sampler=partial(vanishing_locus_sampler, top, block_preserving=block_preserving),
        alphabets=(top, bottom),
    )
    return MergeSplitBimodule(top, bottom, GradedRing(spec))


def build_W(top: Composition, bottom: Composition | None = None) -> MergeSplitBimodule:
    """W_a^b: relations are the total-alphabet elementary differences.
    qshift = ell((N)) - ell(bottom), the shift of the merge to the full
    symmetric ring."""
    if bottom is None:
        bottom = top
    if top.total != bottom.total:
        raise ValueError("top and bottom compositions must share a total")
    key = ("W", top.parts, bottom.parts)
    if key not in _BIMODULE_CACHE:
        N = top.total
        relations = [
            elementary_of_total(i, top, TOP) - elementary_of_total(i, bottom, BOTTOM)
            for i in range(1, N + 1)
        ]
        name = f"W[{'.'.join(map(str, top.parts))}^{'.'.join(map(str, bottom.parts))}]"
        _BIMODULE_CACHE[key] = _bimodule(name, top, bottom, relations,
                                         N * (N - 1) // 2 - bottom.ell(), block_preserving=False)
    return _BIMODULE_CACHE[key]


def build_identity(a: Composition) -> MergeSplitBimodule:
    """The identity bimodule 1_a: blockwise differences are killed."""
    key = ("1", a.parts)
    if key not in _BIMODULE_CACHE:
        relations = [xi for _, _, xi in block_differences(a)]
        name = f"1[{'.'.join(map(str, a.parts))}]"
        _BIMODULE_CACHE[key] = _bimodule(name, a, a, relations, 0, block_preserving=True)
    return _BIMODULE_CACHE[key]


# graded-dimension checks ----------------------------------------------------


def graded_rank_check(lam: Composition, qmax: int) -> bool:
    """dim_q W_lambda * q^{-qshift} == f_factor(|lambda|, lambda) * dim_q 1_lambda
    on [0..qmax], the blamgon rank times the identity (both sides as honest
    q-series)."""
    W = build_W(lam)
    ident = build_identity(lam)
    lhs = {}
    for d in range(0, qmax + 1):
        lhs[d - W.qshift] = W.ring.dim(d)
    rhs_series = {d: ident.ring.dim(d) for d in range(0, qmax + 1)}
    rank = f_factor(lam.total, lam)
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


def _u_params(n: int) -> list[tuple[str, MultiDegree, str]]:
    return [(f"u{i}", MultiDegree(0, -2 * i, 2), "even") for i in range(1, n + 1)]


def _a_coefficients(lam: Composition) -> dict[tuple[int, int, int], Poly]:
    """a_ijk in the ring's coordinates; the thin recursion for (1^n), the
    telescoping family otherwise (any valid family is acceptable)."""
    if all(p == 1 for p in lam.parts):
        return thin_legs(a_thin_recursive(lam.total))
    return a_family(lam)


def _twisted_koszul(
    lam: Composition,
    a: Optional[Mapping[tuple[int, int, int], Poly]] = None,
    deformed: bool = False,
    cap: Optional[int] = None,
    check: bool = True,
) -> CurvedComplex:
    """The Koszul complex on W_lambda twisted by the legs asked for, with
    parameters in the order theta, u, y:

        Koszul legs  (e_k(X_j) - e_k(X'_j)) theta_jk            always;
        u-legs       -a_ijk theta-dual_jk u_i, curvature -F_u   if a is given;
        y-legs       theta-dual_jk y_jk, curvature F_y          if deformed;

    F_u = sum_i (e_i(X) - e_i(X')) u_i and F_y = sum_jk (e_k(X_j) - e_k(X'_j)) y_jk.
    check runs one Maurer-Cartan check (see the module docstring)."""
    legs = block_differences(lam)
    entries = [(f"th{j}_{k}", MultiDegree(0, -2 * k, 1), "odd") for j, k, _ in legs]
    terms: Terms = {PMono((), (f"th{j}_{k}",), ()): {(0, 0): Entry.plain(d)} for j, k, d in legs}
    curv: dict[PMono, Poly] = {}
    if a is not None:
        entries += _u_params(lam.total)
        for (i, j, k), p in a.items():
            terms[PMono(((f"u{i}", 1),), (), (f"th{j}_{k}",))] = {(0, 0): Entry.plain(-1 * p)}
        for i in range(1, lam.total + 1):
            diff = elementary_of_total(i, lam, TOP) - elementary_of_total(i, lam, BOTTOM)
            curv[PMono(((f"u{i}", 1),), (), ())] = -1 * diff
    if deformed:
        entries += [(f"y{j}_{k}", MultiDegree(0, -2 * k, 2), "even") for j, k, _ in legs]
        for j, k, d in legs:
            terms[PMono(((f"y{j}_{k}", 1),), (), (f"th{j}_{k}",))] = {(0, 0): Entry.plain(Poly.one())}
            curv[PMono(((f"y{j}_{k}", 1),), (), ())] = d
    obj = RC_Object(MultiDegree(0, 0, 0), build_W(lam).ring, "W")
    cx = CurvedComplex([obj], ParamSpec.make(entries), terms, curv, cap=cap)
    cx.check_homogeneous()
    if check:
        rep = cx.mc_check()
        if not rep:
            raise ValueError(f"twist on W{lam.parts} violates Maurer-Cartan: {rep.details}")
    return cx


def projector(lam: Composition, variant: str, cap: int = 3, check: bool = True) -> FrayedProjector:
    """The frayed projector on W_lambda: the Koszul twist (finite), plus
    delta = sum theta-dual_jk y_jk (def_), plus -gamma = -sum a_ijk
    theta-dual_jk u_i (infinite).  The finite projector has no even
    parameters and so no cap.

    check runs the Maurer-Cartan check and, for the infinite variants, the
    a-family identity sum_jk a_ijk (e_k(X_j) - e_k(X'_j)) = e_i(X) - e_i(X')
    as polynomials, before the quotient: in W_lambda both sides vanish, so
    Maurer-Cartan alone cannot see a wrong a-family."""
    if variant not in ("finite", "def_finite", "infinite", "def_infinite"):
        raise ValueError(f"unknown projector variant {variant!r}")
    if variant == "finite":
        cap = None
    a = _a_coefficients(lam) if "infinite" in variant else None
    cx = _twisted_koszul(lam, a, variant.startswith("def_"), cap, check)
    if check and a is not None:
        # against the Koszul legs and the curvature -(e_i(X) - e_i(X')) as built
        lhs: dict[int, Poly] = {}
        for (i, j, k), p in a.items():
            leg = cx.terms[PMono((), (f"th{j}_{k}",), ())][(0, 0)].plain_part()
            lhs[i] = lhs.get(i, Poly.zero()) + p * leg
        for i in range(1, lam.total + 1):
            curv = cx.curvature[PMono(((f"u{i}", 1),), (), ())]
            if not (lhs.get(i, Poly.zero()) + curv).is_zero():
                raise ValueError(f"a-family of W{lam.parts} fails sum_jk a_ijk "
                                 f"(e_k(X_j) - e_k(X'_j)) = e_i(X) - e_i(X') at i = {i}")
    return FrayedProjector(lam, variant, cx, cap)


# ---------------------------------------------------------------------------
# the C_n family on (n, 1)-strands


UNZIP_RULES = {("unit", "unzip"): None}


def cn_family(n: int, variant: str = "plain", cap: int = 3) -> CurvedComplex:
    """The three-term complex q^n W -> tq^{n-2} W -> t^2 q^{-2} 1 with the
    variant backward twists:

        plain: none            y: + y_{n+1} backward
        u: - sum g_i u_i       yu: both.

    The unzip arrow is an opaque symbol; its internal degree q^n is the
    qshift of W_{(n,1)} over that of the identity bimodule.  The
    Maurer-Cartan check reduces every component, with unzip-tagged scalars
    vanishing in the identity bimodule's quotient.
    """
    if variant not in ("plain", "y", "u", "yu"):
        raise ValueError(f"unknown C_n variant {variant!r}; expected plain, y, u or yu")
    if n < 1:
        raise ValueError("C_n needs n >= 1")
    W, ident = build_W(Composition.of(n, 1)), build_identity(Composition.of(n, 1))
    objects = [
        RC_Object(MultiDegree(0, n, 0), W.ring, "qnW"),
        RC_Object(MultiDegree(0, n - 2, 1), W.ring, "tqn2W"),
        RC_Object(MultiDegree(0, -2, 2), ident.ring, "t2q21"),
    ]
    # xi_{1,i} for i <= n, then xi_{2,1} = x_{n+1} - x'_{n+1}
    *xis, xlast = [xi for _, _, xi in block_differences(Composition.of(n, 1))]
    entries: list[tuple[str, MultiDegree, str]] = []
    curv: dict[PMono, Poly] = {}
    if variant in ("y", "yu"):
        entries.append((f"y{n + 1}", MultiDegree(0, -2, 2), "even"))
        curv[PMono(((f"y{n + 1}", 1),), (), ())] = xlast
    if variant in ("u", "yu"):
        entries.extend(_u_params(n))
        for i, xi in enumerate(xis, start=1):
            curv[PMono(((f"u{i}", 1),), (), ())] = xi
    terms = _two_term(n, variant, n)
    terms[PM_ONE][(2, 1)] = Entry.opaque("unzip")

    cx = CurvedComplex(objects, ParamSpec.make(entries), terms, curv, cap=cap,
                       opaque_rules=UNZIP_RULES)
    cx.check_homogeneous()
    rep = cx.mc_check()
    if not rep:
        raise ValueError(f"C_{n}^{variant} fails Maurer-Cartan: {rep.details}")
    return cx


def _two_term(n: int, variant: str, legs: int) -> Terms:
    """The connection of the two-term complex q^n W <-> tq^{n-2} W: forward
    x_{n+1} - x'_{n+1}, backward y_{n+1} (variants y, yu) and -g_i u_i for
    i <= legs (variants u, yu)."""
    xlast = block_differences(Composition.of(n, 1))[-1][2]
    terms: Terms = {PM_ONE: {(1, 0): Entry.plain(xlast)}}
    if variant in ("y", "yu"):
        terms[PMono(((f"y{n + 1}", 1),), (), ())] = {(0, 1): Entry.plain(Poly.one())}
    if variant in ("u", "yu"):
        gs = g_polys(n)
        for i in range(1, legs + 1):
            terms[PMono(((f"u{i}", 1),), (), ())] = {(0, 1): Entry.plain(-1 * gs[i - 1])}
    return terms


def _collapse(cx: CurvedComplex, psi: Terms, want: Terms) -> CurvedComplex:
    """Cone of iota + psi from a copy of C_n's last object (with cx's
    curvature) into cx, Gaussian elimination of the identity rung (its SDR
    verified; a failure raises), and comparison with the two-term
    connection want."""
    last = cx.objects[2]
    source = cx.derived([RC_Object(last.degree, last.ring, "src")], terms={})
    phi = ChainMap(source, cx, {PM_ONE: {(2, 0): Entry.plain(Poly.one())}, **psi})
    reduced, sdr = gaussian_eliminate(cone(phi), (3, 0))
    rep = sdr.verify()
    if not rep:
        raise ValueError(f"Gaussian elimination produced a bad SDR: {rep.details}")
    bad = _terms_mismatch(reduced, cx.derived(cx.objects[:2], terms=want))
    if bad:
        raise AssertionError(f"two-term complex after elimination: {bad}")
    return reduced


def cone_iota_eliminate(n: int, variant: str = "plain", cap: int = 3) -> CurvedComplex:
    """Cone of the inclusion of the last term of C_n^variant, Gaussian
    elimination of the identity rung, and comparison with the displayed
    two-term complex q^n W <-> tq^{n-2} W."""
    return _collapse(cn_family(n, variant, cap=cap), {}, _two_term(n, variant, n))


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


def ladder_collapse(n: int, cap: int = 2):
    """Build Cone(Phi), Phi = iota (x) 1 + psi (x) u_{n+1}, eliminate the
    identity rung, verify the two-term answer with backward
    -sum_{i<=n+1} g_i u_i, and return tw_{tau_n} on W_{(1^{n+1})}."""
    cx = cn_family(n, "u", cap=cap)
    cx = cx.derived(params=cx.params.merge(ParamSpec.make(_u_params(n + 1))))
    psi = {PMono(((f"u{n + 1}", 1),), (), ()): {(0, 0): Entry.opaque("unit", g_polys(n)[n])}}
    return _collapse(cx, psi, _two_term(n, "u", n + 1)), tau_complex(n, cap=cap)


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


def tau_complex(n: int, cap: int = 2) -> CurvedComplex:
    """tw_{tau_n}(W_{(1^{n+1})} (x) Lambda[Theta_{n+1}] (x) R[U_{n+1}]):
    Koszul legs (x_j - x'_j) theta_j1 plus u-legs -a_{ij} theta-dual_j1 u_i
    over the extended thin family."""
    return _twisted_koszul(Composition.thin(n + 1), thin_legs(extended_thin_family(n)), cap=cap)


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

    m = n + 1
    tau_n = _twisted_koszul(Composition.thin(m), thin_legs(lamfam), cap=cap, check=False)
    xp_ring = Poly.gen(e_gen(m, 1, BOTTOM))  # x'_{n+1} in the W ring

    forward = {}
    for i in range(1, m + 1):
        acc = [(f"u{i}", Poly.one())]
        if i + 1 <= m:
            acc.append((f"u{i + 1}", xp_ring))
        forward[f"u{i}"] = acc
    transformed = _substitute_u_linear(tau_n, forward)
    # tau_{n+1} is the infinite projector on the same ring; it lives only for
    # this comparison, not through the round trip
    bad = _terms_mismatch(
        transformed, projector(Composition.thin(m), "infinite", cap, check=False).complex
    )
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
    return cx.derived(terms=new_terms)
