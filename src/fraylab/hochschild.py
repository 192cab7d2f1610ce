"""Hochschild homology of presented bimodules via Koszul complexes.

For a bimodule over a partially symmetric coefficient ring (polynomial on
blockwise elementary generators, the symfun symbols e_k(X_j) on side 0 and
e_k(X'_j) on side 1), total Hochschild homology is Tor, the Koszul
homology of the operators xi = e_k(X_j) - e_k(X'_j).  Their Koszul
complex is itself a one-object curved complex: the ring, one odd
parameter theta per operator, and the connection sum xi theta^dual.  So
Tor is that complex unrolled (``koszul``) by the one routine that unrolls
every curved complex, ``homalg.Unrolling``.

Grading convention.  The computation is Tor-natural (the dual generator
paired with a degree-q^{2k} polynomial generator carries natural degree
q^{+2k} and homological a-degree +1).  Reported series apply one global
orientation: with N the total color and T = N(N+1)/2,

    (i, q, t)  |->  (N - i, q - 2T - qshift, t),

i.e. multiply by a^N q^{-2T - qshift} and flip a.  The reference exponent
uses T of the one-block ring regardless of the actual composition, which
makes the trace property and the fray factor laws hold on the nose and
pins the intrinsic unknot rows to prod_j (1 + a q^{-2j})/(1 - q^{2j}).
The natural orientation, (i, q, t) |-> (i, q - qshift, t), only removes the
quantum shift; ``hh_complex`` reads each reported degree through the
inverse of the chosen map.

Curved complexes are handled termwise: chain objects take Tor with
class representatives (``Unrolling.classes``), the connection is
transported through the left/right identification (each e_k(X'_j)
replaced by its partner e_k(X_j)) to act on them (``Unrolling.induced``),
and that complex of classes is unrolled in the t-direction in turn.  A
bimodule is the one-object complex with no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .grading import MultiDegree
from .homalg import (
    CurvedComplex,
    Entry,
    GradedRing,
    ParamSpec,
    PMono,
    RC_Object,
    RingSpec,
    Unrolling,
)
from .qseries import TriSeries, Window, unknot_table
from .ssbim import MergeSplitBimodule, build_identity, projector
from .symfun import BOTTOM, MIDDLE, Composition, Poly, TOP, alphabet_gens, block_differences, e_gen

# ---------------------------------------------------------------------------
# results


@dataclass
class HHResult:
    series: TriSeries


# ---------------------------------------------------------------------------
# the hochschild operators of a coefficient composition


def hh_operators(comp: Composition) -> list[tuple[Poly, int]]:
    """(xi, natural dual degree) for each blockwise generator: the
    differences e_k(X_j) - e_k(X'_j) of corresponding top/bottom blocks."""
    return [(xi, 2 * k) for _, k, xi in block_differences(comp)]


# ---------------------------------------------------------------------------
# Tor as the unrolled Koszul complex


def koszul(ring: GradedRing, ops: list[tuple[Poly, int]]) -> Unrolling:
    """Tor of one ring with respect to a list of operators (xi_e, w_e): the
    unrolled Koszul complex, one object on the ring, one odd parameter
    theta_e of degree q^{w_e} t^{-1} per operator, and the connection
    sum_e xi_e theta_e^dual.  Its pieces are the ring times the exterior
    monomials theta_E, in the order of the subsets E, so Tor_i at natural
    degree d is the cell (0, d, -i)."""
    # zero-padded names keep the subsets in numeric order
    names = [f"theta{e:0{len(str(len(ops)))}d}" for e in range(len(ops))]
    params = ParamSpec.make((n, MultiDegree(0, w, -1), "odd") for n, (_, w) in zip(names, ops))
    connection = {PMono(duals=(n,)): {(0, 0): Entry.plain(xi)} for n, (xi, _) in zip(names, ops)}
    cx = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), ring)], params, connection)
    return Unrolling(cx, (-len(ops), 0))


_HH_DATA_CACHE: dict[tuple, Unrolling] = {}


def hochschild_data(ring: GradedRing, comp: Composition) -> Unrolling:
    """Shared Tor data per ring; graded pieces are expensive, so reuse
    across calls.  The key holds the ring itself, not its id(), so a new
    ring never picks up the entry of a collected one."""
    key = (ring, comp.parts)
    if key not in _HH_DATA_CACHE:
        _HH_DATA_CACHE[key] = koszul(ring, hh_operators(comp))
    return _HH_DATA_CACHE[key]


# ---------------------------------------------------------------------------
# hochschild homology of bimodules


def hh_bimodule(
    M: MergeSplitBimodule,
    window: Window,
    orientation: str = "table",
) -> HHResult:
    """Total Hochschild homology of a merge-split (or identity) bimodule:
    hh_complex of the one-object complex on its ring."""
    if M.top != M.bottom:
        raise ValueError("Hochschild homology needs matching top and bottom")
    C = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), M.ring)], ParamSpec(()))
    return hh_complex(C, M.top, window, orientation)


# ---------------------------------------------------------------------------
# hochschild homology of curved complexes (termwise + transported twist)


def _identify_sides(p: Poly) -> Poly:
    """Replace every bottom-side generator by its top-side partner."""
    table = {g: Poly.gen(e_gen(g[2], g[3], TOP)) for g in p.gens()
             if g[0] == "e" and g[1] == BOTTOM}
    return p.substitute(table) if table else p


def hh_complex(
    C: CurvedComplex,
    comp: Composition,
    window: Window,
    orientation: str = "table",
) -> HHResult:
    """Termwise Hochschild homology of a curved complex over one W-type
    ring, with the connection transported through the left/right
    identification, then homology in the t-direction.

    Pre: the curvature must vanish under the identification (checked)."""
    rings = {id(o.ring) for o in C.objects}
    if len(rings) != 1:
        raise ValueError("hh_complex expects a single underlying ring")
    ring = C.objects[0].ring
    N = comp.total
    qshift = ring.qshift

    for mono, p in C.curvature.items():
        ident = _identify_sides(p)
        if not ident.is_zero():
            raise ValueError(
                f"curvature does not vanish under left/right identification "
                f"at {mono}: {ident!r}"
            )

    # cap sufficiency: even monomials just beyond the cap must not reach the window
    if C.cap is not None:
        min_t = min(
            (d.t for _, d, p in C.params.params if p == "even"), default=None
        )
        if min_t is not None and (C.cap + 1) * min_t <= window.t[1] + 1:
            raise ValueError(
                "parameter cap too small for the requested t-window "
                f"(cap {C.cap}, window t <= {window.t[1]})"
            )

    if any(o.degree.a for o in C.objects):
        raise ValueError("objects with a-degree are not supported")

    tor = hochschild_data(ring, comp)

    # the connection transported through the identification; Unrolling
    # rejects an opaque part
    C = C.derived(terms={
        mono: {ij: Entry({tag: ring.normal_form(_identify_sides(p)) for tag, p in e.parts.items()})
               for ij, e in mat.items()}
        for mono, mat in C.terms.items()
    })

    # with scalar entries only, every entry acts as a multiple of the
    # identity on class spaces, so class counts suffice and no
    # representatives are built
    scalar_only = all(
        e.plain_part().constant_value() is not None
        for mat in C.terms.values()
        for e in mat.values()
    )

    # Tor_i at natural q-degree d is the Koszul cell (0, d, -i)
    def class_dim(i: int, d: int) -> int:
        if scalar_only:
            return tor.homology((0, d, -i))
        return tor.classes((0, d, -i)).n_classes

    unrolled = Unrolling(C, window.t, class_dim,
                         lambda p, i, d: tor.induced(p, (0, d, -i)))
    # the one orientation map, inverted: the reported (a, q, t) is the cell
    # (i, d, t) of Tor level i at natural q-degree d, with table i = N - a,
    # d = q + N(N+1) + qshift, and natural i = a, d = q + qshift
    table = orientation == "table"
    shift = qshift + (N * (N + 1) if table else 0)
    coeffs = {}
    for a in range(window.a[0], window.a[1] + 1):
        i = N - a if table else a
        if 0 <= i <= N:
            for t in range(window.t[0], window.t[1] + 1):
                for q in range(window.q[0], window.q[1] + 1):
                    if dim := unrolled.homology((i, q + shift, t)):
                        coeffs[(a, q, t)] = dim
    return HHResult(TriSeries(window, coeffs))


# ---------------------------------------------------------------------------
# bimodule composition and the trace property


def compose_bimodules(M1: MergeSplitBimodule, M2: MergeSplitBimodule) -> MergeSplitBimodule:
    """M1 * M2: tensor over the middle coefficient ring, realized by
    adjoining the middle alphabet (side MIDDLE: M1's bottom, M2's top) with
    identification relations."""
    if M1.bottom != M2.top:
        raise ValueError("compositions do not match for composition")

    def moved(M: MergeSplitBimodule, sides: tuple[int, int]) -> list[Poly]:
        """M's relations with its side s moved to sides[s]."""
        return [rel.substitute({g: Poly.gen(e_gen(g[2], g[3], sides[g[1]])) for g in rel.gens()})
                for rel in M.ring.spec.relations]

    gens = (alphabet_gens(M1.top, TOP) + alphabet_gens(M2.bottom, BOTTOM)
            + alphabet_gens(M1.bottom, MIDDLE))
    spec = RingSpec(
        name=f"{M1.ring.spec.name}*{M2.ring.spec.name}",
        generators=[(g, 2 * g[3]) for g in gens],
        relations=moved(M1, (TOP, MIDDLE)) + moved(M2, (MIDDLE, BOTTOM)),
        qshift=M1.qshift + M2.qshift,
    )
    return MergeSplitBimodule(M1.top, M2.bottom, GradedRing(spec))


def trace_check(
    M1: MergeSplitBimodule, M2: MergeSplitBimodule, window: Window
) -> dict:
    """hh(M1 * M2) == hh(M2 * M1) exactly on the window.

    Both sides share the same color N, so applying or omitting the global
    orientation transform changes both series by the same degree map; the
    comparison is run in the natural Tor orientation (qshift-normalized),
    which keeps the graded pieces small."""
    one = hh_bimodule(compose_bimodules(M1, M2), window, orientation="natural")
    two = hh_bimodule(compose_bimodules(M2, M1), window, orientation="natural")
    mismatches = one.series.mismatches(two.series, window)
    return {"ok": not mismatches, "mismatches": mismatches}


# ---------------------------------------------------------------------------
# the unknot acceptance computations


UNKNOT_VARIANTS = ("intrinsic", "finite", "def_finite", "infinite", "def_infinite")
DESK_LIMIT = 3


def unknot_invariant(
    variant: str,
    k: int,
    cap: int = 3,
    window: Optional[Window] = None,
) -> tuple[dict, TriSeries, TriSeries]:
    """Compute the k-column-colored unknot invariant for the given variant
    and compare it with the table row (qseries.unknot_table) exactly,
    coefficient by coefficient on the window, for every variant and k.

    Returns (report, computed, expected): the JSON-ready comparison report
    (variant, k, window, match, mismatches, monomial_defect), the computed
    series and the table row expanded on the window.
    monomial_defect is always None: no q-monomial is allowed.
    """
    if variant not in UNKNOT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if k > DESK_LIMIT:
        raise ValueError(f"variant {variant} is desk-limited to k <= {DESK_LIMIT}")
    if window is None:
        window = default_window(variant, k)

    if variant == "intrinsic":
        computed = hh_bimodule(build_identity(Composition.of(k)), window).series
    else:
        lam = Composition.thin(k)
        computed = hh_complex(projector(lam, variant, cap=cap).complex, lam, window).series

    expected = unknot_table(variant, k).expand(window)
    mismatches = computed.mismatches(expected, window)
    report = {
        "variant": variant,
        "k": k,
        "window": window.to_json(),
        "match": not mismatches,
        "mismatches": mismatches,
        "monomial_defect": None,
    }
    return report, computed, expected


def default_window(variant: str, k: int) -> Window:
    qlo, qhi = -2 * k, 2 * k + 12
    if variant in ("intrinsic", "def_finite"):
        t = (0, 0)
    elif variant == "finite":
        t = (0, k)
    else:
        t = (0, 4)
    return Window((0, k), (qlo, qhi), t)
