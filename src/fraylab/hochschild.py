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
moved to side 0, as e_k(X_j), by ``symfun.move_sides``) to act on them
(``Unrolling.induced``), and that complex of classes is unrolled in the
t-direction in turn.  A bimodule is its ring, and the one-object complex on
it with no parameters; its top alphabet gives the Tor operators.
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
    Unrolling,
)
from .qseries import TriSeries, Window, unknot_table
from .ssbim import PROJECTOR_VARIANTS, bimodule_ring, build_identity, projector
from .symfun import BOTTOM, MIDDLE, Composition, Poly, TOP, block_differences, e_gen, move_sides

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


_HH_DATA_CACHE: dict[GradedRing, Unrolling] = {}


def hochschild_data(ring: GradedRing) -> Unrolling:
    """Shared Tor data per ring, over the operators of its top alphabet;
    graded pieces are expensive, so reuse across calls.  The key is the
    ring itself, not its id(), so a new ring never picks up the entry of a
    collected one."""
    if ring not in _HH_DATA_CACHE:
        _HH_DATA_CACHE[ring] = koszul(ring, hh_operators(ring.spec.alphabets[0]))
    return _HH_DATA_CACHE[ring]


# ---------------------------------------------------------------------------
# hochschild homology of bimodules


def hh_bimodule(M: GradedRing, window: Window, orientation: str = "table") -> HHResult:
    """Total Hochschild homology of a bimodule (merge-split, identity or
    composite): hh_complex of the one-object complex on its ring, over its
    top alphabet."""
    C = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), M)], ParamSpec(()))
    return hh_complex(C, M.spec.alphabets[0], window, orientation)


# ---------------------------------------------------------------------------
# hochschild homology of curved complexes (termwise + transported twist)


def hh_complex(
    C: CurvedComplex,
    comp: Composition,
    window: Window,
    orientation: str = "table",
) -> HHResult:
    """Termwise Hochschild homology of a curved complex over one W-type
    ring, with the connection transported through the left/right
    identification, then homology in the t-direction.

    Pre: the curvature must vanish under the identification, and comp must
    be the ring's top and bottom alphabet (both checked)."""
    rings = {id(o.ring) for o in C.objects}
    if len(rings) != 1:
        raise ValueError("hh_complex expects a single underlying ring")
    ring = C.objects[0].ring
    if comp is None or ring.spec.alphabets != (comp, comp):
        raise ValueError(f"Hochschild homology over {comp} needs top and bottom alphabets "
                         f"{comp}, not {ring.spec.name}'s {ring.spec.alphabets}")
    N = comp.total
    qshift = ring.qshift

    for mono, p in C.curvature.items():
        ident = move_sides(p, {BOTTOM: TOP})
        if not ident.is_zero():
            raise ValueError(
                f"curvature does not vanish under left/right identification "
                f"at {mono}: {ident!r}"
            )

    if any(o.degree.a for o in C.objects):
        raise ValueError("objects with a-degree are not supported")

    tor = hochschild_data(ring)

    # the connection transported through the identification; Unrolling
    # rejects an opaque part and a cap too small for the window
    C = C.derived(terms={
        mono: {ij: Entry({tag: ring.normal_form(move_sides(p, {BOTTOM: TOP}))
                          for tag, p in e.parts.items()})
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


def compose_bimodules(M1: GradedRing, M2: GradedRing) -> GradedRing:
    """M1 * M2: tensor over the middle coefficient ring, realized by
    adjoining the middle alphabet (side MIDDLE: M1's bottom, M2's top) with
    identification relations.  Neither factor may be a composite: its middle
    alphabet would merge with the new one."""
    (top, middle), (middle2, bottom) = M1.spec.alphabets, M2.spec.alphabets
    if middle != middle2:
        raise ValueError("compositions do not match for composition")
    if any(e_gen(1, 1, MIDDLE) in dict(M.spec.generators) for M in (M1, M2)):
        raise ValueError("a composite bimodule cannot be a factor of a composite")
    relations = ([move_sides(rel, {BOTTOM: MIDDLE}) for rel in M1.spec.relations]
                 + [move_sides(rel, {TOP: MIDDLE}) for rel in M2.spec.relations])
    return bimodule_ring(f"{M1.spec.name}*{M2.spec.name}", (top, bottom, middle),
                         relations, M1.qshift + M2.qshift)


def trace_check(M1: GradedRing, M2: GradedRing, window: Window) -> dict:
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


UNKNOT_VARIANTS = ("intrinsic",) + PROJECTOR_VARIANTS
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
