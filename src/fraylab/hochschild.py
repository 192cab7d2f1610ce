"""Hochschild homology of presented bimodules via Koszul complexes.

For a bimodule over a partially symmetric coefficient ring (polynomial on
blockwise elementary generators), total Hochschild homology is the Koszul
homology of the operators {left e_k(X_j) - right e_k(X'_j)}: the complex
M (x) Lambda(dual generators) with the contraction differential, computed
degree by degree with exact linear algebra.

Grading convention.  The computation is Tor-natural (the dual generator
paired with a degree-q^{2k} polynomial generator carries natural degree
q^{+2k} and homological a-degree +1).  Reported series apply one global
orientation: with N the total color and T = N(N+1)/2,

    (i, q, t)  |->  (N - i, q - 2T - qshift, t),

i.e. multiply by a^N q^{-2T - qshift} and flip a.  The reference exponent
uses T of the one-block ring regardless of the actual composition, which
makes the trace property and the fray factor laws hold on the nose and
pins the intrinsic unknot rows to prod_j (1 + a q^{-2j})/(1 - q^{2j}).

Curved complexes are handled termwise: chain objects take Koszul homology
with tracked class representatives, the connection is transported through
the left/right identification (primed alphabets replaced by unprimed), and
the resulting complex of classes is resolved in the t-direction by
homalg.unrolled_homology, the routine truncated homology uses as well.  A
bimodule is the one-object complex with no parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .grading import MultiDegree
from .homalg import (
    CurvedComplex,
    GradedRing,
    ParamSpec,
    PMono,
    RC_Object,
    RingSpec,
    unrolled_homology,
)
from .linalg import ClassTracker, kernel_basis, rank_of
from .qseries import TriSeries, Window, unknot_table
from .ssbim import MergeSplitBimodule, projector
from .symfun import Composition, Poly, TOP, e_gen, p_in_e

# ---------------------------------------------------------------------------
# results


@dataclass
class HHResult:
    series: TriSeries
    window: Window
    generator_basis: str
    coefficient_color: int
    qshift: int


@dataclass(frozen=True)
class BraidStats:
    """Colored writhe and strand statistics entering the KR normalization."""

    epsilon: int
    N: int
    eta: int

    @staticmethod
    def unknot(b: int) -> "BraidStats":
        return BraidStats(0, b, b)

    def exponent(self) -> int:
        if (self.epsilon + self.N - self.eta) % 2:
            raise ValueError("odd KR normalization exponent")
        return (self.epsilon + self.N - self.eta) // 2


def kr_normalize(h: TriSeries, stats: BraidStats) -> TriSeries:
    """Multiply by (a t^{-1})^{(eps+N-eta)/2} q^{-eps} as a degree shift."""
    w = stats.exponent()
    return h.shift((w, -stats.epsilon, -w))


def framing_shift(h: TriSeries, b: int, amount: int = 1) -> TriSeries:
    """Framing change by +-1 on a b-colored component: (a t^{-1})^{+-b(b-1)/2}."""
    w = amount * b * (b - 1) // 2
    return h.shift((w, 0, -w))


# ---------------------------------------------------------------------------
# the hochschild operators of a coefficient composition


def hh_operators(comp: Composition, blocks: int, basis: str = "elementary") -> list[tuple[Poly, int]]:
    """(xi, natural dual degree) for each blockwise generator: differences of
    elementary or power-sum polynomials of corresponding top/bottom blocks.
    `blocks` is the number of top blocks in the concatenated presentation."""
    out = []
    for j, size in enumerate(comp.parts, start=1):
        for k in range(1, size + 1):
            if basis == "elementary":
                xi = Poly.gen(e_gen(j, k, TOP)) - Poly.gen(e_gen(j + blocks, k, TOP))
            elif basis == "power_sum":
                top = p_in_e(k, size, j, TOP)
                bot = top_to_block(top, j, j + blocks)
                xi = top - bot
            else:
                raise ValueError("generator basis must be elementary or power_sum")
            out.append((xi, 2 * k))
    return out


def top_to_block(p: Poly, src_block: int, dst_block: int) -> Poly:
    table = {}
    for g in p.gens():
        if g[0] == "e" and g[1] == TOP and g[2] == src_block:
            table[g] = Poly.gen(("e", TOP, dst_block, g[3]))
    return p.substitute(table)


# ---------------------------------------------------------------------------
# Koszul/Tor data with class representatives


class HochschildData:
    """Tor of one ring with respect to a list of operators, organized per
    (exterior level i, natural q-degree d), with class representatives and
    induced multiplication operators."""

    def __init__(self, ring: GradedRing, ops: list[tuple[Poly, int]]):
        self.ring = ring
        self.ops = ops
        self.g = len(ops)
        self._layout_cache: dict = {}
        self._matrix_cache: dict = {}
        self._tracker_cache: dict = {}
        self._dims_cache: dict = {}

    # ambient layout at (i, d): blocks over subsets E of ops
    def layout(self, i: int, d: int):
        key = (i, d)
        if key in self._layout_cache:
            return self._layout_cache[key]
        if i < 0 or i > self.g or d < 0:
            self._layout_cache[key] = ([], 0)
            return self._layout_cache[key]
        blocks = []
        off = 0
        for E in itertools.combinations(range(self.g), i):
            w = sum(self.ops[e][1] for e in E)
            local = d - w
            dim = self.ring.dim(local) if local >= 0 else 0
            blocks.append((E, local, off, dim))
            off += dim
        self._layout_cache[key] = (blocks, off)
        return self._layout_cache[key]

    def boundary(self, i: int, d: int) -> dict[int, dict]:
        """The contraction differential (i, d) -> (i-1, d) as
        {true row index: row vector}."""
        key = (i, d)
        if key in self._matrix_cache:
            return self._matrix_cache[key]
        if i <= 0:
            self._matrix_cache[key] = {}
            return {}
        src_blocks, ncols = self.layout(i, d)
        tgt_blocks, nrows = self.layout(i - 1, d)
        tgt_off = {E: (off, local) for E, local, off, dim in tgt_blocks}
        rows: dict[int, dict[int, Fraction]] = {}
        for E, local, coff, dim in src_blocks:
            if dim == 0:
                continue
            for pos, e in enumerate(E):
                xi = self.ops[e][0]
                if xi.is_zero():
                    continue
                tgt_E = tuple(x for x in E if x != e)
                roff, tlocal = tgt_off[tgt_E]
                sign = (-1) ** pos
                mm = self.ring.mult_matrix(xi, local)
                for (rr, cc), val in mm.items():
                    row = rows.setdefault(rr + roff, {})
                    v = row.get(cc + coff, Fraction(0)) + sign * val
                    if v:
                        row[cc + coff] = v
                    else:
                        row.pop(cc + coff, None)
        rows = {r: row for r, row in rows.items() if row}
        self._matrix_cache[key] = rows
        return rows

    def dims(self, i: int, d: int) -> int:
        """dim Tor_i at natural q-degree d."""
        key = (i, d)
        if key not in self._dims_cache:
            _, n = self.layout(i, d)
            out = 0
            if n:
                out = n - rank_of(self.boundary(i, d).values())
                if i + 1 <= self.g:
                    # rank of the incoming map = rank of its row space
                    out -= rank_of(self.boundary(i + 1, d).values())
            self._dims_cache[key] = out
        return self._dims_cache[key]

    def tracker(self, i: int, d: int) -> tuple[ClassTracker, list[dict]]:
        """Class tracker and representative vectors at (i, d)."""
        key = (i, d)
        if key in self._tracker_cache:
            return self._tracker_cache[key]
        blocks, n = self.layout(i, d)
        tr = ClassTracker()
        reps: list[dict] = []
        if n:
            if i + 1 <= self.g:
                in_rows = self.boundary(i + 1, d)
                # image vectors of the incoming map in target coordinates:
                # transpose {row: {col: v}} to columns
                cols: dict[int, dict] = {}
                for ridx, row in in_rows.items():
                    for cidx, v in row.items():
                        cols.setdefault(cidx, {})[ridx] = v
                for vec in cols.values():
                    tr.add_image(vec)
            out_rows = self.boundary(i, d)
            for v in kernel_basis(out_rows.values(), n):
                idx = tr.add_rep(v)
                if idx is not None:
                    reps.append(v)
        self._tracker_cache[key] = (tr, reps)
        return self._tracker_cache[key]

    def induced(self, c: Poly, i: int, d: int) -> dict[tuple[int, int], Fraction]:
        """Matrix of multiplication by c on classes: (i, d) -> (i, d + deg c)."""
        c = self.ring._apply_subst(c)
        if c.is_zero():
            return {}
        dq = c.degree().q
        src_tr, src_reps = self.tracker(i, d)
        tgt_tr, _ = self.tracker(i, d + dq)
        src_blocks, _ = self.layout(i, d)
        tgt_blocks, _ = self.layout(i, d + dq)
        tgt_off = {E: (off, local) for E, local, off, dim in tgt_blocks}
        out: dict[tuple[int, int], Fraction] = {}
        for col, rep in enumerate(src_reps):
            img: dict[int, Fraction] = {}
            for E, local, off, dim in src_blocks:
                if dim == 0:
                    continue
                chunk = {
                    k - off: v for k, v in rep.items() if off <= k < off + dim
                }
                if not chunk:
                    continue
                mm = self.ring.mult_matrix(c, local)
                roff, _ = tgt_off[E]
                for (rr, cc), val in mm.items():
                    if cc in chunk:
                        k = rr + roff
                        s = img.get(k, Fraction(0)) + val * chunk[cc]
                        if s:
                            img[k] = s
                        else:
                            img.pop(k, None)
            for ridx, val in tgt_tr.express(img).items():
                out[(ridx, col)] = val
        return out


_HH_DATA_CACHE: dict[tuple, HochschildData] = {}


def hochschild_data(ring: GradedRing, comp: Composition, blocks: int, basis: str) -> HochschildData:
    """Shared Tor data per (ring, operator basis); graded pieces are
    expensive, so reuse across calls.  The key holds the ring itself, not
    its id(), so a new ring never picks up the entry of a collected one."""
    key = (ring, comp.parts, blocks, basis)
    if key not in _HH_DATA_CACHE:
        _HH_DATA_CACHE[key] = HochschildData(ring, hh_operators(comp, blocks, basis))
    return _HH_DATA_CACHE[key]


# ---------------------------------------------------------------------------
# orientation


def orient_window(window: Window, N: int, qshift: int, orientation: str) -> tuple[range, range]:
    """Natural (i, d) ranges needed to fill the requested window."""
    if orientation == "table":
        shift = N * (N + 1) + qshift
        i_lo = max(0, N - window.a[1])
        i_hi = min(N, N - window.a[0])
    else:
        shift = qshift
        i_lo = max(0, window.a[0])
        i_hi = min(N, window.a[1])
    d_lo = window.q[0] + shift
    d_hi = window.q[1] + shift
    return range(i_lo, i_hi + 1), range(d_lo, d_hi + 1)


def orient_degree(i: int, d: int, t: int, N: int, qshift: int, orientation: str):
    """table: multiply by a^N q^{-N(N+1)-qshift} and flip a; natural: only
    normalize away the quantum shift (Tor grading kept)."""
    if orientation == "table":
        return (N - i, d - N * (N + 1) - qshift, t)
    return (i, d - qshift, t)


# ---------------------------------------------------------------------------
# hochschild homology of bimodules


def hh_bimodule(
    M: MergeSplitBimodule,
    window: Window,
    generator_basis: str = "elementary",
    orientation: str = "table",
) -> HHResult:
    """Total Hochschild homology of a merge-split (or identity) bimodule:
    hh_complex of the one-object complex on its ring."""
    if M.top != M.bottom:
        raise ValueError("Hochschild homology needs matching top and bottom")
    C = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), M.ring)], ParamSpec(()))
    return hh_complex(C, M.top, window, generator_basis, orientation)


# ---------------------------------------------------------------------------
# hochschild homology of curved complexes (termwise + transported twist)


def _identify_sides(p: Poly, blocks: int) -> Poly:
    """Replace every bottom-block generator by its top-block partner."""
    table = {}
    for g in p.gens():
        if g[0] == "e" and g[1] == TOP and g[2] > blocks:
            table[g] = Poly.gen(("e", TOP, g[2] - blocks, g[3]))
    return p.substitute(table) if table else p


def hh_complex(
    C: CurvedComplex,
    comp: Composition,
    window: Window,
    generator_basis: str = "elementary",
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
    blocks = len(comp)
    N = comp.total
    qshift = ring.qshift

    for mono, p in C.curvature.items():
        ident = _identify_sides(p, blocks)
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

    data = hochschild_data(ring, comp, blocks, generator_basis)

    # transported connection entries
    transported: dict[PMono, dict[tuple[int, int], Poly]] = {}
    for mono, mat in C.terms.items():
        for (i, j), e in mat.items():
            if not e.is_plain():
                raise ValueError("hh_complex with opaque entries is not defined")
            p = _identify_sides(ring._apply_subst(e.plain_part()), blocks)
            p = ring._apply_subst(p)
            if not p.is_zero():
                transported.setdefault(mono, {})[(i, j)] = p

    # with scalar entries only, every entry acts as a multiple of the
    # identity on class spaces, so class counts suffice and no
    # representatives are built
    scalar_only = all(
        p.constant_value() is not None
        for mat in transported.values()
        for p in mat.values()
    )

    def class_dim(i: int, local: int) -> int:
        if scalar_only:
            return data.dims(i, local)
        return len(data.tracker(i, local)[1])

    # natural cells (Tor level i, natural q-degree d, t)
    i_range, d_range = orient_window(window, N, qshift, orientation)
    cells = [
        (i, d, t)
        for i in i_range
        for t in range(window.t[0], window.t[1] + 1)
        for d in d_range
    ]
    dims = unrolled_homology(C, transported, cells, window.t, class_dim, data.induced)
    coeffs: dict[tuple[int, int, int], Fraction] = {}
    for (i, d, t), dim in dims.items():
        deg = orient_degree(i, d, t, N, qshift, orientation)
        if window.contains(deg):
            coeffs[deg] = Fraction(dim)
    return HHResult(TriSeries(window, coeffs), window, generator_basis, N, qshift)


# ---------------------------------------------------------------------------
# bimodule composition and the trace property


def compose_bimodules(M1: MergeSplitBimodule, M2: MergeSplitBimodule) -> MergeSplitBimodule:
    """M1 * M2: tensor over the middle coefficient ring, realized by
    adjoining the middle alphabet with identification relations."""
    if M1.bottom != M2.top:
        raise ValueError("compositions do not match for composition")
    top, mid, bot = M1.top, M1.bottom, M2.bottom
    mt, mmid, mb = len(top), len(mid), len(bot)

    # new block layout: top 1..mt, bottom mt+1..mt+mb, middle mt+mb+1..
    def remap_factor(ring: GradedRing, src_top: int, top_map, bot_map) -> list[Poly]:
        out = []
        for rel in ring.spec.relations:
            table = {}
            for g in rel.gens():
                if g[0] != "e":
                    raise ValueError("unexpected generator in bimodule relations")
                _, side, blk, k = g
                nb = top_map(blk) if blk <= src_top else bot_map(blk - src_top)
                table[g] = Poly.gen(("e", TOP, nb, k))
            out.append(rel.substitute(table))
        return out

    rel1 = remap_factor(
        M1.ring, mt, lambda b: b, lambda b: mt + mb + b
    )  # M1 top -> top, M1 bottom -> middle
    rel2 = remap_factor(
        M2.ring, mmid, lambda b: mt + mb + b, lambda b: mt + b
    )  # M2 top -> middle, M2 bottom -> bottom

    gens = []
    for j, size in enumerate(top.parts, start=1):
        for k in range(1, size + 1):
            gens.append((("e", TOP, j, k), 2 * k))
    for j, size in enumerate(bot.parts, start=1):
        for k in range(1, size + 1):
            gens.append((("e", TOP, mt + j, k), 2 * k))
    for j, size in enumerate(mid.parts, start=1):
        for k in range(1, size + 1):
            gens.append((("e", TOP, mt + mb + j, k), 2 * k))

    spec = RingSpec(
        name=f"{M1.ring.spec.name}*{M2.ring.spec.name}",
        generators=gens,
        relations=rel1 + rel2,
        qshift=M1.qshift + M2.qshift,
        sampler=None,
        eval_composition=top.concat(bot).concat(mid),
    )
    return MergeSplitBimodule(top, bot, GradedRing(spec))


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
    ok = one.series.equal_on(two.series, window)
    return {
        "ok": ok,
        "mismatches": one.series.mismatches(two.series, window),
    }


# ---------------------------------------------------------------------------
# the unknot acceptance computations


DESK_LIMITS = {"finite": 3, "def_finite": 3, "intrinsic": 3, "infinite": 2, "def_infinite": 2}


def unknot_invariant(
    variant: str,
    k: int,
    cap: int = 3,
    window: Optional[Window] = None,
    generator_basis: str = "elementary",
) -> tuple[dict, TriSeries, TriSeries]:
    """Compute the k-column-colored unknot invariant for the given variant
    and compare with the table row.  Infinite variants at k = 2 are
    compared up to one overall q-monomial, which is reported.

    Returns (report, computed, expected): the JSON-ready comparison report
    (variant, k, window, match, mismatches, monomial_defect), the
    KR-normalized computed series and the table row expanded on the window.
    """
    if variant not in DESK_LIMITS:
        raise ValueError(f"unknown variant {variant!r}")
    if k > DESK_LIMITS[variant]:
        raise ValueError(f"variant {variant} is desk-limited to k <= {DESK_LIMITS[variant]}")
    if window is None:
        window = default_window(variant, k)

    from .ssbim import build_identity

    if variant == "intrinsic":
        res = hh_bimodule(build_identity(Composition.of(k)), window, generator_basis)
        computed = kr_normalize(res.series, BraidStats.unknot(k))
    else:
        lam = Composition.thin(k)
        proj = projector(lam, variant, cap=cap)
        res = hh_complex(proj.complex, lam, window, generator_basis)
        computed = kr_normalize(res.series, BraidStats.unknot(k))

    expected = unknot_table(variant, k).expand(window)
    exact = computed.equal_on(expected, window)
    report = {
        "variant": variant,
        "k": k,
        "window": window.to_json(),
        "match": exact,
        "mismatches": [] if exact else computed.mismatches(expected, window),
        "monomial_defect": None,
    }
    if not exact and variant in ("infinite", "def_infinite"):
        m = computed.monomial_quotient(expected)
        if m is not None:
            report["match"] = True
            report["monomial_defect"] = m
            report["mismatches"] = []
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
