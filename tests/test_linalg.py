"""The elimination kernel: ranks, remainders, kernels and class coordinates.

``SmallestPivotOracle`` is the incremental elimination ``rank_of`` and
``kernel_basis`` used before the Markowitz kernel: rows added one at a time,
each reduced in column order and pivoted at its smallest column, and the
kernel read off the reduced row-echelon form.  It stays here as the
reference that the kernel is compared with.
"""

import heapq
from fractions import Fraction

from hypothesis import given, strategies as st

from fraylab import hochschild, homalg
from fraylab.hochschild import unknot_invariant
from fraylab.linalg import ClassTracker, RowBasis, kernel_basis, rank_of
from fraylab.ssbim import build_W
from fraylab.symfun import Composition

NCOLS = 6

vectors = st.dictionaries(
    st.integers(0, NCOLS - 1),
    st.integers(-3, 3).filter(bool).map(Fraction),
    max_size=NCOLS,
)
matrices = st.lists(vectors, max_size=7)

# wide sparse matrices with non-unit rational entries, so that pivots tie,
# fill-in occurs and pivot rows need scaling
WIDE = 13
wide_matrices = st.lists(
    st.dictionaries(
        st.integers(0, WIDE - 1),
        st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
        max_size=5,
    ),
    min_size=14,
    max_size=18,
)


def dense_rank(rows: list[dict], ncols: int = NCOLS) -> int:
    """Textbook Gaussian elimination on a dense copy of the rows."""
    m = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class SmallestPivotOracle:
    """Semi-echelon rows keyed by their smallest column (coefficient 1)."""

    def __init__(self, rows=()):
        self.rows: dict[int, dict] = {}
        # shortest rows first: pivots and remainders do not depend on the
        # order (test_pivots_and_remainders_do_not_depend_on_row_order), but
        # the fill-in on the way does, by a factor of 100 on the Koszul
        # boundaries
        for r in sorted(rows, key=len):
            self.add(r)

    def reduce(self, v: dict) -> dict:
        out = {col: Fraction(x) for col, x in v.items() if x}
        # integral entries as ints, as in the kernel: still exact, and faster
        out = {col: x.numerator if x.denominator == 1 else x for col, x in out.items()}
        todo = [col for col in out if col in self.rows]
        heapq.heapify(todo)
        while todo:
            p = heapq.heappop(todo)
            c = out.get(p)
            if c is None:
                continue
            # a row holds only columns >= its pivot
            for col, x in self.rows[p].items():
                s = out.get(col, 0) - c * x
                if s:
                    if col not in out and col in self.rows:
                        heapq.heappush(todo, col)
                    out[col] = s
                else:
                    del out[col]
        return out

    def add(self, v: dict) -> None:
        r = self.reduce(v)
        if r:
            p = min(r)
            inv = r[p] if r[p] in (1, -1) else 1 / Fraction(r[p])
            self.rows[p] = {k: x * inv for k, x in r.items()}

    def kernel(self, ncols: int) -> list[dict]:
        rref = SmallestPivotOracle()
        for p in sorted(self.rows, reverse=True):
            rref.add(self.rows[p])
        return [
            {f: Fraction(1), **{p: -row[f] for p, row in rref.rows.items() if f in row}}
            for f in range(ncols) if f not in rref.rows
        ]


def apply(rows: list[dict], x: dict) -> list:
    return [sum(c * x.get(j, 0) for j, c in r.items()) for r in rows]


def basis_of(rows: list[dict]) -> RowBasis:
    rb = RowBasis()
    for r in rows:
        rb.add(r)
    return rb


@given(matrices)
def test_rank_matches_dense_elimination(rows):
    assert rank_of(rows) == dense_rank(rows)


@given(st.data(), matrices, vectors)
def test_pivots_and_remainders_do_not_depend_on_row_order(data, rows, v):
    shuffled = data.draw(st.permutations(rows))
    a, b = basis_of(rows), basis_of(shuffled)
    assert a.pivots() == b.pivots()
    assert a.reduce(v) == b.reduce(v)
    assert not a.reduce(v).keys() & a.pivots()


@given(matrices)
def test_kernel_basis_spans_the_kernel(rows):
    ker = kernel_basis(rows, NCOLS)
    assert len(ker) == NCOLS - dense_rank(rows)
    assert rank_of(ker) == len(ker)
    for x in ker:
        for r in rows:
            assert sum(c * x.get(j, 0) for j, c in r.items()) == 0


@given(wide_matrices)
def test_markowitz_kernel_matches_dense_elimination_on_wide_matrices(rows):
    rank = dense_rank(rows, WIDE)
    assert rank_of(rows) == rank
    ker = kernel_basis(rows, WIDE)
    assert len(ker) == WIDE - rank
    assert rank_of(ker) == len(ker)
    for x in ker:
        assert not any(apply(rows, x))


def assert_same_as_oracle(rows: list[dict], ncols: int) -> None:
    """rank_of and kernel_basis agree with the incremental route: the same
    rank, and kernels of the same span."""
    oracle = SmallestPivotOracle(rows)
    assert rank_of(rows) == len(oracle.rows)
    ker, old = kernel_basis(rows, ncols), oracle.kernel(ncols)
    assert len(ker) == len(old) == rank_of(ker) == rank_of(ker + old)


def test_markowitz_kernel_matches_the_incremental_route(monkeypatch):
    """Every Koszul boundary of W_(1,1,1,1) to q = 12, and every matrix
    that def_infinite k = 2 ranks or takes the kernel of."""
    lam = Composition((1, 1, 1, 1))
    data = hochschild.HochschildData(build_W(lam).ring, hochschild.hh_operators(lam, 4))
    checked = 0
    for i in range(data.g + 1):
        for d in range(13):
            rows = data.boundary(i, d)
            if rows:
                assert_same_as_oracle(list(rows.values()), data.layout(i, d)[1])
                checked += 1
    assert checked >= 18

    seen = {"rank": 0, "kernel": 0}

    def checked_rank_of(rows):
        rows = list(rows)
        seen["rank"] += 1
        assert rank_of(rows) == len(SmallestPivotOracle(rows).rows)
        return rank_of(rows)

    def checked_kernel_basis(rows, ncols):
        rows = list(rows)
        seen["kernel"] += 1
        assert_same_as_oracle(rows, ncols)
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(hochschild, "_HH_DATA_CACHE", {})
    monkeypatch.setattr(homalg, "rank_of", checked_rank_of)
    monkeypatch.setattr(hochschild, "kernel_basis", checked_kernel_basis)
    rep, _, _ = unknot_invariant("def_infinite", 2)
    assert rep["match"]
    assert seen["rank"] >= 100 and seen["kernel"] >= 20


def test_add_rep_keeps_the_coordinates_it_picks_up():
    tr = ClassTracker()
    assert tr.add_rep({0: Fraction(1), 1: Fraction(1)}) == 0
    assert tr.add_rep({0: Fraction(1)}) == 1
    assert tr.express({0: Fraction(1)}) == {1: 1}
    assert tr.express({0: Fraction(1), 1: Fraction(1)}) == {0: 1}


def test_image_added_after_a_rep_has_class_zero():
    tr = ClassTracker()
    assert tr.add_rep({0: Fraction(1)}) == 0
    assert tr.add_image({0: Fraction(1), 1: Fraction(1)})
    assert tr.express({0: Fraction(1), 1: Fraction(1)}) == {}
    assert tr.express({1: Fraction(1)}) == {0: -1}


@given(matrices, st.lists(st.tuples(st.booleans(), vectors), max_size=8))
def test_reps_express_as_unit_vectors(first_images, steps):
    tr = ClassTracker(first_images)
    reps, images = [], list(first_images)
    for is_rep, v in steps:
        if is_rep:
            if tr.add_rep(v) is not None:
                reps.append(v)
        elif tr.add_image(v):
            images.append(v)
    assert tr.n_classes == len(reps)
    for j, v in enumerate(reps):
        assert tr.express(v) == {j: 1}
    for v in images:
        assert tr.express(v) == {}


def test_hh_trackers_express_their_reps_as_unit_vectors():
    unknot_invariant("infinite", 2, cap=3)
    checked = 0
    for data in hochschild._HH_DATA_CACHE.values():
        for tr, reps in data._tracker_cache.values():
            assert tr.n_classes == len(reps)
            for j, rep in enumerate(reps):
                assert tr.express(rep) == {j: 1}
                checked += 1
    assert checked >= 510
