"""The elimination kernel: ranks, remainders, kernels and class coordinates."""

from fractions import Fraction

from hypothesis import given, strategies as st

from fraylab import hochschild
from fraylab.hochschild import unknot_invariant
from fraylab.linalg import ClassTracker, RowBasis, kernel_basis, rank_of

NCOLS = 6

vectors = st.dictionaries(
    st.integers(0, NCOLS - 1),
    st.integers(-3, 3).filter(bool).map(Fraction),
    max_size=NCOLS,
)
matrices = st.lists(vectors, max_size=7)


def dense_rank(rows: list[dict]) -> int:
    """Textbook Gaussian elimination on a dense copy of the rows."""
    m = [[Fraction(r.get(j, 0)) for j in range(NCOLS)] for r in rows]
    rank = 0
    for col in range(NCOLS):
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


@given(st.lists(st.tuples(st.booleans(), vectors), max_size=8))
def test_reps_express_as_unit_vectors(steps):
    tr = ClassTracker()
    reps, images = [], []
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
