"""The elimination kernel: ranks, reduced forms, kernels and class
coordinates.

The references are dense textbook elimination and ``SmallestPivotOracle``
(``tests/elimination_oracle.py``), the incremental smallest-column route
``rank_of`` and ``kernel_basis`` took before the Markowitz kernel.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fraylab import hochschild, homalg, linalg
from fraylab.hochschild import unknot_invariant
from fraylab.linalg import ClassTracker, kernel_basis, rank_of, rref
from fraylab.ssbim import build_W
from fraylab.symfun import Composition

from elimination_oracle import SmallestPivotOracle

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

# tall matrices whose rows are mostly single-entry, as in the t-differentials
# of the unknot series: singleton pivots clear columns from longer rows, and
# the rows they leave with one entry pivot in later rounds
TALL = 7
entries = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 2))
tall_matrices = st.tuples(
    st.lists(st.dictionaries(st.integers(0, TALL - 1), entries, min_size=1, max_size=1),
             min_size=4, max_size=14),
    st.lists(st.dictionaries(st.integers(0, TALL - 1), entries, min_size=2, max_size=4),
             max_size=6),
).map(lambda parts: parts[0] + parts[1])


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


def dense_gauss_jordan(rows: list[dict], pivots, ncols: int) -> dict[int, dict]:
    """Gauss-Jordan on a dense copy of the rows, pivoting on the given
    columns in turn; fails unless they are a pivot set of the row space."""
    m = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    done: dict[int, list] = {}
    for col in pivots:
        piv = m.pop(next(i for i, r in enumerate(m) if r[col]))
        prow = [x / piv[col] for x in piv]
        m = [[a - r[col] * b for a, b in zip(r, prow)] for r in m]
        done = {p: [a - r[col] * b for a, b in zip(r, prow)] for p, r in done.items()}
        done[col] = prow
    assert not any(any(r) for r in m)
    return {p: {j: x for j, x in enumerate(r) if x} for p, r in done.items()}


def apply(rows: list[dict], x: dict) -> list:
    return [sum(c * x.get(j, 0) for j, c in r.items()) for r in rows]


@given(matrices)
def test_rank_matches_dense_elimination(rows):
    assert rank_of(rows) == dense_rank(rows)


@given(st.data(), matrices)
def test_rref_does_not_depend_on_row_order(data, rows):
    form = rref(rows)
    assert rref(data.draw(st.permutations(rows))) == form
    assert form == dense_gauss_jordan(rows, form, NCOLS)
    assert len(form) == dense_rank(rows)


@given(st.data(), tall_matrices)
def test_single_entry_rows_on_tall_matrices(data, rows):
    assert rank_of(rows) == dense_rank(rows, TALL)
    form = rref(rows)
    assert rref(data.draw(st.permutations(rows))) == form
    assert form == dense_gauss_jordan(rows, form, TALL)


def test_single_entry_rows_pivot_in_rounds():
    """Clearing column 4 leaves {3: 3}, clearing column 3 then leaves
    {2: -1} (and {2: 1}, which column 2 clears to nothing): three rounds of
    one singleton pivot each, so the pivots come in the order 4, 3, 2 before
    the Markowitz loop takes the rows left on columns 0 and 1.  Markowitz's
    rule alone would start at column 0."""
    rows = [{4: 2}, {3: 3, 4: 1}, {2: -1, 3: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 2},
            {2: 1, 3: 3, 4: 1}, {0: 2, 1: 4, 3: Fraction(1, 2)}]
    for perm in itertools.permutations(rows):
        steps = linalg._eliminate([dict(r) for r in perm])
        assert steps[:3] == [(4, {4: 1}), (3, {3: 1}), (2, {2: 1})]
        assert sorted(p for p, _ in steps[3:]) == [0, 1]
    assert rank_of(rows) == dense_rank(rows, 5) == 5
    assert rref(rows) == {c: {c: 1} for c in range(5)}


def test_rref_of_tied_rows_does_not_depend_on_row_order():
    """Every pivot step here ties on row length, and which row wins decides
    whether column 3 or 4 ends up a pivot."""
    rows = [{0: 1}, {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1},
            {0: 1, 1: 1, 2: -1, 3: 1, 4: 1, 5: 1}, {0: 1, 1: -1, 2: 1, 3: 1, 4: 1, 5: 1}]
    forms = [rref(list(p)) for p in itertools.permutations(rows)]
    assert all(f == forms[0] for f in forms)
    assert forms[0] == dense_gauss_jordan(rows, forms[0], NCOLS)


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
    tor = hochschild.koszul(build_W(lam), hochschild.hh_operators(lam))
    checked = 0
    for i in range(len(hochschild.hh_operators(lam)) + 1):
        for d in range(13):
            rows = tor.matrix((0, d, -i))
            if rows:
                assert_same_as_oracle(list(rows.values()), tor.layout((0, d, -i))[1])
                checked += 1
    assert checked >= 18

    seen = {"rank": 0, "rref": 0}

    def checked_rank_of(rows):
        rows = list(rows)
        seen["rank"] += 1
        assert rank_of(rows) == len(SmallestPivotOracle(rows).rows)
        return rank_of(rows)

    def checked_rref(rows):
        """rref agrees with the incremental route: the same rank, and row
        spaces (so kernels) of the same span."""
        rows = list(rows)
        seen["rref"] += 1
        form, oracle = rref(rows), SmallestPivotOracle(rows)
        assert len(form) == oracle.rank == rank_of([*form.values(), *oracle.rows.values()])
        return form

    monkeypatch.setattr(hochschild, "_HH_DATA_CACHE", {})
    monkeypatch.setattr(homalg, "rank_of", checked_rank_of)
    monkeypatch.setattr(linalg, "rref", checked_rref)
    rep, _, _ = unknot_invariant("def_infinite", 2)
    assert rep["match"]
    assert seen["rank"] >= 100 and seen["rref"] >= 20


def combination(coeffs: list[int], vecs: list[dict]) -> dict:
    out = {j: sum(c * v.get(j, 0) for c, v in zip(coeffs, vecs)) for j in range(NCOLS)}
    return {j: x for j, x in out.items() if x}


def test_tracker_on_a_small_matrix():
    """M = (1 -1 0) and the image (1, 1, 1): column 0 is M's pivot and
    column 1 the image's, so column 2 is the one class."""
    tr = ClassTracker({0: {0: 1, 1: -1}}, [{0: 1, 1: 1, 2: 1}], 3)
    assert tr.n_classes == 1 and tr.reps == [{2: 1}]
    assert tr.rank == 1 and tr.columns == {0: (0, 1), 1: (0, -1)}
    assert tr.express({0: 1, 1: 1}) == {0: -1}
    assert tr.express({0: 2, 1: 2, 2: 2}) == {}
    for outside in ({0: 1}, {3: 1}):
        with pytest.raises(ValueError):
            tr.express(outside)
    with pytest.raises(ValueError):
        ClassTracker().express({0: 1})


@given(st.data(), matrices)
def test_reps_express_as_unit_vectors(data, rows):
    """ker(M) / span(images), the images drawn as combinations of kernel
    vectors."""
    ker = kernel_basis(rows, NCOLS)
    coeffs = st.lists(st.integers(-2, 2), min_size=len(ker), max_size=len(ker))
    images = [combination(c, ker) for c in data.draw(st.lists(coeffs, max_size=4))]
    tr = ClassTracker(dict(enumerate(rows)), images, NCOLS)
    assert tr.rank == dense_rank(rows)
    assert tr.n_classes == len(tr.reps) == NCOLS - dense_rank(rows) - dense_rank(images)
    for j, v in enumerate(tr.reps):
        assert tr.express(v) == {j: 1}
    for v in images:
        assert tr.express(v) == {}
    v = data.draw(st.one_of(vectors, coeffs.map(lambda c: combination(c, ker))))
    if any(apply(rows, v)):
        with pytest.raises(ValueError):
            tr.express(v)
    else:
        # v is the combination of reps its coordinates name, up to the image
        x = tr.express(v)
        rest = combination([1, *(-x.get(j, 0) for j in range(tr.n_classes))], [v, *tr.reps])
        assert rank_of([*images, rest]) == rank_of(images)


def test_hh_trackers_express_their_reps_as_unit_vectors():
    unknot_invariant("infinite", 2, cap=3)
    checked = 0
    for tor in hochschild._HH_DATA_CACHE.values():
        for tr in tor.trackers.values():
            reps = tr.reps
            assert tr.n_classes == len(reps)
            for j, rep in enumerate(reps):
                assert tr.express(rep) == {j: 1}
                checked += 1
    assert checked >= 510
