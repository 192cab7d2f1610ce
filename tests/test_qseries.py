import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fraylab.criteria import factor_relations
from fraylab.qseries import (
    Laurent,
    RationalSeriesExpr,
    TriSeries,
    Window,
    f_factor,
    quantum_binomial,
    quantum_factorial,
    quantum_int,
    UNKNOT_ROWS,
    unknot_table,
)
from fraylab.symfun import Composition


def test_quantum_int_examples():
    assert quantum_int(1) == Laurent.one()
    assert quantum_int(2) == Laurent({1: 1, -1: 1})
    assert quantum_int(0).is_zero()
    assert quantum_int(-3) == -quantum_int(3)
    assert (quantum_int(3) * quantum_int(2) - quantum_int(4) - quantum_int(2)).is_zero()


@pytest.mark.parametrize("j", range(1, 13))
def test_quantum_int_bar_invariant(j):
    assert quantum_int(j).bar() == quantum_int(j)


def test_quantum_binomial_examples():
    assert quantum_binomial(2, 1) == quantum_int(2)
    assert quantum_binomial(4, 2) == Laurent({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    with pytest.raises(ValueError):
        quantum_binomial(2, 3)


@pytest.mark.parametrize("j", range(0, 11))
def test_quantum_binomial_positive_and_symmetric(j):
    for k in range(j + 1):
        b = quantum_binomial(j, k)
        assert b == quantum_binomial(j, j - k)
        assert all(c > 0 and c.denominator == 1 for c in b.c.values())
        assert b.bar() == b


def test_f_factor():
    assert f_factor(3, Composition.of(3)) == Laurent.one()
    assert f_factor(2, Composition.of(1, 1)) == quantum_int(2)
    assert f_factor(3, Composition.of(1, 1, 1)) == quantum_factorial(3)
    assert f_factor(3, Composition.of(2, 1)) == quantum_int(3)
    for n in range(1, 7):
        assert f_factor(n, Composition.thin(n)) == quantum_factorial(n)
    with pytest.raises(ValueError):
        f_factor(3, Composition.of(2, 2))


# -- expansion -----------------------------------------------------------------

def test_expand_geometric():
    w = Window((0, 0), (0, 6), (0, 0))
    s = RationalSeriesExpr([], [(0, 2, 0)]).expand(w)
    assert s.coeffs == {(0, 0, 0): 1, (0, 2, 0): 1, (0, 4, 0): 1, (0, 6, 0): 1}


def test_expand_cancellation():
    w = Window((0, 1), (-8, 8), (0, 4))
    expr = RationalSeriesExpr(
        [{(0, 0, 0): Fraction(1), (0, -2, 2): Fraction(-1)}], [(0, -2, 2)]
    )
    assert expr.expand(w).coeffs == {(0, 0, 0): Fraction(1)}


def test_expand_product_factor():
    # (1 + a q^{-2})/(1 - q^2) termwise
    w = Window((0, 1), (-4, 8), (0, 0))
    expr = RationalSeriesExpr(
        [{(0, 0, 0): Fraction(1), (1, -2, 0): Fraction(1)}], [(0, 2, 0)]
    )
    s = expr.expand(w)
    for m in range(0, 5):
        assert s.coeffs[(0, 2 * m, 0)] == 1
    for m in range(0, 6):
        assert s.coeffs[(1, 2 * m - 2, 0)] == 1


def test_expand_respects_products_randomized():
    rng = random.Random(0)
    w = Window((0, 2), (-6, 10), (0, 4))
    inner = Window((0, 2), (-2, 6), (0, 2))  # stay away from the boundary
    monos = [(0, 2, 0), (0, -2, 2), (1, -2, 0), (0, -1, 1)]
    for _ in range(20):
        numA = {rng.choice(monos): Fraction(rng.randint(1, 3))}
        numA[(0, 0, 0)] = Fraction(1)
        numB = {rng.choice(monos): Fraction(rng.randint(-3, 3))}
        numB[(0, 0, 0)] = Fraction(1)
        denA = [(0, 2, 0)] if rng.random() < 0.5 else [(0, -2, 2)]
        A = RationalSeriesExpr([numA], denA)
        B = RationalSeriesExpr([numB], [])
        prod = (A * B).expand(w)
        sep = A.expand(w) * B.expand(w)
        assert prod.equal_on(sep, inner)


# -- tables ---------------------------------------------------------------------

def test_unknot_table_intrinsic_k1():
    w = Window((0, 1), (-4, 8), (0, 0))
    s = unknot_table("intrinsic", 1).expand(w)
    # (1+aq^{-2})(1+q^2+q^4+...)
    assert s.coeffs[(0, 0, 0)] == 1
    assert s.coeffs[(1, -2, 0)] == 1
    assert s.coeffs[(1, 6, 0)] == 1


def test_unknot_table_def_finite_k2_leading():
    w = Window((0, 2), (-6, 8), (0, 0))
    s = unknot_table("def_finite", 2).expand(w)
    assert s.coeffs[(0, -1, 0)] == 1  # [2]! lowest term q^{-1}


def test_infinite_k1_equals_intrinsic_k1():
    w = Window((0, 1), (-4, 10), (0, 6))
    assert unknot_table("infinite", 1).expand(w).equal_on(
        unknot_table("intrinsic", 1).expand(w)
    )


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        unknot_table("bogus", 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_finite_row_euler_characteristic(k):
    """A Koszul twist keeps the Euler characteristic: at t = -1 the finite
    row is the def_finite row times (1 - q^{-2})^k, one factor per theta of
    degree q^{-2} t.  Since [j] (1 - q^{-2}) = -q^{-1-j} (1 - q^{2j}), both
    sides collapse to (-1)^k q^{-k(k+3)/2} prod_j (1 + a q^{-2j}).  (The
    printed prod_j (1 + t q^{-2j}) row gives (1 + q^{-2}) times this at k = 2.)"""
    low = -k * (k + 3) // 2
    w = Window((0, k), (low - k * (k + 1) - 2, 8), (0, k))
    fin = unknot_table("finite", k).expand(w)
    signed = {}
    for (a, q, t), c in fin.coeffs.items():
        signed[(a, q, 0)] = signed.get((a, q, 0), 0) + (-1) ** t * c
    euler = TriSeries(Window(w.a, w.q, (0, 0)), signed)
    twist = Laurent.one()
    for _ in range(k):
        twist = twist * Laurent({0: 1, -2: -1})
    via_def_finite = unknot_table("def_finite", k).times_laurent(twist).expand(euler.window)
    closed = RationalSeriesExpr(
        [{(0, 0, 0): Fraction(1), (1, -2 * j, 0): Fraction(1)} for j in range(1, k + 1)], []
    ).times_laurent(Laurent({low: (-1) ** k})).expand(euler.window)
    assert euler.equal_on(via_def_finite), euler.mismatches(via_def_finite)[:5]
    assert euler.coeffs == closed.coeffs


def test_theorem1_factor_identities():
    records = factor_relations()
    assert len(records) == 9
    assert all(r["status"] == "pass" for r in records), records


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_infinite_row_is_the_printed_row_times_a_q_monomial(k):
    """[k]!/prod_j (1 - q^{2j}) = q^{-k(k-1)/2}/(1 - q^2)^k, so the program's
    infinite row is q^{-k(k-1)/2} times the printed row
    ((1 - t^2 q^{-2})/(1 - q^2))^k prod_j (1 + a q^{-2j})/(1 - t^2 q^{-2j})."""
    w = Window((0, k), (-2 * k - 6, 2 * k + 12), (0, 6))
    printed = RationalSeriesExpr(
        [{(0, 0, 0): Fraction(1), (0, -2, 2): Fraction(-1)} for _ in range(k)]
        + [{(0, 0, 0): Fraction(1), (1, -2 * j, 0): Fraction(1)} for j in range(1, k + 1)],
        [(0, 2, 0)] * k + [(0, -2 * j, 2) for j in range(1, k + 1)],
    )
    expected = printed.times_laurent(Laurent({-k * (k - 1) // 2: 1})).expand(w)
    got = unknot_table("infinite", k).expand(w)
    assert got.coeffs and got.equal_on(expected), got.mismatches(expected)[:5]


def test_triseries_json_sorted():
    w = Window((0, 1), (-2, 2), (0, 0))
    s = TriSeries(w, {(1, 0, 0): Fraction(2), (0, -2, 0): Fraction(1)})
    data = s.to_json()
    assert data["terms"][0]["a"] == 0
    assert data["terms"][-1]["coeff"] == "2"


# -- the coefficient rule -------------------------------------------------------

def assert_exact_coeffs(s: TriSeries) -> None:
    """Stored coefficients are ints when integral, else Fractions, never
    zero, and inside the window."""
    for d, c in s.coeffs.items():
        assert c and s.window.contains(d)
        assert c.__class__ is int or (c.__class__ is Fraction and c.denominator != 1), (d, c)


degrees = st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(0, 2))
# zeros, integral Fractions and ints among the coefficients
coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)
raw_series = st.dictionaries(degrees, coefficients, max_size=8)


@st.composite
def windows(draw):
    def span(lo, hi):
        a, b = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
        return (min(a, b), max(a, b))
    return Window(span(0, 4), span(-6, 6), span(0, 4))


def naive_product(x: dict, y: dict, w: Window) -> dict:
    out: dict = {}
    for d1, c1 in x.items():
        for d2, c2 in y.items():
            d = (d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2])
            if w.contains(d):
                out[d] = out.get(d, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {d: c for d, c in out.items() if c}


def clipped(x: dict, w: Window) -> dict:
    return {d: c for d, c in x.items() if c and w.contains(d)}


def test_coefficients_are_ints_when_integral():
    w = Window((0, 1), (-2, 2), (0, 1))
    s = TriSeries(w, {(0, 0, 0): Fraction(4, 2), (0, 1, 0): Fraction(1, 2),
                      (1, 0, 0): 0, (0, 2, 1): Fraction(0), (0, 9, 0): 5, (1, 1, 1): -3})
    assert s.coeffs == {(0, 0, 0): 2, (0, 1, 0): Fraction(1, 2), (1, 1, 1): -3}
    assert_exact_coeffs(s)
    # (1 + q/2)(1 - q/2) = 1 - q^2/4: the q terms cancel
    half = TriSeries(w, {(0, 0, 0): 1, (0, 1, 0): Fraction(1, 2)})
    prod = half * TriSeries(w, {(0, 0, 0): 1, (0, 1, 0): Fraction(-1, 2)})
    assert prod.coeffs == {(0, 0, 0): 1, (0, 2, 0): Fraction(-1, 4)}
    assert_exact_coeffs(prod)
    assert_exact_coeffs(half * 2)
    assert (half * 2).coeffs == {(0, 0, 0): 2, (0, 1, 0): 1}
    assert_exact_coeffs(half + half)


@given(raw_series, raw_series, windows(), windows())
def test_products_match_a_naive_fraction_product(x, y, w1, w2):
    """Windows clip both factors and the product; terms may cancel."""
    prod = TriSeries(w1, x) * TriSeries(w2, y)
    assert prod.window == w1
    assert prod.coeffs == naive_product(clipped(x, w1), clipped(y, w2), w1)
    assert_exact_coeffs(prod)


@given(raw_series, raw_series, windows(), coefficients)
def test_sums_shifts_and_scalars_keep_the_rule(x, y, w, c):
    s, t = TriSeries(w, x), TriSeries(w, y)
    assert_exact_coeffs(s)
    total = s + t
    assert_exact_coeffs(total)
    naive_sum = {k: Fraction(x.get(k, 0)) + Fraction(y.get(k, 0)) for k in set(x) | set(y)}
    assert total.coeffs == clipped(naive_sum, w)
    assert_exact_coeffs(s * c)
    assert (s * c).coeffs == naive_product(clipped(x, w), {(0, 0, 0): c}, w)


@pytest.mark.parametrize("variant", ["intrinsic", "finite", "infinite", "def_finite", "def_infinite"])
def test_expanded_rows_keep_the_rule(variant):
    w = Window((0, 2), (-8, 8), (0, 3))
    s = unknot_table(variant, 2).expand(w)
    assert s.coeffs
    assert_exact_coeffs(s)
    half = RationalSeriesExpr([{(0, 0, 0): Fraction(1, 2), (0, 2, 0): Fraction(3, 2)}],
                              [(0, 2, 0)]).expand(w)
    assert_exact_coeffs(half)
    assert any(c.__class__ is Fraction for c in half.coeffs.values())


@st.composite
def rows_and_windows(draw):
    """A table row with k <= 3 and a window anywhere near its terms, mostly
    away from the origin."""
    k = draw(st.integers(1, 3))
    a0 = draw(st.integers(0, k))
    q0, t0 = draw(st.integers(-16, 20)), draw(st.integers(0, 4))
    w = Window((a0, draw(st.integers(a0, k))), (q0, q0 + draw(st.integers(0, 8))),
               (t0, t0 + draw(st.integers(0, 3))))
    return draw(st.sampled_from(sorted(UNKNOT_ROWS))), k, w


@given(rows_and_windows())
def test_expansion_on_any_window_is_the_restriction_of_a_wider_one(case):
    """A row expanded on a window equals its expansion on a window that
    also holds the origin, restricted: where the window lies does not
    change its coefficients."""
    variant, k, w = case
    wide = Window((0, w.a[1]), (min(0, w.q[0]), max(0, w.q[1])), (0, w.t[1]))
    expr = unknot_table(variant, k)
    assert expr.expand(w).coeffs == expr.expand(wide).restrict(w).coeffs
