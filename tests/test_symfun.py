import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fraylab.symfun import (
    BOTTOM,
    Composition,
    compositions,
    Poly,
    a_family,
    a_identity_defect,
    a_thin_recursive,
    block_x_gens,
    curvature_transport_defect,
    e_difference,
    e_gen,
    e_in_p,
    elementary_of_total,
    esp,
    esp_sym,
    eval_at_point,
    expand_to_x,
    g_polys,
    p_gen,
    p_in_e,
    psi_rho_roundtrip,
    psi_substitution,
    rho_matrix,
    rho_psi_roundtrip,
    rho_substitution,
    thin_legs,
    u_param,
    v_gen,
    vanishing_locus_sampler,
    vdot_param,
    x_gen,
    _mono_mul,
    _weak_compositions,
)
from fraylab.grading import MultiDegree


def x(i, primed=False):
    return Poly.gen(x_gen(i, BOTTOM if primed else 0))


# -- elementary_of_total ------------------------------------------------------

def test_elementary_of_total_constant_term():
    assert elementary_of_total(0, Composition.of(2, 1)) == Poly.one()


def test_elementary_of_total_thin_e1():
    b = Composition.of(1, 1, 1)
    assert expand_to_x(elementary_of_total(1, b), b) == x(1) + x(2) + x(3)


def test_elementary_of_total_21_e2():
    b = Composition.of(2, 1)
    got = expand_to_x(elementary_of_total(2, b), b)
    want = esp([x_gen(1), x_gen(2), x_gen(3)], 2)
    assert got == want


def test_elementary_of_total_out_of_range():
    with pytest.raises(ValueError):
        elementary_of_total(4, Composition.of(2, 1))


# -- expand_to_x ---------------------------------------------------------------

def test_expand_examples():
    b2 = Composition.of(2)
    assert expand_to_x(Poly.gen(e_gen(1, 1)), b2) == x(1) + x(2)
    assert expand_to_x(Poly.gen(e_gen(1, 2)), b2) == x(1) * x(2)
    b3 = Composition.of(3)
    got = expand_to_x(Poly.gen(e_gen(1, 2)), b3)
    assert got == x(1) * x(2) + x(1) * x(3) + x(2) * x(3)


@st.composite
def sym_polys(draw):
    b = Composition.of(2, 1)
    gens = [e_gen(1, 1), e_gen(1, 2), e_gen(2, 1), e_gen(1, 1, BOTTOM)]
    p = Poly.zero()
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.integers(-3, 3))
        g = draw(st.sampled_from(gens))
        e = draw(st.integers(1, 2))
        p = p + Fraction(c) * Poly.gen(g, e)
    return p


@given(sym_polys(), sym_polys())
def test_expand_is_ring_homomorphism(p, q):
    b = Composition.of(2, 1)
    assert expand_to_x(p * q, b) == expand_to_x(p, b) * expand_to_x(q, b)
    assert expand_to_x(p + q, b) == expand_to_x(p, b) + expand_to_x(q, b)


# -- newton conversion ---------------------------------------------------------

def test_newton_examples():
    assert p_in_e(1, 3) == Poly.gen(e_gen(1, 1))
    e1 = Poly.gen(e_gen(1, 1))
    e2 = Poly.gen(e_gen(1, 2))
    assert p_in_e(2, 3) == e1 * e1 - 2 * e2
    # e_2 = (p_1^2 - p_2)/2
    p1 = Poly.gen(p_gen(1))
    p2 = Poly.gen(p_gen(2))
    assert e_in_p(2) == Fraction(1, 2) * (p1 * p1 - p2)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_newton_round_trip(size):
    for k in range(1, size + 1):
        table = {p_gen(i): p_in_e(i, size) for i in range(1, k + 1)}
        assert e_in_p(k).substitute(table) == Poly.gen(e_gen(1, k))


def test_p_in_e_matches_raw_expansion():
    b = Composition.of(3)
    got = expand_to_x(p_in_e(2, 3), b)
    want = x(1) ** 2 + x(2) ** 2 + x(3) ** 2
    assert got == want


# -- a families ----------------------------------------------------------------

def test_a_family_single_block_is_kronecker():
    b = Composition.of(4)
    fam = a_family(b)
    for i in range(1, 5):
        for k in range(1, 5):
            expected = Poly.one() if k == i else Poly.zero()
            assert fam[(i, 1, k)] == expected


def test_compositions():
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for n in range(1, 7):
        parts = list(compositions(n))
        assert len(parts) == len(set(parts)) == 2 ** (n - 1)
        assert all(sum(p) == n and min(p) >= 1 for p in parts)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_a_family_identity_small(N):
    for parts in compositions(N):
        b = Composition(parts)
        fam = a_family(b)
        for i in range(1, N + 1):
            assert a_identity_defect(fam, b, i).is_zero()


def test_thin_recursive_worked_example():
    fam = a_thin_recursive(3)
    assert fam[(1, 1)] == Poly.one()
    assert fam[(1, 2)] == Poly.one()
    assert fam[(1, 3)] == Poly.one()
    assert fam[(2, 1)] == x(2, True) + x(3, True)
    assert fam[(2, 2)] == x(1) + x(3, True)
    assert fam[(2, 3)] == x(1) + x(2)
    assert fam[(3, 1)] == x(2, True) * x(3, True)
    assert fam[(3, 2)] == x(1) * x(3, True)
    assert fam[(3, 3)] == x(1) * x(2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_thin_recursive_identity(n):
    fam = a_thin_recursive(n)
    for i in range(1, n + 1):
        assert a_identity_defect(thin_legs(fam), Composition.thin(n), i).is_zero()


# -- g polynomials ---------------------------------------------------------------

def test_g_polys_basics():
    for n in (1, 2, 3):
        gs = g_polys(n)
        assert gs[0] == Poly.one()
        assert len(gs) == n + 1
    gs2 = g_polys(2)
    xp3 = Poly.gen(e_gen(2, 1, BOTTOM))
    assert gs2[1] == Poly.gen(e_gen(1, 1)) - xp3


@pytest.mark.parametrize("n", [2, 3])
def test_g_congruence_on_vanishing_locus(n):
    b = Composition.of(n, 1)
    gs = g_polys(n)
    pts = vanishing_locus_sampler(b, 100, seed=11)
    xdiff = Poly.gen(e_gen(2, 1)) - Poly.gen(e_gen(2, 1, BOTTOM))
    for i in range(1, n + 2):
        expr = expand_to_x(
            xdiff * gs[i - 1] + (esp_sym(i, n) - esp_sym(i, n, 1, BOTTOM)), b
        )
        for pt in pts:
            assert eval_at_point(expr, pt, b) == 0


# -- psi/rho ----------------------------------------------------------------------

def test_psi_rho_base_case():
    R = rho_matrix(1)
    assert psi_substitution(R, 1) == {vdot_param(1): Poly.gen(u_param(1))}
    assert rho_substitution(R, 1) == {u_param(1): Poly.gen(vdot_param(1))}


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_psi_rho_mutually_inverse(a):
    comp = Composition.of(a)
    for d in psi_rho_roundtrip(a):
        assert expand_to_x(d, comp).is_zero()
    for d in rho_psi_roundtrip(a):
        assert expand_to_x(d, comp).is_zero()


@pytest.mark.parametrize("a", [1, 2, 3])
def test_curvature_transport(a):
    assert curvature_transport_defect(a).is_zero()


# -- difference alphabets -----------------------------------------------------------

def test_difference_symmetric_examples():
    want = Poly.gen(e_gen(1, 1)) - Poly.gen(e_gen(1, 1, BOTTOM))
    assert e_difference(1, 3) == want


def test_difference_generating_function_oracle():
    # E(X,t) = E(X-X',t) * E(X',t) up to degree 2, on raw variables
    b = Composition.of(2)
    for j in (1, 2):
        lhs = Poly.zero()
        for aa in range(j + 1):
            lhs = lhs + e_difference(aa, 2) * esp_sym(j - aa, 2, 1, BOTTOM)
        assert expand_to_x(lhs - esp_sym(j, 2), Composition.of(2)).is_zero()


# -- sampler -------------------------------------------------------------------------

def test_sampler_permutation_invariance():
    b = Composition.of(2, 1)
    pts = vanishing_locus_sampler(b, 10, seed=3)
    e1 = elementary_of_total(1, b) - elementary_of_total(1, b, BOTTOM)
    e1x = expand_to_x(e1, b)
    for pt in pts:
        assert eval_at_point(e1x, pt, b) == 0


def test_sampler_blockwise_not_killed():
    # a blockwise difference need not vanish at a total-locus point
    b = Composition.of(2, 1)
    pts = vanishing_locus_sampler(b, 40, seed=5)
    blockwise = Poly.gen(e_gen(1, 1)) - Poly.gen(e_gen(1, 1, BOTTOM))
    expr = expand_to_x(blockwise, b)
    assert any(eval_at_point(expr, pt, b) != 0 for pt in pts)


def test_sampler_block_preserving():
    b = Composition.of(2, 1)
    pts = vanishing_locus_sampler(b, 10, seed=7, block_preserving=True)
    for j, size in enumerate(b.parts, start=1):
        for k in range(1, size + 1):
            diff = Poly.gen(e_gen(j, k)) - Poly.gen(e_gen(j, k, BOTTOM))
            expr = expand_to_x(diff, b)
            for pt in pts:
                assert eval_at_point(expr, pt, b) == 0


def test_poly_json_round_shape():
    p = Poly.gen(e_gen(1, 2)) * 3 - Poly.gen(e_gen(2, 1, BOTTOM))
    data = p.to_json()
    assert all(set(item) == {"monomial", "coeff"} for item in data)


def test_composition_ell_and_positive_parts():
    assert Composition.of(3).ell() == 3
    assert Composition.of(1, 1, 1).ell() == 0
    with pytest.raises(ValueError):
        Composition.of(0, 2)


# -- the Poly kernel against naive references -----------------------------------
# The references build each monomial product through a dict and sorted(), sum
# in Fractions, and raise to a power by repeated multiplication.

KERNEL_GENS = [e_gen(1, 1), e_gen(1, 2), e_gen(2, 1, BOTTOM), x_gen(1), x_gen(2, BOTTOM),
               u_param(1), v_gen(("w", 1), MultiDegree(0, 2, 0))]


def naive_mono_mul(m1, m2):
    d = dict(m1)
    for g, e in m2:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(d.items()))


def naive_mul(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = naive_mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return Poly(out)


def naive_substitute(p, table):
    out = {}
    for m, c in p.terms.items():
        piece = Poly.const(c)
        for g, e in m:
            rep = table.get(g, Poly.gen(g))
            for _ in range(e):
                piece = naive_mul(piece, rep)
        for mm, cc in piece.terms.items():
            out[mm] = out.get(mm, Fraction(0)) + Fraction(cc)
    return Poly(out)


monos = st.dictionaries(st.sampled_from(KERNEL_GENS), st.integers(1, 3), max_size=4).map(
    lambda d: tuple(sorted(d.items())))
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3) | st.integers(-3, 3)
polys = st.dictionaries(monos, coeffs, max_size=4).map(Poly)


def assert_exact_coefficients(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


@given(monos, monos)
def test_mono_mul_is_the_sorted_product(m1, m2):
    assert _mono_mul(m1, m2) == naive_mono_mul(m1, m2)


@given(polys, polys, coeffs)
def test_arithmetic_matches_the_reference_with_exact_coefficients(p, q, c):
    assert p * q == naive_mul(p, q)
    results = [p * q, p + q, p - q, -p, p * c, c * p, p ** 2, Poly.const(c)]
    for r in results:
        assert_exact_coefficients(r)


@given(polys, st.dictionaries(st.sampled_from(KERNEL_GENS), polys, max_size=3))
def test_substitute_matches_per_monomial_expansion(p, table):
    got = p.substitute(table)
    assert got == naive_substitute(p, table)
    assert_exact_coefficients(got)


@given(polys)
def test_int_and_fraction_copies_are_equal_with_equal_hashes(p):
    as_fractions = Poly()
    as_fractions.terms = {m: Fraction(c) for m, c in p.terms.items()}
    assert as_fractions == p and hash(as_fractions) == hash(p)
    rebuilt = Poly(as_fractions.terms)
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert [type(c) for c in rebuilt.terms.values()] == [type(c) for c in p.terms.values()]


# -- powers, symmetric functions and evaluation against naive references --------

@given(polys, st.integers(0, 6))
def test_power_is_the_repeated_product_with_few_products(p, n):
    products = []
    mul = Poly.__mul__

    def counting_mul(a, b):
        products.append(isinstance(b, Poly))
        return mul(a, b)

    Poly.__mul__ = counting_mul
    try:
        got = p ** n
    finally:
        Poly.__mul__ = mul
    want = Poly.one()
    for _ in range(n):
        want = naive_mul(want, p)
    assert got == want
    assert_exact_coefficients(got)
    # floor(log2 n) squarings and popcount(n) - 1 products
    bound = n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0
    assert sum(products) <= bound


@given(st.lists(st.sampled_from(KERNEL_GENS), unique=True, max_size=5), st.integers(-1, 6))
def test_esp_is_the_sum_over_subsets(gens, k):
    want = Poly.zero()
    for combo in (itertools.combinations(gens, k) if k >= 0 else ()):
        term = Poly.one()
        for g in combo:
            term = naive_mul(term, Poly.gen(g))
        want = want + term
    assert esp(gens, k) == want


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
def test_elementary_of_total_is_the_sum_of_block_products(parts, data):
    b = Composition(tuple(parts))
    i = data.draw(st.integers(0, b.total))
    side = data.draw(st.sampled_from([0, BOTTOM]))
    ranges = [range(p + 1) for p in parts]
    comps = [ks for ks in itertools.product(*ranges) if sum(ks) == i]
    assert list(_weak_compositions(i, b.parts)) == comps  # lexicographic order
    want = Poly.zero()
    for ks in comps:
        term = Poly.one()
        for j, k in enumerate(ks, start=1):
            term = naive_mul(term, esp_sym(k, b.parts[j - 1], j, side))
        want = want + term
    assert elementary_of_total(i, b, side) == want


renames = st.dictionaries(
    st.sampled_from(KERNEL_GENS),
    st.tuples(monos, coeffs.filter(bool)).map(lambda mc: Poly({mc[0]: mc[1]})), max_size=4)
# images like (a + b) and (a - b), whose products and sums cancel terms
cancelling = st.dictionaries(
    st.sampled_from(KERNEL_GENS),
    st.tuples(st.sampled_from(KERNEL_GENS[:3]), st.sampled_from(KERNEL_GENS[3:]),
              st.sampled_from([1, -1])).map(
        lambda abs_: Poly.gen(abs_[0]) + abs_[2] * Poly.gen(abs_[1])),
    max_size=4)


@given(polys, renames | cancelling)
def test_substitute_renames_and_cancelling_images(p, table):
    got = p.substitute(table)
    assert got == naive_substitute(p, table)
    assert_exact_coefficients(got)


EVAL_B = Composition.of(2, 1)
EVAL_GENS = [x_gen(i, side) for side in (0, BOTTOM) for i in (1, 2, 3)] + [
    e_gen(j, k, side) for side in (0, BOTTOM) for j, size in ((1, 2), (2, 1))
    for k in range(1, size + 1)]
eval_polys = st.dictionaries(
    st.dictionaries(st.sampled_from(EVAL_GENS), st.integers(1, 3), max_size=3).map(
        lambda d: tuple(sorted(d.items()))),
    coeffs, max_size=5).map(Poly)
eval_points = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=7), min_size=6, max_size=6).map(
    lambda vals: dict(zip(EVAL_GENS[:6], vals)))


@given(eval_polys, eval_points)
def test_eval_at_point_is_the_fraction_evaluation(p, point):
    full = dict(point)
    for g in EVAL_GENS[6:]:
        _, side, j, k = g
        full[g] = esp(block_x_gens(EVAL_B, j, side), k).evaluate(point)
    assert eval_at_point(p, point, EVAL_B) == p.evaluate(full)
