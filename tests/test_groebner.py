"""GradedRing's Gröbner normal forms against the Macaulay route.

``MacaulayOracle`` is the degree-by-degree row reduction GradedRing used
before its Gröbner engine: in each q-degree the ideal is the row space of
every monomial multiple of every relation, written over the monomial basis.
It stays here as the reference that the fast path is compared with.
"""

import gc
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fraylab.grading import MultiDegree
from fraylab.hochschild import compose_bimodules
from fraylab.homalg import GradedRing, GroebnerBasis, RingSpec
from fraylab.ssbim import build_identity, build_W
from fraylab.symfun import Composition, Poly, compositions, mono_degree, v_gen, x_gen

from elimination_oracle import SmallestPivotOracle


class MacaulayOracle:
    def __init__(self, ring: GradedRing):
        self.ring = ring
        self._ideal: dict[int, SmallestPivotOracle] = {}

    def ideal(self, qdeg: int) -> SmallestPivotOracle:
        if qdeg not in self._ideal:
            rows = []
            index = {m: i for i, m in enumerate(self.ring.basis(qdeg))}
            for rel in self.ring.relations:
                rdeg = rel.degree().q
                if rdeg > qdeg:
                    continue
                for m in self.ring.basis(qdeg - rdeg):
                    prod = Poly({m: 1}) * rel
                    rows.append({index[mm]: c for mm, c in prod.terms.items()})
            self._ideal[qdeg] = SmallestPivotOracle(rows)
        return self._ideal[qdeg]

    def dim(self, qdeg: int) -> int:
        return len(self.ring.basis(qdeg)) - self.ideal(qdeg).rank

    def reduces_to_zero(self, p: Poly) -> bool:
        by_deg: dict[int, dict] = {}
        for m, c in self.ring._apply_subst(p).terms.items():
            by_deg.setdefault(mono_degree(m).q, {})[m] = c
        for d, terms in by_deg.items():
            index = {m: i for i, m in enumerate(self.ring.basis(d))}
            if not self.ideal(d).contains({index[m]: c for m, c in terms.items()}):
                return False
        return True


def ideal_element(ring: GradedRing, qdeg: int, rng: random.Random) -> Poly:
    """A random combination of monomial multiples of the relations."""
    out = Poly.zero()
    rels = [r for r in ring.relations if r.degree().q <= qdeg]
    for _ in range(3 if rels else 0):
        rel = rng.choice(rels)
        monos = ring.basis(qdeg - rel.degree().q)
        out = out + Poly({rng.choice(monos): rng.randint(-3, 3)}) * rel
    return out


def assert_matches_oracle(ring: GradedRing, qmax: int, seed: int = 0) -> None:
    oracle = MacaulayOracle(ring)
    rng = random.Random(seed)
    for d in range(qmax + 1):
        assert ring.dim(d) == oracle.dim(d), (ring.spec.name, d)
        if not ring.basis(d):
            continue
        inside = ideal_element(ring, d, rng)
        assert ring.reduces_to_zero(inside) and oracle.reduces_to_zero(inside)
        for _ in range(2):
            p = inside + Poly({rng.choice(ring.basis(d)): rng.randint(1, 3)})
            assert ring.reduces_to_zero(p) == oracle.reduces_to_zero(p), (ring.spec.name, d, p)
    for rel in ring.spec.relations:
        assert ring.reduces_to_zero(rel) and oracle.reduces_to_zero(rel)


COMPOSITIONS_UPTO_4 = [parts for n in range(1, 5) for parts in compositions(n)]


@pytest.mark.parametrize("parts", COMPOSITIONS_UPTO_4, ids=lambda p: "".join(map(str, p)))
@pytest.mark.parametrize("build", [build_W, build_identity], ids=["W", "1"])
def test_bimodule_rings_match_macaulay(build, parts):
    assert_matches_oracle(build(Composition(parts)), 12)


@pytest.mark.parametrize("parts", [(1, 1), (1, 2), (2, 1), (1, 1, 1)])
@pytest.mark.parametrize("split_first", [False, True])
def test_trace_pair_rings_match_macaulay(parts, split_first):
    """The rings of W_a^(N) * W_(N)^a and W_(N)^a * W_a^(N), as trace_check
    builds them for the N <= 3 merge/split pairs."""
    a, full = Composition(parts), Composition.of(sum(parts))
    pair = [build_W(a, full), build_W(full, a)]
    if split_first:
        pair.reverse()
    assert_matches_oracle(compose_bimodules(*pair), 12)


def draw_random_ring(data) -> GradedRing:
    """Q[z0..z(n-1)], weights 2 or 4, modulo up to three random
    weight-homogeneous relations."""
    n = data.draw(st.integers(2, 3))
    weights = [data.draw(st.sampled_from([2, 4])) for _ in range(n)]
    gens = [(v_gen(f"z{i}", MultiDegree(0, w, 0)), w) for i, w in enumerate(weights)]
    free = GradedRing(RingSpec("free", gens, []))
    relations = []
    for _ in range(data.draw(st.integers(1, 3))):
        monos = free.basis(data.draw(st.sampled_from([4, 6, 8])))
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(monos), max_size=len(monos)))
        relations.append(Poly(dict(zip(monos, coeffs))))
    return GradedRing(RingSpec("random", gens, [r for r in relations if not r.is_zero()]))


@given(st.data())
def test_random_homogeneous_ideals_match_macaulay(data):
    ring = draw_random_ring(data)
    assert_matches_oracle(ring, 12, seed=data.draw(st.integers(0, 99)))


@given(st.data())
def test_standard_monomials_match_brute_force_in_any_order(data):
    """standard(d) builds on the lists of lower weights, asked for or not:
    each answer is every monomial of weight d that no lead divides, sorted
    by reversed exponents, whatever the order the weights come in."""
    ring = draw_random_ring(data)
    gb = GroebnerBasis([w for _, w in ring.generators], map(ring._exps, ring.relations))
    degrees = data.draw(st.permutations(range(13)))
    got = {d: gb.standard(d) for d in degrees}
    for d in range(13):
        want = sorted(
            (m for m in itertools.product(*(range(d // w + 1) for w in gb.weights))
             if gb.weight(m) == d
             and not any(all(a <= b for a, b in zip(lead, m)) for lead in gb.leads)),
            key=lambda m: m[::-1],
        )
        assert got[d] == want, (d, gb.leads)


def test_unit_ideal_has_no_standard_monomials():
    gb = GroebnerBasis((2, 4), [{(1, 1): 1}, {(0, 0): 3}])
    assert all(gb.standard(d) == [] for d in range(13))


def test_dim_needs_the_s_pair_of_xy_and_x2_minus_y2():
    """In Q[x, y]/(xy, x^2 - y^2) the cube y^3 lies in the ideal only
    through the S-pair of the two relations, so dim(6) == 0 needs it, and
    a normal form in degree 6 needs the basis complete through degree 6."""
    x, y = Poly.gen(x_gen(1)), Poly.gen(x_gen(2))
    spec = RingSpec("hand", [(x_gen(1), 2), (x_gen(2), 2)], [x * y, x * x - y * y])
    ring = GradedRing(spec)
    assert ring.dim(4) == 1
    assert ring.reduces_to_zero(y ** 3) and ring.reduces_to_zero(x ** 3)
    assert not ring.reduces_to_zero(y * y)
    assert [ring.dim(d) for d in range(0, 10, 2)] == [1, 2, 1, 0, 0]
    fresh = GradedRing(spec)
    assert fresh.normal_form(y ** 3 + x).terms == {((x_gen(1), 1),): 1}


def test_standard_leaves_no_reference_cycle():
    # Q[x, y]/(x^2 - y) with weights (2, 4); the first call extends the basis
    gb = GroebnerBasis((2, 4), [{(2, 0): 1, (0, 1): -1}])
    assert gb.standard(10) == [(1, 2)]
    gc.disable()
    try:
        gc.collect()
        assert gb.standard(10) == [(1, 2)]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sampled_zero_without_sampler_or_relations_is_exact():
    x1, x2 = Poly.gen(x_gen(1)), Poly.gen(x_gen(2))
    ring = GradedRing(RingSpec("Qx", [(x_gen(1), 2), (x_gen(2), 2)], [x1 - x2]))
    assert ring.relations == []
    assert ring.sampled_zero(x1 - x2)
    assert not ring.sampled_zero(x1)


def test_sampled_zero_without_sampler_but_with_relations_raises():
    M = compose_bimodules(build_W(Composition.of(1, 1), Composition.of(2)),
                          build_W(Composition.of(2), Composition.of(1, 1)))
    assert M.spec.sampler is None and M.relations
    with pytest.raises(ValueError, match=re.escape(M.spec.name)):
        M.sampled_zero(Poly.zero())


def test_standard_monomial_counts_match_sympy():
    sympy = pytest.importorskip("sympy")
    rings = [
        build_W(Composition.of(1, 1, 1, 1)),
        build_W(Composition.of(1, 2, 1)),
        compose_bimodules(build_W(Composition.of(1, 2), Composition.of(3)),
                          build_W(Composition.of(3), Composition.of(1, 2))),
    ]
    for ring in rings:
        syms = sympy.symbols(f"s0:{len(ring.generators)}")
        index = {g: i for i, (g, _) in enumerate(ring.generators)}

        def exps(m):
            out = [0] * len(syms)
            for g, e in m:
                out[index[g]] = e
            return out

        exprs = [
            sum(sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[s ** e for s, e in zip(syms, exps(m))])
                for m, c in rel.terms.items())
            for rel in ring.relations
        ]
        # the ideals are weight-homogeneous, so the standard monomials of
        # any monomial order count the quotient in each weight
        G = sympy.groebner(exprs, *syms, order="grevlex")
        leads = [sympy.Poly(g, *syms).monoms(order="grevlex")[0] for g in G.exprs]
        for d in range(21):
            count = sum(
                1 for m in ring.basis(d)
                if not any(all(a <= b for a, b in zip(lead, exps(m))) for lead in leads)
            )
            assert ring.dim(d) == count, (ring.spec.name, d)


@given(st.integers(2, 5), st.integers(0, 6), st.integers(0, 3), st.integers(-4, 4).filter(bool))
def test_normal_forms_are_exact_when_the_leading_coefficient_is_not_one(c, n, b, k):
    """In Q[x, y]/(c x^2 - y^2), x^n y^b = c^-j x^(n - 2j) y^(b + 2j) with
    j = n // 2: the relation's lead c must be inverted as a Fraction."""
    x, y = x_gen(1), x_gen(2)
    X, Y = Poly.gen(x), Poly.gen(y)
    ring = GradedRing(RingSpec("lead c", [(x, 2), (y, 2)], [c * X * X - Y * Y]))
    j = n // 2
    want = Fraction(k, c ** j)
    mono = tuple(m for m in ((x, n - 2 * j), (y, b + 2 * j)) if m[1])
    got = ring.normal_form(k * X ** n * Y ** b)
    assert got.terms == {mono: want}
    (coeff,) = got.terms.values()
    assert type(coeff) is (int if want.denominator == 1 else Fraction)


@given(st.data())
def test_mult_matrix_columns_are_normal_forms(data):
    """Column j of mult_matrix(p, d) holds the coordinates of the normal form
    of p m_j, m_j the j-th standard monomial of weight d, in the standard
    monomials of weight d + deg p: on random rings and on W_(1,1,1)."""
    if data.draw(st.booleans()):
        ring = build_W(Composition.of(1, 1, 1))
    else:
        ring = draw_random_ring(data)
    monos = ring.basis(data.draw(st.sampled_from([w for w in (0, 2, 4, 6) if ring.basis(w)])))
    chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    p = Poly({m: data.draw(st.integers(-3, 3).filter(bool)) for m in chosen})
    d = data.draw(st.integers(0, 10))
    gb = ring._groebner()
    index = {ring._mono(e): i for i, e in enumerate(gb.standard(d + p.degree().q))}
    cols = ring.mult_matrix(p, d)
    assert len(cols) == ring.dim(d)
    for col, exps in zip(cols, gb.standard(d)):
        it = iter(col)
        product = ring.normal_form(p * Poly({ring._mono(exps): 1}))
        assert dict(zip(it, it)) == {index[m]: c for m, c in product.terms.items()}
