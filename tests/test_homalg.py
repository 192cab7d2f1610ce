import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fraylab import criteria
from fraylab import homalg as homalg_module
from fraylab import symfun as symfun_module
from fraylab.grading import MultiDegree, parity
from fraylab.homalg import (
    ChainMap,
    CurvedComplex,
    Entry,
    GradedRing,
    PM_ONE,
    PMono,
    ParamSpec,
    RC_Object,
    RingSpec,
    SdrData,
    cone,
    gaussian_eliminate,
    homology_truncated,
    nonvanishing,
    pm_degree,
    pm_from,
    pm_mul,
)
from fraylab.qseries import Window
from fraylab.ssbim import build_W, build_identity, projector
from fraylab.symfun import Composition, Poly, eval_at_point, expand_to_x, x_gen


@pytest.fixture
def qx():
    return GradedRing(RingSpec("Qx", [(x_gen(1), 2)], []))


@pytest.fixture
def qxy():
    return GradedRing(RingSpec("Qxy", [(x_gen(1), 2), (x_gen(2), 2)], []))


def two_term(ring, entry: Poly) -> CurvedComplex:
    dq = entry.degree().q if not entry.is_zero() else 2
    objs = [
        RC_Object(MultiDegree(0, 0, 0), ring),
        RC_Object(MultiDegree(0, -dq, 1), ring),
    ]
    terms = {PM_ONE: {(1, 0): Entry.plain(entry)}} if not entry.is_zero() else {}
    cx = CurvedComplex(objs, ParamSpec.make([]), terms)
    cx.check_homogeneous()
    return cx


# -- parameter algebra ----------------------------------------------------------

def theta_spec():
    return ParamSpec.make([
        ("t1", MultiDegree(0, -2, 1), "odd"),
        ("t2", MultiDegree(0, -4, 1), "odd"),
        ("u", MultiDegree(0, -2, 2), "even"),
    ])


def test_exterior_relations():
    spec = theta_spec()
    th = pm_from(thetas=["t1"])
    thd = pm_from(duals=["t1"])
    # theta^2 = 0, dual^2 = 0
    assert pm_mul(spec, th, th) == []
    assert pm_mul(spec, thd, thd) == []
    # theta-dual theta + theta theta-dual = 1
    a = pm_mul(spec, thd, th)
    b = pm_mul(spec, th, thd)
    combined = {}
    for s, m in a + b:
        combined[m] = combined.get(m, 0) + s
    combined = {m: c for m, c in combined.items() if c}
    assert combined == {PM_ONE: 1}


def test_odd_anticommute_even_central():
    spec = theta_spec()
    t1 = pm_from(thetas=["t1"])
    t2 = pm_from(thetas=["t2"])
    assert pm_mul(spec, t1, t2) == [(1, pm_from(thetas=["t1", "t2"]))]
    assert pm_mul(spec, t2, t1) == [(-1, pm_from(thetas=["t1", "t2"]))]
    u = pm_from(evens={"u": 1})
    assert pm_mul(spec, u, t1) == [(1, PMono((("u", 1),), ("t1",), ()))]
    assert pm_mul(spec, t1, u) == [(1, PMono((("u", 1),), ("t1",), ()))]


def _word_normal_order(word: tuple) -> list[tuple[int, tuple]]:
    """Normal-order a word of ('t', name) / ('d', name) odd letters by
    rewriting its first violation, left to right.  Returns [(sign, word)]
    with words sorted thetas-then-duals ascending."""
    for i in range(len(word) - 1):
        (k1, n1), (k2, n2) = word[i], word[i + 1]
        swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
        if k1 == k2:
            if n1 == n2:
                return []
            if n1 > n2:
                return [(-s, w) for s, w in _word_normal_order(swapped)]
        elif k1 == "d":
            if n1 == n2:
                # d t = 1 - t d
                return _word_normal_order(word[:i] + word[i + 2:]) + [
                    (-s, w) for s, w in _word_normal_order(swapped)
                ]
            return [(-s, w) for s, w in _word_normal_order(swapped)]
    return [(1, word)]


def ref_pm_mul(s: PMono, r: PMono) -> list[tuple[int, PMono]]:
    """s o r by rewriting the word s.thetas s.duals r.thetas r.duals."""
    evens = dict(s.evens)
    for n, e in r.evens:
        evens[n] = evens.get(n, 0) + e
    word = (tuple(("t", n) for n in s.thetas) + tuple(("d", n) for n in s.duals)
            + tuple(("t", n) for n in r.thetas) + tuple(("d", n) for n in r.duals))
    return [
        (sign, PMono(tuple(sorted(evens.items())),
                     tuple(n for k, n in w if k == "t"), tuple(n for k, n in w if k == "d")))
        for sign, w in _word_normal_order(word)
    ]


def _all_pmonos(odd_names, even_parts):
    subsets = [c for k in range(len(odd_names) + 1)
               for c in itertools.combinations(odd_names, k)]
    return [PMono(ev, th, du) for ev in even_parts for th in subsets for du in subsets]


def test_pm_mul_matches_word_rewrite_oracle():
    """The closed form gives the rewrite's terms in the rewrite's order, on
    every pair over three odd names with evens (), u and u y^2."""
    monos = _all_pmonos(("t1", "t2", "t3"), [(), (("u", 1),), (("u", 1), ("y", 2))])
    assert len(monos) ** 2 == 36864
    spec = theta_spec()
    contracting = 0
    for s in monos:
        for r in monos:
            assert pm_mul(spec, s, r) == ref_pm_mul(s, r), (s, r)
            contracting += bool(set(s.duals) & set(r.thetas))
    assert contracting > 20000


def test_pm_degree():
    spec = theta_spec()
    m = PMono((("u", 2),), ("t1",), ("t2",))
    assert pm_degree(spec, m) == MultiDegree(0, -4 - 2 + 4, 2 * 2 + 1 - 1)


# -- middle interchange ------------------------------------------------------------

def test_middle_interchange_sign_law(qx):
    """(f (x) s) o (f' (x) s') = (-1)^{<deg f', deg s>} (f o f') (x) (s' s)
    on homogeneous multiplication monomials."""
    spec = theta_spec()
    objs = [
        RC_Object(MultiDegree(0, 0, 0), qx),
        RC_Object(MultiDegree(0, -2, 1), qx),
    ]
    cx = CurvedComplex(objs, spec)
    rng = random.Random(2)
    monos = [pm_from(thetas=["t1"]), pm_from(thetas=["t2"]),
             pm_from(evens={"u": 1}), PM_ONE]
    for _ in range(30):
        s = rng.choice(monos)
        r = rng.choice(monos)
        i, j = rng.choice([(0, 1), (1, 0), (0, 0), (1, 1)])
        jj, k = j, rng.choice([0, 1])
        f = {s: {(i, j): Entry.plain(Poly.one())}}
        g = {r: {(jj, k): Entry.plain(Poly.one())}}
        lhs = cx.compose_terms(f, g)
        # expected: sign * (f o f') (x) normal_order(s' s) with s' s = r o s
        fdeg = cx.objects[i].degree - cx.objects[jj].degree  # deg of f-entry part
        gdeg = cx.objects[jj].degree - cx.objects[k].degree
        sign = (-1) ** parity(gdeg, pm_degree(spec, s))
        expected = {}
        for ms, mono in pm_mul(spec, s, r):
            expected.setdefault(mono, {})[(i, k)] = ms * sign
        got = {
            mono: {ij: e.plain_part().constant_value() for ij, e in mat.items()}
            for mono, mat in lhs.items()
        }
        want = {
            mono: {ij: Fraction(v) for ij, v in mat.items()}
            for mono, mat in expected.items()
            if any(v for v in mat.values())
        }
        assert got == want, (s, r, i, j, k)


# -- one-pass composition against the Entry-by-Entry reference -----------------------

TAGS = ("f", "g")


def _ref_entry_compose(a: Entry, b: Entry, rules) -> Entry:
    """a after b, one summand pair at a time, each product a new Entry."""
    out = Entry()
    for t1, p1 in a.parts.items():
        for t2, p2 in b.parts.items():
            if t1 is None or t2 is None:
                tag = t2 if t1 is None else t1
            elif (t1, t2) in rules:
                tag = rules[(t1, t2)]
            else:
                raise ValueError(f"no composition rule for opaque tags {t1!r} o {t2!r}")
            out = out + Entry({tag: p1 * p2})
    return out


def ref_compose_terms(cx: CurvedComplex, t1, t2):
    """compose_terms as a sum of Entry products, one per parameter product."""
    out = {}
    for s, A in t1.items():
        eps = cx._eps(s)
        for r, B in t2.items():
            for msign, mono in pm_mul(cx.params, s, r):
                if not cx._within_cap(mono):
                    continue
                tgt = out.setdefault(mono, {})
                for (i, j), a in A.items():
                    for (jj, k), b in B.items():
                        if jj == j:
                            piece = _ref_entry_compose(a, b, cx.opaque_rules)
                            piece = piece.scale(msign * eps[j] * eps[k])
                            tgt[(i, k)] = tgt.get((i, k), Entry()) + piece
    return {
        m: {ij: e for ij, e in mat.items() if not e.is_zero()}
        for m, mat in out.items()
        if any(not e.is_zero() for e in mat.values())
    }


def as_parts(terms):
    return {m: {ij: dict(e.parts) for ij, e in mat.items()} for m, mat in terms.items()}


def _random_poly(rng: random.Random) -> Poly:
    # few monomials and coefficients, so that sums often cancel
    monos = [(), ((x_gen(1), 1),), ((x_gen(2), 1),), ((x_gen(1), 1), (x_gen(2), 2))]
    return Poly({rng.choice(monos): rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
                 for _ in range(rng.randint(1, 3))})


def _random_entry(rng: random.Random) -> Entry:
    tags = rng.sample((None,) + TAGS, rng.randint(1, 2))
    return Entry({tag: _random_poly(rng) for tag in tags})


def random_terms(rng: random.Random, n: int) -> dict:
    """Random terms on n objects over odd t1, t2 and even u, v, with
    opaque tags."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = pm_from({name: rng.randint(0, 2) for name in ("u", "v")},
                       rng.sample(["t1", "t2"], rng.randint(0, 2)),
                       rng.sample(["t1", "t2"], rng.randint(0, 1)))
        mat = terms.setdefault(mono, {})
        for _ in range(rng.randint(1, 4)):
            mat[(rng.randrange(n), rng.randrange(n))] = _random_entry(rng)
    return terms


def random_complex(rng: random.Random, min_objects: int = 1) -> CurvedComplex:
    """A random (not Maurer-Cartan) multi-object complex with odd and even
    parameters, opaque tags with a rule for every pair, and maybe a cap."""
    ring = GradedRing(RingSpec("Qxy", [(x_gen(1), 2), (x_gen(2), 2)], []))
    objs = [RC_Object(MultiDegree(rng.randint(0, 1), rng.randint(-2, 2), rng.randint(0, 2)), ring)
            for _ in range(rng.randint(min_objects, 3))]
    params = ParamSpec.make([
        ("t1", MultiDegree(rng.randint(0, 1), -2, 1), "odd"),
        ("t2", MultiDegree(0, -4, rng.randint(0, 1)), "odd"),
        ("u", MultiDegree(rng.randint(0, 1), -2, 2), "even"),
        ("v", MultiDegree(1, 0, rng.randint(0, 1)), "even"),
    ])
    rules = {(t1, t2): rng.choice((None,) + TAGS) for t1 in TAGS for t2 in TAGS}
    return CurvedComplex(objs, params, random_terms(rng, len(objs)),
                         cap=rng.choice([None, 0, 1, 2]), opaque_rules=rules)


@settings(max_examples=100)
@given(st.randoms(use_true_random=False), st.randoms(use_true_random=False))
def test_compose_terms_matches_entry_by_entry_reference(rng1, rng2):
    cx = random_complex(rng1)
    other = random_terms(rng2, len(cx.objects))
    for t1, t2 in ((cx.terms, cx.terms), (cx.terms, other), (other, cx.terms)):
        got = cx.compose_terms(t1, t2)
        assert as_parts(got) == as_parts(ref_compose_terms(cx, t1, t2))
        # nothing zero is kept, and integral coefficients are ints
        for mat in got.values():
            assert mat
            for e in mat.values():
                assert e.parts
                for p in e.parts.values():
                    assert p.terms
                    for c in p.terms.values():
                        assert c and (c.__class__ is int or c.denominator != 1)


def test_compose_terms_unknown_tag_pair_raises(qx):
    cx = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), qx)], ParamSpec.make([]),
                       opaque_rules={("f", "f"): None})
    f = {PM_ONE: {(0, 0): Entry.opaque("f")}}
    g = {PM_ONE: {(0, 0): Entry.opaque("g")}}
    assert cx.compose_terms(f, f)[PM_ONE][(0, 0)].plain_part() == Poly.one()
    with pytest.raises(ValueError, match="no composition rule"):
        cx.compose_terms(f, g)


def random_plain_one_object(rng: random.Random) -> CurvedComplex:
    """A random (not Maurer-Cartan) one-object complex with plain entries
    over odd t1, t2, t3 and even u, v, with thetas meeting their duals, and
    maybe a cap."""
    ring = GradedRing(RingSpec("Qxy", [(x_gen(1), 2), (x_gen(2), 2)], []))
    params = ParamSpec.make([
        ("t1", MultiDegree(rng.randint(0, 1), -2, 1), "odd"),
        ("t2", MultiDegree(0, -4, rng.randint(0, 1)), "odd"),
        ("t3", MultiDegree(1, 0, 1), "odd"),
        ("u", MultiDegree(0, -2, 2), "even"),
        ("v", MultiDegree(1, 0, rng.randint(0, 1)), "even"),
    ])
    odd = ["t1", "t2", "t3"]
    terms = {}
    for _ in range(rng.randint(1, 7)):
        mono = pm_from({name: rng.randint(0, 2) for name in ("u", "v")},
                       rng.sample(odd, rng.randint(0, 2)), rng.sample(odd, rng.randint(0, 2)))
        terms[mono] = {(0, 0): Entry.plain(_random_poly(rng))}
    obj = RC_Object(MultiDegree(rng.randint(0, 1), 0, rng.randint(0, 2)), ring)
    return CurvedComplex([obj], params, terms, cap=rng.choice([None, 0, 1, 2, 3]))


@settings(max_examples=150)
@given(st.randoms(use_true_random=False), st.booleans())
def test_square_equals_compose_terms(rng, one_object):
    """square() is compose_terms(terms, terms): one-object plain complexes
    by the pair rule, multi-object and opaque ones by the general path."""
    cx = random_plain_one_object(rng) if one_object else random_complex(rng)
    assert as_parts(cx.square()) == as_parts(cx.compose_terms(cx.terms, cx.terms))


def _one_object(ring, params, terms):
    return CurvedComplex([RC_Object(MultiDegree(0, 0, 0), ring)], params, terms)


def test_square_cancels_anticommuting_odd_pairs_without_products(qxy, monkeypatch):
    """Two odd monomials that meet no dual of each other anticommute: their
    pair cancels with no parameter or ring product, and s s = 0."""
    x, y = Poly.gen(x_gen(1)), Poly.gen(x_gen(2))
    th1, th2d = pm_from(thetas=["t1"]), pm_from(thetas=["t2"], duals=["t1", "t3"])
    spec = ParamSpec.make([("t1", MultiDegree(0, -2, 1), "odd"),
                           ("t2", MultiDegree(0, -2, 1), "odd"),
                           ("t3", MultiDegree(0, -2, 1), "odd")])
    cx = _one_object(qxy, spec, {pm_from(thetas=["t2"]): {(0, 0): Entry.plain(x)},
                                 pm_from(thetas=["t3"]): {(0, 0): Entry.plain(y)}})
    calls = []
    monkeypatch.setattr(homalg_module, "pm_mul",
                        lambda spec, s, r: calls.append((s, r)) or pm_mul(spec, s, r))
    monkeypatch.setattr(Poly, "__mul__", lambda *a: pytest.fail("ring product"))
    assert cx.square() == {}
    assert all(s == r for s, r in calls)
    # an odd pair that contracts in one order is multiplied out
    cx = _one_object(qxy, spec, {th1: {(0, 0): Entry.plain(x)}, th2d: {(0, 0): Entry.plain(y)}})
    monkeypatch.undo()
    assert as_parts(cx.square()) == as_parts(cx.compose_terms(cx.terms, cx.terms))
    # t1 (t2 d1 d3) + (t2 d1 d3) t1 = -t2 d3: the contraction of d1 against t1
    assert as_parts(cx.square()) == {pm_from(thetas=["t2"], duals=["t3"]): {(0, 0): {None: -x * y}}}


def test_square_multiplies_each_cancelling_free_pair_once(monkeypatch):
    """On the def_infinite (1,1,1) projector, square() makes at most one ring
    product per unordered pair of terms whose parameter coefficients do not
    all cancel: its monomial products are at most sum |p_s| |p_r| over
    those pairs."""
    cx = projector(Composition.of(1, 1, 1), "def_infinite", cap=3, check=False).complex
    assert len(cx.objects) == 1
    items = [(s, mat[(0, 0)].plain_part()) for s, mat in cx.terms.items()]
    pairs = bound = 0
    for a, (s, p) in enumerate(items):
        for r, q in items[a:]:
            prods = ref_pm_mul(s, s) if r is s else ref_pm_mul(s, r) + ref_pm_mul(r, s)
            coeffs = {}
            for c, m in prods:
                if cx._within_cap(m):
                    coeffs[m] = coeffs.get(m, 0) + c
            if any(coeffs.values()):
                pairs += 1
                bound += len(p.terms) * len(q.terms)
    assert 0 < pairs < len(items) * (len(items) + 1) // 2
    counts = {"poly": 0, "mono": 0}
    poly_mul, mono_mul = Poly.__mul__, symfun_module._mono_mul

    def counting_poly_mul(self, other):
        counts["poly"] += isinstance(other, Poly)
        return poly_mul(self, other)

    def counting_mono_mul(m1, m2):
        counts["mono"] += 1
        return mono_mul(m1, m2)

    monkeypatch.setattr(Poly, "__mul__", counting_poly_mul)
    monkeypatch.setattr(symfun_module, "_mono_mul", counting_mono_mul)
    monkeypatch.setattr(homalg_module, "_mono_mul", counting_mono_mul)
    sq = cx.square()
    monkeypatch.undo()
    assert counts["poly"] <= pairs
    assert 0 < counts["mono"] <= bound
    assert as_parts(sq) == as_parts(cx.compose_terms(cx.terms, cx.terms))


def _ref_gauss_terms(C: CurvedComplex, r: int, c: int):
    """The corrected differential eps - gamma phi^-1 kappa, by the loop over
    gamma and kappa components with one Entry product each."""
    inv = Fraction(1) / C.objects[r].ring.normal_form(
        C.terms[PM_ONE][(r, c)].plain_part()).constant_value()
    keep = [i for i in range(len(C.objects)) if i not in (r, c)]
    reindex = {old: new for new, old in enumerate(keep)}
    out = {}
    for mono, mat in C.terms.items():
        for (i, j), e in mat.items():
            if i not in (r, c) and j not in (r, c):
                out.setdefault(mono, {})[(reindex[i], reindex[j])] = e
    gammas, kappas = {}, {}
    for mono, mat in C.terms.items():
        for (i, j), e in mat.items():
            if j == c and i not in (r, c):
                gammas.setdefault(mono, {})[i] = e
            if i == r and j not in (r, c):
                kappas.setdefault(mono, {})[j] = e
    for m1, gam in gammas.items():
        e1 = C._eps(m1)
        for m2, kap in kappas.items():
            for sign0, mono in pm_mul(C.params, m1, m2):
                if not C._within_cap(mono):
                    continue
                tgt = out.setdefault(mono, {})
                for i, ge in gam.items():
                    for j, ke in kap.items():
                        piece = _ref_entry_compose(ge, ke, C.opaque_rules)
                        piece = piece.scale(-inv * sign0 * e1[c] * e1[j])
                        ij = (reindex[i], reindex[j])
                        tgt[ij] = tgt.get(ij, Entry()) + piece
    return CurvedComplex([C.objects[i] for i in keep], C.params, out).terms


@pytest.mark.parametrize("seed", range(40))
def test_gaussian_eliminate_matches_reference_loop(seed):
    rng = random.Random(seed)
    C = random_complex(rng, min_objects=3)
    r, c = rng.sample(range(len(C.objects)), 2)
    C.terms.setdefault(PM_ONE, {})[(r, c)] = Entry.plain(
        Poly.const(rng.choice([1, -1, 2, Fraction(-1, 3)])))
    red, sdr = gaussian_eliminate(C, (r, c))
    assert as_parts(red.terms) == as_parts(_ref_gauss_terms(C, r, c))


@pytest.mark.parametrize("build", [
    lambda: build_W(Composition.of(1, 1)),
    lambda: build_W(Composition.of(2, 1)),
    lambda: build_W(Composition.of(2), Composition.of(1, 1)),
    lambda: build_identity(Composition.of(2, 1)),
    lambda: build_identity(Composition.of(1, 2)),
])
def test_sampled_zero_agrees_with_raw_expansion(build):
    ring = build()
    spec = ring.spec
    rng = random.Random(3)
    gens = [Poly.gen(g) for g, _ in spec.generators]
    rels = [r for r in spec.relations if not r.is_zero()] or [gens[0] - gens[0]]
    polys = []
    for _ in range(12):
        zero = sum((rng.choice(gens) * rel for rel in rels), Poly.zero())
        polys += [zero, zero + rng.choice(gens), rng.choice(gens) * rng.choice(gens)]
    seen = set()
    for p in polys:
        raw = expand_to_x(p, *spec.alphabets)
        want = all(eval_at_point(raw, pt, *spec.alphabets) == 0
                   for pt in spec.sampler(20, 0))
        assert ring.sampled_zero(p) == want
        seen.add(want)
    assert seen == {True, False}


# -- koszul ---------------------------------------------------------------------

def koszul(ring, elements, thetas) -> CurvedComplex:
    """The Koszul complex on one object over ring: each element times its
    odd parameter, in the order of thetas; every term must have degree t."""
    terms = {pm_from(thetas=[name]): {(0, 0): Entry.plain(el)}
             for name, el in zip(thetas.odd_names(), elements) if not el.is_zero()}
    cx = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), ring, "koszul")], thetas, terms)
    cx.check_homogeneous()
    return cx


def test_koszul_regular_element(qx):
    th = ParamSpec.make([("th", MultiDegree(0, -2, 1), "odd")])
    K = koszul(qx, [Poly.gen(x_gen(1))], th)
    assert K.mc_check().ok
    H = homology_truncated(K, Window((0, 0), (-4, 8), (0, 2)))
    assert H.coeffs == {(0, -2, 1): Fraction(1)}


def test_koszul_regular_pair(qxy):
    th = ParamSpec.make([
        ("th1", MultiDegree(0, -2, 1), "odd"),
        ("th2", MultiDegree(0, -2, 1), "odd"),
    ])
    K = koszul(qxy, [Poly.gen(x_gen(1)), Poly.gen(x_gen(2))], th)
    H = homology_truncated(K, Window((0, 0), (-6, 6), (0, 3)))
    assert H.coeffs == {(0, -4, 2): Fraction(1)}


def test_koszul_zero_element_splits(qx):
    th = ParamSpec.make([("th", MultiDegree(0, -2, 1), "odd")])
    K = koszul(qx, [Poly.zero()], th)
    H = homology_truncated(K, Window((0, 0), (-4, 2), (0, 1)))
    assert H.coeffs[(0, 0, 0)] == 1 and H.coeffs[(0, -2, 1)] == 1


def test_koszul_degree_mismatch_rejected(qx):
    th = ParamSpec.make([("th", MultiDegree(0, -4, 1), "odd")])
    with pytest.raises(ValueError, match="not t"):
        koszul(qx, [Poly.gen(x_gen(1))], th)


# -- mc_check ----------------------------------------------------------------------

def test_mc_zero_connection(qx):
    cx = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), qx)], ParamSpec.make([]))
    assert cx.mc_check().ok


def test_mc_reports_offender(qx):
    # two even-parameter legs that do not commute fail at a quadratic monomial
    ring0 = GradedRing(RingSpec("Q", [], []))
    objs = [RC_Object(MultiDegree(0, 0, 0), ring0),
            RC_Object(MultiDegree(0, 0, 1), ring0)]
    spec = ParamSpec.make([
        ("uA", MultiDegree(0, 0, 0), "even"),
        ("uB", MultiDegree(0, 0, 2), "even"),
    ])
    terms = {
        pm_from(evens={"uA": 1}): {(1, 0): Entry.plain(Poly.one())},
        pm_from(evens={"uB": 1}): {(0, 1): Entry.plain(Poly.one())},
    }
    cx = CurvedComplex(objs, spec, terms)
    rep = cx.mc_check()
    assert not rep.ok
    assert "uA" in rep.details and "uB" in rep.details


# -- cones and gaussian elimination ------------------------------------------------

def test_cone_identity_contracts(qx):
    one = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), qx)], ParamSpec.make([]))
    idmap = ChainMap(one, one, {PM_ONE: {(0, 0): Entry.plain(Poly.one())}})
    cn = cone(idmap)
    assert homology_truncated(cn, Window((0, 0), (-4, 4), (-2, 2))).coeffs == {}
    red, sdr = gaussian_eliminate(cn, (1, 0))
    assert len(red.objects) == 0
    assert sdr.verify().ok


def test_gauss_rejects_non_unit(qx):
    cx = two_term(qx, Poly.gen(x_gen(1)))
    with pytest.raises(ValueError):
        gaussian_eliminate(cx, (1, 0))


def test_gauss_preserves_homology_randomized():
    records = criteria.gauss(max_n=12, seed=7)
    assert len(records) == 12
    assert all(r["status"] == "pass" for r in records), records


# -- interchange signs on maps between complexes ------------------------------------------

def _swapped_koszul_pair(qx, sign=1):
    """X on objects (t^0, t^1) and Y on the same objects in the other order,
    each with d = theta x on the diagonal (Y's second entry times sign),
    theta odd of t-degree 1.  For sign 1 the swap X -> Y is an isomorphism
    of complexes; for sign -1 it is not a chain map."""
    x = Poly.gen(x_gen(1))
    th = ParamSpec.make([("th", MultiDegree(0, -2, 1), "odd")])
    t0, t1 = RC_Object(MultiDegree(0, 0, 0), qx), RC_Object(MultiDegree(0, 0, 1), qx)
    dx = {pm_from(thetas=["th"]): {(0, 0): Entry.plain(x), (1, 1): Entry.plain(x)}}
    dy = {pm_from(thetas=["th"]): {(0, 0): Entry.plain(x), (1, 1): Entry.plain(sign * x)}}
    X, Y = CurvedComplex([t0, t1], th, dx), CurvedComplex([t1, t0], th, dy)
    for cx in (X, Y):
        cx.check_homogeneous()
        assert cx.mc_check().ok
    swap = {PM_ONE: {(1, 0): Entry.plain(Poly.one()), (0, 1): Entry.plain(Poly.one())}}
    return X, Y, swap


def test_chain_map_signed_by_its_own_objects(qx):
    """d_Y f = f d_X for the swap: d_Y f composes theta after f, whose
    component X_0 -> Y_1 joins objects of t-degree 0, not Y_1 -> Y_0."""
    X, Y, swap = _swapped_koszul_pair(qx)
    assert ChainMap(X, Y, swap).is_closed().ok
    X, Y, swap = _swapped_koszul_pair(qx, -1)
    assert not ChainMap(X, Y, swap).is_closed().ok


def test_sdr_signed_by_its_own_objects(qx):
    """The swap and its inverse, with h = 0, are an SDR from X onto Y: f and
    g are closed, fg = id and gf = id."""
    X, Y, swap = _swapped_koszul_pair(qx)
    assert SdrData(X, Y, swap, swap, {}).verify().ok
    assert not SdrData(*_swapped_koszul_pair(qx, -1), swap, {}).verify().ok


def test_sdr_identities_sign_by_the_objects_their_factors_join(qx):
    """Two SDRs whose theta components meet a factor at an index where big's
    and small's objects differ in t-parity, so each of fg, gf and hg holds
    only when its product is signed by the objects its second factor joins.

    (1) X = (t^0, t^1) and Y = (t^1, t^0) with d = 0; f and g are the swap
    plus theta x on X_0 -> Y_0 and -theta x on Y_1 -> X_1, h = 0.
    (2) big = (Q, Z, P) of degrees q^-2 t, 1, q^-2 with d = 1: P -> Q,
    small = (Z) with d = 0; g = incl + theta: Z -> Q, h = 1: Q -> P plus
    -theta: Z -> P, f = proj.  Then [d, h] = id - gf and hg = 0 hold by a
    cancellation of theta terms."""
    x = Poly.gen(x_gen(1))
    th = ParamSpec.make([("th", MultiDegree(0, -2, 1), "odd")])
    theta = pm_from(thetas=["th"])

    def plain(mat):
        return {ij: Entry.plain(p) for ij, p in mat.items()}

    t0, t1 = RC_Object(MultiDegree(0, 0, 0), qx), RC_Object(MultiDegree(0, 0, 1), qx)
    X, Y = CurvedComplex([t0, t1], th), CurvedComplex([t1, t0], th)
    for sign, ok in ((-1, True), (1, False)):
        f = {PM_ONE: plain({(1, 0): Poly.one(), (0, 1): Poly.one()}), theta: plain({(0, 0): x})}
        g = {PM_ONE: plain({(0, 1): Poly.one(), (1, 0): Poly.one()}),
             theta: plain({(1, 1): sign * x})}
        assert SdrData(X, Y, f, g, {}).verify().ok == ok

    Q, Z, P = (RC_Object(MultiDegree(0, q, t), qx) for q, t in ((-2, 1), (0, 0), (-2, 0)))
    big = CurvedComplex([Q, Z, P], th, {PM_ONE: plain({(0, 2): Poly.one()})})
    small = CurvedComplex([Z], th)
    for cx in (big, small):
        cx.check_homogeneous()
    for sign, ok in ((-1, True), (1, False)):
        f = {PM_ONE: plain({(0, 1): Poly.one()})}
        g = {PM_ONE: plain({(1, 0): Poly.one()}), theta: plain({(0, 0): Poly.one()})}
        h = {PM_ONE: plain({(2, 0): Poly.one()}), theta: plain({(2, 1): Poly.const(sign)})}
        assert SdrData(big, small, f, g, h).verify().ok == ok


# -- shifts ------------------------------------------------------------------------------

def test_shift_involution_and_sign(qx):
    x = Poly.gen(x_gen(1))
    cx = two_term(qx, x)
    up = cx.shifted(MultiDegree(0, 0, 1))
    assert up.terms[PM_ONE][(1, 0)].plain_part() == -1 * x
    back = up.shifted(MultiDegree(0, 0, -1))
    assert back.terms[PM_ONE][(1, 0)].plain_part() == x
    assert [o.degree for o in back.objects] == [o.degree for o in cx.objects]
    # q-shifts are sign-inert
    q = cx.shifted(MultiDegree(0, 1, 0))
    assert q.terms[PM_ONE][(1, 0)].plain_part() == x


def test_complex_json_shape(qx):
    cx = two_term(qx, Poly.gen(x_gen(1)))
    data = cx.to_json()
    assert set(data) == {"objects", "params", "connection", "curvature"}
    assert data["objects"][0]["degree"] == [0, 0, 0]


def test_shift_complex_function(qx):
    """CurvedComplex.shifted moves every object and applies the shift sign."""
    from fraylab.grading import MultiDegree as MD

    x = Poly.gen(x_gen(1))
    cx = two_term(qx, x)
    shifted = cx.shifted(MD(0, 0, 1))
    assert shifted.terms[PM_ONE][(1, 0)].plain_part() == -1 * x
    assert shifted.objects[0].degree == MD(0, 0, 1)
    again = shifted.shifted(MD(0, 0, -1))
    assert again.terms[PM_ONE][(1, 0)].plain_part() == x


def test_derived_keeps_cap_and_opaque_rules(qx):
    rules = {("f", "g"): None}
    cx = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), qx)], ParamSpec.make([]),
                       {PM_ONE: {(0, 0): Entry.opaque("f")}}, cap=2, opaque_rules=rules)
    for new in (cx.derived(), cx.derived(terms={}), cx.shifted(MultiDegree(0, 2, 0))):
        assert (new.cap, new.opaque_rules) == (2, rules)
    assert cx.derived(terms={}).terms == {}
    assert cx.derived().terms[PM_ONE][(0, 0)].parts == cx.terms[PM_ONE][(0, 0)].parts


# -- the unrolling's guards --------------------------------------------------------------

def test_unrolling_rejects_an_opaque_entry(qx):
    cx = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), qx)], ParamSpec.make([]),
                       {PM_ONE: {(0, 0): Entry({None: Poly.one(), "f": Poly.one()})}})
    with pytest.raises(ValueError, match="opaque"):
        homalg_module.Unrolling(cx, (0, 1))
    with pytest.raises(ValueError, match="opaque"):
        homology_truncated(cx, Window((0, 0), (0, 2), (0, 1)))


def test_unrolling_rejects_objects_over_two_rings(qx, qxy):
    cx = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), qx),
                        RC_Object(MultiDegree(0, 0, 1), qxy)], ParamSpec.make([]))
    with pytest.raises(ValueError, match="one ring"):
        homalg_module.Unrolling(cx, (0, 1))
    with pytest.raises(ValueError, match="one ring"):
        homology_truncated(cx, Window((0, 0), (0, 2), (0, 1)))


@pytest.mark.parametrize("cap", [None, 2])
def test_unrolling_rejects_an_even_parameter_of_t_degree_zero(qx, cap):
    """z of degree q^2 t^0 has unbounded powers in every t-cell; the powers
    kept were once cut at the cap (or at 1 without one), which gave spurious
    t = 0 classes at q = 0, 2, ..., 8 (q = 4, 6, 8 at cap 2)."""
    cx = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), qx), RC_Object(MultiDegree(0, -2, 1), qx)],
                       ParamSpec.make([("z", MultiDegree(0, 2, 0), "even")]),
                       {PMono((("z", 1),), (), ()): {(1, 0): Entry.plain(Poly.one())}}, cap=cap)
    with pytest.raises(ValueError, match="t-degree"):
        homology_truncated(cx, Window((0, 0), (-2, 8), (0, 1)))


def test_homology_truncated_rejects_a_cap_too_small_for_the_window():
    """u^2 of the cap-1 projector would reach t = 4, inside the window; the
    truncated series once came back with t = 3 classes."""
    cx = projector(Composition.of(1), "def_infinite", cap=1).complex
    with pytest.raises(ValueError, match="cap too small"):
        homology_truncated(cx, Window((0, 0), (-2, 6), (0, 6)))
    assert homology_truncated(cx, Window((0, 0), (-2, 6), (0, 2))).coeffs


# -- the one vanishing rule --------------------------------------------------------------

def _plain_terms(cells, mono=PM_ONE):
    """{mono: {cell: plain entry}} from {cell: Poly or number}, zeros left out."""
    return {mono: {ij: Entry.plain(v if isinstance(v, Poly) else Poly.const(v))
                   for ij, v in cells.items() if v}}


def _sdr(ring, **changes):
    """A strong deformation retraction of S0 (+) (P1 -> P2) (+) S1 onto
    S0 (+) S1, every object over ring, with the cells of the maps d_big,
    d_small, f, g, h updated from changes (a 0 deletes a cell)."""
    maps = dict(d_big={(2, 1): 1}, d_small={}, f={(0, 0): 1, (1, 3): 1},
                g={(0, 0): 1, (3, 1): 1}, h={(1, 2): 1})
    for name, cells in changes.items():
        maps[name].update(cells)
    objs = [RC_Object(MultiDegree(0, 0, t), ring) for t in (0, 0, 1, 0)]
    big = CurvedComplex(objs, ParamSpec.make([]), _plain_terms(maps["d_big"]))
    small = CurvedComplex([objs[0], objs[3]], ParamSpec.make([]), _plain_terms(maps["d_small"]))
    return SdrData(big, small, *(_plain_terms(maps[k]) for k in "fgh"))


def _dead_ring():
    """Q[x]/(x): x dies here."""
    return GradedRing(RingSpec("Qx/x", [(x_gen(1), 2)], [Poly.gen(x_gen(1))]))


def _sdr_hg_fails(ring):
    """An extra h-component P0 -> P2 carrying an opaque x: h h kills it in
    its source, big's S0 put over Q[x]/(x), but h g does not, in small's S0."""
    sdr = _sdr(ring)
    sdr.big.objects[0] = RC_Object(MultiDegree(0, 0, 0), _dead_ring())
    sdr.h[PM_ONE][(2, 0)] = Entry.opaque("z", Poly.gen(x_gen(1)))
    return sdr


def _not_closed(ring):
    point = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), ring)], ParamSpec.make([]))
    f = ChainMap(point, two_term(ring, Poly.gen(x_gen(1))), _plain_terms({(0, 0): 1}))
    cone(f)


def _curved_homology(ring):
    cx = CurvedComplex([RC_Object(MultiDegree(0, 0, 0), ring)], ParamSpec.make([]),
                       curvature={PM_ONE: Poly.gen(x_gen(1))})
    homology_truncated(cx, Window((0, 0), (0, 2), (0, 1)))


ONE = "PMono(evens=(), thetas=(), duals=())"


@pytest.mark.parametrize("run, want", [
    (_not_closed, f"cone of a non-closed map: d f - f d fails at mono {ONE} component (1,0)"),
    (lambda r: _sdr(r, f={(0, 0): 2}).verify().details, f"fg != id at mono {ONE} component (0,0)"),
    (lambda r: _sdr(r, h={(1, 2): 0}).verify().details,
     f"[d,h] != id - gf at mono {ONE} component (1,1)"),
    (lambda r: _sdr(r, h={(2, 3): 1}).verify().details,
     f"side condition h^2 fails at mono {ONE} component (1,3)"),
    (lambda r: _sdr(r, h={(0, 3): -1}).verify().details,
     f"side condition fh fails at mono {ONE} component (0,3)"),
    (lambda r: _sdr_hg_fails(r).verify().details,
     f"side condition hg fails at mono {ONE} component (2,0)"),
    (lambda r: _sdr(r, d_small={(1, 0): 1}).verify().details,
     f"f not closed at mono {ONE} component (1,0)"),
    (lambda r: _sdr(r, d_big={(1, 3): 1}).verify().details,
     f"g not closed at mono {ONE} component (1,1)"),
    (_curved_homology, f"non-vanishing curvature at mono {ONE} component (0,0)"),
], ids=["cone", "verify-fg", "verify-dh", "verify-h2", "verify-fh", "verify-hg",
        "verify-df", "verify-dg", "homology"])
def test_each_identity_check_names_its_failing_cell(qx, run, want):
    try:
        details = run(qx)
    except ValueError as err:
        details = str(err)
    assert want in details


def test_nonvanishing_opaque_part_dies_in_target_or_source_ring(qx):
    x = Poly.gen(x_gen(1))
    live, dead = RC_Object(MultiDegree(0, 0, 0), qx), RC_Object(MultiDegree(0, 0, 0), _dead_ring())
    opaque = {PM_ONE: {(0, 0): Entry.opaque("f", x)}}
    assert nonvanishing(opaque, [live], [dead]) is None  # dies only in the source ring
    assert nonvanishing(opaque, [dead], [live]) is None  # dies only in the target ring
    assert nonvanishing(opaque, [live], [live]) == (PM_ONE, 0, 0)  # dies in neither
    # a plain part answers to the target ring alone
    plain = {PM_ONE: {(0, 0): Entry.plain(x)}}
    assert nonvanishing(plain, [live], [dead]) == (PM_ONE, 0, 0)
    assert nonvanishing(plain, [dead], [live]) is None


def test_nonvanishing_reports_the_first_cell_in_order(qx):
    x = Poly.gen(x_gen(1))
    u = pm_from(evens={"u": 1})
    terms = {PM_ONE: {(1, 1): Entry.plain(x), (0, 1): Entry.plain(x), (0, 0): Entry()},
             u: {(1, 0): Entry.plain(x), (0, 1): Entry.plain(x - x)}}
    objs = [RC_Object(MultiDegree(0, 0, 0), qx)] * 2
    first = min(terms, key=repr)
    want = (first, 0, 1) if first == PM_ONE else (first, 1, 0)
    assert nonvanishing(terms, objs, objs) == want
    assert nonvanishing({}, objs, objs) is None


def _recording_ring(counts: list) -> GradedRing:
    """Q[x]/(x^2), whose sampler records every point count asked of it."""
    def sampler(count, seed):
        counts.append(count)
        return [{x_gen(1): Fraction(0)}] * count
    return GradedRing(RingSpec("Qx/x2", [(x_gen(1), 2)], [Poly.gen(x_gen(1), 2)], sampler=sampler))


def _x2_complex(ring) -> CurvedComplex:
    """A -> B (unit), A -> C -> D (x, x) over Q[x]/(x^2): delta^2 = x^2 at
    (D, A) is zero only modulo the relation."""
    x = Poly.gen(x_gen(1))
    objs = [RC_Object(MultiDegree(0, q, t), ring) for q, t in ((0, 0), (0, 1), (-2, 1), (-4, 2))]
    cx = CurvedComplex(objs, ParamSpec.make([]), _plain_terms({(1, 0): 1, (2, 0): x, (3, 2): x}))
    cx.check_homogeneous()
    return cx


@pytest.mark.parametrize("run", [
    lambda ring: _x2_complex(ring).mc_check().ok,
    lambda ring: ChainMap(
        CurvedComplex([RC_Object(MultiDegree(0, 0, 1), ring)], ParamSpec.make([])),
        _x2_complex(ring), _plain_terms({(2, 0): Poly.gen(x_gen(1))})).is_closed().ok,
    lambda ring: gaussian_eliminate(_x2_complex(ring), (1, 0))[1].verify().ok,
    lambda ring: bool(homology_truncated(
        CurvedComplex([RC_Object(MultiDegree(0, 0, 0), ring)], ParamSpec.make([]),
                      curvature={PM_ONE: Poly.gen(x_gen(1), 2)}),
        Window((0, 0), (0, 4), (0, 1)))),
], ids=["mc_check", "is_closed", "verify", "homology_truncated"])
def test_every_check_asks_for_twenty_sample_points(run):
    counts: list = []
    assert run(_recording_ring(counts))
    assert counts and set(counts) == {20}
