from fractions import Fraction

import pytest

from fraylab import hochschild, homalg
from fraylab.hochschild import (
    compose_bimodules,
    default_window,
    hh_bimodule,
    hh_complex,
    trace_check,
    unknot_invariant,
)
from fraylab.linalg import rank_of
from fraylab.qseries import (
    TriSeries,
    Window,
    quantum_int,
    unknot_table,
)
from fraylab.ssbim import (
    build_identity,
    build_W,
    projector,
)
from fraylab.symfun import BOTTOM, TOP, Composition, compositions, p_in_e

from koszul_oracle import SubsetKoszul


def intrinsic(k, w):
    return unknot_table("intrinsic", k).expand(w)


# -- bimodule homology -------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_intrinsic_rows(k):
    w = Window((0, k), (-2 * k, 2 * k + 8), (0, 0))
    res = hh_bimodule(build_identity(Composition.of(k)), w)
    assert res.series.equal_on(intrinsic(k, w), w)


def test_hh_W11_is_quantum_two_times_intrinsic():
    w = Window((0, 2), (-6, 10), (0, 0))
    res = hh_bimodule(build_W(Composition.of(1, 1)), w)
    expected = unknot_table("intrinsic", 2).times_laurent(quantum_int(2)).expand(w)
    assert res.series.equal_on(expected, w)


def test_repeated_hh_call_reuses_koszul_ranks(monkeypatch):
    """Tor dimensions are memoized on the shared Koszul unrolling, so an
    identical second call ranks no Koszul boundary again."""
    M = build_W(Composition.of(1, 1))
    w = Window((0, 2), (-6, 10), (0, 0))
    first = hh_bimodule(M, w).series
    calls = []

    def counting_rank_of(rows):
        calls.append(1)
        return rank_of(rows)

    monkeypatch.setattr(homalg, "rank_of", counting_rank_of)
    assert hh_bimodule(M, w).series.coeffs == first.coeffs
    assert calls == []


def test_hh_rejects_unbalanced():
    M = build_W(Composition.of(1, 1), Composition.of(2))
    with pytest.raises(ValueError):
        hh_bimodule(M, Window((0, 2), (-4, 4), (0, 0)))


@pytest.mark.parametrize("parts", [(1,), (2,), (1, 1), (1, 1, 1), (2, 1)])
def test_generator_basis_independence(parts):
    """Tor over the power-sum differences p_k(X_j) - p_k(X'_j) has the
    dimensions of the product's Tor over e_k(X_j) - e_k(X'_j): the two
    operator lists differ by an invertible triangular change."""
    lam = Composition(parts)
    ring = build_W(lam).ring
    power_sums = [(p_in_e(k, size, j, TOP) - p_in_e(k, size, j, BOTTOM), 2 * k)
                  for j, size in enumerate(lam.parts, start=1) for k in range(1, size + 1)]
    oracle = hochschild.koszul(ring, power_sums)
    product = hochschild.hochschild_data(ring, lam)
    # natural degrees up to 6 above the quantum shift (4 at total color 3,
    # where the graded pieces grow fast)
    d_hi = ring.qshift + (6 if lam.total < 3 else 4)
    cells = [(i, d) for i in range(len(power_sums) + 1) for d in range(d_hi + 1)]
    assert any(product.homology((0, d, -i)) for i, d in cells)
    assert all(oracle.homology((0, d, -i)) == product.homology((0, d, -i)) for i, d in cells)


def _koszul_rings():
    """W_lambda for |lambda| <= 3 and (1,1,1,1), 1_lambda for |lambda| <= 3,
    and both orders of every merge/split composite W_a^(N) * W_(N)^a for
    N <= 3, each with its top composition."""
    small = [Composition(p) for N in (1, 2, 3) for p in compositions(N)]
    out = [(build_W(lam), lam) for lam in small + [Composition.of(1, 1, 1, 1)]]
    out += [(build_identity(lam), lam) for lam in small]
    for a in small:
        full = Composition.of(a.total)
        if a != full:
            for M in (compose_bimodules(build_W(a, full), build_W(full, a)),
                      compose_bimodules(build_W(full, a), build_W(a, full))):
                out.append((M, M.top))
    return [pytest.param(M.ring, comp, id=M.ring.spec.name) for M, comp in out]


@pytest.mark.parametrize("ring, comp", _koszul_rings())
def test_tor_is_the_unrolled_koszul_complex(ring, comp):
    """The unrolled one-object Koszul complex has the exterior-subset
    complex's boundaries, dict for dict, and its Tor dimensions, both as
    homology and as the number of classes."""
    data = hochschild.hochschild_data(ring, comp)
    oracle = SubsetKoszul(ring, hochschild.hh_operators(comp))
    cells = [(i, d) for i in range(len(oracle.ops) + 2) for d in range(13)]
    assert any(oracle.dims(i, d) for i, d in cells)
    for i, d in cells:
        assert data.matrix((0, d, -i)) == oracle.boundary(i, d), (i, d)
        assert data.homology((0, d, -i)) == oracle.dims(i, d), (i, d)
        assert data.classes((0, d, -i)).n_classes == oracle.dims(i, d), (i, d)


def test_a_exponent_range():
    w = Window((0, 5), (-6, 10), (0, 0))
    res = hh_bimodule(build_W(Composition.of(1, 1)), w)
    assert all(0 <= d[0] <= 2 for d in res.series.coeffs)


@pytest.mark.parametrize("finite_projector", [False, True], ids=["W_(1,1)", "finite_(1,1)"])
def test_table_series_is_the_natural_series_reoriented(finite_projector):
    """The one orientation map: the table series is the natural one under
    (a, q, t) |-> (N - a, q - N(N+1), t), here on windows that the map
    carries onto each other."""
    lam, N = Composition.of(1, 1), 2
    table_w = Window((0, N), (-6, 10), (0, 2))
    natural_w = Window((0, N), (-6 + N * (N + 1), 10 + N * (N + 1)), (0, 2))
    if finite_projector:
        cx = projector(lam, "finite").complex
        table = hh_complex(cx, lam, table_w).series
        natural = hh_complex(cx, lam, natural_w, orientation="natural").series
    else:
        table = hh_bimodule(build_W(lam), table_w).series
        natural = hh_bimodule(build_W(lam), natural_w, orientation="natural").series
    assert table.coeffs
    assert table.coeffs == {(N - a, q - N * (N + 1), t): c
                            for (a, q, t), c in natural.coeffs.items()}


# -- trace property ----------------------------------------------------------------

def test_trace_identity_trivial():
    ident = build_identity(Composition.of(2))
    w = Window((0, 2), (-4, 8), (0, 0))
    rep = trace_check(ident, ident, w)
    assert rep["ok"]


def test_trace_split_merge_digon():
    M_split = build_W(Composition.of(1, 1), Composition.of(2))
    M_merge = build_W(Composition.of(2), Composition.of(1, 1))
    w = Window((0, 2), (-6, 10), (0, 0))
    rep = trace_check(M_split, M_merge, w)
    assert rep["ok"], rep["mismatches"]
    # one order exhibits the digon factor [2]: the (2)-side composite is
    # [2] x identity, so its hh equals [2] x hh(1_(2)) up to normalization
    digon = compose_bimodules(M_merge, M_split)
    res = hh_bimodule(digon, w)
    expected = unknot_table("intrinsic", 2).times_laurent(quantum_int(2)).expand(w)
    assert res.series.equal_on(expected, w)


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 1, 1)])
def test_trace_merge_split_pairs(parts):
    a = Composition(parts)
    full = Composition.of(a.total)
    w = Window((0, a.total), (-6, 10), (0, 0))
    rep = trace_check(build_W(a, full), build_W(full, a), w)
    assert rep["ok"], rep["mismatches"]


def test_trace_random_small_pairs():
    import random

    rng = random.Random(1)
    comps = [Composition.of(1, 1), Composition.of(2)]
    w = Window((0, 2), (-6, 8), (0, 0))
    for _ in range(10):
        a, b = rng.choice(comps), rng.choice(comps)
        rep = trace_check(build_W(a, b), build_W(b, a), w)
        assert rep["ok"], (a, b, rep["mismatches"])


# -- factor laws ---------------------------------------------------------------------

def _factor_law_window(n):
    return Window((0, n), (-2 * n, 2 * n + 6), (0, n))


def _natural_factor_check(lam, variant, t_factors, t_hi, cap=3):
    """Compare hh(projector) with factor * hh(1_(n)) in the natural Tor
    orientation (both sides transform identically to the table form, and
    the natural degrees stay small at n = 3)."""
    n = lam.total
    q_hi = 4 if n >= 3 else 2 * n + 6
    w = Window((0, n), (0, q_hi), (0, t_hi))
    # slack covers the full q-span of f_{n,lambda} plus the t-factor shifts
    slack = 2 * n + 2 * t_hi + 4
    big = Window((0, n), (-slack, q_hi + slack), (0, t_hi))
    proj = projector(lam, variant, cap=cap)
    got = hh_complex(proj.complex, lam, w, orientation="natural").series
    base = hh_bimodule(build_identity(Composition.of(n)), big,
                       orientation="natural").series
    from fraylab.qseries import f_factor

    factor = TriSeries(big, {(0, k, 0): c for k, c in f_factor(n, lam).c.items()})
    for mono in t_factors:
        factor = factor * TriSeries(big, {(0, 0, 0): Fraction(1), mono: Fraction(1)})
    expected = (base * factor).restrict(w)
    assert got.equal_on(expected, w), got.mismatches(expected, w)[:5]


@pytest.mark.parametrize("parts", [(1,), (1, 1), (2,)])
def test_tr_fray_factor_law(parts):
    """hh(finite fray of 1_(n)) = prod_{j,k} (1 + t q^{-2k}) f_{n,lambda} hh(1_(n))."""
    lam = Composition(parts)
    n = lam.total
    w = _factor_law_window(n)
    proj = projector(lam, "finite")
    got = hh_complex(proj.complex, lam, w).series
    expr = unknot_table("intrinsic", n)
    for j, size in enumerate(lam.parts, start=1):
        for k in range(1, size + 1):
            expr.numerator.append({(0, 0, 0): Fraction(1), (0, -2 * k, 1): Fraction(1)})
    from fraylab.qseries import f_factor

    expected = expr.times_laurent(f_factor(n, lam)).expand(w)
    assert got.equal_on(expected, w), got.mismatches(expected, w)[:5]


@pytest.mark.parametrize("parts", [(1, 1, 1), (2, 1), (3,)])
def test_tr_fray_factor_law_n3(parts):
    lam = Composition(parts)
    t_factors = [
        (0, -2 * k, 1)
        for size in lam.parts
        for k in range(1, size + 1)
    ]
    _natural_factor_check(lam, "finite", t_factors, t_hi=lam.total)


@pytest.mark.parametrize("parts", [(1,), (1, 1), (2,)])
def test_tr_yfray_factor_law(parts):
    """hh(deformed finite fray of 1_(n)) = f_{n,lambda} hh(1_(n)); the
    y-directions cancel entirely within the cap."""
    lam = Composition(parts)
    n = lam.total
    w = Window((0, n), (-2 * n, 2 * n + 6), (0, 2))
    proj = projector(lam, "def_finite", cap=3)
    got = hh_complex(proj.complex, lam, w).series
    from fraylab.qseries import f_factor

    expected = unknot_table("intrinsic", n).times_laurent(f_factor(n, lam)).expand(w)
    assert got.equal_on(expected, w), got.mismatches(expected, w)[:5]


@pytest.mark.parametrize("parts", [(1, 1, 1), (2, 1), (3,)])
def test_tr_yfray_factor_law_n3(parts):
    _natural_factor_check(Composition(parts), "def_finite", [], t_hi=2)


@pytest.mark.parametrize("parts", [(1,), (1, 1), (2,)])
def test_tr_yufray_factor_law(parts):
    """hh(deformed infinite fray of 1_(n)) = f_{n,lambda} x def-intrinsic row."""
    lam = Composition(parts)
    n = lam.total
    w = Window((0, n), (-2 * n, 2 * n + 6), (0, 4))
    proj = projector(lam, "def_infinite", cap=3)
    got = hh_complex(proj.complex, lam, w).series
    from fraylab.qseries import f_factor

    expected = (
        unknot_table("def_intrinsic", n).times_laurent(f_factor(n, lam)).expand(w)
    )
    assert got.equal_on(expected, w), got.mismatches(expected, w)[:6]


# -- unknot reports --------------------------------------------------------------------

def test_unknot_reports():
    rep, computed, expected = unknot_invariant("def_finite", 1)
    assert rep["match"] and rep["monomial_defect"] is None
    rep2, _, _ = unknot_invariant("infinite", 2, cap=3)
    assert rep2["match"] and rep2["monomial_defect"] is None


def test_unknot_desk_limits():
    with pytest.raises(ValueError):
        unknot_invariant("infinite", 4)
    with pytest.raises(ValueError):
        unknot_invariant("bogus", 1)


def test_cap_sufficiency_guard():
    lam = Composition.of(1)
    proj = projector(lam, "def_infinite", cap=1)
    with pytest.raises(ValueError):
        hh_complex(proj.complex, lam, Window((0, 1), (-2, 6), (0, 6)))


def test_hh_complex_rejects_an_opaque_entry():
    lam = Composition.of(1)
    cx = projector(lam, "finite").complex
    terms = {**cx.terms, homalg.PM_ONE: {(0, 0): homalg.Entry.opaque("f")}}
    with pytest.raises(ValueError, match="opaque"):
        hh_complex(cx.derived(terms=terms), lam, Window((0, 1), (-2, 6), (0, 2)))


# -- windows below natural q-degree 0 ------------------------------------------------

@pytest.mark.parametrize("k, window, classes", [
    (1, Window((0, 1), (-8, 6), (0, 3)), {(1, -4, 1): 1}),
    (2, Window((0, 2), (-10, 8), (0, 2)), {(1, -9, 2): 1, (2, -9, 1): 2, (2, -9, 2): 2}),
])
def test_finite_row_below_natural_degree_zero(k, window, classes):
    """The theta monomials carry negative q, so on these windows the
    natural q-degrees of the projector's classes reach below 0."""
    rep, computed, _ = unknot_invariant("finite", k, window=window)
    assert rep["match"], rep["mismatches"][:5]
    for deg, dim in classes.items():
        assert computed.coeffs.get(deg) == dim


# -- one computation per piece ---------------------------------------------------------

def _record_calls(monkeypatch, name):
    """Wrap Unrolling.<name>; return the list of argument tuples of the
    calls on the shared Koszul unrollings (polynomials compare by value)."""
    calls = []
    original = getattr(homalg.Unrolling, name)

    def wrapper(self, *args):
        if any(self is tor for tor in hochschild._HH_DATA_CACHE.values()):
            calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(homalg.Unrolling, name, wrapper)
    return calls


def test_hh_complex_induces_each_action_once(monkeypatch):
    lam = Composition.thin(2)
    proj = projector(lam, "infinite", cap=3)
    calls = _record_calls(monkeypatch, "induced")
    hh_complex(proj.complex, lam, default_window("infinite", 2))
    assert calls and len(calls) == len(set(calls))


def test_hh_complex_counts_each_piece_once(monkeypatch):
    lam = Composition.thin(2)
    proj = projector(lam, "finite")
    calls = _record_calls(monkeypatch, "homology")
    hh_complex(proj.complex, lam, Window((0, 2), (0, 10), (0, 2)), orientation="natural")
    assert calls and len(calls) == len(set(calls))


def _builds_and_ranks(monkeypatch, variant):
    """Run hh_complex on the variant's projector on (1,1) from an empty Tor
    cache, recording each cell build and each rank_of call, and assert that
    no cell of any unrolling is built twice and no built matrix is ranked
    twice.  A matrix is known by its row objects; the recorders keep them,
    and the engines, alive so that ids stay unique.  Returns the ids of the
    engines that built cells."""
    built, ranked = [], []
    build = homalg.Unrolling._build

    def recording_build(self, g):
        built.append((self, g))
        return build(self, g)

    def counting_rank_of(rows):
        rows = list(rows)
        ranked.append(rows)
        return rank_of(rows)

    monkeypatch.setattr(hochschild, "_HH_DATA_CACHE", {})
    monkeypatch.setattr(homalg.Unrolling, "_build", recording_build)
    monkeypatch.setattr(homalg, "rank_of", counting_rank_of)
    lam = Composition.thin(2)
    proj = projector(lam, variant, cap=3)
    hh_complex(proj.complex, lam, Window((0, 2), (-4, 16), (0, 4)))
    cells = [(id(engine), g) for engine, g in built]
    assert len(cells) == len(set(cells))
    keys = [frozenset(map(id, rows)) for rows in ranked if rows]
    assert keys and len(keys) == len(set(keys))
    return {engine for engine, _ in cells}


def test_hh_complex_ranks_each_matrix_once(monkeypatch):
    """One call hands each Koszul boundary (i, d) and each unrolled
    differential g to rank_of once: each cell of each unrolling (the
    Koszul complex's and the t-direction's) is built once, and each built
    matrix is ranked once."""
    engines = _builds_and_ranks(monkeypatch, "def_finite")
    assert {id(tor) for tor in hochschild._HH_DATA_CACHE.values()} & engines


def test_class_spaces_build_each_koszul_cell_once(monkeypatch):
    """The same records as test_hh_complex_ranks_each_matrix_once, on the
    class-tracking path (an infinite projector, whose entries are not all
    scalars): a class space reads the map into its cell from the class
    space below, so no Koszul cell is built a second time for it."""
    engines = _builds_and_ranks(monkeypatch, "infinite")
    (tor,) = hochschild._HH_DATA_CACHE.values()
    assert tor.trackers and id(tor) in engines
