from fractions import Fraction

import pytest

from fraylab import hochschild
from fraylab.hochschild import (
    BraidStats,
    HochschildData,
    compose_bimodules,
    default_window,
    framing_shift,
    hh_bimodule,
    hh_complex,
    kr_normalize,
    trace_check,
    unknot_invariant,
)
from fraylab.linalg import rank_of
from fraylab.qseries import (
    Laurent,
    RationalSeriesExpr,
    TriSeries,
    Window,
    quantum_factorial,
    quantum_int,
    unknot_table,
)
from fraylab.ssbim import (
    build_identity,
    build_W,
    deformed_finite_projector,
    finite_projector,
    projector,
)
from fraylab.symfun import Composition


def intrinsic(k, w):
    return unknot_table("intrinsic", k).expand(w)


# -- bimodule homology -------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_intrinsic_rows(k):
    w = Window((0, k), (-2 * k, 2 * k + 8), (0, 0))
    res = hh_bimodule(build_identity(Composition.of(k)), w)
    s = kr_normalize(res.series, BraidStats.unknot(k))
    assert s.equal_on(intrinsic(k, w), w)


def test_hh_W11_is_quantum_two_times_intrinsic():
    w = Window((0, 2), (-6, 10), (0, 0))
    res = hh_bimodule(build_W(Composition.of(1, 1)), w)
    expected = unknot_table("intrinsic", 2).times_laurent(quantum_int(2)).expand(w)
    assert res.series.equal_on(expected, w)


def test_repeated_hh_call_reuses_koszul_ranks(monkeypatch):
    """Tor dimensions are memoized on the shared HochschildData, so an
    identical second call ranks no Koszul boundary again."""
    M = build_W(Composition.of(1, 1))
    w = Window((0, 2), (-6, 10), (0, 0))
    first = hh_bimodule(M, w).series
    calls = []

    def counting_rank_of(rows):
        calls.append(1)
        return rank_of(rows)

    monkeypatch.setattr(hochschild, "rank_of", counting_rank_of)
    assert hh_bimodule(M, w).series.coeffs == first.coeffs
    assert calls == []


def test_hh_rejects_unbalanced():
    M = build_W(Composition.of(1, 1), Composition.of(2))
    with pytest.raises(ValueError):
        hh_bimodule(M, Window((0, 2), (-4, 4), (0, 0)))


@pytest.mark.parametrize("parts", [(1,), (2,), (1, 1), (1, 1, 1), (2, 1)])
def test_generator_basis_independence(parts):
    lam = Composition(parts)
    # regular-sequence invariance: compare in the natural Tor orientation,
    # where the graded pieces stay small for total color 3
    w = Window((0, lam.total), (0, 6 if lam.total < 3 else 4), (0, 0))
    a = hh_bimodule(build_W(lam), w, generator_basis="elementary",
                    orientation="natural")
    b = hh_bimodule(build_W(lam), w, generator_basis="power_sum",
                    orientation="natural")
    assert a.series.coeffs and a.series.equal_on(b.series, w)


def test_a_exponent_range():
    w = Window((0, 5), (-6, 10), (0, 0))
    res = hh_bimodule(build_W(Composition.of(1, 1)), w)
    assert all(0 <= d[0] <= 2 for d in res.series.coeffs)


# -- kr normalization ---------------------------------------------------------------

def test_kr_unknot_stats_are_trivial():
    stats = BraidStats.unknot(3)
    assert stats.exponent() == 0
    w = Window((0, 1), (-4, 4), (-2, 2))
    s = TriSeries(w, {(0, 2, 0): Fraction(1)})
    assert kr_normalize(s, stats).coeffs == s.coeffs


def test_kr_shift_example():
    stats = BraidStats(epsilon=2, N=4, eta=2)
    w = Window((0, 3), (-6, 6), (-3, 3))
    s = TriSeries(w, {(0, 2, 1): Fraction(1)})
    out = kr_normalize(s, stats)
    # shift by (a t^{-1})^2 q^{-2}
    assert out.coeffs == {(2, 0, -1): Fraction(1)}


def test_kr_odd_exponent_rejected():
    with pytest.raises(ValueError):
        BraidStats(epsilon=1, N=2, eta=2).exponent()


def test_framing_shift():
    w = Window((0, 4), (-4, 4), (-4, 4))
    s = TriSeries(w, {(0, 0, 0): Fraction(1)})
    out = framing_shift(s, b=3)
    assert out.coeffs == {(3, 0, -3): Fraction(1)}


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
    proj = finite_projector(lam)
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
    proj = deformed_finite_projector(lam, cap=3)
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
    assert rep2["match"] and rep2["monomial_defect"] == -1


def test_unknot_desk_limits():
    with pytest.raises(ValueError):
        unknot_invariant("infinite", 3)
    with pytest.raises(ValueError):
        unknot_invariant("bogus", 1)


def test_cap_sufficiency_guard():
    lam = Composition.of(1)
    proj = projector(lam, "def_infinite", cap=1)
    with pytest.raises(ValueError):
        hh_complex(proj.complex, lam, Window((0, 1), (-2, 6), (0, 6)))


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
    """Wrap HochschildData.<name>; return the list of argument tuples
    (polynomials compare by value)."""
    calls = []
    original = getattr(HochschildData, name)

    def wrapper(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(HochschildData, name, wrapper)
    return calls


def test_hh_complex_induces_each_action_once(monkeypatch):
    lam = Composition.thin(2)
    proj = projector(lam, "infinite", cap=3)
    calls = _record_calls(monkeypatch, "induced")
    hh_complex(proj.complex, lam, default_window("infinite", 2))
    assert calls and len(calls) == len(set(calls))


def test_hh_complex_counts_each_piece_once(monkeypatch):
    lam = Composition.thin(2)
    proj = finite_projector(lam)
    calls = _record_calls(monkeypatch, "dims")
    hh_complex(proj.complex, lam, Window((0, 2), (0, 10), (0, 2)), orientation="natural")
    assert calls and len(calls) == len(set(calls))
