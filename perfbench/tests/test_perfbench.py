"""Tests of the benchmark itself: tracing, checks and the metric list.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from fraylab import hochschild, homalg, linalg, symfun  # noqa: E402
from layertrace import TARGETS, Target, Tracer, per_layer_names  # noqa: E402


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def test_every_target_resolves(tracer):
    assert tracer.missing == []
    assert set(tracer.stats) == {t.name for t in TARGETS}


def test_every_binding_is_wrapped_and_restored():
    original = linalg.rank_of
    tr = Tracer()
    tr.install()
    try:
        # the names copied by `from .linalg import rank_of` are wrapped too
        assert homalg.rank_of is linalg.rank_of is hochschild.rank_of
        assert linalg.rank_of is not original
        assert symfun.Poly.__rmul__ is symfun.Poly.__mul__
        linalg.rank_of([{0: 1}, {0: 2}])
        (symfun.Poly.one() * 2) * symfun.Poly.one()
        2 * symfun.Poly.one()
    finally:
        tr.uninstall()
    assert linalg.rank_of is original is homalg.rank_of
    assert tr.stats["linalg.rank_of"].calls == 1
    assert tr.stats["linalg.rank_of"].sizes == {"rows": 2, "nnz": 2}
    assert tr.stats["symfun.Poly.mul"].calls == 3


def test_missing_target_is_reported_not_raised():
    tr = Tracer((Target("linalg", "linalg", "Gone.add"), Target("linalg", "linalg", "gone")))
    tr.install()
    tr.uninstall()
    assert tr.missing == ["linalg.Gone.add", "linalg.gone"]


def test_calls_that_raise_are_counted(tracer):
    with pytest.raises(ValueError):
        linalg.ClassTracker().express({0: 1})
    stat = tracer.stats["linalg.ClassTracker.express"]
    assert stat.calls == 1 and stat.self_s >= 0 and not tracer._stack


def _worker(workload, trace):
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, "3", str(trace), repr(t0)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_matches_untraced_and_self_times_fit():
    plain, traced = _worker("complexes", 0), _worker("complexes", 1)
    assert [r["checks"] for r in traced["cases"]] == [r["checks"] for r in plain["cases"]]
    assert all(ok for r in plain["cases"] for _, ok in r["checks"])
    assert traced["trace"]["missing"] == []
    for row in traced["cases"]:
        assert 0 <= row["traced_self_s"] <= row["s"], row["case"]


def test_known_failure_is_the_finite_k2_table_row_only():
    cases = {c.name: c for c in workloads.build("unknot", 0)}
    assert dict(workloads.run_case(cases["finite_k2"])) == {
        "finite_k2.table": False,
        "finite_k2.factor_law": True,
    }
    assert workloads.KNOWN_FAILURES == {"finite_k2.table"}


def test_seed_chooses_random_inputs_and_cases_are_distinct():
    a, b = workloads.build("ranks", 5), workloads.build("ranks", 5)
    assert [c.name for c in a] == [c.name for c in b]
    names = [c.name for c in workloads.build("complexes", 5)]
    assert len(names) == len(set(names)) == 136
    for name, cases in (("unknot", workloads.build("unknot", 0)), ("ranks", a)):
        assert tuple(dict.fromkeys(c.group for c in cases)) == workloads.GROUPS[name]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    groups = [g for gs in workloads.GROUPS.values() for g in gs]
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == per_layer_names(groups)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GROUPS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb", "checks_passed_ratio"]
