import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraylab
from fraylab import criteria
from fraylab.cli import SUITES, main
from fraylab.hochschild import default_window
from fraylab.homalg import CurvedComplex, ParamSpec


def run_cli(args, tmp_path=None):
    """Run through main() capturing stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_verify_a_ijk_passes():
    code, out = run_cli(["verify", "a-ijk", "--max-n", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "fraylab/1"
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_verify_unknown_suite():
    code, _ = run_cli(["verify", "nonsense"])
    assert code == 2


def test_deterministic_output():
    a = run_cli(["verify", "thin-recursion", "--max-n", "4", "--seed", "3"])
    b = run_cli(["verify", "thin-recursion", "--max-n", "4", "--seed", "3"])
    assert a == b


def test_verify_psi_rho():
    code, out = run_cli(["verify", "psi-rho", "--max-n", "2"])
    assert code == 0


def test_seed_comes_only_from_the_flag(monkeypatch):
    monkeypatch.setenv("FRAYLAB_SEED", "abc")
    code, out = run_cli(["verify", "psi-rho", "--max-n", "1"])
    assert code == 0
    assert json.loads(out)["seed"] == 0


def test_verify_gauss_seeded():
    code, out = run_cli(["verify", "gauss", "--max-n", "5", "--seed", "1"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["checks"]) == 5


def test_verify_gauss_shortfall_fails(monkeypatch):
    # a generator that never yields a unit entry leaves nothing to eliminate
    monkeypatch.setattr(criteria, "random_zero_curvature_complex",
                        lambda rng: CurvedComplex([], ParamSpec.make([]), {}))
    code, out = run_cli(["verify", "gauss", "--max-n", "3"])
    assert code == 1
    assert [c["status"] for c in json.loads(out)["checks"]] == ["fail"]


# small parameters for each suite, as CLI flags and as criterion arguments
SMALL = {
    "tables": {"k": 1}, "factors": {}, "a-ijk": {"max_n": 3}, "thin-recursion": {"max_n": 3},
    "psi-rho": {"max_n": 2}, "g-congruence": {"max_n": 2}, "mc": {"max_n": 2, "cap": 2},
    "gauss": {"max_n": 3}, "ladder": {"n": 2}, "trace": {"max_n": 2},
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_runs_its_criterion(suite):
    params = SMALL[suite]
    argv = ["verify", suite, "--seed", "5"]
    for name, value in params.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    code, out = run_cli(argv)
    assert code == 0
    criterion = SUITES[suite]
    if "seed" in inspect.signature(criterion).parameters:
        params = {**params, "seed": 5}
    expected = [r["name"] for r in criterion(**params)]
    assert expected
    assert [c["name"] for c in json.loads(out)["checks"]] == expected


def test_unknot_command_below_natural_degree_zero():
    code, out = run_cli(["unknot", "--variant", "finite", "--k", "1",
                         "--qmin", "-8", "--qmax", "6", "--tmax", "3"])
    assert code == 0
    assert json.loads(out)["match"] is True


def test_unknot_command_on_a_window_away_from_the_origin():
    """The table row keeps its coefficients on a window that excludes the
    origin: 1, q^-2 a and their q^2 multiples, as computed."""
    code, out = run_cli(["unknot", "--variant", "intrinsic", "--k", "1",
                         "--qmin", "6", "--qmax", "8"])
    assert code == 0
    rep = json.loads(out)
    assert rep["match"] is True
    assert [(term["a"], term["q"]) for term in rep["expected"]["terms"]] == [
        (0, 6), (0, 8), (1, 6), (1, 8)]


def test_unknot_command_amax_alone_sets_the_window():
    code, out = run_cli(["unknot", "--variant", "intrinsic", "--k", "2", "--amax", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["computed"]["window"] == {**default_window("intrinsic", 2).to_json(), "a": [0, 0]}
    assert all(term["a"] == 0 for term in rep["computed"]["terms"])


def test_unknot_command_json():
    code, out = run_cli(["unknot", "--variant", "def_finite", "--k", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["match"] is True
    assert rep["computed"]["terms"]
    assert rep["expected"]["terms"]


def test_unknot_text_format():
    code, out = run_cli(["unknot", "--variant", "intrinsic", "--k", "1",
                         "--format", "text"])
    assert code == 0
    assert "match: True" in out


def test_dump_projector_roundtrip():
    code, out = run_cli(["dump", "projector", "--lambda", "1,1",
                         "--variant", "finite"])
    assert code == 0
    rep = json.loads(out)
    assert rep["payload"]["lambda"] == [1, 1]
    assert rep["payload"]["connection"]


def test_dump_poly_thin_example():
    code, out = run_cli(["dump", "poly", "--family", "a-ijk", "--b", "1,1,1"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["payload"]) == 9
    assert rep["payload"]["a_111"] == [{"coeff": "1", "monomial": []}]


def test_dump_complex():
    code, out = run_cli(["dump", "complex", "--cn", "2", "--variant", "u"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["payload"]["objects"]) == 3


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(["verify", "thin-recursion", "--max-n", "2",
                         "--out", str(target)])
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["suite"] == "thin-recursion"


def test_console_entry_point():
    # the child imports the same fraylab as this process, also when only
    # pytest's `pythonpath` setting put it on the path
    src = str(Path(fraylab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fraylab.cli", "verify", "thin-recursion",
         "--max-n", "2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["tool_version"]


@pytest.mark.parametrize("args", [
    ["dump", "projector", "--lambda", "1,x"],
    ["dump", "poly", "--family", "a-ijk", "--b", "0,1"],
    ["unknot", "--k", "9"],
    ["unknot", "--variant", "bogus"],
    ["unknot", "--k", "0"],
    ["unknot", "--cap", "0"],
    ["unknot", "--qmin", "5", "--qmax", "1"],
    ["unknot", "--tmax", "-1"],
    ["unknot", "--amax", "-1"],
    ["verify", "factors", "--k", "3", "--qmin", "99", "--variant", "bogus"],
    ["unknot", "--variant", "intrinsic", "--k", "1", "--max-n", "9", "--n", "3"],
    ["dump", "complex", "--cn", "1", "--qmin", "5", "--k", "2", "--max-n", "7"],
    ["dump", "poly", "--family", "g", "--n", "2", "--b", "1,2"],
    ["dump", "poly", "--family", "a-ijk", "--b", "1,2", "--n", "5"],
    ["dump", "complex", "--cn", "1", "--variant", "zz"],
    ["verify", "a-ijk", "--max-n", "1", "--out", "."],
])
def test_bad_input_is_one_line_on_stderr(args, capsys):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
