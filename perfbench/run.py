"""fraylab benchmark: cold-process workloads, end to end and per layer.

    python3 perfbench/run.py --workload {unknot,ranks,complexes,all} \\
        --seed N --seconds S --trace {0,1}

Every measurement is a fresh interpreter (``worker.py``) that imports
fraylab from ``src/``, builds the workload's inputs and runs its fixed case
list once, as a user of the CLI pays it.  Workers run one at a time.

With ``--trace 0`` the run first starts SETUP_PROBES workers that stop
after set-up, then full workers until the next one would overrun
``--seconds`` (always at least one).  It reports the median ``wall_s``
(worker start to exit), the median ``setup_s`` (worker start to the first
case) over every worker, the median ``peak_rss_mb`` and
``checks_passed_ratio``.

With ``--trace 1`` it runs untraced workers for half of ``--seconds``,
then one worker with every target of ``layertrace.TARGETS`` wrapped, and
reports per-target calls, sizes and seconds, per-layer self seconds,
seconds per case group, and ``trace.overhead_s``: the traced wall time
minus the median untraced one.

Each run checks every answer.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (checks) and ``metrics``.
A run is correct when every worker gives the same check results and the
only failed check is the documented ``workloads.KNOWN_FAILURES`` one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layertrace import LAYERS, SIZE_METRICS, TARGETS, per_layer_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, trace: bool, deadline: float, setup_only: bool = False) -> dict:
    t0 = time.monotonic()
    if t0 >= deadline:
        raise BenchError("run time limit reached")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "1" if trace else "0", repr(t0)]
    try:
        proc = subprocess.run(cmd + (["setup"] if setup_only else []), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=deadline - t0)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish within the run time limit") from exc
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    return out


def run_full_workers(workload: str, seed: int, until: float, deadline: float) -> list[dict]:
    """Full untraced workers, one after another, until the next would end
    after ``until``; at least one."""
    runs = [run_worker(workload, seed, False, deadline)]
    while time.monotonic() + runs[-1]["wall_s"] <= until:
        runs.append(run_worker(workload, seed, False, deadline))
    return runs


def check_runs(runs: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over the checks of every worker."""
    from workloads import KNOWN_FAILURES

    checks = [_checks(r) for r in runs]
    failed = [name for c in checks for name, ok in c if not ok]
    same = all(c == checks[0] for c in checks)
    return same and set(failed) <= KNOWN_FAILURES, sum(map(len, checks)), len(failed)


def _checks(run: dict) -> list[tuple[str, bool]]:
    return [(name, ok) for row in run["cases"] for name, ok in row["checks"]]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict], list[str]]:
    start = time.monotonic()
    setups = [run_worker(workload, seed, False, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    runs = run_full_workers(workload, seed, start + seconds, deadline)
    checks = _checks(runs[0])
    passed = sum(ok for _, ok in checks)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setups + [r["setup_s"] for r in runs]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "checks_passed_ratio": (passed / len(checks), "1"),
    }
    lines = [
        f"{workload}: {len(runs)} full worker(s), {SETUP_PROBES + len(runs)} set-ups",
        *(f"{workload} {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
        f"{workload} checks_failed_ratio = {(len(checks) - passed) / len(checks):.6g} 1"
        f"  (failed: {', '.join(n for n, ok in checks if not ok) or 'none'})",
    ]
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, runs, lines


def traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict], list[str]]:
    from workloads import GROUPS

    runs = run_full_workers(workload, seed, time.monotonic() + seconds / 2, deadline)
    traced_run = run_worker(workload, seed, True, deadline)
    report = traced_run["trace"]
    values = {}
    for t in TARGETS:
        row = report["targets"].get(t.name, {})
        for stat in ("calls", "total_s", "self_s", *SIZE_METRICS.get(t.name, {})):
            values[f"{t.name}.{stat}"] = row.get(stat, 0)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            report["targets"].get(t.name, {}).get("self_s", 0.0) for t in TARGETS if t.layer == layer
        )
    for row in traced_run["cases"]:
        key = f"case.{row['group']}.s"
        values[key] = values.get(key, 0.0) + row["s"]
    values["trace.overhead_s"] = traced_run["wall_s"] - statistics.median(r["wall_s"] for r in runs)
    all_groups = [g for groups in GROUPS.values() for g in groups]
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in per_layer_names(all_groups)}

    lines = [f"{workload}: traced wall {traced_run['wall_s']:.3f} s, untraced median of {len(runs)}"
             f" {statistics.median(r['wall_s'] for r in runs):.3f} s"]
    lines.append(f"{'target':48} {'calls':>9} {'total_s':>9} {'self_s':>9}  sizes")
    for t in TARGETS:
        if t.name in report["missing"]:
            lines.append(f"{t.name:48} missing")
            continue
        row = report["targets"][t.name]
        sizes = " ".join(f"{k}={row[k]:.6g}" for k in SIZE_METRICS.get(t.name, {}))
        lines.append(f"{t.name:48} {row['calls']:9d} {row['total_s']:9.3f} {row['self_s']:9.3f}  {sizes}")
    lines += [f"layer.{layer}.self_s = {values[f'layer.{layer}.self_s']:.3f} s" for layer in LAYERS]
    lines += [f"case.{row['case']}.s = {row['s']:.3f} s" for row in traced_run["cases"]]
    lines.append(f"trace.overhead_s = {values['trace.overhead_s']:.3f} s")
    # the traced run's answers must equal the untraced ones
    if _checks(traced_run) != _checks(runs[0]):
        lines.append("traced check results differ from untraced ones")
    return metrics, runs + [traced_run], lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    metrics, runs, lines = (traced if trace else end_to_end)(workload, seed, seconds, deadline)
    for line in lines:
        print(line, flush=True)
    correct, attempted, failed = check_runs(runs)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "fraylab", "__init__.py")):
        print(f"no fraylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import GROUPS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*GROUPS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", os.path.relpath(HERE, ROOT)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    names = tuple(GROUPS) if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), deadline) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
