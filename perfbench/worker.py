"""One cold run of one workload: set up, run every case once, report.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <t0> [setup]

``t0`` is the parent's ``time.monotonic()`` taken just before it started
this process, so ``setup_s`` includes interpreter start-up and the import
of fraylab.  With ``setup`` the worker stops after set-up.  The result is
one JSON line on standard output.  fraylab is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv: list[str]) -> int:
    workload, seed, trace, t0 = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    setup_only = argv[4:] == ["setup"]
    sys.path.insert(0, SRC)
    import fraylab

    if os.path.dirname(os.path.abspath(fraylab.__file__)) != os.path.join(SRC, "fraylab"):
        print(f"fraylab was imported from {fraylab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from layertrace import Tracer

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    cases = workloads.build(workload, seed)
    setup_s = time.monotonic() - t0
    out: dict = {"setup_s": setup_s}
    if not setup_only:
        results = []
        for case in cases:
            self_before = tracer.total_self_s() if tracer else 0.0
            start = time.perf_counter()
            checks = workloads.run_case(case)
            seconds = time.perf_counter() - start
            row = {"case": case.name, "group": case.group, "s": seconds, "checks": checks}
            if tracer:
                row["traced_self_s"] = tracer.total_self_s() - self_before
            results.append(row)
        out["cases"] = results
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            out["trace"] = tracer.report()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
