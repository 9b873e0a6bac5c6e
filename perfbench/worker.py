"""One benchmark pass in a fresh interpreter, reported as one JSON line.

Run by ``run.py``; each pass starts cold, so the ``lru_cache`` tables the
program keeps are empty when the pass begins:

    python3 perfbench/worker.py --workload stream --seed 1 --scale 1 \
        --workdir .perfbench_work/x --mode pass|traced|setup [--verified JSON]

The set-up time is the import of ``dpqlsim.cli`` plus the workload's
first-use table builds.  Set-up and stage times are reported at reference
machine speed (calibration.py); ``measured`` keeps the seconds as measured
and ``kernel_s`` the mean calibration kernel time of each.  In
``traced`` mode the tracer is installed after the import, so the set-up
builds and the pass are both traced.  Each pass ends with the workload's
output checks, outside the timed region and untraced.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("pass", "traced", "setup"), required=True)
    parser.add_argument("--verified", type=json.loads, default=None,
                        help="JSON digests of outputs an earlier pass verified")
    args = parser.parse_args()

    from calibration import Calibrated

    with Calibrated() as setup_timing:
        start = time.perf_counter()
        import dpqlsim.cli  # noqa: F401

        imported = time.perf_counter()

        import numpy
        import scipy

        from tracer import Tracer, layer_metrics
        from workloads import WORKLOADS, Ledger

        tracer = None
        if args.mode == "traced":
            tracer = Tracer()
            tracer.install()
        work_start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
        workload.setup()
        set_up = time.perf_counter()
    report = {
        "import_s": imported - start,
        "setup_s": setup_timing.reported_s,
        "measured": {"setup_s": setup_timing.measured_s},
        "kernel_s": {"setup_s": setup_timing.kernel_s},
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
    }
    if args.mode != "setup":
        ledger = Ledger()
        workload.run(ledger)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.enabled = False
            report["layers"] = layer_metrics(tracer)
        report["verified"] = workload.check(ledger, args.verified)
        for times in (ledger.timings, ledger.measured):
            times["wall_s"] = times["simulate_s"] + times["analyze_s"]
        report["work_s"] = set_up - work_start + ledger.measured["wall_s"]
        report["timings"] = ledger.timings
        report["measured"].update(ledger.measured)
        report["kernel_s"].update(ledger.kernel_s)
        report["ops"] = ledger.ops
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
