"""dpqlsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload stream|maps --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each pass runs in a fresh interpreter (``worker.py``), one at a
time, with BLAS limited to one thread.  Passes repeat until ``--seconds``
would be exceeded (at least one), each checking its outputs after its timed
part, so failures per pass do not depend on how many passes fit; where a
check is costly, a later pass checks that it wrote the same bytes as the
first verified one.  Then
set-up-only interpreters run until there are enough set-up samples.  Every
timing reported is a median over the run.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
spends half the time on untraced passes and half on traced ones, and prints
the per-layer metrics; ``trace.overhead_s`` is the traced minus the untraced
median of set-up-build plus pass time.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment.  End-to-end times are at reference machine speed
(calibration.py); the environment line also gives their medians as
measured and the median calibration kernel time.  Failed operations are
listed on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
# Every worker is stopped by then, so a run ends within 180 s.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Starts workers one at a time and keeps the run inside its time limit."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.start = time.monotonic()
        self.count = 0
        self.verified = None
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, mode: str) -> dict:
        self.count += 1
        workdir = self.workdir / str(self.count)
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--scale", repr(self.args.scale), "--workdir", str(workdir), "--mode", mode,
        ]
        if self.verified is not None:
            command += ["--verified", json.dumps(self.verified)]
        remaining = RUN_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before all samples were taken")
        try:
            proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish within the run limit") from None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.verified = report.get("verified") or self.verified
        return report

    def passes(self, mode: str, until: float) -> list[dict]:
        """At least one pass; another only if it should end before ``until``."""
        results = []
        while True:
            began = self.elapsed()
            results.append(self.worker(mode))
            if self.elapsed() + (self.elapsed() - began) > until:
                return results


def median(values) -> float:
    return statistics.median(list(values))


def measure(args: argparse.Namespace, runner: Runner) -> tuple[dict, list[dict], dict]:
    untraced = runner.passes("pass", args.seconds / 2 if args.trace else args.seconds)
    traced = runner.passes("traced", args.seconds) if args.trace else []
    setup_runs = list(untraced)
    while len(setup_runs) < SETUP_SAMPLES:
        setup_runs.append(runner.worker("setup"))

    ops = [op for run in untraced + traced for op in run["ops"]]
    failed = sum(not op["ok"] for op in ops)
    calibration = {}
    if args.trace:
        layers = [run["layers"] for run in traced]
        metrics = {name: median(layer[name] for layer in layers) for name in layers[0]}
        metrics["cli.import_s"] = median(r["import_s"] for r in setup_runs + traced)
        metrics["trace.overhead_s"] = (
            median(r["work_s"] for r in traced) - median(r["work_s"] for r in untraced)
        )
    else:
        stages = ("wall_s", "simulate_s", "analyze_s")
        metrics = {name: median(run["timings"][name] for run in untraced) for name in stages}
        metrics["setup_s"] = median(r["setup_s"] for r in setup_runs)
        metrics["peak_rss_mb"] = median(r["peak_rss_mb"] for r in untraced)
        metrics["success_rate"] = 1.0 - failed / len(ops)
        measured = {name: median(run["measured"][name] for run in untraced) for name in stages}
        measured["setup_s"] = median(r["measured"]["setup_s"] for r in setup_runs)
        calibration = {
            "measured_s": measured,
            "kernel_s": median(t for r in setup_runs for t in r["kernel_s"].values()),
        }
    environment = dict(
        untraced[0]["environment"],
        **calibration,
        cpu_count=os.cpu_count(),
        git_sha=git_sha(ROOT),
        source_sha256=source_sha256(ROOT),
        passes={"untraced": len(untraced), "traced": len(traced)},
        setup_samples=len(setup_runs),
    )
    return metrics, ops, environment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply workload sizes; the smoke test runs tiny ones")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "dpqlsim" / "__init__.py").is_file():
            raise BenchError(f"no dpqlsim sources under {ROOT / 'src'}")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds < 1 or not args.scale > 0:
            raise BenchError("--seconds must be >= 1 and --scale > 0")
        workdir = ROOT / ".perfbench_work" / str(os.getpid())
        try:
            metrics, ops, environment = measure(args, Runner(args, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
                workdir.parent.rmdir()
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    for (name, detail), n in Counter(
        (op["name"], op["detail"]) for op in ops if not op["ok"]
    ).items():
        print(f"failed x{n}: {name}: {detail}", file=sys.stderr)
    result = {
        "correct": all(op["ok"] for op in ops if op["kind"] == "check"),
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
