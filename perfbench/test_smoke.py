"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py      (or: python3 perfbench/test_smoke.py)

Runs every workload untraced and traced with ``--scale 0.02 --seconds 1``
and asserts that the result line is well formed and names every metric of
BENCHMARK.json with its unit.  Another checks the calibrated timer of
calibration.py on a busy loop.  A third checks that the benchmark fails,
printing no result, in a directory that holds only BENCHMARK.json and
perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_reported_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertLessEqual(result["failed"], result["attempted"])
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = result["metrics"]
                    self.assertEqual(set(got), set(expected))
                    for name, unit in expected.items():
                        self.assertEqual(got[name]["unit"], unit, name)
                        self.assertIsInstance(got[name]["value"], (int, float), name)

    def test_calibrated_block_is_scaled_by_its_kernel_time(self):
        from calibration import REFERENCE_S, Calibrated

        with Calibrated() as timed:
            sum(i * i % 7 for i in range(1_000_000))
        self.assertGreater(len(timed.kernel_times), 1)
        self.assertGreater(timed.measured_s, 0.0)
        self.assertAlmostEqual(
            timed.reported_s, timed.measured_s * REFERENCE_S / timed.kernel_s
        )

    def test_fails_without_the_program(self):
        bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in (ROOT / "perfbench").glob("*.*"):
                shutil.copy(path, bare / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "stream",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            if not any(bare.parent.iterdir()):
                bare.parent.rmdir()
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
