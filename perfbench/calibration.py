"""Timings at a reference machine speed, measured while the work runs.

On a shared host the machine's speed flips between two levels, one about
twice as fast as the other, from several times a second to once in a few
seconds, and the share of time spent at the slow level drifts over minutes:
the same pass can take twice as long from one minute to the next.
``Calibrated`` times a block of code and, every ``INTERVAL_S`` while it
runs, interrupts it with a signal whose handler times a fixed kernel of
about a millisecond.  The mean kernel time is the machine's speed over that
very block, so the block is reported at the speed of a machine on which the
kernel takes ``REFERENCE_S``::

    reported_s = (elapsed_s - kernel time) * REFERENCE_S / mean kernel time

The kernel does the kinds of work all three workloads spend their time on
(Python arithmetic on floats, dicts and CSV rows) on fixed inputs, the same
on every commit, and never calls the program; so a change to the program
moves ``reported_s`` as it moves the measured seconds.  Handlers run between
bytecodes, so a block made only of long C calls is sampled less often;
every block timed here runs Python code throughout.
"""

from __future__ import annotations

import csv
import io
import signal
import statistics
import time

INTERVAL_S = 0.025
# About the kernel's time, taken between a workload's bytecodes, at the fast
# level of a 2-vCPU x86-64 VM with Python 3.11.
REFERENCE_S = 0.001


def _kernel() -> float:
    seen: dict[int, float] = {}
    x = 0.5
    for k in range(2_400):
        x = (x * 1.000001 + (k & 7)) % 1000.0
        seen[k & 63] = x
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i in range(240):
        writer.writerow((i, i & 1, f"{x * i:.10g}"))
    buf.seek(0)
    return sum(float(row[2]) for row in csv.reader(buf)) + len(seen)


class Calibrated:
    """Context manager: ``measured_s``, ``kernel_s`` and ``reported_s`` of a block."""

    def __enter__(self) -> Calibrated:
        self.kernel_times: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        self.kernel_times.append(time.perf_counter() - start)

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.measured_s = time.perf_counter() - self._start - sum(self.kernel_times)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.kernel_times:  # a block shorter than one interval
            self._sample()
        self.kernel_s = statistics.mean(self.kernel_times)
        self.reported_s = self.measured_s * REFERENCE_S / self.kernel_s
