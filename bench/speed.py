"""Machine-speed probe, which takes the shared machine's slow spells out of
the timings.

On a shared machine the same Python code runs up to about 1.7 times slower
for seconds to minutes at a time, while other tenants load the host.  A run
cannot avoid those spells, but it can measure them: while the workload runs,
a timer interrupts it every ``INTERVAL_S`` (``SETUP_INTERVAL_S`` while it
sets up) and times a fixed pure-Python kernel.  The kernel's mean time over
the timed block, divided by ``REFERENCE_S``, is the block's slowdown; the
benchmark divides the block's timing by it and records the raw figure
beside it.

The kernel runs inside the measured process, so it sees that process's CPU
and cache state as well as the machine's load.  It allocates no container,
so it never triggers the garbage collector, and touches only its own small
table.  A kernel timed in a sibling process was tried instead and did not
track the workload's speed: the ratio of the two moved by as much as the
raw timings themselves.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
# Set-up takes well under a second, so its probe samples more often.
SETUP_INTERVAL_S = 0.005
# Median of the mean kernel time, sampled as above, over 18 calibration runs
# (six per workload) on a 2-vCPU Intel Xeon under Python 3.11.7.  Timings
# therefore read as at that machine's typical speed.  It only converts
# kernel-time units back to seconds, so it must stay fixed for timings to
# compare across commits.
REFERENCE_S = 0.000435

_TABLE = dict.fromkeys(range(256), 0)


def kernel() -> None:
    table = _TABLE
    for i in range(2000):
        k = (i * 7919) & 255
        table[k] = (table[k] + i) & 0xFFFF


def timed_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class SpeedProbe:
    """Samples the kernel on a timer while the ``with`` block runs."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def kernel_s(self) -> float:
        """Mean kernel time over the ``with`` block."""
        return statistics.mean(self.samples)

    def slowdown(self) -> float:
        return self.kernel_s() / REFERENCE_S
