"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a few cores of a shared host.  Other tenants'
load changes how fast the same Python code runs, by a quarter or more
from one minute to the next, and would swamp a regression bound.  A
fixed calibration kernel, timed next to the measured work, tracks that
speed: a time multiplied by ``REFERENCE_KERNEL_S / kernel time`` reads
as the time the work would have taken with the host at its reference
speed.  A change to the program leaves the kernel alone, so it moves
the scaled times as much as the raw ones.

The kernel mixes what a pipeline round spends its time on: interpreter
arithmetic, dict stores and small numpy calls.  It touches a few KiB,
so it leaves the program's caches warm.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median kernel time on the reference host (2-vCPU Xeon VM, CPython
#: 3, numpy) when nothing else loads it.  Scaled times are quoted at
#: this speed.
REFERENCE_KERNEL_S = 1.0e-3

#: Least wall time between two kernel samples while work is measured.
SAMPLE_EVERY_S = 0.2

#: Samples behind the scale applied to work just done.
RECENT = 3

_VECTOR = np.arange(64.0)


def kernel() -> None:
    """The fixed calibration work."""
    acc = 0
    table = {}
    for i in range(9000):
        acc += i * i % 7
        table[i & 127] = acc
    x = _VECTOR
    for _ in range(120):
        x = np.sqrt(x * 1.0001 + 1.0)


class HostSpeed:
    """Kernel samples taken beside the measured work.

    ``spent_s`` and ``spent_cpu_s`` total the wall and CPU time the
    samples took, so callers can leave them out of what they measure.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._last = float("-inf")

    def sample(self) -> float:
        c0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_s += t1 - t0
        self.spent_cpu_s += time.process_time() - c0
        self._last = t1
        return t1 - t0

    def maybe_sample(self) -> None:
        """Sample unless the last sample is recent."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale_now(self) -> float:
        """Factor for work just done: from the most recent samples."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples[-RECENT:])

    def scale(self) -> float:
        """Factor for work spread over the whole sampled period."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def scaled_setup(run_setup) -> tuple:
    """Run ``run_setup()`` and time it; returns (result, raw s, scaled s).

    The host's speed is sampled just before and just after.
    """
    speed = HostSpeed()
    for _ in range(RECENT):
        speed.sample()
    t0 = time.perf_counter()
    out = run_setup()
    raw = time.perf_counter() - t0
    for _ in range(RECENT):
        speed.sample()
    return out, raw, raw * speed.scale()
