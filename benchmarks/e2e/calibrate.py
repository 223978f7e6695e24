"""Host-speed calibration: the benchmark's times in reference seconds.

The benchmark runs on shared virtual machines whose speed drifts by far
more than the changes it has to detect.  On the 2-vCPU host it was built
on, a fixed pure-Python loop took 11 ms in one minute and 27 ms a few
minutes later, and a fixed NumPy loop drifted by a factor of 1.6; such
slow periods last minutes, so no statistic taken inside one run removes
them, and ten runs of unchanged code spread by 20-55% in wall time.

So every time the benchmark reports is scaled by the host's speed at
that moment.  :func:`kernel_s` times a fixed kernel, an interpreter-bound
pairwise-interaction loop and a NumPy sampling loop taking about 3:2 of
its time, averaged over three runs in a row; :func:`scaled` turns a wall
time measured between two kernel timings into the time it would have
taken on a host where the kernel takes :data:`REFERENCE_S`: the reference
host when quiet.  The kernel is the benchmark's own frozen code, so a
change to the package moves scaled times exactly as it moves wall times.
The 3:2 split is the one under which the scaled times of the six
workloads spread least over ten runs: interpreter-bound workloads track
the first loop, NumPy-bound ones the second.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: Seconds :func:`kernel_s` takes on the reference host when quiet: a
#: 2-vCPU Intel Xeon virtual machine at 2.0 GHz, Python 3.11, NumPy 2.4.
REFERENCE_S = 0.020

#: Kernel runs averaged by one :func:`kernel_s` call.  Over ten runs of
#: each workload, times scaled by the mean of three spread by 5-9% where
#: times scaled by a single run spread by 5-11%.
REPEATS = 3

#: A 16-state transition table: equal states step, others stay.
_TABLE = {
    (a, b): ((a + 1) % 16, b) if a == b else (a, b)
    for a in range(16)
    for b in range(16)
}

#: Per-row weights of 64 states for the sampling loop.
_WEIGHTS = np.random.default_rng(0).random((256, 64))


def _interpreter_loop(steps: int = 15_000) -> int:
    """Random pairwise interactions of 64 agents, in plain Python."""
    rng = random.Random(12_345)
    n = 64
    states = [0] * n
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        j += j >= i
        states[i], states[j] = _TABLE[states[i], states[j]]
    return sum(states)


def _numpy_loop(reps: int = 80) -> int:
    """Inverse-CDF sampling of one state per row of a (256, 64) matrix."""
    rng = np.random.default_rng(1)
    total = 0
    for _ in range(reps):
        cdf = np.cumsum(_WEIGHTS, axis=1)
        u = rng.random(len(cdf))[:, None] * cdf[:, -1:]
        total += int((cdf < u).sum())
    return total


def kernel_s() -> float:
    """Mean wall time of one run of the calibration kernel.

    The mean is over :data:`REPEATS` runs in a row: a single 20 ms run is
    short enough for a momentary stall of the host to nearly double it.
    """
    start = time.perf_counter()
    for _ in range(REPEATS):
        _interpreter_loop()
        _numpy_loop()
    return (time.perf_counter() - start) / REPEATS


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` in reference seconds.

    ``before_s`` and ``after_s`` are kernel times taken just before and
    just after the measured interval; their mean is the host's speed
    over it.
    """
    return wall_s * REFERENCE_S * 2 / (before_s + after_s)
