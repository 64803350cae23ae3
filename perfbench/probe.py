"""Machine-speed probe, used to sort the timed blocks by machine speed.

On a shared host the speed of a core changes with the load of its neighbours.
On the 2-core VM the figures in README.md come from, the probe below reads
one of two speeds, about 1.0-1.2 and about 1.55-1.8 times its uncontended
time, and flips between them every 0.2-1.5 s; the share of time spent slow
drifted between about 20% and 90% over tens of minutes. Code of different
kinds slows by different factors (an interpreter loop about 2.2x, a BLAS
product about 1.5x), so no fixed factor can undo contention for code whose
mix of work changes. Between timed blocks the benchmark measures a fixed
probe that does not call pemnet, and `classify` sorts each block by the
readings on both sides of it: fast when both lie within FAST of the
uncontended reading, slow when both lie between SLOW[0] and SLOW[1] times it,
and neither when the speed changed during the block or was in between. Within the fast state
the probe still reads 1.0-1.25, and items run about 15% slower at 1.2 than
at 1.0, so FAST is tight. The timings reported are
those of the fast blocks (see run.py), so that a change and its parent are
compared at the machine's uncontended speed however often it was contended.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
# Relative to the uncontended reading: 1 on the reference VM, or the run's
# lowest reading where that is lower (a faster machine). On the reference VM
# the two speeds lie about 1.6x apart; readings in between come from milder
# or changing load, and readings above 2.2x from bursts of outside load.
FAST = 1.12
SLOW = (1.45, 2.2)
# Time of one probe on an uncontended 2-core x86-64 VM at 2.0 GHz (numpy 2.4,
# OpenBLAS on one thread), the reference machine of README.md: loop 0.60 ms,
# blas 0.87 ms, sort 0.47 ms. Readings are reported against it.
REFERENCE_S = 1.94e-3
# A reading is the mean of a few repeats: when the speed flickers faster than
# the probe interval, the mean follows the speed the items saw, where the
# minimum would pick the fast moments.
_REPEATS = 3


class Probe:
    """Three fixed kernels, one per kind of work the workloads do.

    loop: a Python loop of small matrix-vector products, like the simulation
    recurrence; blas: lagged products of a tall array, like the lagged
    covariances; sort: sorting Python tuples, like thresholding.
    """

    interval_s = PROBE_INTERVAL_S

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((10, 10)) * 0.1
        self._noise = rng.standard_normal((400, 10))
        self._tall = rng.standard_normal((4000, 30))
        self._tuples = [(float(v), i) for i, v in enumerate(rng.standard_normal(2000))]
        self.readings: list[float] = []

    def classify(self, before: float, after: float) -> str | None:
        """"fast", "slow" or None for a block between two readings."""
        lowest = min(1.0, *self.readings)
        if max(before, after) <= FAST * lowest:
            return "fast"
        if SLOW[0] * lowest <= min(before, after) and max(before, after) <= SLOW[1] * lowest:
            return "slow"
        return None

    def fast_level(self) -> float:
        """Median of the readings taken while the machine was fast."""
        lowest = min(1.0, *self.readings)
        fast = [r for r in self.readings if r <= FAST * lowest]
        return statistics.median(fast) if fast else lowest

    def scale(self, before: float, after: float) -> float:
        """Fast level over the mean of two readings: the factor that brings
        the probe's time between them to the fast level."""
        return self.fast_level() / ((before + after) / 2)

    def _once(self):
        x = np.zeros(10)
        for row in self._noise:
            x = self._w @ x + row
        n_obs = self._tall.shape[0]
        for k in range(3):
            self._tall[k:].T @ self._tall[: n_obs - k]
        sorted(self._tuples)

    def measure(self) -> float:
        """The probe's slowdown against REFERENCE_S, also kept in readings."""
        self._once()  # untimed, so that what ran before does not set the reading
        t0 = time.perf_counter()
        for _ in range(_REPEATS):
            self._once()
        slowdown = (time.perf_counter() - t0) / _REPEATS / REFERENCE_S
        self.readings.append(slowdown)
        return slowdown
