#!/usr/bin/env python3
"""Time the simulation kernels against a per-step reference loop.

The delay-difference recurrence is the hot loop of every sweep. The numpy
kernel advances L = _BLOCK_ROWS // n steps per matrix product (a blocked
scan); the compiled kernel, when built, steps one state at a time in C. This
script runs both, and the plain per-step numpy loop, on identical inputs across
(nodes, steps, order) grids, checks every kernel against the per-step loop and
prints the timings, plus an end-to-end trial timing for context.

Usage, from the root of a checkout:

    PYTHONPATH=src python benchmarks/backend_benchmark.py [--repeats 5]
"""

import argparse
import time

import numpy as np

from pemnet._sdd_py import _BLOCK_ROWS
from pemnet._sdd_py import sdd_recurrence as numpy_kernel
from pemnet.dynamics import _companion_radius

try:
    from pemnet._sdd_core import sdd_recurrence as compiled_kernel
except ImportError:
    compiled_kernel = None

RADIUS = 0.9


def per_step_kernel(w, noise):
    """Reference: one companion block-row product per step."""
    p = w.shape[0]
    t_total, n = noise.shape
    w_rev = np.hstack(w[::-1])
    x = np.zeros((p + t_total, n))
    for t in range(t_total):
        x[p + t] = noise[t] + w_rev @ x[t : t + p].ravel()
    return x[p:]


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def stable_coefficients(p, n, rng):
    """Random W_1..W_p whose companion matrix has spectral radius RADIUS.

    Scaling W_k by c**k scales every companion eigenvalue by c.
    """
    w = rng.standard_normal((p, n, n))
    c = RADIUS / _companion_radius(w)
    return w * (c ** np.arange(1, p + 1))[:, None, None]


def checked_deviation(name, x, ref):
    """Largest deviation from the per-step loop, relative to max|x|."""
    dev = np.abs(x - ref).max() / np.abs(ref).max()
    if not dev < 1e-12:
        raise RuntimeError(f"{name} kernel deviates from the per-step loop by {dev:.3g}")
    return dev


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    if compiled_kernel is None:
        print("compiled kernel not built; showing numpy timings only")

    rng = np.random.default_rng(0)
    grid = [
        (10, 1_000, 1),
        (10, 100_000, 1),
        (10, 10_000, 6),
        (30, 10_000, 6),
        (50, 10_000, 1),
        (200, 10_000, 1),
    ]
    print(f"{'nodes':>6} {'steps':>8} {'order':>6} {'L':>4} {'per_step_s':>11} "
          f"{'numpy_s':>9} {'numpy_dev':>10} {'compiled_s':>11} {'compiled_dev':>13}")
    for n, steps, p in grid:
        w = stable_coefficients(p, n, rng)
        noise = rng.standard_normal((steps, n)) * 0.05
        ref = per_step_kernel(w, noise)
        dev = checked_deviation("numpy", numpy_kernel(w, noise), ref)
        t_ref = best_of(lambda: per_step_kernel(w, noise), args.repeats)
        t_np = best_of(lambda: numpy_kernel(w, noise), args.repeats)
        row = (f"{n:>6} {steps:>8} {p:>6} {max(1, _BLOCK_ROWS // n):>4} "
               f"{t_ref:>11.4f} {t_np:>9.4f} {dev:>10.1e}")
        if compiled_kernel is None:
            print(f"{row} {'-':>11} {'-':>13}")
            continue
        dev_c = checked_deviation("compiled", compiled_kernel(w, noise), ref)
        t_cy = best_of(lambda: compiled_kernel(w, noise), args.repeats)
        print(f"{row} {t_cy:>11.4f} {dev_c:>13.1e}")

    # end-to-end: one benchmark trial at defaults, backend as imported
    from pemnet.bench import run_trial
    from pemnet.dynamics import BACKEND, SDDParams
    from pemnet.graphs import GraphConfig

    t0 = time.perf_counter()
    for trial in range(20):
        run_trial(GraphConfig(), SDDParams(), ["lcrc", "lccf", "lc"], seed=trial)
    per_trial = (time.perf_counter() - t0) / 20
    print(f"\nend-to-end default trial ({BACKEND} backend): {per_trial * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
