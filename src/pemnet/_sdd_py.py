"""Pure-numpy fallback kernel for the delay-difference recurrence."""

from __future__ import annotations

import numpy as np


def sdd_recurrence(w: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Iterate x_t = sum_k W[k-1] @ x_{t-k} + noise_t with zero initial history.

    w has shape (p, n, n); noise has shape (T, n). Returns the (T, n) trajectory.
    Each step multiplies the last p states, oldest first, by the companion
    matrix's block row [W_p ... W_1], behind p rows of zero history.
    """
    p = w.shape[0]
    t_total, n = noise.shape
    w_rev = np.hstack(w[::-1])
    x = np.zeros((p + t_total, n))
    for t in range(t_total):
        x[p + t] = noise[t] + w_rev @ x[t : t + p].ravel()
    return x[p:]
