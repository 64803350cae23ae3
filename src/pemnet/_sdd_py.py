"""Numpy kernel for the delay-difference recurrence.

The recurrence is linear, so L consecutive steps are one affine map of the p
history rows and the L noise rows of a block (a blocked scan; Blelloch 1990,
"Prefix sums and their applications"). The kernel advances L = _BLOCK_ROWS // n
steps per matrix product: one GEMM gives the noise response of every block and
one loop over blocks carries the history. At L = 1 (n > _BLOCK_ROWS / 2) that
loop is the plain per-step recurrence, with the same arithmetic; for L > 1 the
summation order changes and results agree with the per-step loop to ~1e-15
relative to max|x| (2e-14 at a spectral radius of 0.99995).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# L * n <= _BLOCK_ROWS rows per block, so the Toeplitz operator holds at most
# _BLOCK_ROWS**2 doubles. 192 was faster at larger n and p, but slower at the
# paper cell (n = 10, p = 1), where L = 19 costs more to set up than it saves.
_BLOCK_ROWS = 128


def _block_operators(w: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Responses of `block` steps to the history rows and to the noise rows.

    Runs the recurrence itself for `block` steps from every unit history
    vector. Returns G (block*n, p*n), mapping the last p states (oldest first)
    to the block's states, and the block-lower-triangular Toeplitz operator
    (block*n, block*n) of impulse responses H_0 = I, H_1, ..., H_{block-1},
    mapping the block's noise rows to its states.
    """
    p, n, _ = w.shape
    w_rev = np.hstack(w[::-1])
    x = np.zeros((p + block, n, p * n))
    x[:p] = np.eye(p * n).reshape(p, n, p * n)
    x[p] = w_rev  # one step from the unit history
    for t in range(1, block):
        x[p + t] = w_rev @ x[t : t + p].reshape(p * n, p * n)
    g = x[p:].reshape(block * n, p * n)
    # A unit noise input at step 0 acts later like the newest history row, so
    # H_1 ... H_{block-1} are G's last n columns. Column block j of the
    # Toeplitz operator is the column (H_0; ...; H_{block-1}) shifted down j
    # blocks: a window over that column behind block - 1 zero blocks.
    shifted = np.concatenate([
        np.zeros(((block - 1) * n, n)), np.eye(n), g[: (block - 1) * n, (p - 1) * n :]
    ])
    windows = sliding_window_view(shifted, block * n, axis=0)[::n][::-1]
    return g, windows.reshape(block * n, block * n).T


def sdd_recurrence(w: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Iterate x_t = sum_k W[k-1] @ x_{t-k} + noise_t with zero initial history.

    w has shape (p, n, n); noise has shape (T, n). Returns the (T, n) trajectory.
    Each block of L steps is its noise response plus G times the last p
    states, behind p rows of zero history; at L = 1, G is the companion
    matrix's block row [W_p ... W_1] and the noise response is the noise.
    """
    p = w.shape[0]
    t_total, n = noise.shape
    block = max(1, _BLOCK_ROWS // n)
    n_blocks = -(-t_total // block)
    history, rows = p * n, block * n
    g, toeplitz = _block_operators(w, block)
    x = np.zeros(history + n_blocks * rows)  # row-major states, flat
    x[history : history + t_total * n] = noise.ravel()
    blocks = x[history:].reshape(n_blocks, rows)
    if block > 1:
        blocks[:] = blocks @ toeplitz.T
    pasts = sliding_window_view(x, history)[::rows]
    for out, past in zip(blocks, pasts):
        out += np.dot(g, past)
    return x[history : history + t_total * n].reshape(t_total, n)
