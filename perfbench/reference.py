"""Independent numpy formulas that the benchmark checks the program against.

Nothing here calls pemnet: the lagged correlations are centred lagged products
normalized by the lag-0 scale, accumulated with einsum rather than matmul, the
dt/tau estimate inverts the lag-0 correlation instead of solving with it, and
thresholding and accuracy use array sorts and boolean masks instead of Python
tuples and sets.
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-10


def lagged_corrs(values: np.ndarray, k_max: int) -> list[np.ndarray]:
    """Lag-k correlations C_k[i, j] = corr(x_i at t+k, x_j at t), k = 0..k_max."""
    n_obs = values.shape[0]
    centred = values - values.mean(axis=0)
    scale = np.sqrt(np.einsum("ti,ti->i", centred, centred) / (n_obs - 1))
    z = centred / scale
    return [
        np.einsum("ti,tj->ij", z[k:], z[: n_obs - k]) / (n_obs - k - 1)
        for k in range(k_max + 1)
    ]


def dt_tau_estimate(corrs: list[np.ndarray]) -> float:
    """1 - median diag(C_1 C_0^-1), clamped to [1e-6, 1].

    The diagonal of C_1 C_0^-1 equals that of S_1 S_0^-1, since the two differ
    by a diagonal similarity.
    """
    m = corrs[1] @ np.linalg.inv(corrs[0])
    raw = 1.0 - float(np.median(np.diag(m)))
    return min(max(raw, 1e-6), 1.0)


def alpha(kind: str, z: float) -> float:
    if kind == "lccf":
        return 2.0 * (1.0 - z) / (2.0 - 2.0 * z + z * z)
    if kind == "lcrc":
        return 1.0 - z
    raise ValueError(f"no correction factor for {kind!r}")


def edge_scores(values: np.ndarray, kind: str, dt_tau, delta_hat: int):
    """(scores, dt/tau used) for lc, lccf or lcrc; dt_tau None means estimate it."""
    corrs = lagged_corrs(values, delta_hat + 1)
    if kind == "lc":
        scores, z = corrs[1], None
    else:
        z = dt_tau_estimate(corrs) if dt_tau is None else float(dt_tau)
        a = alpha(kind, z)
        scores = np.max(
            [corrs[d + 1] - a * corrs[d] for d in range(delta_hat + 1)], axis=0
        )
    scores = scores.copy()
    np.fill_diagonal(scores, np.nan)
    return scores, z


def threshold_accuracy(scores: np.ndarray, edges, m: int) -> float:
    """Accuracy of keeping the m largest off-diagonal scores.

    Entry (i, j) scores the edge j -> i; ties break by ascending (i, j).
    """
    n = scores.shape[0]
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    order = np.lexsort((cols, rows, -scores[rows, cols]))[:m]
    inferred = np.zeros((n, n), dtype=bool)
    inferred[rows[order], cols[order]] = True
    truth = np.zeros((n, n), dtype=bool)
    for source, target in edges:
        truth[target, source] = True
    mismatched = int(np.count_nonzero(inferred != truth))
    return 1.0 - mismatched / (n * (n - 1))


def max_offdiag_error(a: np.ndarray, b: np.ndarray) -> float:
    off = ~np.eye(a.shape[0], dtype=bool)
    return float(np.max(np.abs(a[off] - b[off])))
