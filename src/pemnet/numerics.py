"""Dense-matrix numerical kernels used throughout the package.

Provides a Gauss-series evaluator for the hypergeometric function 2F1(a, a; c; x),
discrete- and continuous-time Lyapunov solvers, the spectral radius, and ordinary
least squares. All tolerances are fixed constants so that results are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, NumericalError, StabilityError

# Series termination: relative size of the current term vs. the partial sum.
_SERIES_RTOL = 1e-15
_SERIES_MAX_TERMS = 10**6

# Fixed-point iteration for the discrete Lyapunov equation.
_LYAP_RTOL = 1e-13
_LYAP_MAX_ITER = 10**6


def hyp2f1_equal_ab(a: int, c: int, x: float) -> float:
    """Evaluate 2F1(a, a; c; x) by direct summation of the Gauss series.

    Parameters
    ----------
    a, c : positive integers (the two upper parameters are equal).
    x : argument in [0, 1).

    The series sum_k [(a)_k (a)_k / ((c)_k k!)] x^k is accumulated until the
    current term falls below 1e-15 times the partial sum. Near x = 1 the series
    converges slowly; more than 1e6 terms raises ConvergenceError.
    """
    if a < 1 or c < 1:
        raise ValueError(f"a and c must be positive integers, got a={a}, c={c}")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x must lie in [0, 1), got x={x}")
    total = 1.0
    term = 1.0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * (a + k) * x / ((c + k) * (k + 1))
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            return total
    raise ConvergenceError(
        f"2F1({a},{a};{c};x) series did not converge within {_SERIES_MAX_TERMS} "
        f"terms at x={x}"
    )


def spectral_radius(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a square matrix.

    Structurally nilpotent matrices (no directed cycle among the non-zero
    entries) return exactly 0.0; otherwise the eigenvalues are computed
    densely via LAPACK.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if _pattern_nilpotent(a != 0.0):
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _pattern_nilpotent(pattern: np.ndarray) -> bool:
    """True iff the boolean matrix raised to the n-th boolean power is zero.

    Uses repeated boolean squaring; equivalent to the digraph of non-zero
    entries having no directed cycle, which forces A^n = 0 exactly for any
    values on that pattern. The squares are float64 products of 0/1 matrices
    (BLAS; numpy's integer matmul has none), exact since every entry is <= n.
    """
    n = pattern.shape[0]
    p = pattern.astype(float)
    power = 1
    while True:
        if not p.any():
            return True
        if power >= n:
            return False
        p = ((p @ p) > 0).astype(float)
        power *= 2


def solve_discrete_lyapunov(k_mat: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    """Solve K S K^T - S + Q = 0 by fixed-point iteration S <- K S K^T + Q.

    Requires spectral_radius(K) < 1. Iteration starts from S = Q and stops when
    the max-abs update falls below 1e-13 times the max-abs of S.
    """
    k_mat = np.asarray(k_mat, dtype=float)
    q_mat = np.asarray(q_mat, dtype=float)
    rho = spectral_radius(k_mat)
    if rho >= 1.0:
        raise StabilityError(f"spectral radius of K is {rho:.6g} >= 1")
    s = q_mat.copy()
    for _ in range(_LYAP_MAX_ITER):
        s_next = k_mat @ s @ k_mat.T + q_mat
        delta = float(np.max(np.abs(s_next - s)))
        s = s_next
        if delta <= _LYAP_RTOL * float(np.max(np.abs(s))):
            return s
    raise ConvergenceError(
        f"discrete Lyapunov iteration did not converge within {_LYAP_MAX_ITER} steps"
    )


def solve_continuous_lyapunov(m_mat: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    """Solve M S + S M^T + Q = 0 via the Kronecker-product linear system.

    Assembles the n^2 x n^2 system (I (x) M + M (x) I) vec(S) = -vec(Q) in
    column-major vec convention. Intended for small n (test oracle use); a
    singular system indicates M is not stable.
    """
    m_mat = np.asarray(m_mat, dtype=float)
    q_mat = np.asarray(q_mat, dtype=float)
    n = m_mat.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, m_mat) + np.kron(m_mat, eye)
    try:
        vec_s = np.linalg.solve(lhs, -q_mat.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"continuous Lyapunov system is singular: {exc}") from exc
    return vec_s.reshape((n, n), order="F")


def ols_fit(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Ordinary least squares of y on the columns of x.

    Returns (coefficients, residual_variance) with residual variance
    sum(resid^2) / (T - q). Raises NumericalError on a rank-deficient design.
    """
    y = np.asarray(y, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    t, q = x.shape
    if q < 1 or t <= q:
        raise ValueError(f"need T > q >= 1, got T={t}, q={q}")
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < q:
        raise NumericalError(f"design matrix is rank deficient (rank {rank} < {q})")
    resid = y - x @ coef
    return coef, float(resid @ resid) / (t - q)
