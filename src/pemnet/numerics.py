"""Dense-matrix numerical kernels used throughout the package.

Provides the spectral radius (exactly 0 for a nilpotent pattern, the Perron root
by power iteration for large nonnegative matrices), the one stability check, the
discrete-time Lyapunov solver, and ordinary least squares. All tolerances are
fixed constants so that results are deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, ConvergenceError, NumericalError, StabilityError

# Smith doubling for the discrete Lyapunov equation.
_LYAP_RTOL = 1e-13
_LYAP_MAX_DOUBLINGS = 64

# A spectral radius within this margin of 1 counts as unstable. At eps = 1 the
# normalized graphs put the radius at 1 up to roundoff, on either side of it, so
# a bare rho < 1 test would accept some of them as a non-stationary walk.
STABILITY_MARGIN = 1e-12

# Perron root of a nonnegative matrix (_perron_root): smallest n that takes
# it (below, the dense eigensolve is as fast), diagonal shift as a fraction of
# the mean off-diagonal row sum, truncation of the lower-bound vector, bracket
# width relative to the root, window of the rate estimate (in iterations; the
# estimate is first read one iteration after the window fills).
_PERRON_MIN_N = 64
_PERRON_SHIFT = 0.1
_PERRON_FLOOR = 2.0**-30
_PERRON_RTOL = 1e-14
_PERRON_WINDOW = 3


def spectral_radius(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a square matrix.

    Structurally nilpotent matrices (no directed cycle among the non-zero
    entries) return exactly 0.0. A nonnegative matrix with n >= 64 gets its
    Perron root from a certified power-iteration bracket (_perron_root); any
    other matrix, or one whose bracket does not close, gets a dense LAPACK
    eigensolve. A NaN or inf entry raises NumericalError, a non-square input
    ConfigurationError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"expected a square matrix, got shape {a.shape}")
    # a non-zero diagonal entry is a cycle of length 1: no peel needed
    if not a.diagonal().any() and _pattern_nilpotent(a != 0.0):
        return 0.0
    if a.shape[0] >= _PERRON_MIN_N and a.min() >= 0.0:
        root = _perron_root(a)
        if root is not None:
            return root
    try:
        return float(np.abs(np.linalg.eigvals(a)).max())
    except np.linalg.LinAlgError as exc:  # NaN or inf entries, or no convergence
        raise NumericalError(f"spectral radius failed: {exc}") from exc


def _perron_root(a: np.ndarray) -> float | None:
    """Spectral radius of a nonnegative matrix, or None if the bracket does not close.

    Power iteration on B = a + (c - d) I, with d = min diag(a) and c a tenth of
    the mean off-diagonal row sum: B is nonnegative with a positive diagonal, so
    the iteration does not oscillate, and rho(a) = rho(B) - (c - d). For x > 0 the
    Collatz-Wielandt bound max_i (Bx)_i / x_i is an upper bound on rho(B). By
    the subinvariance theorem, min_i (Bx')_i / x'_i over the support of any
    nonnegative x' != 0 is a lower bound; x' is x with the entries below
    2^-30 max x zeroed, so the bracket also closes on reducible matrices whose
    dominant class leaves other entries decaying. Returns the midpoint once
    the bracket is no wider than 1e-14 times the upper bound on rho(a).
    Returns None after n iterations, or earlier once the steps of x shrink too
    slowly to close the bracket by then: x converges at the rate
    |lambda_2 / lambda_1| of B, read off the 2-norms of its last steps, so a
    slowly mixing graph (a sparse ring lattice) falls back after 5 to 10
    iterations.
    """
    n = a.shape[0]
    diag = np.diagonal(a)
    total = float(a.sum())
    if total == np.inf:  # an inf entry, or a sum past the float range
        return None
    c = _PERRON_SHIFT * (total - float(diag.sum())) / n
    if not c > 0.0:  # diagonal
        return None
    shift = c - float(diag.min())
    b = a.copy()
    b.flat[:: n + 1] += shift
    x = np.ones(n)
    steps = []
    # an eigensolve costs about n^3 and a step about n^2: at n = 64 eigvals
    # took as long as 42-114 steps on gnm and ba graphs (one BLAS thread), at
    # n = 100 and 200 185-360 and 750-945, so n steps stay below it
    max_iter = n
    # an extreme is read as v[v.argmax()]: at this size argmax and an index
    # cost a fifth of max(), and give the same value
    for it in range(max_iter):
        y = b @ x
        ratio = y / x
        hi = float(ratio[ratio.argmax()])
        if x[x.argmin()] >= _PERRON_FLOOR:
            lo = float(ratio[ratio.argmin()])
        else:
            keep = x >= _PERRON_FLOOR
            lo = float(((b @ np.where(keep, x, 0.0))[keep] / x[keep]).min())
        tol = _PERRON_RTOL * (hi - shift)
        if hi - lo <= tol:
            root = 0.5 * (hi + lo) - shift
            return root if np.isfinite(root) else None
        y /= y[y.argmax()]
        step = y - x
        steps.append(math.sqrt(step @ step))
        if it > _PERRON_WINDOW:
            # x nears its limit at the rate q its steps shrink, and the bracket
            # closes once a step is about 1e-14: give up if that lies past the
            # cap. A zero step is a fixed point, whose bracket stays as it is.
            if steps[-1] == 0.0:
                return None
            q = (steps[-1] / steps[-1 - _PERRON_WINDOW]) ** (1.0 / _PERRON_WINDOW)
            to_close = math.log(_PERRON_RTOL / steps[-1]) / math.log(q) if q < 1.0 else math.inf
            if it + to_close > max_iter:
                return None
        x = y
    return None


def _pattern_nilpotent(pattern: np.ndarray) -> bool:
    """True iff the boolean matrix is nilpotent: its digraph has no directed cycle.

    Peels the nodes whose row has no remaining non-zero entry, round by round;
    the digraph is acyclic exactly when every node is peeled. Nilpotency then
    holds for any values on that pattern.
    """
    inputs = pattern.sum(axis=1, dtype=np.intp)
    alive = np.ones(pattern.shape[0], dtype=bool)
    peel = inputs == 0
    while peel.any():
        alive &= ~peel
        inputs -= pattern[:, peel].sum(axis=1, dtype=np.intp)
        peel = alive & (inputs == 0)
    return not alive.any()


def require_stable(rho: float, what: str) -> None:
    """Raise StabilityError unless rho < 1 - STABILITY_MARGIN.

    rho is the spectral radius of `what`, which names the matrix in the message.
    Callers pass the radius, not the matrix: each measures it on its own matrix,
    and simulate_sdd reads it again for its burn-in.
    """
    if rho >= 1.0 - STABILITY_MARGIN:
        raise StabilityError(
            f"{what} is unstable: spectral radius {rho:.6g}, "
            f"needs < 1 - {STABILITY_MARGIN:g}"
        )


def solve_discrete_lyapunov(k_mat: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    """Solve K S K^T - S + Q = 0 by Smith's doubling (Smith 1968).

    S_0 = Q and A_0 = K; each step adds A S A^T, which doubles the number of
    terms of the sum over j of K^j Q (K^j)^T, and squares A. Requires
    spectral_radius(K) < 1 - STABILITY_MARGIN. Stops when the max-abs update
    falls below 1e-13 times the max-abs of S; 64 doublings cover 2^64 terms.
    """
    k_mat = np.asarray(k_mat, dtype=float)
    q_mat = np.asarray(q_mat, dtype=float)
    require_stable(spectral_radius(k_mat), "K")
    s, a = q_mat.copy(), k_mat
    for _ in range(_LYAP_MAX_DOUBLINGS):
        inc = a @ s @ a.T
        s += inc
        a = a @ a
        if float(np.max(np.abs(inc))) <= _LYAP_RTOL * float(np.max(np.abs(s))):
            return s
    raise ConvergenceError(
        f"discrete Lyapunov doubling did not converge within {_LYAP_MAX_DOUBLINGS} steps"
    )


def ols_fit(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Ordinary least squares of y on the columns of x.

    Returns (coefficients, residual_variance) with residual variance
    sum(resid^2) / (T - q). Raises NumericalError on a rank-deficient design,
    ConfigurationError on one that is not 2-D with T > q >= 1.
    """
    y = np.asarray(y, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError("design matrix must be 2-D")
    t, q = x.shape
    if q < 1 or t <= q:
        raise ConfigurationError(f"need T > q >= 1, got T={t}, q={q}")
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < q:
        raise NumericalError(f"design matrix is rank deficient (rank {rank} < {q})")
    resid = y - x @ coef
    return coef, float(resid @ resid) / (t - q)
