"""Test oracles: closed forms and solvers that the pipeline does not call, each an
independent route to a quantity that the library computes another way."""

from __future__ import annotations

from math import comb

import numpy as np

from pemnet import motifs
from pemnet.errors import ConfigurationError, ConvergenceError, StabilityError
from pemnet.motifs import contribution_lagk

# Series termination: relative size of the current term vs. the partial sum.
_SERIES_RTOL = 1e-15
_SERIES_MAX_TERMS = 10**6


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


def contribution_oup(
    l_b: int, l_f: int, *, eps: float, tau: float, sigma: float, n: int
) -> float:
    """Covariance contribution of motif (l_b, l_f) in the continuous-time limit.

    Equals tau sigma^2 eps^L / (2^(L+1) n) * C(L, l_f) with L = l_b + l_f; the
    dt/tau -> 0 limit of contribution_cov.
    """
    if l_b < 0 or l_f < 0:
        raise ConfigurationError(f"walk lengths must be >= 0, got ({l_b}, {l_f})")
    total = l_b + l_f
    return tau * sigma**2 * eps**total / (2 ** (total + 1) * n) * comb(total, l_f)


def contribution_delayed(
    k: int, l_b: int, l_f: int, delay_b: int, delay_f: int, *,
    eps: float, tau: float, sigma: float, n: int, dt_tau: float,
) -> float:
    """Lag-k contribution of a motif whose edges carry transmission delays.

    delay_b and delay_f are the summed delays along the backward and forward
    walks; each delayed edge behaves like a path through silent relay nodes,
    which divides out one factor of eps * dt_tau per delay step.
    """
    if delay_b < 0 or delay_f < 0:
        raise ConfigurationError("delay sums must be >= 0")
    extra = delay_b + delay_f
    if extra > 0 and eps * dt_tau == 0.0:
        raise ConfigurationError("eps * dt_tau = 0 with non-zero delays")
    base = contribution_lagk(
        k, l_b + delay_b, l_f + delay_f,
        eps=eps, tau=tau, sigma=sigma, n=n, dt_tau=dt_tau,
    )
    return base / (eps * dt_tau) ** extra


def contribution_lagk_per_term(
    k: int, l_b: int, l_f: int, *,
    eps: float, tau: float, sigma: float, n: int, dt_tau: float,
) -> float:
    """Lag-k contribution of one motif by the recursion run on its own row.

    Starts from the lag-0 contributions of motifs (l_b, l_f - k .. l_f) and
    applies c^(k)_{b,f} = (1 - z) c^(k-1)_{b,f} + eps z c^(k-1)_{b,f-1} k times,
    one dict entry at a time; motifs.contribution_lagk reads the same numbers
    from a table of every motif.
    """
    z = dt_tau
    lo = max(0, l_f - k)
    row = {
        f: motifs.contribution_cov(l_b, f, eps=eps, tau=tau, sigma=sigma, n=n,
                                   dt_tau=z)
        for f in range(lo, l_f + 1)
    }
    for _ in range(k):
        row = {f: row[f] * (1.0 - z) + row.get(f - 1, 0.0) * eps * z for f in row}
    return row[l_f]


def covariance_series_per_term(
    a: np.ndarray, *,
    eps: float, tau: float, sigma: float, dt_tau: float, k: int, l_max: int, tol: float,
) -> tuple[np.ndarray, int, bool]:
    """(matrix, layers, converged) of the motif series, one term at a time.

    Layer L adds c^(k)_{L-f,f} A^f (A^T)^(L-f) for f = 0..L, each coefficient
    from contribution_lagk_per_term and each term its own n x n product, and
    the sum stops after the first layer L > k where layers L - 1 and L both
    have max-abs increment below tol; motifs.covariance_series makes each layer
    one matrix product instead.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    powers = [np.eye(n)]
    for _ in range(l_max):
        powers.append(powers[-1] @ a)
    total = np.zeros((n, n))
    small = False  # the previous layer's increment was below tol
    for layer in range(l_max + 1):
        inc = np.zeros((n, n))
        for l_f in range(layer + 1):
            c = contribution_lagk_per_term(k, layer - l_f, l_f, eps=eps, tau=tau,
                                           sigma=sigma, n=n, dt_tau=dt_tau)
            inc += c * (powers[l_f] @ powers[layer - l_f].T)
        total += inc
        was_small, small = small, np.max(np.abs(inc)) < tol
        if layer > k and was_small and small:
            return total, layer, True
    return total, l_max, False


def alpha_from_contributions(kind: str, dt_tau: float, eps: float = 0.9) -> float:
    """The defining contribution ratio c^(1)/c^(0) of the cancelled motif.

    Cross-check route for the closed forms; the ratio is independent of eps,
    tau, sigma, and n.
    """
    l_b, l_f = (1, 1) if kind == "lccf" else (1, 0)
    if kind not in ("lccf", "lcrc"):
        raise ConfigurationError(f"no correction factor for kind {kind!r}")
    shared = dict(eps=eps, tau=1.0, sigma=1.0, n=1, dt_tau=dt_tau)
    return (
        motifs.contribution_lagk(1, l_b, l_f, **shared)
        / motifs.contribution_cov(l_b, l_f, **shared)
    )
