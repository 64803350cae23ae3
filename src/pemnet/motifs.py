"""Analytical walk-pair (process-motif) contributions to lagged covariance.

A motif (l_b, l_f) is a pair of walks from a common source node: a backward walk
of length l_b ending at the row node and a forward walk of length l_f ending at
the column node. Summing each motif's contribution times its occurrence count
reconstructs the steady-state covariance of the delay-difference dynamics; the
same contributions at lag k feed the correction factors of the corrected
lagged-correlation edge measures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, isfinite

import numpy as np

from .errors import ConfigurationError, _require_integers
from .numerics import require_stable, spectral_radius


class TruncationWarning(UserWarning):
    """Covariance series stopped at its layer cap before reaching tolerance."""


def psi(p: int, q: int, z: float) -> float:
    """Memory kernel of the motif contributions, as a function of z = dt / tau.

    Equals z^(p+q+1) (1-z)^|p-q| C(max(p,q), |p-q|) 2F1(m, m; |p-q|+1; (1-z)^2)
    with m = max(p,q) + 1. Evaluated through the Euler transformation, which
    terminates the hypergeometric series after min(p, q) + 1 terms; this form
    is exact for all z in (0, 1], including z near 0 where the direct series
    needs millions of terms.
    """
    _require_integers(p=p, q=q)
    if p < 0 or q < 0:
        raise ConfigurationError(f"walk lengths must be >= 0, got ({p}, {q})")
    return _psi_cached(p, q, _checked_z(z))


def _checked_z(z: float) -> float:
    if not 0.0 < z <= 1.0:
        raise ConfigurationError(f"z must lie in (0, 1], got {z}")
    return float(z)


@lru_cache(maxsize=200_000)
def _psi_cached(p: int, q: int, z: float) -> float:
    hi, lo = (p, q) if p >= q else (q, p)
    gap = hi - lo
    x = (1.0 - z) ** 2
    total = 0.0
    term = 1.0
    for k in range(lo + 1):
        total += term
        term *= (lo - k) ** 2 * x / ((gap + 1 + k) * (k + 1))
    return (1.0 - z) ** gap * comb(hi, gap) * (2.0 - z) ** (-(p + q + 1)) * total


def contribution_cov(
    l_b: int, l_f: int, *, eps: float, tau: float, sigma: float, n: int, dt_tau: float
) -> float:
    """Contribution of motif (l_b, l_f) to steady-state covariance."""
    _require_integers(l_b=l_b, l_f=l_f, n=n)
    return tau * sigma**2 / n * eps ** (l_b + l_f) * psi(l_b, l_f, dt_tau)


def contribution_lagk(
    k: int, l_b: int, l_f: int, *,
    eps: float, tau: float, sigma: float, n: int, dt_tau: float,
) -> float:
    """Contribution of motif (l_b, l_f) to the lag-k steady-state covariance."""
    _require_integers(k=k, l_b=l_b, l_f=l_f, n=n)
    if min(l_b, l_f) < 0:
        raise ConfigurationError(f"walk lengths must be >= 0, got ({l_b}, {l_f})")
    return float(_coefficients(k, l_b + l_f + 1, eps=eps, tau=tau, sigma=sigma, n=n,
                               dt_tau=dt_tau)[l_b, l_f])


def _coefficients(
    k: int, size: int, *, eps: float, tau: float, sigma: float, n: int, dt_tau: float,
) -> np.ndarray:
    """(size, size) table of c^(k)[l_b, l_f] for l_b + l_f < size, 0 elsewhere.

    Built from the lag-0 contributions through the recursion
    c^(k)_{b,f} = (1 - z) c^(k-1)_{b,f} + eps z c^(k-1)_{b,f-1}, with
    c_{b,-1} = 0 (the boundary forced by the one-step update of the dynamics).
    Row l_b reads only its own smaller l_f, so the lag-0 triangle suffices.
    """
    if k < 0:
        raise ConfigurationError(f"lag must be >= 0, got {k}")
    z = _checked_z(dt_tau)
    # contribution_cov's product, in its order: (tau sigma^2 / n eps^L) psi
    scale = [tau * sigma**2 / n * eps**total for total in range(size)]
    c = np.zeros((size, size))
    for b in range(size):
        c[b, : size - b] = [scale[b + f] * _psi_cached(b, f, z) for f in range(size - b)]
    for _ in range(k):
        c[:, 1:] = c[:, 1:] * (1.0 - z) + c[:, :-1] * eps * z
        c[:, 0] *= 1.0 - z
    return np.fliplr(np.triu(np.fliplr(c)))  # 0 where l_b + l_f >= size


@dataclass(frozen=True)
class CovarianceSeries:
    """Truncated motif-series reconstruction of a lag-k covariance matrix."""

    matrix: np.ndarray
    layers: int
    last_increment: float  # the larger max-abs increment of the last two layers
    converged: bool


def covariance_series(
    a: np.ndarray, *,
    eps: float, tau: float, sigma: float, dt_tau: float,
    k: int = 0, l_max: int = 80, tol: float = 1e-12,
) -> CovarianceSeries:
    """Sum motif contributions times walk counts, layer by total walk length.

    Layer L adds sum_{l_f} c^(k)_{L-l_f, l_f} A^{l_f} (A^T)^{L-l_f}; the sum stops
    early at a layer L > k where layers L - 1 and L both have max-abs increment
    below tol (at dt/tau = 1 every layer below k, and then every other layer, is
    exactly 0). Layers decay like eps^L, so at eps = 0.9 roughly 150 layers are
    needed for 1e-8 absolute accuracy; a result that still exceeds tol at l_max
    carries a TruncationWarning and converged=False.
    """
    _require_integers(k=k, l_max=l_max)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"adjacency must be square, got shape {a.shape}")
    n = a.shape[0]
    z = dt_tau
    require_stable(spectral_radius(eps * z * a + (1.0 - z) * np.eye(n)),
                   "update rule for this adjacency")
    coef = _coefficients(k, l_max + 1, eps=eps, tau=tau, sigma=sigma, n=n, dt_tau=z)
    # walks[:, j] = A^j: any run of powers side by side is one (n, jn) view
    walks = np.stack(list(accumulate(repeat(a, l_max), np.matmul, initial=np.eye(n))),
                     axis=1)
    total = np.zeros((n, n))
    last_inc = inc_max = np.inf
    for layer in range(l_max + 1):
        l_f = np.arange(layer + 1)
        # one GEMM: [A^f]_f @ [c_{L-f,f} (A^T)^{L-f}]_f
        right = coef[layer - l_f, l_f][:, None] * walks[:, layer::-1]
        inc = walks[:, : layer + 1].reshape(n, -1) @ right.reshape(n, -1).T
        total += inc
        prev_max, inc_max = inc_max, float(np.max(np.abs(inc)))
        last_inc = max(prev_max, inc_max)
        if layer > k and last_inc < tol:
            return CovarianceSeries(total, layer, last_inc, True)
    warnings.warn(
        f"series increment {last_inc:.3g} still above tol={tol:.3g} at layer {l_max}",
        TruncationWarning,
        stacklevel=2,
    )
    return CovarianceSeries(total, l_max, last_inc, False)


@dataclass(frozen=True)
class ContributionRow:
    """One motif's lag-k contribution; is_argmax marks the largest motif with
    at least one edge traversal (the length-0 motif is every node's own noise
    variance and is excluded from the comparison)."""

    k: int
    l_b: int
    l_f: int
    value: float
    is_argmax: bool


def contribution_table(
    k_values: list[int], l_max: int, *,
    eps: float, tau: float, sigma: float, n: int, dt_tau: float,
) -> list[ContributionRow]:
    """Exhaustive grid of lag-k contributions for walk lengths up to l_max."""
    _require_integers(l_max=l_max, n=n)
    for name, value in (("eps", eps), ("tau", tau), ("sigma", sigma), ("dt_tau", dt_tau)):
        if not isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    if n < 1 or tau <= 0 or sigma < 0 or eps < 0:
        raise ConfigurationError(f"need n >= 1, tau > 0, sigma >= 0 and eps >= 0; "
                                 f"got n={n}, tau={tau}, sigma={sigma}, eps={eps}")
    if l_max > 12:
        raise ConfigurationError(f"l_max is capped at 12, got {l_max}")
    if l_max < 1:
        raise ConfigurationError(f"need l_max >= 1, got {l_max}")
    rows: list[ContributionRow] = []
    for k in k_values:
        _require_integers(k=k)
        values = _coefficients(k, 2 * l_max + 1, eps=eps, tau=tau, sigma=sigma, n=n,
                               dt_tau=dt_tau)[: l_max + 1, : l_max + 1]
        peak = values.flat[1:].max()  # every motif but (0, 0)
        for (l_b, l_f), v in np.ndenumerate(values):
            is_max = bool(l_b + l_f >= 1 and v >= peak * (1.0 - 1e-12))
            rows.append(ContributionRow(k, l_b, l_f, float(v), is_max))
    return rows


def write_contribution_table(rows: list[ContributionRow], path: str) -> None:
    """CSV with header k,lB,lF,value,is_argmax and 17-significant-digit floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,lB,lF,value,is_argmax\n")
        for r in rows:
            fh.write(f"{r.k},{r.l_b},{r.l_f},{r.value:.17g},{int(r.is_argmax)}\n")
