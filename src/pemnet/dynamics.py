"""Simulation of the stochastic delay-difference dynamics and measurement noise.

The model iterates, with z = dt / tau,

    x_t = (1 - z) x_{t-dt} + z * eps * sum_k A_k x_{t-k*dt} + sigma * dw_t,

where A_k couples inputs with transmission lag k - 1 and each component of dw_t
is Gaussian with variance dt / n. The recurrence runs in one numpy kernel,
sdd_recurrence. It is linear, so L consecutive steps are one affine map of the
p history rows and the L noise rows of a block (a blocked scan; Blelloch 1990,
"Prefix sums and their applications"). The kernel advances L = _BLOCK_ROWS // n
steps per matrix product: one GEMM gives the noise response of every block and
one loop over blocks carries the history. At L = 1 (n > _BLOCK_ROWS / 2) that
loop is the plain per-step recurrence, bit for bit; for L > 1 the summation
order changes and results agree with it to ~1e-15 relative to max|x| (2e-14 at
a spectral radius of 0.99995). Results are bit-reproducible for a fixed seed.

simulate_sdd starts from zero history. Its burn-in length follows from the
spectral radius its stability check measures: 2.05 e-folds of the slowest mode
the radius allows, the 40 steps of the paper cell (radius 0.95). In every
regime that leaves the first kept sample's covariance within about
e^-4.1 = 1.7% of stationary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigurationError,
    DataError,
    FileFormatError,
    NumericalError,
    StabilityError,
    _data_lines,
)
from .numerics import require_stable, spectral_radius

BACKEND = "python"  # the only kernel; kept because perfbench records it as provenance

# L * n <= _BLOCK_ROWS rows per block, so the Toeplitz operator holds at most
# _BLOCK_ROWS**2 doubles. 192 was faster at larger n and p, but slower at the
# paper cell (n = 10, p = 1), where L = 19 costs more to set up than it saves.
_BLOCK_ROWS = 128

# The burn-in lasts this many e-folds of the slowest mode; 0.95^40 = e^-2.05,
# so the paper cell keeps the 40 steps (20 tau at dt = 0.5) it always burned.
_BURN_EFOLDS = 2.05
# A burn-in whose noise would hold more values than this (80 MB) is refused.
_MAX_BURN_VALUES = 10**7


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


@dataclass(frozen=True)
class SDDParams:
    """Dynamical parameters; defaults follow the benchmark configuration."""

    eps: float = 0.9
    tau: float = 1.0
    dt: float = 0.5
    sigma: float = 0.2
    eta: float = 0.0
    delta: int = 0
    n_obs: int = 1000

    def __post_init__(self):
        for name in ("eps", "tau", "dt", "sigma", "eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.eps < 0:
            raise ConfigurationError(f"coupling strength must be >= 0, got {self.eps}")
        if self.tau <= 0 or self.dt <= 0:
            raise ConfigurationError("tau and dt must be positive")
        if self.sigma < 0 or self.eta < 0:
            raise ConfigurationError("noise strengths must be >= 0")
        if self.delta < 0:
            raise ConfigurationError(f"max lag must be >= 0, got {self.delta}")
        if self.n_obs < 2:
            raise ConfigurationError(f"need at least 2 observations, got {self.n_obs}")

    @property
    def dt_tau(self) -> float:
        return self.dt / self.tau


@dataclass(frozen=True)
class TimeSeries:
    """N observations of n nodes at uniform sampling period dt."""

    values: np.ndarray  # shape (N, n)
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DataError(f"sampling period dt must be finite and > 0, got {self.dt}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] < 1:
            raise DataError(f"time series needs shape (N >= 2, n >= 1), got {values.shape}")
        if not np.isfinite(values).all():
            raise DataError("time series contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]


def step_matrices(lag_mats: list[np.ndarray], params: SDDParams) -> np.ndarray:
    """Stack of per-lag update matrices W_k, padded to order params.delta + 1."""
    if not lag_mats:
        raise ConfigurationError("need at least one coupling matrix")
    n = lag_mats[0].shape[0]
    if len(lag_mats) - 1 > params.delta:
        raise ConfigurationError(
            f"graph has lags up to {len(lag_mats) - 1} but params.delta={params.delta}"
        )
    z = params.dt_tau
    p = params.delta + 1
    w = np.zeros((p, n, n))
    w[0] = (1.0 - z) * np.eye(n) + z * params.eps * lag_mats[0]
    for k in range(1, len(lag_mats)):
        w[k] = z * params.eps * lag_mats[k]
    return w


def _companion_radius(w: np.ndarray) -> float:
    p, n, _ = w.shape
    comp = np.zeros((p * n, p * n))
    comp[:n] = np.hstack(list(w))
    comp[n:, : (p - 1) * n] = np.eye((p - 1) * n)
    return spectral_radius(comp)


def simulate_sdd(
    lag_mats: list[np.ndarray],
    params: SDDParams,
    rng: np.random.Generator,
) -> TimeSeries:
    """Simulate the delay-difference model on normalized per-lag coupling matrices.

    lag_mats[k] couples inputs with transmission lag k (usually the output of
    normalize_adjacency). Draws its noise from rng, starts from zero history,
    discards b burn-in steps and returns the next n_obs states.
    b = ceil(2.05 / -ln r), where r is the companion matrix's radius, or
    rho^(1/p) when every W_k >= 0 and rho is the radius of their sum; a radius
    of 0 burns p * n steps. Raises StabilityError for a radius within
    STABILITY_MARGIN of 1, and, before drawing any noise, when the burn-in
    would need more than 10^7 noise values (b * n).
    """
    if params.dt_tau > 1.0:
        warnings.warn(
            f"dt/tau = {params.dt_tau:.3g} > 1 is outside the studied regime",
            stacklevel=2,
        )
    w = step_matrices(lag_mats, params)
    p, n, _ = w.shape
    if (w >= 0.0).all():
        # Perron-Frobenius: with every W_k >= 0 the companion matrix has spectral
        # radius < 1 exactly when the n x n matrix sum_k W_k does, and its radius
        # lies in [rho, rho^(1/p)]; the burn-in assumes the slow end.
        rho, which = spectral_radius(w.sum(axis=0)), "summed lag matrix"
        decay = rho ** (1.0 / p)
    else:
        rho, which = _companion_radius(w), "companion matrix"
        decay = rho
    require_stable(rho, f"update rule ({which})")
    # the zero start's covariance deficit shrinks like decay^(2b); a nilpotent
    # update (decay 0) forgets its start exactly after p * n steps
    burn_steps = p * n if decay == 0.0 else math.ceil(_BURN_EFOLDS / -math.log(decay))
    if burn_steps * n > _MAX_BURN_VALUES:
        raise StabilityError(
            f"update rule ({which}) mixes too slowly: spectral radius {rho:.12g} "
            f"needs a burn-in of {burn_steps} steps, more than "
            f"{_MAX_BURN_VALUES:.0e} noise values at n = {n}"
        )
    t_total = burn_steps + params.n_obs
    scale = params.sigma * math.sqrt(params.dt / n)
    noise = rng.standard_normal((t_total, n)) * scale
    x = sdd_recurrence(w, noise)
    if not np.isfinite(x).all():
        raise NumericalError("simulation produced non-finite values")
    return TimeSeries(values=x[burn_steps:], dt=params.dt)


def add_measurement_noise(
    ts: TimeSeries, eta: float, rng: np.random.Generator
) -> TimeSeries:
    """Add per-entry Gaussian noise with variance eta^2 * dt / n.

    The variance matches the per-step system-noise scaling, so eta equal to the
    system noise strength is the comparable regime.
    """
    if eta < 0:
        raise ConfigurationError(f"measurement noise strength must be >= 0, got {eta}")
    if eta == 0.0:
        return ts
    scale = eta * math.sqrt(ts.dt / ts.n)
    return TimeSeries(values=ts.values + rng.standard_normal(ts.values.shape) * scale,
                      dt=ts.dt)


def save_time_series(ts: TimeSeries, path: str) -> None:
    """Write 'n N dt' then one row of %.17g values per observation."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ts.n} {ts.n_obs} {ts.dt:.17g}\n")
        for row in ts.values:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_time_series(path: str) -> TimeSeries:
    """Parse a time-series file; a bad header or row raises FileFormatError at its line."""
    (lineno, header), rows = _data_lines(path, "empty time-series file")
    tokens = header.split()
    try:
        n, n_obs, dt = int(tokens[0]), int(tokens[1]), float(tokens[2])
    except (IndexError, ValueError) as exc:
        raise FileFormatError(f"{path}:{lineno}: bad header {header!r}") from exc
    if n < 1 or n_obs < 2 or not (math.isfinite(dt) and dt > 0):
        raise FileFormatError(f"{path}:{lineno}: bad header {header!r}: "
                              "need n >= 1, N >= 2 and a finite dt > 0")
    if len(rows) != n_obs:
        raise FileFormatError(f"{path}: header claims {n_obs} rows, found {len(rows)}")
    values = []
    for lineno, line in rows:
        parts = line.split()
        if len(parts) != n:
            raise FileFormatError(f"{path}:{lineno}: expected {n} values, got {len(parts)}")
        try:
            values.append([float(tok) for tok in parts])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: bad float in {line!r}") from exc
    return TimeSeries(values=np.array(values), dt=dt)
