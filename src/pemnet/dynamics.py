"""Simulation of the stochastic delay-difference dynamics and measurement noise.

The model iterates, with z = dt / tau,

    x_t = (1 - z) x_{t-dt} + z * eps * sum_k A_k x_{t-k*dt} + sigma * dw_t,

where A_k couples inputs with transmission lag k - 1 and each component of dw_t
is Gaussian with variance dt / n. The recurrence runs in one numpy kernel, a
blocked scan that advances L = 128 // n steps per matrix product; at L = 1 it
is the per-step loop, bit for bit, and for L > 1 it agrees with that loop to
about 1e-15 relative. Results are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._sdd_py import sdd_recurrence
from .errors import (
    ConfigurationError,
    DataError,
    FileFormatError,
    NumericalError,
    StabilityError,
)
from .numerics import STABILITY_MARGIN, spectral_radius

BACKEND = "python"  # the only kernel; kept because perfbench records it as provenance


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
    burn_in: float | None = None  # time units; None means 20 * tau
    seed: int = 0

    def __post_init__(self):
        for name in ("eps", "tau", "dt", "sigma", "eta", "burn_in"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
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
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigurationError("burn-in time must be >= 0")

    @property
    def dt_tau(self) -> float:
        return self.dt / self.tau

    @property
    def burn_in_time(self) -> float:
        return 20.0 * self.tau if self.burn_in is None else self.burn_in

    def with_(self, **kwargs) -> "SDDParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TimeSeries:
    """N observations of n nodes at uniform sampling period dt."""

    values: np.ndarray  # shape (N, n)
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DataError(f"sampling period dt must be finite and > 0, got {self.dt}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2:
            raise DataError(f"time series needs shape (N >= 2, n), got {values.shape}")
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
    rng: np.random.Generator | None = None,
) -> TimeSeries:
    """Simulate the delay-difference model on normalized per-lag coupling matrices.

    lag_mats[k] couples inputs with transmission lag k (usually the output of
    normalize_adjacency). Starts from zero history, discards
    ceil(burn_in_time / dt) steps and returns the next n_obs states.
    """
    if rng is None:
        rng = np.random.default_rng(params.seed)
    if params.dt_tau > 1.0:
        warnings.warn(
            f"dt/tau = {params.dt_tau:.3g} > 1 is outside the studied regime",
            stacklevel=2,
        )
    w = step_matrices(lag_mats, params)
    if (w >= 0.0).all():
        # Perron-Frobenius: with every W_k >= 0 the companion matrix has spectral
        # radius < 1 exactly when the n x n matrix sum_k W_k does.
        rho, which = spectral_radius(w.sum(axis=0)), "summed lag matrix"
    else:
        rho, which = _companion_radius(w), "companion matrix"
    if rho >= 1.0 - STABILITY_MARGIN:
        raise StabilityError(
            f"update rule is unstable (spectral radius of the {which} {rho:.6g}, "
            f"needs < 1 - {STABILITY_MARGIN:g})"
        )
    n = w.shape[1]
    burn_steps = math.ceil(params.burn_in_time / params.dt)
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
    with open(path, "r", encoding="utf-8") as fh:  # (line number, text), blanks skipped
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise FileFormatError(f"{path}: empty time-series file")
    lineno, header = lines[0]
    tokens = header.split()
    try:
        n, n_obs, dt = int(tokens[0]), int(tokens[1]), float(tokens[2])
    except (IndexError, ValueError) as exc:
        raise FileFormatError(f"{path}:{lineno}: bad header {header!r}") from exc
    if n < 1 or n_obs < 2 or not (math.isfinite(dt) and dt > 0):
        raise FileFormatError(f"{path}:{lineno}: bad header {header!r}: "
                              "need n >= 1, N >= 2 and a finite dt > 0")
    if len(lines) - 1 != n_obs:
        raise FileFormatError(f"{path}: header claims {n_obs} rows, found {len(lines) - 1}")
    values = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != n:
            raise FileFormatError(f"{path}:{lineno}: expected {n} values, got {len(parts)}")
        try:
            values.append([float(tok) for tok in parts])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: bad float in {line!r}") from exc
    return TimeSeries(values=np.array(values), dt=dt)
