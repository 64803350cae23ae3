"""Pairwise edge measures computed from time series.

Entry (i, j) of every measure scores the directed edge j -> i, matching the
lagged-covariance orientation <x_{t+k*dt} x_t^T>. Diagonals are set to NaN and
excluded from ranking. The corrected measures subtract alpha times the lag-0
correlation from the lag-1 correlation, with alpha chosen so that either the
shared-driver motif (1,1) or the reversed-edge motif (1,0) cancels exactly.
Each lc, lccf or lcrc call centers the series once and reads one lag stack in
which each lag is computed once; an estimated dt/tau takes S_0, S_1 from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import motifs
from .dynamics import TimeSeries
from .errors import ConfigurationError, DataError, FileFormatError, NumericalError
from .numerics import ols_fit

AUTO = "auto"

PEM_KINDS = ("lc", "lccf", "lcrc", "gc")


@dataclass(frozen=True)
class PEMMatrix:
    """An n x n matrix of pairwise edge scores; the diagonal is unused (NaN)."""

    values: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        off = ~np.eye(values.shape[0], dtype=bool)
        if not np.isfinite(values[off]).all():
            raise DataError("PEM matrix has non-finite off-diagonal entries")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CorrectionFactor:
    alpha: float
    kind: str
    dt_tau: float


@dataclass(frozen=True)
class TauInverseEstimate:
    tau_inv: float
    dt_tau: float
    clamped: bool


def sample_lagged_cov(x: np.ndarray, k: int) -> np.ndarray:
    """Lag-k sample covariance S_k[i, j] = cov(x_i at t+k, x_j at t).

    x is the (N, n) series centered by its per-node mean; divides by N - k - 1.
    """
    n_obs = x.shape[0]
    if k < 0:
        raise ConfigurationError(f"lag must be >= 0, got {k}")
    if n_obs - k < 2:
        raise DataError(f"need N - k >= 2, got N={n_obs}, k={k}")
    return x[k:].T @ x[: n_obs - k] / (n_obs - k - 1)


def _lag_stack(ts: TimeSeries, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag-0..k_max covariance and correlation stacks, each (k_max + 1, n, n).

    Centers ts once, computes each lag-k covariance once and normalizes by the
    lag-0 standard deviations. A node whose lag-0 variance is within the
    roundoff of centering its mean (a constant column) raises DataError.
    """
    if k_max < 0:
        raise ConfigurationError(f"max lag must be >= 0, got {k_max}")
    mean = ts.values.mean(axis=0)
    x = ts.values - mean
    covs = np.stack([sample_lagged_cov(x, k) for k in range(k_max + 1)])
    s0_diag = np.diag(covs[0])
    bad = np.flatnonzero(s0_diag <= (ts.n_obs * np.finfo(float).eps * np.abs(mean)) ** 2)
    if bad.size:
        raise DataError(f"node {bad[0]} has zero variance; correlations undefined")
    scale = np.sqrt(s0_diag)
    return covs, covs / np.outer(scale, scale)


def sample_lagged_corrs(ts: TimeSeries, k_max: int) -> np.ndarray:
    """Lag-0..k_max sample correlations as a (k_max + 1, n, n) stack."""
    return _lag_stack(ts, k_max)[1]


def alpha_lccf(dt_tau: float) -> CorrectionFactor:
    """Correction factor cancelling the shared-driver motif (1, 1).

    Closed form 2(1 - z) / (2 - 2z + z^2); equal by construction to the ratio
    of the motif's lag-1 to lag-0 contribution (see alpha_from_contributions).
    """
    z = _check_dt_tau(dt_tau)
    return CorrectionFactor(2.0 * (1.0 - z) / (2.0 - 2.0 * z + z * z), "lccf", z)


def alpha_lcrc(dt_tau: float) -> CorrectionFactor:
    """Correction factor cancelling the reversed-edge motif (1, 0): 1 - z."""
    z = _check_dt_tau(dt_tau)
    return CorrectionFactor(1.0 - z, "lcrc", z)


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


def _check_dt_tau(dt_tau: float) -> float:
    if not 0.0 < dt_tau <= 1.0:
        raise ConfigurationError(f"dt/tau must lie in (0, 1], got {dt_tau}")
    return float(dt_tau)


def _with_nan_diagonal(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    np.fill_diagonal(out, np.nan)
    return out


def pem_lc(ts: TimeSeries) -> PEMMatrix:
    """Plain lag-1 correlation."""
    if ts.n_obs < 3:
        raise DataError(f"need at least 3 observations, got {ts.n_obs}")
    return PEMMatrix(_with_nan_diagonal(sample_lagged_corrs(ts, 1)[1]), "lc")


def _estimated_dt_tau(ts: TimeSeries, covs) -> tuple[float, tuple[str, ...]]:
    try:
        est = estimate_tau_inv(ts, covs)
    except DataError as exc:
        raise DataError(
            f"automatic dt/tau estimation failed ({exc}); pass dt_tau explicitly"
        ) from exc
    return est.dt_tau, ("dt_tau_clamped",) if est.clamped else ()


def _corrected_pem(ts, dt_tau, delta_hat, kind, alpha_fn) -> PEMMatrix:
    if delta_hat < 0:
        raise ConfigurationError(f"delta_hat must be >= 0, got {delta_hat}")
    if ts.n_obs < delta_hat + 3:
        raise DataError(f"need N >= delta_hat + 3, got N={ts.n_obs}")
    z = None if dt_tau == AUTO else _check_dt_tau(dt_tau)
    covs, corrs = _lag_stack(ts, delta_hat + 1)
    z, flags = _estimated_dt_tau(ts, covs) if z is None else (z, ())
    alpha = alpha_fn(z).alpha
    best = (corrs[1:] - alpha * corrs[:-1]).max(axis=0)
    params = {"dt_tau": z, "delta_hat": delta_hat, "alpha": alpha}
    return PEMMatrix(_with_nan_diagonal(best), kind, params, flags)


def pem_lccf(ts: TimeSeries, dt_tau, delta_hat: int = 0) -> PEMMatrix:
    """Lagged correlation corrected for confounding factors.

    Entry (i, j) is the maximum over assumed edge lags d in {0, ..., delta_hat}
    of corr_(1+d) - alpha_lccf * corr_d. dt_tau may be AUTO to estimate it from
    the data.
    """
    return _corrected_pem(ts, dt_tau, delta_hat, "lccf", alpha_lccf)


def pem_lcrc(ts: TimeSeries, dt_tau, delta_hat: int = 0) -> PEMMatrix:
    """Lagged correlation corrected for reverse causation (alpha = 1 - z)."""
    return _corrected_pem(ts, dt_tau, delta_hat, "lcrc", alpha_lcrc)


def estimate_tau_inv(ts: TimeSeries, covs: np.ndarray | None = None) -> TauInverseEstimate:
    """Estimate the inverse characteristic time from the data.

    Computes M = S_1 S_0^{-1}; without self-loops every diagonal entry of the
    steady-state M equals 1 - dt/tau, so tau^{-1} = (1 - median_i M_ii) / dt.
    The implied dt/tau is clamped to (0, 1] with a flag when the raw estimate
    strays outside. covs, when given, is a lag stack of ts whose entries 0 and
    1 are S_0 and S_1; otherwise a two-lag stack is computed from ts.
    """
    if ts.n_obs < ts.n + 2:
        raise DataError(f"need N >= n + 2 for the estimate, got N={ts.n_obs}, n={ts.n}")
    s0, s1 = (_lag_stack(ts, 1)[0] if covs is None else covs)[:2]
    try:
        m = np.linalg.solve(s0.T, s1.T).T
    except np.linalg.LinAlgError as exc:
        raise DataError(f"lag-0 covariance is singular: {exc}") from exc
    raw = 1.0 - float(np.median(np.diag(m)))
    clamped = not 0.0 < raw <= 1.0
    dt_tau = min(max(raw, 1e-6), 1.0)
    return TauInverseEstimate(dt_tau / ts.dt, dt_tau, clamped)


def pem_gc(ts: TimeSeries, p_hat: int = 1) -> PEMMatrix:
    """Bivariate linear Granger causality with p_hat lags.

    For the ordered pair (j -> i), regresses x_i,t on its own p_hat most recent
    values (restricted) and additionally on those of x_j (unrestricted); the
    score is the drop in log residual sum of squares. The common sample size
    cancels, so scores are differences of log error variances and are always
    >= 0 for nested fits. Rank-deficient pairs score 0 and are flagged.
    """
    if p_hat < 1:
        raise ConfigurationError(f"need p_hat >= 1, got {p_hat}")
    n_obs, n = ts.n_obs, ts.n
    if n_obs < 2 * p_hat + 10:
        raise DataError(f"need N >= 2 * p_hat + 10, got N={n_obs}")
    x = ts.values - ts.values.mean(axis=0)
    t_eff = n_obs - p_hat
    # lag block for node v: columns x_v,{t-1}, ..., x_v,{t-p_hat}
    lag_cols = {
        v: np.column_stack([x[p_hat - lag : n_obs - lag, v] for lag in range(1, p_hat + 1)])
        for v in range(n)
    }
    targets = {v: x[p_hat:, v] for v in range(n)}
    values = np.zeros((n, n))
    flags: list[str] = []
    for i in range(n):
        try:
            _, rv_r = ols_fit(targets[i], lag_cols[i])
            rss_r = rv_r * (t_eff - p_hat)
            if rss_r <= 0.0:
                raise NumericalError("zero restricted residual")
            log_rss_r = math.log(rss_r)
        except (NumericalError, ValueError):
            log_rss_r = None
        for j in range(n):
            if i == j:
                continue
            if log_rss_r is None:
                flags.append(f"gc_pair_failed:{i},{j}")
                continue
            design = np.hstack([lag_cols[i], lag_cols[j]])
            try:
                _, rv_u = ols_fit(targets[i], design)
                rss_u = rv_u * (t_eff - 2 * p_hat)
                if rss_u <= 0.0:
                    raise NumericalError("zero unrestricted residual")
                # nested fits guarantee rss_u <= rss_r; clamp roundoff to 0
                values[i, j] = max(0.0, log_rss_r - math.log(rss_u))
            except (NumericalError, ValueError):
                values[i, j] = 0.0
                flags.append(f"gc_pair_failed:{i},{j}")
    return PEMMatrix(
        _with_nan_diagonal(values), "gc", {"p_hat": p_hat}, tuple(flags)
    )


def compute_pem(
    ts: TimeSeries, kind: str, dt_tau=AUTO, delta_hat: int = 0
) -> PEMMatrix:
    """Dispatch on the measure name; gc uses p_hat = delta_hat + 1."""
    if kind == "lc":
        return pem_lc(ts)
    if kind == "lccf":
        return pem_lccf(ts, dt_tau, delta_hat)
    if kind == "lcrc":
        return pem_lcrc(ts, dt_tau, delta_hat)
    if kind == "gc":
        return pem_gc(ts, p_hat=delta_hat + 1)
    raise ConfigurationError(f"unknown PEM kind {kind!r}; expected one of {PEM_KINDS}")


def save_pem(pem: PEMMatrix, path: str) -> None:
    """Write 'pem <kind> <n> key=value ...' then the matrix, NaN on the diagonal."""
    items = " ".join(f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in sorted(pem.params.items()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"pem {pem.kind} {pem.n}" + (f" {items}" if items else "") + "\n")
        for row in pem.values:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_pem(path: str) -> PEMMatrix:
    """Parse a PEM file; a bad header or row raises FileFormatError at its line."""
    with open(path, "r", encoding="utf-8") as fh:  # (line number, text), blanks skipped
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("pem "):
        raise FileFormatError(f"{path}: missing 'pem' header")
    lineno, header = lines[0]
    head = header.split()
    try:
        kind, n = head[1], int(head[2])
    except (IndexError, ValueError) as exc:
        raise FileFormatError(f"{path}:{lineno}: bad header {header!r}") from exc
    params = {}
    for tok in head[3:]:
        key, _, val = tok.partition("=")
        try:
            params[key] = int(val)
        except ValueError:
            try:
                params[key] = float(val)
            except ValueError:
                params[key] = val
    if len(lines) - 1 != n:
        raise FileFormatError(f"{path}: expected {n} matrix rows, found {len(lines) - 1}")
    values = np.empty((n, n))
    for r, (lineno, line) in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n:
            raise FileFormatError(f"{path}:{lineno}: expected {n} values")
        try:
            values[r] = [float(tok) for tok in parts]
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: bad float in {line!r}") from exc
    return PEMMatrix(values, kind, params)
