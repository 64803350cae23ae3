"""Pairwise edge measures computed from time series.

compute_pem scores a series with one measure and compute_pems with several, as
in one trial; they are the one way to score. Entry (i, j) scores the directed
edge j -> i, matching <x_{t+k*dt} x_t^T>; the diagonal is NaN and not ranked.
The lc family reads a LagStack, which centers the series once and builds every
lag it needs in one pass of sample_lagged_cov, the one lag kernel, and an
estimated dt/tau at most once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dynamics import TimeSeries
from .errors import (
    ConfigurationError, DataError, FileFormatError, NumericalError, PemnetError, _data_lines,
)
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
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError(f"PEM matrix must be square, got shape {values.shape}")
        off = ~np.eye(values.shape[0], dtype=bool)
        if not np.isfinite(values[off]).all():
            raise DataError("PEM matrix has non-finite off-diagonal entries")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class TauInverseEstimate:
    tau_inv: float
    dt_tau: float
    clamped: bool


# sample_lagged_cov takes the blocked pass for a series of at least this many
# values whose block Gram is at most this wide; per-lag products are faster on
# shorter series, and a wider Gram costs more memory than it saves (shape table
# in CHANGES.md).
_BLOCKED_MIN_VALUES = 2**17
_BLOCKED_MAX_GRAM = 2048


def sample_lagged_cov(x: np.ndarray, k_max: int) -> np.ndarray:
    """Lag-k sample covariances S_k[i, j] = cov(x_i at t+k, x_j at t), k = 0..k_max.

    x is the (N, n) series centered by its per-node mean; S_k divides by
    N - k - 1. Returns the (k_max + 1, n, n) stack. A short series gets one
    product x[k:].T @ x[:N-k] per lag. A long one gets every lag from one pass
    over blocks of k_max + 1 steps (_blocked_lagged_cov), which agrees with the
    per-lag products to roundoff.
    """
    n_obs, n = x.shape
    if k_max < 0:
        raise ConfigurationError(f"lag must be >= 0, got {k_max}")
    if n_obs - k_max < 2:
        # name the first lag that does not fit
        raise DataError(f"need N - k >= 2, got N={n_obs}, k={n_obs - 1}")
    if x.size >= _BLOCKED_MIN_VALUES and (k_max + 1) * n <= _BLOCKED_MAX_GRAM:
        return _blocked_lagged_cov(x, k_max)
    return np.stack([x[k:].T @ x[: n_obs - k] / (n_obs - k - 1) for k in range(k_max + 1)])


def _blocked_lagged_cov(x: np.ndarray, k_max: int) -> np.ndarray:
    """sample_lagged_cov from blocks of b = k_max + 1 steps.

    The first m * b rows, viewed without a copy as an (m, b n) array z whose
    row r holds steps rb .. rb + b - 1, give every pair of steps at most k_max
    apart in one of three ways: inside a block (the symmetric Gram z^T z),
    straddling two adjacent blocks (b - 1 products of one block column against
    the later ones), or ending in the < b leftover rows (one small product per
    lag). The flops are those of the per-lag products, but the series is
    packed about twice instead of 2b times.
    """
    n_obs, n = x.shape
    b = k_max + 1
    m = n_obs // b
    z = x[: m * b].reshape(m, b * n)
    gram = (z.T @ z).reshape(b, n, b, n)
    sums = np.empty((b, n, n))
    for k in range(b):
        # steps at positions q + k and q of one block
        sums[k] = gram[np.arange(k, b), :, np.arange(b - k), :].sum(axis=0)
    for p in range(b - 1):
        # position p of block r + 1 against positions q > p of block r: lag b + p - q
        later = z[1:, p * n : (p + 1) * n].T @ z[:-1, (p + 1) * n :]
        sums[p + 1 :][::-1] += later.reshape(n, b - 1 - p, n).transpose(1, 0, 2)
    if m * b < n_obs:
        for k in range(b):
            sums[k] += x[m * b :].T @ x[m * b - k : n_obs - k]
    return sums / (n_obs - 1 - np.arange(b))[:, None, None]


class LagStack:
    """Lag-k covariances S_k and correlations C_k of one series, k = 0..depth.

    The measures of one call share a stack. On first read it centers the series
    and builds every lag up to depth in one sample_lagged_cov pass; it
    estimates dt/tau at most once. depth is the deepest lag the caller will
    read, capped at N - 2, the deepest the series has: a short series still
    serves its shallow reads, and a read past the cap raises the kernel's
    DataError. A deeper read than depth builds the stack again. Nothing is kept
    on the TimeSeries. seconds holds each part's build time ("lags", "tau") and
    reads the parts read, to charge a measure for what it read.
    """

    def __init__(self, ts: TimeSeries, depth: int = 1):
        self.ts, self.depth = ts, min(depth, ts.n_obs - 2)
        self.covs = self.corrs = None
        self.seconds, self.reads = {}, set()
        self._tau = None  # (dt/tau, flags), or the DataError of the estimate

    def lags(self, k_max: int) -> tuple[np.ndarray, np.ndarray]:
        """(S_0..S_k_max, C_0..C_k_max) as (k_max + 1, n, n) stacks. A node whose
        lag-0 variance is within the roundoff of centering its mean (a constant
        column) raises DataError."""
        if k_max < 0:
            raise ConfigurationError(f"max lag must be >= 0, got {k_max}")
        if self.covs is None or k_max >= len(self.covs):
            self._build(max(k_max, self.depth))
        self.reads.add("lags")
        return self.covs[: k_max + 1], self.corrs[: k_max + 1]

    def _build(self, k_max: int) -> None:
        t0 = time.perf_counter()
        mean = self.ts.values.mean(axis=0)
        covs = sample_lagged_cov(self.ts.values - mean, k_max)
        var = np.diagonal(covs[0])
        roundoff = self.ts.n_obs * np.finfo(float).eps * np.abs(mean)
        bad = np.flatnonzero(var <= roundoff**2)
        if bad.size:
            raise DataError(f"node {bad[0]} has zero variance; correlations undefined")
        scale = np.sqrt(var)
        self.covs, self.corrs = covs, covs / np.outer(scale, scale)
        self.seconds["lags"] = self.seconds.get("lags", 0.0) + time.perf_counter() - t0

    def estimated_dt_tau(self) -> tuple[float, tuple[str, ...]]:
        """dt/tau from S_0 and S_1 (see estimate_tau_inv), with its flags."""
        covs = self.lags(1)[0]
        if self._tau is None:
            t0 = time.perf_counter()
            try:
                est = estimate_tau_inv(self.ts, covs)
                self._tau = est.dt_tau, ("dt_tau_clamped",) if est.clamped else ()
            except DataError as exc:
                self._tau = DataError(f"automatic dt/tau estimation failed ({exc}); "
                                      "pass dt_tau explicitly")
            self.seconds["tau"] = time.perf_counter() - t0
        self.reads.add("tau")
        if isinstance(self._tau, DataError):
            raise self._tau
        return self._tau


def alpha_lccf(dt_tau: float) -> float:
    """Correction factor cancelling the shared-driver motif (1, 1).

    Closed form 2(1 - z) / (2 - 2z + z^2); equal by construction to the ratio
    of the motif's lag-1 to lag-0 contribution (motifs.contribution_lagk).
    """
    z = _check_dt_tau(dt_tau)
    return 2.0 * (1.0 - z) / (2.0 - 2.0 * z + z * z)


def alpha_lcrc(dt_tau: float) -> float:
    """Correction factor cancelling the reversed-edge motif (1, 0): 1 - z."""
    z = _check_dt_tau(dt_tau)
    return 1.0 - z


def _check_dt_tau(dt_tau: float) -> float:
    if not 0.0 < dt_tau <= 1.0:
        raise ConfigurationError(f"dt/tau must lie in (0, 1], got {dt_tau}")
    return float(dt_tau)


def _with_nan_diagonal(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    np.fill_diagonal(out, np.nan)
    return out


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
    s0, s1 = (LagStack(ts).lags(1)[0] if covs is None else covs)[:2]
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
    # lag block for node v: columns x_v,{t-1}, ..., x_v,{t-p_hat}
    lag_cols = {
        v: np.column_stack([x[p_hat - lag : n_obs - lag, v] for lag in range(1, p_hat + 1)])
        for v in range(n)
    }
    values = np.zeros((n, n))
    flags: list[str] = []
    for i in range(n):
        log_rss_r = _log_rss(x[p_hat:, i], lag_cols[i])
        for j in range(n):
            if i == j:
                continue
            design = np.hstack([lag_cols[i], lag_cols[j]])
            log_rss_u = None if log_rss_r is None else _log_rss(x[p_hat:, i], design)
            if log_rss_u is None:
                flags.append(f"gc_pair_failed:{i},{j}")
            else:
                # nested fits guarantee rss_u <= rss_r; clamp roundoff to 0
                values[i, j] = max(0.0, log_rss_r - log_rss_u)
    return PEMMatrix(
        _with_nan_diagonal(values), "gc", {"p_hat": p_hat}, tuple(flags)
    )


def _log_rss(y: np.ndarray, design: np.ndarray) -> float | None:
    """log RSS of the OLS fit of y on design; None if rank deficient or no residual."""
    try:
        _, resid_var = ols_fit(y, design)
    except (NumericalError, ValueError):
        return None
    rss = resid_var * (design.shape[0] - design.shape[1])
    return None if rss <= 0.0 else math.log(rss)


def compute_pem(
    ts: TimeSeries, kind: str, dt_tau=AUTO, delta_hat: int = 0
) -> PEMMatrix:
    """Score every ordered pair of ts with one measure: lc is the lag-1 correlation
    C_1; lccf and lcrc are the max over assumed edge lags d <= delta_hat of
    C_(1+d) - alpha C_d, where alpha_lccf (alpha_lcrc) cancels the shared-driver
    (reversed-edge) motif; gc is pem_gc at p_hat = delta_hat + 1. Every kind needs
    delta_hat >= 0. dt_tau, read by lccf and lcrc only, lies in (0, 1] or is AUTO
    (estimate_tau_inv)."""
    return _score(LagStack(ts, _depth([kind], delta_hat)), kind, dt_tau, delta_hat)


def _depth(kinds, delta_hat: int) -> int:
    """The deepest lag that the lc-family kinds among kinds read."""
    return max((1 if kind == "lc" else delta_hat + 1 for kind in kinds
                if kind in ("lc", "lccf", "lcrc")), default=0)


def _score(stack: LagStack, kind: str, dt_tau, delta_hat: int) -> PEMMatrix:
    if delta_hat < 0:
        raise ConfigurationError(f"delta_hat must be >= 0, got {delta_hat}")
    if kind == "gc":
        return pem_gc(stack.ts, p_hat=delta_hat + 1)
    if kind == "lc":
        return PEMMatrix(_with_nan_diagonal(stack.lags(1)[1][1]), "lc")
    if kind not in ("lccf", "lcrc"):
        raise ConfigurationError(f"unknown PEM kind {kind!r}; expected one of {PEM_KINDS}")
    z = None if dt_tau == AUTO else _check_dt_tau(dt_tau)
    corrs = stack.lags(delta_hat + 1)[1]
    z, flags = stack.estimated_dt_tau() if z is None else (z, ())
    alpha = (alpha_lccf if kind == "lccf" else alpha_lcrc)(z)
    best = (corrs[1:] - alpha * corrs[:-1]).max(axis=0)
    params = {"dt_tau": z, "delta_hat": delta_hat, "alpha": alpha}
    return PEMMatrix(_with_nan_diagonal(best), kind, params, flags)


def compute_pems(
    ts: TimeSeries, kinds, dt_tau=AUTO, delta_hat: int = 0
) -> dict[str, tuple[PEMMatrix | PemnetError, float]]:
    """compute_pem for each kind, all reading one LagStack of ts.

    The stack is one lag pass at the depth of the deepest kind. Maps each kind
    to its matrix, or the PemnetError it raised, and the seconds of the work it
    read: its own call, plus the parts of the stack it read that an earlier
    kind built. So a kind's time does not depend on the order of kinds; lc,
    beside lccf or lcrc at delta_hat > 0, is charged the whole shared pass,
    deeper than its own lag 1; and gc, which reads no stack, keeps its own
    timer.
    """
    kinds = tuple(kinds)
    stack, out = LagStack(ts, _depth(kinds, delta_hat)), {}
    for kind in kinds:
        stack.reads, built = set(), dict(stack.seconds)
        t0 = time.perf_counter()
        try:
            result = _score(stack, kind, dt_tau, delta_hat)
        except PemnetError as exc:
            result = exc
        reused = sum(built[part] for part in built.keys() & stack.reads)
        out[kind] = result, time.perf_counter() - t0 + reused
    return out


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
    (lineno, header), rows = _data_lines(path, "missing 'pem' header")
    if not header.startswith("pem "):
        raise FileFormatError(f"{path}: missing 'pem' header")
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
    if len(rows) != n:
        raise FileFormatError(f"{path}: expected {n} matrix rows, found {len(rows)}")
    values = np.empty((n, n))
    for r, (lineno, line) in enumerate(rows):
        parts = line.split()
        if len(parts) != n:
            raise FileFormatError(f"{path}:{lineno}: expected {n} values")
        try:
            values[r] = [float(tok) for tok in parts]
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: bad float in {line!r}") from exc
    return PEMMatrix(values, kind, params)
