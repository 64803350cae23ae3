"""Pairwise edge measures computed from time series.

compute_pems scores a series with several measures, as in one trial, and
compute_pem with one. Entry (i, j) scores the directed edge j -> i, matching
<x_{t+k*dt} x_t^T>; the diagonal is NaN and not ranked. The lc family reads
lagged_corrs: one centering by _node_means (which gc shares) and one pass
of sample_lagged_cov, the lag kernel.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import TimeSeries
from .errors import (ConfigurationError, DataError, FileFormatError, PemnetError,
                     _checked_dt_tau, _data_lines, _data_table, _require_integers,
                     _require_lists, _require_rows)

AUTO = "auto"

PEM_KINDS = ("lc", "lccf", "lcrc", "gc")


def _require_kind(kind) -> None:
    """Raise ConfigurationError if kind is not one of PEM_KINDS."""
    if kind not in PEM_KINDS:
        raise ConfigurationError(f"unknown PEM kind {kind!r}; expected one of {PEM_KINDS}")


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
        finite = np.isfinite(values)
        finite.flat[:: values.shape[0] + 1] = True  # the diagonal is unused
        if not finite.all():
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


# sample_lagged_cov reads whole blocks for a series of at least this many
# values whose block Gram is at most this wide; per-lag products are faster on
# shorter series, and a wider Gram costs more memory than it saves (shape table
# in CHANGES.md). A single node never reads blocks: each of its lag products is
# a dot product, which needs no packing.
_BLOCKED_MIN_VALUES = 2**17
_BLOCKED_MAX_GRAM = 2048


def sample_lagged_cov(x: np.ndarray, k_max: int) -> np.ndarray:
    """Lag-k sample covariances S_k[i, j] = cov(x_i at t+k, x_j at t), k = 0..k_max.

    x is the (N, n) series centered by its per-node mean; S_k divides by
    N - k - 1. Returns the (k_max + 1, n, n) stack. A long series first sums
    the pairs inside its m whole blocks of b = k_max + 1 steps
    (_whole_blocks); a short one, or a single node, has m = 0. One product per
    lag adds the pairs that end past row m b: at m = 0 this is
    x[k:].T @ x[:N-k], and at m > 0 it agrees with that to roundoff. An x
    that is not 2-D, or has fewer than k_max + 2 rows, raises DataError.
    """
    if x.ndim != 2:
        raise DataError(f"series must be 2-D (N, n), got shape {x.shape}")
    n_obs, n = x.shape
    _require_integers(0, k_max=k_max)
    _require_rows(n_obs, k_max + 2, f"sample_lagged_cov at k_max={k_max}")
    b = k_max + 1
    blocked = n > 1 and x.size >= _BLOCKED_MIN_VALUES and b * n <= _BLOCKED_MAX_GRAM
    m = n_obs // b if blocked else 0
    sums = _whole_blocks(x, m, b) if m else np.zeros((b, n, n))
    for k in range(b):
        start = max(m * b, k)
        sums[k] += x[start:].T @ x[start - k : n_obs - k]
    return np.divide(sums, (n_obs - 1 - np.arange(b))[:, None, None], out=sums)


def _whole_blocks(x: np.ndarray, m: int, b: int) -> np.ndarray:
    """The (b, n, n) lag sums over the pairs of steps in the first m b rows.

    Those rows, viewed without a copy as an (m, b n) array z whose row r holds
    steps rb .. rb + b - 1, hold each pair inside a block (the symmetric Gram
    z^T z) or straddling two adjacent blocks (b - 1 products of one block
    column against the later ones). The flops are those of the per-lag
    products, but the series is packed about twice instead of 2b times.
    """
    n = x.shape[1]
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
    return sums


def _node_means(ts: TimeSeries) -> np.ndarray:
    """The mean of each node's series, which every centering subtracts; see
    lagged_corrs."""
    return np.einsum("ti->i", ts.values) / ts.n_obs


def lagged_corrs(ts: TimeSeries, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_0..S_k_max, C_0..C_k_max), the lag-k covariances and correlations of
    ts as (k_max + 1, n, n) stacks, from one centering and one
    sample_lagged_cov pass. A node whose lag-0 variance is not finite (its
    squares overflow the float range) or is within the roundoff of centering
    its mean (a constant column) raises DataError; numpy's overflow warnings
    are silenced, since the refusal names the node. Arrays the machine cannot
    allocate raise ConfigurationError naming k_max, n_obs and n.

    The mean (_node_means, which pem_gc shares) takes the column sums with
    np.einsum, one pass over the rows, where values.mean(axis=0) runs one short
    inner loop per row: about half the time at N = 10 000, n = 30. On a
    C-ordered float64 array, which TimeSeries always holds, both add the rows
    in the same order, so the mean is bit-identical to mean(axis=0). The
    centered copy lives only for the kernel call: held until the correlations
    are allocated, it cost an n = 100, N = 1000 trial about 57 page faults.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = _node_means(ts)
            covs = sample_lagged_cov(ts.values - mean, k_max)
            var = covs[0].diagonal()
            roundoff = ts.n_obs * sys.float_info.epsilon * np.abs(mean)
            zero = var <= roundoff**2
        bad = (~np.isfinite(var)).nonzero()[0]
        if bad.size:
            raise DataError(f"node {bad[0]} has variance {var[bad[0]]}: its squares overflow "
                            "the float range; correlations undefined")
        bad = zero.nonzero()[0]
        if bad.size:
            raise DataError(f"node {bad[0]} has zero variance; correlations undefined")
        scale = np.sqrt(var)
        return covs, covs / (scale[:, None] * scale)
    except MemoryError as exc:  # the centered copy, the stack or the correlations
        raise ConfigurationError(f"cannot hold the lag stack to k_max={k_max} for "
                                 f"n_obs={ts.n_obs} at n={ts.n}: {exc}") from exc


def alpha_lccf(dt_tau: float) -> float:
    """Correction factor cancelling the shared-driver motif (1, 1).

    Closed form 2(1 - z) / (2 - 2z + z^2); equal by construction to the ratio
    of the motif's lag-1 to lag-0 contribution (motifs.contribution_lagk).
    """
    z = _checked_dt_tau(dt_tau)
    return 2.0 * (1.0 - z) / (2.0 - 2.0 * z + z * z)


def alpha_lcrc(dt_tau: float) -> float:
    """Correction factor cancelling the reversed-edge motif (1, 0): 1 - z."""
    return 1.0 - _checked_dt_tau(dt_tau)


def _nan_diagonal(values: np.ndarray) -> np.ndarray:
    """values, a matrix no one else holds, with its unused diagonal set to NaN
    in place."""
    values.flat[:: values.shape[0] + 1] = np.nan
    return values


def estimate_tau_inv(ts: TimeSeries, covs: np.ndarray | None = None) -> TauInverseEstimate:
    """Estimate the inverse characteristic time from the data.

    Computes M = S_1 S_0^{-1}; without self-loops every diagonal entry of the
    steady-state M equals 1 - dt/tau, so tau^{-1} = (1 - median_i M_ii) / dt.
    The implied dt/tau is clamped to (0, 1] with a flag when the raw estimate
    strays outside; a median that is not finite (lag covariances past the
    float range) raises DataError. covs, when given, is a lag stack of ts whose
    entries 0 and 1 are S_0 and S_1; otherwise a two-lag stack is computed
    from ts.
    """
    _require_rows(ts.n_obs, ts.n + 2, f"estimate_tau_inv at n={ts.n}")
    s0, s1 = (lagged_corrs(ts, 1)[0] if covs is None else covs)[:2]
    try:
        m = np.linalg.solve(s0.T, s1.T).T
    except np.linalg.LinAlgError as exc:
        raise DataError(f"lag-0 covariance is singular: {exc}") from exc
    median = float(np.median(np.diag(m)))
    if not math.isfinite(median):
        raise DataError(f"median of diag(S_1 S_0^-1) is {median}, not finite")
    raw = 1.0 - median
    clamped = not 0.0 < raw <= 1.0
    dt_tau = min(max(raw, 1e-6), 1.0)
    return TauInverseEstimate(dt_tau / ts.dt, dt_tau, clamped)


def pem_gc(ts: TimeSeries, p_hat: int = 1) -> PEMMatrix:
    """Bivariate linear Granger causality with p_hat lags.

    For the ordered pair (j -> i), regresses x_i,t on its own p_hat most recent
    values (restricted) and additionally on those of x_j (unrestricted); the
    score is the drop in log residual sum of squares. The common sample size
    cancels, so scores are differences of log error variances and are always
    >= 0 for nested fits. Each fit reads its residual sum of squares and rank
    from one np.linalg.lstsq call (_log_rss); a pair whose fit is rank
    deficient, leaves no residual, overflows the float range or fails in lstsq
    scores 0 and is flagged gc_pair_failed:i,j. The unrestricted fit has
    N - p_hat rows and 2 p_hat columns, so gc needs N >= 3 p_hat + 10 rows, 10
    residual degrees of freedom; fewer raise DataError.
    """
    _require_integers(1, p_hat=p_hat)
    n_obs, n = ts.n_obs, ts.n
    _require_rows(n_obs, 3 * p_hat + 10, f"gc at p_hat={p_hat}")
    x = ts.values - _node_means(ts)
    # lag_cols[:, v] holds node v's regressors: columns x_v,{t-1}, ..., x_v,{t-p_hat}
    lag_cols = sliding_window_view(x[:-1], p_hat, axis=0)[:, :, ::-1]
    values = np.zeros((n, n))
    flags: list[str] = []
    for i in range(n):
        log_rss_r = _log_rss(x[p_hat:, i], lag_cols[:, i])
        for j in range(n):
            if i == j:
                continue
            design = np.hstack([lag_cols[:, i], lag_cols[:, j]])
            log_rss_u = None if log_rss_r is None else _log_rss(x[p_hat:, i], design)
            if log_rss_u is None:
                flags.append(f"gc_pair_failed:{i},{j}")
            else:
                # nested fits guarantee rss_u <= rss_r; clamp roundoff to 0
                values[i, j] = max(0.0, log_rss_r - log_rss_u)
    return PEMMatrix(
        _nan_diagonal(values), "gc", {"p_hat": p_hat}, tuple(flags)
    )


def _log_rss(y: np.ndarray, design: np.ndarray) -> float | None:
    """log of the residual sum of squares of the least-squares fit of y on
    design, read with the rank from one lstsq call; None if the design is rank
    deficient, the sum is not positive and finite, or lstsq fails."""
    try:
        _, rss, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if rank < design.shape[1] or not 0.0 < rss[0] < math.inf:
        return None
    return math.log(rss[0])


def compute_pem(ts: TimeSeries, kind: str, dt_tau=AUTO, delta_hat: int = 0) -> PEMMatrix:
    """compute_pems for one kind: its matrix, or the PemnetError it raised."""
    result = compute_pems(ts, [kind], dt_tau, delta_hat)[kind][0]
    if isinstance(result, PemnetError):
        raise result
    return result


def compute_pems(
    ts: TimeSeries, kinds, dt_tau=AUTO, delta_hat: int = 0
) -> dict[str, tuple[PEMMatrix | PemnetError, float]]:
    """Score every ordered pair of ts with each of kinds, as one trial does.

    lc is the lag-1 correlation C_1; lccf and lcrc are the max over assumed
    edge lags d <= delta_hat of C_(1+d) - alpha C_d, where alpha_lccf
    (alpha_lcrc) cancels the shared-driver (reversed-edge) motif; gc is pem_gc
    at p_hat = delta_hat + 1. Every kind needs an integer delta_hat >= 0: a bad
    one is every kind's ConfigurationError. dt_tau, read by lccf and lcrc only,
    lies in (0, 1] or is AUTO (estimate_tau_inv).

    A kind whose configuration (delta_hat among it) or lags (N - 2 at most)
    fail _reads fails before any covariance. The lc family reads one
    lagged_corrs stack, as deep as its deepest kind, and dt/tau estimated once
    if some kind reads AUTO; a shared part that fails, a stack too large to
    allocate among them, is the error of each kind that reads it, and gc reads
    neither. Maps each kind to its matrix, or the PemnetError it raised, and
    the seconds of its own scoring plus the shared parts it reads, whatever
    the order of kinds.
    """
    _require_lists(kinds=kinds)
    kinds, reads, out = tuple(kinds), {}, {}
    for kind in kinds:
        try:
            reads[kind] = _reads(kind, dt_tau, delta_hat, ts.n_obs)
        except PemnetError as exc:
            out[kind] = exc, 0.0
    depth = max((lag for lag, _ in reads.values()), default=0)
    stack = _timed(lagged_corrs, ts, depth) if depth else (None, 0.0)
    tau = None, 0.0  # each shared part is (its value or PemnetError, seconds)
    if any(est for _, est in reads.values()) and not isinstance(stack[0], PemnetError):
        tau = _timed(_estimated_dt_tau, ts, stack[0][0])
    for kind, (lag, est) in reads.items():
        t0 = time.perf_counter()
        try:
            result = _score(ts, kind, stack[0], tau[0] if est else (dt_tau, ()), delta_hat)
        except PemnetError as exc:
            result = exc
        shared = (stack[1] if lag else 0.0) + (tau[1] if est else 0.0)
        out[kind] = result, time.perf_counter() - t0 + shared
    return {kind: out[kind] for kind in kinds}


def _reads(kind: str, dt_tau, delta_hat: int, n_obs: int) -> tuple[int, bool]:
    """(the deepest lag kind reads, 0 for gc; whether it reads the dt/tau estimate).
    A bad configuration, delta_hat checked first, raises ConfigurationError, a
    lag past N - 2 DataError naming the kind, delta_hat and the lag."""
    _require_integers(0, delta_hat=delta_hat)
    _require_kind(kind)
    corrected = kind in ("lccf", "lcrc")
    if corrected and dt_tau != AUTO:
        _checked_dt_tau(dt_tau)
    lag = delta_hat + 1 if corrected else int(kind == "lc")
    _require_rows(n_obs, lag + 2, f"{kind} at delta_hat={delta_hat} reads lag {lag}:")
    return lag, corrected and dt_tau == AUTO


def _timed(build, *args):
    """(build(*args), or the PemnetError it raised, and its seconds)."""
    t0 = time.perf_counter()
    try:
        value = build(*args)
    except PemnetError as exc:
        value = exc
    return value, time.perf_counter() - t0


def _estimated_dt_tau(ts: TimeSeries, covs: np.ndarray) -> tuple[float, tuple[str, ...]]:
    """dt/tau from S_0 and S_1 (see estimate_tau_inv), with its flags."""
    try:
        est = estimate_tau_inv(ts, covs)
    except DataError as exc:
        raise DataError(f"automatic dt/tau estimation failed ({exc}); "
                        "pass dt_tau explicitly")
    return est.dt_tau, ("dt_tau_clamped",) if est.clamped else ()


def _score(ts: TimeSeries, kind: str, stack, tau, delta_hat: int) -> PEMMatrix:
    """kind scored from the shared (covs, corrs) stack and (dt/tau, flags); a
    shared part whose build failed raises its PemnetError."""
    if kind == "gc":
        return pem_gc(ts, p_hat=delta_hat + 1)
    for part in (stack, tau):
        if isinstance(part, PemnetError):
            raise part
    corrs, (z, flags) = stack[1], tau
    if kind == "lc":
        return PEMMatrix(_nan_diagonal(corrs[1].copy()), "lc")
    alpha = (alpha_lccf if kind == "lccf" else alpha_lcrc)(z)
    best = (corrs[1 : delta_hat + 2] - alpha * corrs[: delta_hat + 1]).max(axis=0)
    params = {"dt_tau": float(z), "delta_hat": delta_hat, "alpha": alpha}
    return PEMMatrix(_nan_diagonal(best), kind, params, flags)


def save_pem(pem: PEMMatrix, path: str) -> None:
    """Write 'pem <kind> <n> key=value ...' then the matrix, NaN on the diagonal."""
    items = " ".join(f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in sorted(pem.params.items()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"pem {pem.kind} {pem.n}" + (f" {items}" if items else "") + "\n")
        np.savetxt(fh, pem.values, fmt="%.17g")


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
    return PEMMatrix(_data_table(path, rows, n, n), kind, params)
