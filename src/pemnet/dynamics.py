"""Simulation of the stochastic delay-difference dynamics and measurement noise.

The model iterates, with z = dt / tau,

    x_t = (1 - z) x_{t-dt} + z * eps * sum_k A_k x_{t-k*dt} + sigma * dw_t,

where A_k couples inputs with transmission lag k - 1 and each component of dw_t
is Gaussian with variance dt / n. The recurrence runs in one numpy kernel,
sdd_recurrence. It is linear, so L consecutive steps are one affine map of the
p history rows and the L noise rows of a block (a blocked scan; Blelloch 1990,
"Prefix sums and their applications"): one GEMM gives the noise response of
every block, G maps the p states before a block into it, and M, read off G,
to the last p states after it. _route picks L and one of three carries of the
history from block to block by shape alone:

- chunks: from _CHUNK_MIN_BLOCKS = 128 blocks of L = _BLOCK_ROWS // n steps
  on, where the carry power costs at most one pass, C chunks of
  S ~ sqrt(blocks / 2) blocks run in lockstep, one GEMM over all chunks per
  block position: a first pass from zero history gives each chunk's end
  state, a short carry through the power M^S of the state map gives each
  chunk's true starting history, and a second pass writes the states.
- scan: otherwise at p = 1, a Hillis-Steele doubling scan (Hillis and Steele
  1986, "Data parallel algorithms") solves the carry h_{j+1} = M h_j + v_j in
  ceil(log2 blocks) GEMMs of the n x n M, squaring M between them; one more
  GEMM adds G h_j to every block. L = _SCAN_BLOCK = 4 (fewer where
  _BLOCK_ROWS // n is smaller): the paper cell (n = 10, 1040 steps).
- loop: otherwise one Python loop over the blocks of L = _BLOCK_ROWS // n
  steps. At L = 1 (n > _BLOCK_ROWS / 2) it is the plain per-step recurrence,
  bit for bit. At p > 1 the scan's flops grow like p log2(blocks) / L passes
  and it ran up to 3x slower than this loop (n = 30, p = 6, 1040 steps).

Wherever L > 1, the scan or chunks run, the summation order changes and
results agree with the per-step loop to ~1e-15 relative to max|x|; at a
spectral radius of 0.99995 to 5e-14 over 2000 steps and 5e-13 over 10^5,
whichever carry runs. Results are bit-reproducible for a fixed seed.

simulate_sdd starts from zero history. Its burn-in length follows from the
spectral radius its stability check measures: 2.05 e-folds of the slowest mode
the radius allows, the 40 steps of the paper cell (radius 0.95). In every
regime that leaves the first kept sample's covariance within about
e^-4.1 = 1.7% of stationary.
"""

from __future__ import annotations

import math
import numbers
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
    _data_table,
    _require_integers,
    _require_reals,
)
from .numerics import require_stable, spectral_radius

BACKEND = "python"  # the only kernel; kept because perfbench records it as provenance

# L * n <= _BLOCK_ROWS rows per block, so the Toeplitz operator holds at most
# _BLOCK_ROWS**2 doubles. 192 was faster at larger n and p, but slower at the
# paper cell (n = 10, p = 1), where L = 19 costs more to set up than it saves.
_BLOCK_ROWS = 128
# sdd_recurrence runs its blocks as chunks in lockstep from this many blocks
# on (the paper cell has 87).
_CHUNK_MIN_BLOCKS = 128
# Block length of the scan carry: at the paper cell (n = 10, p = 1) L = 4
# ran as fast as L = 12 and faster than single steps (0.130 against 0.158 ms).
_SCAN_BLOCK = 4

# The burn-in lasts this many e-folds of the slowest mode; 0.95^40 = e^-2.05,
# so the paper cell keeps the 40 steps (20 tau at dt = 0.5) it always burned.
_BURN_EFOLDS = 2.05
# A burn-in whose noise would hold more values than this (80 MB) is refused.
_MAX_BURN_VALUES = 10**7


def _block_operators(w: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Responses of `block` steps to the history rows and to the noise rows.

    Runs the recurrence itself for `block` steps from every unit history
    vector. Returns G (block*n, p*n), mapping the last p states (oldest first)
    to the block's states, and the block-lower-triangular Toeplitz operator
    (block*n, block*n) of impulse responses H_0 = I, H_1, ..., H_{block-1},
    mapping the block's noise rows to its states. At block = 1, G is the block
    row [W_p ... W_1] and the operator, the identity, is None.
    """
    p, n, _ = w.shape
    w_rev = np.concatenate(w[::-1], axis=1)
    if block == 1:
        return w_rev, None
    x = np.zeros((p + block, n, p * n))
    x[:p] = np.eye(p * n).reshape(p, n, p * n)
    x[p] = w_rev  # one step from the unit history
    for t in range(1, block):
        x[p + t] = w_rev @ x[t : t + p].reshape(p * n, p * n)
    g = x[p:].reshape(block * n, p * n)
    # A unit noise input at step 0 acts later like the newest history row, so
    # H_1 ... H_{block-1} are G's last n columns. Block (i, j) of the Toeplitz
    # operator is H_{i-j}: H_0 = I on the diagonal, and below it column block
    # j is H_1 ... H_{block-1-j}, one slice each. It is built as its transpose,
    # which the noise GEMM reads row-major.
    h_t = g[: (block - 1) * n, (p - 1) * n :].T
    rows = block * n
    op_t = np.zeros((rows, rows))
    op_t.flat[:: rows + 1] = 1.0
    for j in range(block - 1):
        op_t[j * n : (j + 1) * n, (j + 1) * n :] = h_t[:, : rows - (j + 1) * n]
    return g, op_t.T


def _state_map(g: np.ndarray) -> np.ndarray:
    """M, the map from the last p states before a block to the last p after
    it, oldest first: G's last p n rows when L >= p, else the shifted history
    rows on top of G. At L = 1 it is the companion matrix."""
    rows, history = g.shape
    if rows >= history:
        return g[-history:]
    return np.vstack((np.eye(history)[rows:], g))


def sdd_recurrence(w: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Iterate x_t = sum_k W[k-1] @ x_{t-k} + noise_t with zero initial history.

    w has shape (p, n, n); noise has shape (T, n). Returns the (T, n) trajectory.
    Each block of L steps is its noise response plus G times the last p
    states, behind p rows of zero history; at L = 1, G is the companion
    matrix's block row [W_p ... W_1] and the noise response is the noise.
    _route picks L and what carries the history from block to block:

    - scan (L > p): the blocks' last p states from zero history, v_j, obey
      h_{j+1} = M h_j + v_j for the true last p states h_j. _scan_carry
      solves that in ceil(log2 blocks) GEMMs, then one more GEMM adds G h_j
      to every block.
    - loop: one loop over the blocks adds G h_j to block j.
    - chunks: the blocks form C chunks of S, padded with zero noise, and a
      time-major (S, C, rows) view of them makes each step of a pass one GEMM
      over all chunks. A first pass runs every chunk from zero history and
      keeps its last p states e_c; a short carry gives the true histories
      h_0 = 0, h_{c+1} = e_c + M^S h_c; a second pass runs every chunk again
      from h_c and writes the states.
    """
    p = w.shape[0]
    t_total, n = noise.shape
    carry, block, per_chunk = _route(t_total, n, p)
    n_blocks = -(-t_total // block)
    history, rows = p * n, block * n
    g, toeplitz = _block_operators(w, block)
    if per_chunk:
        n_chunks = -(-n_blocks // per_chunk)
        n_blocks = n_chunks * per_chunk
    x = np.zeros(history + n_blocks * rows)  # row-major states, flat
    x[history : history + t_total * n] = noise.ravel()
    blocks = x[history:].reshape(n_blocks, rows)
    if block > 1:
        blocks[:] = blocks @ toeplitz.T
    if carry == "scan":
        _scan_carry(g, blocks, history)
    elif carry == "chunks":
        by_time = blocks.reshape(n_chunks, per_chunk, rows).transpose(1, 0, 2)
        g_t = np.ascontiguousarray(g.T)
        ends = _lockstep(g_t, by_time, np.zeros((n_chunks, history)))
        power = np.linalg.matrix_power(_state_map(g), per_chunk)
        _lockstep(g_t, by_time, _chunk_starts(power, ends), write=True)
    else:
        pasts = sliding_window_view(x, history)[::rows]
        for out, past in zip(blocks, pasts):
            out += np.dot(g, past)
    return x[history : history + t_total * n].reshape(t_total, n)


def _route(t_total: int, n: int, p: int) -> tuple[str, int, int]:
    """The carry sdd_recurrence runs for T steps: ("scan" | "loop" | "chunks",
    block length L, blocks per chunk S, 0 unless chunks).

    Chunks wherever _chunk_blocks takes them at L = _BLOCK_ROWS // n; else
    the loop at L = 1, the per-step loop, bit for bit; else the scan at
    p = 1, with L = min(_SCAN_BLOCK, _BLOCK_ROWS // n); else the loop.
    """
    block = max(1, _BLOCK_ROWS // n)
    per_chunk = _chunk_blocks(-(-t_total // block), block, p, n)
    if per_chunk:
        return "chunks", block, per_chunk
    if block > 1 and p == 1:
        return "scan", min(_SCAN_BLOCK, block), 0
    return "loop", block, 0


def _scan_carry(g: np.ndarray, blocks: np.ndarray, history: int) -> None:
    """Add to every block, in place, what the states before it contribute.

    blocks (B, rows) holds the blocks' responses from zero history, g (rows,
    history) maps the last p states, oldest first, to a block's states; a
    block is longer than the history (L > p). A Hillis-Steele doubling scan
    (Hillis and Steele 1986) carries the last p states: h_j starts as block
    j's own, v_j; after the steps s = 1, 2, 4, ..., each adding M^s h_{j-s}
    to h_j, with M = _state_map(G), h_j = sum over i <= j of M^(j-i) v_i,
    the true last p states of block j.
    """
    n_blocks = blocks.shape[0]
    h = blocks[:, -history:].copy()
    m = _state_map(g)
    step = 1
    while step < n_blocks:
        h[step:] += h[:-step] @ m.T
        step *= 2
        if step < n_blocks:
            m = m @ m
    blocks[1:] += h[:-1] @ g.T


def _chunk_blocks(n_blocks: int, block: int, p: int, n: int) -> int:
    """Blocks per chunk S of the lockstep passes, or 0 for no chunks.

    S = ceil(sqrt(n_blocks / 2)) balances the 2 S lockstep products against
    the n_blocks / S steps of the carry. Each pass costs the flops of the one
    loop, 2 p n^2 per step; the carry power M^S adds bit_length + popcount
    - 2 of S products of two (p n) x (p n) matrices. Chunks run from
    _CHUNK_MIN_BLOCKS blocks on, while the power costs at most one pass. Past
    that, at T = 1040, chunks ran at 0.8-1.2x the one loop's speed at n = 200,
    p = 1, 1.1-1.35x at n = 30, p = 3, and 0.15x at n = 100, p = 6 (kernel
    table in CHANGES.md).
    """
    if n_blocks < _CHUNK_MIN_BLOCKS:
        return 0
    per_chunk = math.ceil(math.sqrt(n_blocks / 2))
    products = per_chunk.bit_length() + bin(per_chunk).count("1") - 2
    if products * p * p * n > n_blocks * block:
        return 0
    return per_chunk


def _lockstep(g_t: np.ndarray, blocks: np.ndarray, hist: np.ndarray,
              write: bool = False) -> np.ndarray:
    """Run every chunk through its blocks, one GEMM with G^T per block position.

    blocks (S, C, rows) holds the blocks' noise responses, time major; hist
    (C, p n) each chunk's p states before its first block, oldest first.
    With write the states replace the noise responses in place. Returns each
    chunk's last p states.
    """
    history, rows = hist.shape[1], blocks.shape[2]
    for out in blocks:
        if write:
            out += hist @ g_t
            new = out
        else:
            new = hist @ g_t
            new += out
        if rows >= history:
            hist = new[:, rows - history :]
        else:
            hist = np.concatenate((hist[:, rows:], new), axis=1)
    return hist


def _chunk_starts(power: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """True histories h_c of the chunks from the ends e_c of the zero-history
    pass: h_0 = 0, h_{c+1} = e_c + M^S h_c, all oldest first; power is M^S."""
    starts = np.zeros_like(ends)
    for c in range(1, len(ends)):
        np.dot(power, starts[c - 1], out=starts[c])
        starts[c] += ends[c - 1]
    return starts


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
        _require_reals("[0, inf)", eps=self.eps, sigma=self.sigma, eta=self.eta)
        _require_reals("(0, inf)", tau=self.tau, dt=self.dt)
        _require_integers(0, delta=self.delta)
        _require_integers(2, n_obs=self.n_obs)

    @property
    def dt_tau(self) -> float:
        return self.dt / self.tau


@dataclass(frozen=True)
class TimeSeries:
    """N observations of n nodes at uniform sampling period dt."""

    values: np.ndarray  # shape (N, n)
    dt: float

    def __post_init__(self):
        dt = self.dt  # a float skips the numbers.Real check, an ABC lookup
        if not ((type(dt) is float or (type(dt) is not bool and isinstance(dt, numbers.Real)))
                and math.isfinite(dt) and dt > 0):
            raise DataError(f"sampling period dt must be finite and > 0, got {self.dt}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] < 1:
            raise DataError(f"time series needs shape (N >= 2, n >= 1), got {values.shape}")
        if not np.isfinite(values).all():
            raise DataError("time series contains non-finite values")
        # C order fixes the summation order of every statistic: a series scores
        # the same whatever the layout it came in (no copy for a C-ordered one)
        object.__setattr__(self, "values", np.ascontiguousarray(values))

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]


def step_matrices(lag_mats: list[np.ndarray], params: SDDParams) -> np.ndarray:
    """Stack of per-lag update matrices W_k, padded to order params.delta + 1.

    Raises ConfigurationError, naming the lag, for a coupling matrix that is
    not square, not the shape of the lag-0 one, or holds a NaN or inf.
    """
    if not lag_mats:
        raise ConfigurationError("need at least one coupling matrix")
    shape = np.shape(lag_mats[0])
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ConfigurationError(f"coupling matrix at lag 0 must be square, got shape {shape}")
    n = shape[0]
    if len(lag_mats) - 1 > params.delta:
        raise ConfigurationError(
            f"graph has lags up to {len(lag_mats) - 1} but params.delta={params.delta}"
        )
    z = params.dt_tau
    w = np.zeros((params.delta + 1, n, n))
    for k, a in enumerate(lag_mats):
        if np.shape(a) != shape:
            raise ConfigurationError(
                f"coupling matrix at lag {k} has shape {np.shape(a)}, "
                f"but the one at lag 0 has {shape}")
        if not np.isfinite(a).all():
            raise ConfigurationError(f"coupling matrix at lag {k} has non-finite entries")
        w[k] = z * params.eps * a
    w[0] += (1.0 - z) * np.eye(n)
    return w


def _companion_radius(w: np.ndarray) -> float:
    return spectral_radius(_state_map(_block_operators(w, 1)[0]))  # M at L = 1


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
    noise = rng.standard_normal((t_total, n))
    noise *= scale
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
    _require_reals("[0, inf)", eta=eta)
    if eta == 0.0:
        return ts
    scale = eta * math.sqrt(ts.dt / ts.n)
    return TimeSeries(values=ts.values + rng.standard_normal(ts.values.shape) * scale,
                      dt=ts.dt)


def save_time_series(ts: TimeSeries, path: str) -> None:
    """Write 'n N dt' then one row of %.17g values per observation."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ts.n} {ts.n_obs} {ts.dt:.17g}\n")
        np.savetxt(fh, ts.values, fmt="%.17g")


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
    return TimeSeries(values=_data_table(path, rows, n_obs, n), dt=dt)
