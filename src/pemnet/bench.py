"""Thresholding, accuracy scoring, seeded trials and parameter sweeps.

A trial samples a ground-truth graph (resampling nilpotent draws), simulates the
dynamics, computes each requested edge measure, thresholds it with the true edge
count, and scores the fraction of correctly classified ordered node pairs. Sweep
seeds derive from (master seed, cell index, trial index) through SplitMix64, so
results are independent of execution order and of the number of worker processes.
Every record carries the wall time of the work its measure read, so a sweep
over n, N or delta is also the timing table. Workers start from a forkserver
with one BLAS thread each: at n = 100 on a 2-core VM, jobs = 2 ran 1.6-1.9x as
fast as jobs = 1, and the median wall_time_s stayed within 10% of jobs = 1 in
4 of 5 runs (30% above in the other). Every other field of a record is the
same whatever the number of jobs. The forkserver imports the caller's main
module, so a script that sweeps with jobs > 1 needs an
if __name__ == "__main__": guard.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import SDDParams, add_measurement_noise, simulate_sdd
from .errors import (ConfigurationError, DataError, PemnetError, _require_integers,
                     _require_lists)
from .graphs import (
    NO_EDGE,
    DirectedGraph,
    GraphConfig,
    assign_lags,
    gen_graph_non_nilpotent,
    normalize_adjacency,
)
from .pem import AUTO, PEM_KINDS, PEMMatrix, compute_pems

# Every sweep grid key with the type of its values, in cell and CSV order.
# N is SDDParams.n_obs; delta sets both the graph's and the dynamics' max lag.
GRID_KEYS = {
    "model": str, "n": int, "d_e": float, "r_e": float, "delta": int,
    "delta_hat": int, "eps": float, "tau": float, "dt": float,
    "sigma": float, "eta": float, "N": int,
}

SWEEP_CSV_HEADER = ",".join(
    [*GRID_KEYS, "pem", "trial", "seed", "accuracy", "wall_time_s", "error"]
)

_MASK64 = (1 << 64) - 1


def derive_seed(*parts: int) -> int:
    """Mix integers into one 64-bit seed with SplitMix64 finalization steps.

    Feeding (master, cell, trial) gives every trial an order-independent,
    platform-independent stream.
    """
    x = 0
    for part in parts:
        x = (x + (int(part) & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x


def check_edge_count(n: int, m: int) -> None:
    """Refuse a count that is no integer, or an edge count that n nodes cannot
    hold, m outside [1, n(n - 1)]."""
    _require_integers(n=n, m=m)
    if not 1 <= m <= n * (n - 1):
        raise ConfigurationError(f"edge count {m} outside [1, {n * (n - 1)}]")


def _top_m_mask(values: np.ndarray, m: int) -> np.ndarray:
    """(n, n) mask of the m largest off-diagonal entries of a score matrix with
    finite off-diagonal entries; ties break by ascending (row, column)."""
    n = values.shape[0]
    check_edge_count(n, m)
    keys = -values.ravel()  # row-major positions
    keys[:: n + 1] = np.inf  # the diagonal ranks below every score
    part = keys.copy()
    part.partition(m - 1)
    kth = part[m - 1]
    mask = keys < kth  # fewer than m; the ties at kth fill the rest in position order
    ties = (keys == kth).nonzero()[0]
    mask[ties[: m - np.count_nonzero(mask)]] = True
    return mask.reshape(n, n)


def _mask_accuracy(inferred: np.ndarray, truth: np.ndarray) -> float:
    n = truth.shape[0]
    return 1.0 - int(np.count_nonzero(inferred != truth)) / (n * (n - 1))


def threshold_pem(pem: PEMMatrix, m: int) -> DirectedGraph:
    """Keep the m largest off-diagonal scores as edges.

    Ties break deterministically by ascending (row, column) position. Entry
    (i, j) becomes the edge j -> i.
    """
    return DirectedGraph.from_lag_matrix(np.where(_top_m_mask(pem.values, m), 0, NO_EDGE))


def accuracy(inferred: DirectedGraph, truth: DirectedGraph) -> float:
    """Fraction of ordered node pairs classified identically in both graphs."""
    if inferred.n != truth.n:
        raise ConfigurationError(
            f"size mismatch: inferred n={inferred.n}, truth n={truth.n}"
        )
    return _mask_accuracy(inferred.mask, truth.mask)


def baseline_accuracy(n: int, m: int) -> float:
    """Expected accuracy of guessing m edge positions uniformly at random.

    With density d = m / (n(n-1)), the expectation is 1 - 2d(1-d): false
    positives and false negatives come in pairs under the known-m protocol.
    """
    check_edge_count(n, m)
    d = m / (n * (n - 1))
    return 1.0 - 2.0 * d * (1.0 - d)


def spearman(xs, ys) -> float:
    """Spearman rank correlation; ties receive their mean rank.

    A NaN, an inf or a value that is no number has no rank: DataError.
    """
    try:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"rank correlation undefined for a non-numeric input: {exc}") from exc
    if xs.shape != ys.shape or xs.size < 3:
        raise ConfigurationError("need two equal-length lists of at least 3 values")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DataError("rank correlation undefined for a NaN or inf input")
    rx, ry = _mean_ranks(xs), _mean_ranks(ys)
    if rx.std() == 0.0 or ry.std() == 0.0:
        raise DataError("rank correlation undefined for a constant input")
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def _mean_ranks(values: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one (graph sample, simulation, edge measure) trial."""

    config: GraphConfig
    params: SDDParams
    pem_kind: str
    delta_hat: int
    trial: int
    seed: int
    accuracy: float = float("nan")
    wall_time_s: float = float("nan")
    flags: tuple[str, ...] = ()
    error: str = ""


def run_trial(
    config: GraphConfig,
    params: SDDParams,
    pems: list[str],
    seed: int,
    delta_hat: int | None = None,
    dt_tau=None,
    trial: int = 0,
) -> list[TrialRecord]:
    """One seeded trial: sample, simulate, score each requested edge measure.

    delta_hat defaults to the true max lag; dt_tau defaults to the true dt/tau
    (pass AUTO to estimate it from the data). One compute_pems call scores the
    measures, each thresholded with the true edge count and scored on masks.
    Deterministic given the seed, except for wall_time_s: the seconds that
    compute_pems charges the measure, independent of the order of pems. seed
    and trial are integers >= 0.
    """
    _require_lists(pems=pems)
    _require_integers(0, seed=seed, trial=trial)
    if config.delta != params.delta:
        raise ConfigurationError(
            f"graph max lag {config.delta} != dynamics max lag {params.delta}"
        )
    d_hat = config.delta if delta_hat is None else delta_hat
    z = params.dt_tau if dt_tau is None else dt_tau
    rng = np.random.default_rng(seed)

    def fail(stage, exc):
        return [
            TrialRecord(config, params, kind, d_hat, trial, seed,
                        error=f"{stage}: {exc}")
            for kind in pems
        ]

    try:
        graph = gen_graph_non_nilpotent(config, rng)
        graph = assign_lags(graph, config.delta, rng)
        _, lag_mats = normalize_adjacency(graph)
    except PemnetError as exc:
        return fail("graph", exc)
    try:
        ts = simulate_sdd(lag_mats, params, rng)
        ts = add_measurement_noise(ts, params.eta, rng)
    except PemnetError as exc:
        return fail("simulate", exc)
    scored = compute_pems(ts, pems, dt_tau=z, delta_hat=d_hat)
    records = []
    for kind in pems:
        pem, wall = scored[kind]
        if isinstance(pem, PemnetError):
            records.append(TrialRecord(config, params, kind, d_hat, trial, seed,
                                       error=f"pem[{kind}]: {pem}"))
            continue
        phi = _mask_accuracy(_top_m_mask(pem.values, graph.m), graph.mask)
        records.append(TrialRecord(config, params, kind, d_hat, trial, seed,
                                   phi, wall, pem.flags))
    return records


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian parameter grid with per-cell trial count and a master seed.

    grid maps any of the GRID_KEYS to a list of values; unlisted parameters
    stay at their defaults. dt_tau is "true" or "auto".
    """

    grid: dict = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    pems: tuple[str, ...] = ("lcrc",)
    dt_tau: str = "true"
    jobs: int = 1

    def __post_init__(self):
        for key in self.grid:
            if key not in GRID_KEYS:
                raise ConfigurationError(f"unknown sweep parameter {key!r}")
        _require_lists(**self.grid)  # "12" would sweep n = 1 and n = 2
        if any(len(v) == 0 for v in self.grid.values()):
            raise ConfigurationError("sweep grid has an empty value list")
        for key, values in self.grid.items():
            conv = GRID_KEYS[key]
            for v in values:
                try:  # a string must parse; 10.7 and True are no int; NaN is left to the configs
                    kept = type(v) is not bool and (conv(v) == v or isinstance(v, str) or v != v)
                except (TypeError, ValueError):
                    kept = False
                if not kept:
                    raise ConfigurationError(
                        f"sweep value {v!r} for {key!r} is not of type {conv.__name__}")
                if key == "delta_hat":  # the one key no config checks
                    _require_integers(0, delta_hat=conv(v))
        _require_integers(seed=self.seed)
        _require_integers(1, trials=self.trials, jobs=self.jobs)
        if self.dt_tau not in ("true", "auto"):
            raise ConfigurationError(
                f"unknown dt/tau mode {self.dt_tau!r}; expected 'true' or 'auto'"
            )
        _require_lists(pems=self.pems)
        if not self.pems:
            raise ConfigurationError("no edge measures requested")
        for kind in self.pems:
            if kind not in PEM_KINDS:
                raise ConfigurationError(
                    f"unknown PEM kind {kind!r}; expected one of {PEM_KINDS}"
                )

    def cells(self) -> list[dict]:
        out = [{}]
        for key in GRID_KEYS:
            if key in self.grid:
                out = [dict(cell, **{key: v}) for cell in out for v in self.grid[key]]
        return out


_GRAPH_FIELDS = {f.name for f in fields(GraphConfig)}
_SDD_FIELDS = {f.name for f in fields(SDDParams)}


def _field(key: str) -> str:
    """The GraphConfig/SDDParams field that a grid key sets (N is n_obs)."""
    return "n_obs" if key == "N" else key


def _cell_setup(cell: dict):
    values = {_field(key): GRID_KEYS[key](v) for key, v in cell.items()}
    config = GraphConfig(**{k: v for k, v in values.items() if k in _GRAPH_FIELDS})
    params = SDDParams(**{k: v for k, v in values.items() if k in _SDD_FIELDS})
    return config, params, values.get("delta_hat")


def _sweep_task(args):
    spec, cell_index, (config, params, delta_hat), trial = args
    return run_trial(config, params, list(spec.pems),
                     derive_seed(spec.seed, cell_index, trial),
                     delta_hat=delta_hat,
                     dt_tau=AUTO if spec.dt_tau == "auto" else None, trial=trial)


def sweep(spec: SweepSpec) -> list[TrialRecord]:
    """Run spec.trials trials of each cell, trial t of cell i seeded by
    derive_seed(spec.seed, i, t); serial, or in up to spec.jobs worker processes.

    Failures become records with a non-empty error field. Records come cell by
    cell, trial by trial, one per measure, whatever the number of jobs. Every
    cell's configuration is built first, so an invalid value raises
    ConfigurationError before any trial runs.
    """
    setups = [_cell_setup(cell) for cell in spec.cells()]
    tasks = [
        (spec, cell_index, setup, trial)
        for cell_index, setup in enumerate(setups)
        for trial in range(spec.trials)
    ]
    workers = min(spec.jobs, len(tasks))  # a pool starts all its workers at once
    if workers > 1:
        chunks = _pool_map(_sweep_task, tasks, workers)
    else:
        chunks = [_sweep_task(t) for t in tasks]
    return [record for chunk in chunks for record in chunk]


# Set to 1 in every worker: with BLAS's default pool, each worker would run one
# BLAS thread per core, and two workers on two cores would run four.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pool_map(fn, tasks: list, workers: int) -> list:
    """[fn(task) for task in tasks] in workers processes started by a forkserver
    (fork is unsafe in a process with threads, and BLAS starts some), in
    ceil(len(tasks) / (4 workers)) tasks per chunk. The forkserver, whose
    environment every worker inherits, starts with one BLAS thread; the
    caller's environment is restored once the pool has started."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import

    context = multiprocessing.get_context("forkserver")
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        os.environ.update(dict.fromkeys(saved, "1"))
        try:  # map submits every chunk before it returns; the first starts the server
            results = pool.map(fn, tasks, chunksize=-(-len(tasks) // (4 * workers)))
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
        return list(results)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _grid_value(record: TrialRecord, key: str):
    if key == "delta_hat":
        return record.delta_hat
    source = record.config if key in _GRAPH_FIELDS else record.params
    return getattr(source, _field(key))


def sweep_rows(records: list[TrialRecord]) -> list[str]:
    rows = []
    for r in records:
        values = [
            *(_grid_value(r, key) for key in GRID_KEYS),
            r.pem_kind, r.trial, r.seed, r.accuracy, r.wall_time_s,
            r.error.replace(",", ";").replace("\n", " "),
        ]
        rows.append(",".join(_fmt(v) for v in values))
    return rows


def write_sweep_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in sweep_rows(records):
            fh.write(row + "\n")
