"""The benchmark's workloads and the stage-by-stage path of the traced run.

Each workload turns the seed into inputs and hands them to the program through
its public API: the sweeps call pemnet.bench.run_trial with derive_seed seeds,
infer-lags calls pemnet.pem.compute_pem on series it simulated at set-up. The
traced run drives the same inputs stage by stage, through the public function
of each stage, inside spans; its accuracies must equal the untraced ones.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import pemnet.pem as pem_module
from pemnet.bench import TrialRecord, accuracy, derive_seed, run_trial, threshold_pem
from pemnet.dynamics import SDDParams, add_measurement_noise, simulate_sdd
from pemnet.errors import PemnetError
from pemnet.graphs import (
    GraphConfig,
    assign_lags,
    gen_graph_non_nilpotent,
    normalize_adjacency,
)
from pemnet.pem import AUTO, compute_pem

import reference
from tracing import NULL

PEMS = ("lc", "lccf", "lcrc")

# Median item latency in slow blocks over that in fast blocks (see probe.py),
# fitted on the reference VM at the commit that added the benchmark: the
# median slow p50 of the runs that saw too few fast items over the median
# fast p50 of the others, over twenty runs per workload. Such a run divides
# its slow timings by this factor.
CONTENTION = {"sweep-paper": 1.87, "sweep-n100": 1.67, "infer-lags": 1.36}

# derive_seed stream separators: measured items, warm-up, pool series
_MEASURED, _WARMUP, _POOL = 0, 1, 2


def build(config: GraphConfig, params: SDDParams, rng, tr):
    """Sample a non-nilpotent graph with lags, normalize it, simulate on it."""
    with tr.span("graphs.sample"):
        graph = gen_graph_non_nilpotent(config, rng)
        graph = assign_lags(graph, config.delta, rng)
    with tr.span("graphs.normalize"):
        _, lag_mats = normalize_adjacency(graph)
    with tr.span("dynamics.simulate"):
        ts = simulate_sdd(lag_mats, params, rng)
        ts = add_measurement_noise(ts, params.eta, rng)
    return graph, ts


def score(ts, graph, dt_tau, delta_hat: int, tr):
    """Each edge measure, thresholded with the true edge count and scored.

    Returns (accuracies, PEM matrices); a measure that raises a PemnetError
    scores NaN, as run_trial records it with an error.
    """
    accs = np.full(len(PEMS), np.nan)
    mats: list = [None] * len(PEMS)
    for k, kind in enumerate(PEMS):
        try:
            with tr.span(f"pem.{kind}"):
                pem = compute_pem(ts, kind, dt_tau=dt_tau, delta_hat=delta_hat)
            with tr.span("bench.threshold"):
                inferred = threshold_pem(pem, graph.m)
            with tr.span("bench.accuracy"):
                accs[k] = accuracy(inferred, graph)
            mats[k] = pem
        except PemnetError:
            pass
    return accs, mats


def reference_problems(ts, graph, mats, accs, dt_tau, delta_hat, label) -> list[str]:
    """Compare each PEM matrix, dt/tau and accuracy with the reference formulas."""
    problems = []
    for kind, pem, acc in zip(PEMS, mats, accs):
        if pem is None:
            problems.append(f"{label} {kind}: measure failed")
            continue
        ref, z = reference.edge_scores(
            ts.values, kind, None if dt_tau == AUTO else dt_tau, delta_hat
        )
        err = reference.max_offdiag_error(pem.values, ref)
        if not err <= reference.TOLERANCE:
            problems.append(f"{label} {kind}: max |score - reference| = {err:.3g}")
        if z is not None and not abs(pem.params.get("dt_tau", np.nan) - z) <= reference.TOLERANCE:
            problems.append(f"{label} {kind}: dt/tau {pem.params.get('dt_tau')} != {z}")
        ref_acc = reference.threshold_accuracy(pem.values, graph.edges, graph.m)
        if ref_acc != acc:
            problems.append(f"{label} {kind}: accuracy {acc} != reference {ref_acc}")
    return problems


def _accuracies(records) -> np.ndarray:
    return np.array([np.nan if r.error else r.accuracy for r in records])


def range_problems(accs: np.ndarray) -> list[str]:
    done = accs[~np.isnan(accs)]
    if done.size and not ((done >= 0.0) & (done <= 1.0)).all():
        return [f"accuracy outside [0, 1]: min {done.min()}, max {done.max()}"]
    return []


class Sweep:
    """Seeded trials of one sweep cell, scored with lc, lccf and lcrc.

    Item i is the trial with seed derive_seed(seed, 0, i).
    """

    reference_trials = 3

    def __init__(self, name, seed, config, params, warmup_trials, trace_block,
                 contention, margin=None):
        self.name, self.seed = name, seed
        self.contention = contention
        self.trace_block = trace_block  # items per block of a traced run
        self.config, self.params = config, params
        self.warmup_trials = warmup_trials
        self.margin = margin  # (better, worse, least difference of mean accuracy)
        self.outputs: dict[int, np.ndarray] = {}
        self.traced_items: list[int] = []

    @property
    def grid(self) -> dict:
        c, p = self.config, self.params
        return {
            "model": c.model, "n": c.n, "d_e": c.d_e, "r_e": c.r_e, "delta": c.delta,
            "delta_hat": c.delta, "eps": p.eps, "tau": p.tau, "dt": p.dt,
            "sigma": p.sigma, "eta": p.eta, "N": p.n_obs, "dt_tau": "true",
            "pems": list(PEMS), "trial_seed": f"derive_seed({self.seed}, 0, i)",
        }

    def setup(self, tr=NULL) -> None:
        """Warm up with untraced trials outside the measured stream."""
        for k in range(self.warmup_trials):
            run_trial(self.config, self.params, list(PEMS),
                      derive_seed(self.seed, _WARMUP, k), trial=k)

    def setup_steps(self) -> list:
        """The set-up as steps that can each be repeated and timed alone."""
        return [self.setup]

    def _seed(self, i: int) -> int:
        return derive_seed(self.seed, _MEASURED, i)

    def run_plain(self, i: int) -> np.ndarray:
        return _accuracies(
            run_trial(self.config, self.params, list(PEMS), self._seed(i), trial=i)
        )

    def stages(self, i: int, tr):
        """run_trial, stage by stage: (records, graph, series, PEM matrices)."""
        seed, c, p = self._seed(i), self.config, self.params
        rng = np.random.default_rng(seed)
        try:
            graph, ts = build(c, p, rng, tr)
        except PemnetError as exc:
            return [TrialRecord(c, p, kind, c.delta, i, seed, error=str(exc))
                    for kind in PEMS], None, None, [None] * len(PEMS)
        accs, mats = score(ts, graph, p.dt_tau, c.delta, tr)
        records = [
            TrialRecord(c, p, kind, c.delta, i, seed, acc,
                        flags=pem.flags if pem is not None else (),
                        error="" if pem is not None else f"pem[{kind}] failed")
            for kind, acc, pem in zip(PEMS, accs, mats)
        ]
        return records, graph, ts, mats

    def run_traced(self, i: int, tr) -> np.ndarray:
        tr.trace = i
        self.traced_items.append(i)
        with tr.span("bench.trial"):
            records, _, ts, _ = self.stages(i, tr)
        # The sweeps use the true dt/tau, so the trial never estimates it; this
        # probe, outside the trial span, reports what the estimate costs on the
        # workload's series.
        if ts is not None:
            with tr.span("bench.tau_probe"):
                try:
                    pem_module.estimate_tau_inv(ts)
                except PemnetError:
                    pass
        return _accuracies(records)

    def same(self, a, b) -> bool:
        return np.array_equal(a, b, equal_nan=True)

    def observe(self, i: int, out) -> None:
        self.outputs[i] = out

    def traces(self):
        """(build traces, work traces) of the traced run."""
        return self.traced_items, self.traced_items

    def problems(self) -> list[str]:
        accs = np.array(list(self.outputs.values()))
        problems = range_problems(accs)
        if self.margin is not None:
            better, worse, least = self.margin
            means = dict(zip(PEMS, np.nanmean(accs, axis=0)))
            if not means[better] - means[worse] >= least:
                problems.append(
                    f"mean {better} accuracy {means[better]:.4f} does not exceed "
                    f"{worse} {means[worse]:.4f} by {least}"
                )
        for i in sorted(self.outputs)[: self.reference_trials]:
            records, graph, ts, mats = self.stages(i, NULL)
            accs_i = _accuracies(records)
            if not self.same(accs_i, self.outputs[i]):
                problems.append(f"trial {i}: stage by stage {accs_i} != run_trial "
                                f"{self.outputs[i]}")
            problems += reference_problems(ts, graph, mats, accs_i, self.params.dt_tau,
                                           self.config.delta, f"trial {i}")
        return problems


class InferLags:
    """Score a pool of long, lagged series, pre-simulated at set-up.

    Item i scores pool series i mod pool_size with lc, lccf and lcrc at
    delta_hat = delta and an estimated dt/tau.
    """

    pool_size = 4
    trace_block = 2
    contention = CONTENTION["infer-lags"]

    def __init__(self, name, seed, config, params):
        self.name, self.seed = name, seed
        self.config, self.params = config, params
        self.pool: list = []
        self.first: dict[int, tuple] = {}  # pool index -> (accs, matrices)
        self.outputs: dict[int, np.ndarray] = {}
        self.traced_items: list[int] = []
        self.diverged: list[str] = []

    @property
    def grid(self) -> dict:
        c, p = self.config, self.params
        return {
            "model": c.model, "n": c.n, "d_e": c.d_e, "r_e": c.r_e, "delta": c.delta,
            "delta_hat": c.delta, "eps": p.eps, "tau": p.tau, "dt": p.dt,
            "sigma": p.sigma, "eta": p.eta, "N": p.n_obs, "dt_tau": "auto",
            "pems": list(PEMS), "pool_size": self.pool_size,
            "pool_seed": f"derive_seed({self.seed}, 2, k)",
        }

    def setup(self, tr=NULL) -> None:
        """Build the pool of series, then score one of them as a warm-up."""
        self.pool = [None] * self.pool_size
        for k in range(self.pool_size):
            self._build(k, tr)
        self._warm_up()

    def setup_steps(self) -> list:
        """The set-up as steps that can each be repeated and timed alone: one
        per pool series, then the warm-up."""
        self.pool = [None] * self.pool_size
        return [partial(self._build, k) for k in range(self.pool_size)] + [self._warm_up]

    def _build(self, k: int, tr=NULL) -> None:
        tr.trace = f"setup-{k}"
        self.pool[k] = None  # release the series before building it again
        rng = np.random.default_rng(derive_seed(self.seed, _POOL, k))
        self.pool[k] = build(self.config, self.params, rng, tr)

    def _warm_up(self) -> None:
        graph, ts = self.pool[0]
        score(ts, graph, AUTO, self.config.delta, NULL)

    def _request(self, i: int, tr):
        graph, ts = self.pool[i % self.pool_size]
        return score(ts, graph, AUTO, self.config.delta, tr)

    def run_plain(self, i: int):
        return self._request(i, NULL)

    def run_traced(self, i: int, tr):
        tr.trace = i
        self.traced_items.append(i)
        with tr.span("bench.trial"):
            return self._request(i, tr)

    def same(self, a, b) -> bool:
        return np.array_equal(a[0], b[0], equal_nan=True) and all(
            (x is None and y is None)
            or (x is not None and y is not None and np.array_equal(x.values, y.values,
                                                                   equal_nan=True))
            for x, y in zip(a[1], b[1])
        )

    def observe(self, i: int, out) -> None:
        """Keep accuracies; keep matrices only for the first request per series
        and require every repeat to be identical, so memory does not grow with
        the number of requests."""
        self.outputs[i] = out[0]
        k = i % self.pool_size
        if k not in self.first:
            self.first[k] = out
        elif not self.same(self.first[k], out) and len(self.diverged) < 5:
            self.diverged.append(f"request {i}: series {k} scored differently "
                                 "than on its first request")

    def traces(self):
        return [f"setup-{k}" for k in range(self.pool_size)], self.traced_items

    def problems(self) -> list[str]:
        problems = list(self.diverged)
        problems += range_problems(np.array(list(self.outputs.values())))
        for k, (accs, mats) in sorted(self.first.items()):
            graph, ts = self.pool[k]
            problems += reference_problems(ts, graph, mats, accs, AUTO,
                                           self.config.delta, f"series {k}")
        return problems


def make(name: str, seed: int):
    if name == "sweep-paper":
        return Sweep(name, seed, GraphConfig(model="gnm", n=10, d_e=0.5, r_e=0.5),
                     SDDParams(), warmup_trials=20, trace_block=16,
                     contention=CONTENTION[name], margin=("lcrc", "lc", 0.03))
    if name == "sweep-n100":
        return Sweep(name, seed, GraphConfig(model="gnm", n=100, d_e=0.1, r_e=0.5),
                     SDDParams(), warmup_trials=2, trace_block=2,
                     contention=CONTENTION[name])
    if name == "infer-lags":
        return InferLags(name, seed,
                         GraphConfig(model="gnm", n=30, d_e=0.2, r_e=0.5, delta=5),
                         SDDParams(delta=5, n_obs=10_000))
    raise ValueError(f"unknown workload {name!r}")
