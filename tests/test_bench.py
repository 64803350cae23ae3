import concurrent.futures
import dataclasses
import importlib.util
import os
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

import pemnet.dynamics
import pemnet.pem
from pemnet import bench, cli
from pemnet.bench import (
    GRID_KEYS,
    SWEEP_CSV_HEADER,
    SweepSpec,
    TrialRecord,
    accuracy,
    baseline_accuracy,
    derive_seed,
    run_trial,
    spearman,
    sweep,
    sweep_rows,
    threshold_pem,
    write_sweep_csv,
)
from pemnet.dynamics import SDDParams, add_measurement_noise, simulate_sdd
from pemnet.errors import ConfigurationError, DataError, PemnetError
from pemnet.graphs import (
    DirectedGraph,
    GraphConfig,
    assign_lags,
    gen_graph_non_nilpotent,
    normalize_adjacency,
)
from pemnet.pem import AUTO, PEMMatrix, compute_pem, compute_pems


def pem_from(values):
    values = np.asarray(values, dtype=float)
    out = values.copy()
    np.fill_diagonal(out, np.nan)
    return PEMMatrix(out, "lc")


def threshold_by_tuple_sort(values, m):
    # reference: rank (-score, row, col) tuples, as threshold_pem once did
    n = values.shape[0]
    ranked = sorted(
        (-values[i, j], i, j) for i in range(n) for j in range(n) if i != j
    )
    return {(j, i) for _, i, j in ranked[:m]}


class TestThreshold:
    def test_full_edge_budget_gives_complete_graph(self):
        rng = np.random.default_rng(0)
        pem = pem_from(rng.standard_normal((4, 4)))
        g = threshold_pem(pem, 12)
        assert g.m == 12

    def test_top_m_matches_sort_oracle(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((6, 6))
        pem = pem_from(values)
        m = 7
        g = threshold_pem(pem, m)
        flat = [
            (values[i, j], (j, i))
            for i in range(6) for j in range(6) if i != j
        ]
        expected = {e for _, e in sorted(flat, key=lambda t: -t[0])[:m]}
        assert set(g.edges) == expected

    def test_tie_break_by_ascending_position(self):
        # equal scores: positions (0,1), (0,2), (1,0) win, i.e. edges
        # 1->0, 2->0, 0->1
        g = threshold_pem(pem_from(np.ones((3, 3))), 3)
        assert set(g.edges) == {(1, 0), (2, 0), (0, 1)}

    def test_matches_tuple_sort_with_ties(self):
        rng = np.random.default_rng(6)
        for case in range(300):
            n = int(rng.integers(2, 13))
            if case % 2:
                values = rng.standard_normal((n, n)).round(1)
            else:  # heavy ties, with both signed zeros
                values = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(n, n))
            m = int(rng.integers(1, n * (n - 1) + 1))
            g = threshold_pem(pem_from(values), m)
            assert set(g.edges) == threshold_by_tuple_sort(values, m)

    def test_m_at_tie_block_boundaries(self):
        # 7 scores of 2.0 above a block of 10 ties at 1.0, then 3 of 0.0:
        # m at either end of the block, just outside it, and the full budget
        rng = np.random.default_rng(9)
        n = 5
        scores = np.array([2.0] * 7 + [1.0] * 10 + [0.0] * 3)
        values = np.zeros((n, n))
        values[~np.eye(n, dtype=bool)] = rng.permutation(scores)
        for m in (6, 7, 8, 16, 17, 18, 20):
            g = threshold_pem(pem_from(values), m)
            assert g.m == m
            assert set(g.edges) == threshold_by_tuple_sort(values, m)

    def test_m_out_of_range(self):
        pem = pem_from(np.ones((3, 3)))
        with pytest.raises(ConfigurationError):
            threshold_pem(pem, 0)
        with pytest.raises(ConfigurationError):
            threshold_pem(pem, 7)

    def test_m_must_be_an_integer(self):
        pem = pem_from(np.arange(9.0).reshape(3, 3))
        with pytest.raises(ConfigurationError, match="m must be an integer, got 3.0"):
            threshold_pem(pem, 3.0)
        assert threshold_pem(pem, np.int64(3)) == threshold_pem(pem, 3)


class TestAccuracy:
    def test_perfect_match(self):
        g = DirectedGraph(4, ((0, 1), (1, 2)))
        assert accuracy(g, g) == 1.0

    def test_disjoint_support(self):
        truth = DirectedGraph(4, ((0, 1), (1, 2)))
        inferred = DirectedGraph(4, ((2, 3), (3, 0)))
        assert accuracy(inferred, truth) == 1.0 - 2 * 2 / 12

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        pairs = [(i, j) for i in range(5) for j in range(5) if i != j]
        for _ in range(20):
            e1 = {pairs[t] for t in rng.choice(20, size=6, replace=False)}
            e2 = {pairs[t] for t in rng.choice(20, size=6, replace=False)}
            a = DirectedGraph(5, tuple(e1))
            b = DirectedGraph(5, tuple(e2))
            assert accuracy(a, b) == accuracy(b, a)

    def test_equal_m_quantization(self):
        # with matching edge counts, errors come in FP/FN pairs
        rng = np.random.default_rng(3)
        pairs = [(i, j) for i in range(5) for j in range(5) if i != j]
        allowed = {1.0 - 2 * j / 20 for j in range(7)}
        for _ in range(50):
            e1 = {pairs[t] for t in rng.choice(20, size=6, replace=False)}
            e2 = {pairs[t] for t in rng.choice(20, size=6, replace=False)}
            phi = accuracy(DirectedGraph(5, tuple(e1)), DirectedGraph(5, tuple(e2)))
            assert phi in allowed

    def test_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            accuracy(DirectedGraph(3, ((0, 1),)), DirectedGraph(4, ((0, 1),)))

    def test_random_guess_mean_matches_baseline(self):
        rng = np.random.default_rng(4)
        truth = DirectedGraph(
            10,
            tuple(
                (i, j)
                for t in rng.choice(90, size=45, replace=False)
                for i, j in [divmod(t, 9)]
                for j in [j if j < i else j + 1]
            ),
        )
        pairs = [(i, j) for i in range(10) for j in range(10) if i != j]
        draws = 10_000
        phis = np.empty(draws)
        for d in range(draws):
            guess = {pairs[t] for t in rng.choice(90, size=45, replace=False)}
            phis[d] = accuracy(DirectedGraph(10, tuple(guess)), truth)
        se = phis.std(ddof=1) / np.sqrt(draws)
        assert abs(phis.mean() - baseline_accuracy(10, 45)) < max(3 * se, 0.01)


class TestBaseline:
    def test_half_density(self):
        assert baseline_accuracy(10, 45) == 0.5

    def test_extremes_approach_one(self):
        assert baseline_accuracy(10, 90) == 1.0
        assert baseline_accuracy(10, 1) > 0.97

    def test_sparse_value(self):
        assert baseline_accuracy(10, 9) == pytest.approx(0.82)

    @pytest.mark.parametrize("n, m, message", [(4, 3.5, "m must be an integer, got 3.5"),
                                               (4.0, 3, "n must be an integer, got 4.0")])
    def test_counts_must_be_integers(self, n, m, message):
        with pytest.raises(ConfigurationError, match=message):
            baseline_accuracy(n, m)
        assert baseline_accuracy(np.int64(10), np.int32(45)) == 0.5


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs = rng.integers(0, 5, size=12).astype(float)
            ys = rng.integers(0, 5, size=12).astype(float)
            if xs.std() == 0 or ys.std() == 0:
                continue
            want = scipy.stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(want, rel=1e-12)

    def test_constant_input_raises(self):
        with pytest.raises(DataError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "a"])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_non_finite_input_raises(self, bad, side):
        # a NaN once ranked last and gave 0.8 here; "a" ended in numpy's ValueError
        values, ranks = [1.0, 2.0, bad, 4.0], [1.0, 2.0, 3.0, 4.0]
        args = (values, ranks) if side == "xs" else (ranks, values)
        match = "non-numeric input" if isinstance(bad, str) else "NaN or inf"
        with pytest.raises(DataError, match=match):
            spearman(*args)

    def test_unequal_lengths_raise(self):
        with pytest.raises(ConfigurationError, match="equal-length lists of at least 3"):
            spearman([1, 2, 3], [1, 2])


class TestDeriveSeed:
    def test_deterministic_and_order_sensitive(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
        assert derive_seed(1) != derive_seed(2)

    def test_spread(self):
        seeds = {derive_seed(0, cell, trial) for cell in range(50)
                 for trial in range(50)}
        assert len(seeds) == 2500


class TestRunTrial:
    def test_deterministic_accuracy(self):
        config = GraphConfig()
        params = SDDParams()
        a = run_trial(config, params, ["lcrc", "lc"], seed=42)
        b = run_trial(config, params, ["lcrc", "lc"], seed=42)
        assert [r.accuracy for r in a] == [r.accuracy for r in b]
        assert all(not r.error for r in a)
        assert all(0.0 <= r.accuracy <= 1.0 for r in a)

    def test_zero_signal_records_error(self):
        config = GraphConfig()
        params = SDDParams(sigma=0.0)
        records = run_trial(config, params, ["lc"], seed=0)
        assert records[0].error
        assert "variance" in records[0].error

    def test_simulate_failure_is_a_record_per_measure(self):
        # eps = 1 puts the summed lag matrix at radius 1: refused as unstable
        records = run_trial(GraphConfig(), SDDParams(eps=1.0), ["lc", "lcrc"], seed=0)
        assert [r.pem_kind for r in records] == ["lc", "lcrc"]
        for r in records:
            assert r.error.startswith(
                "simulate: update rule (summed lag matrix) is unstable")
            assert np.isnan(r.accuracy) and np.isnan(r.wall_time_s)

    def test_graph_failure_is_a_record_per_measure(self):
        # 15 backbone edges cannot join 20 nodes by preferential attachment
        config = GraphConfig(model="ba", n=20, d_e=0.04, r_e=0.0)
        records = run_trial(config, SDDParams(), ["lc", "gc"], seed=0)
        assert [r.pem_kind for r in records] == ["lc", "gc"]
        for r in records:
            assert r.error.startswith("graph: preferential attachment needs")
            assert np.isnan(r.accuracy)

    def test_string_dt_tau_is_a_record_per_corrected_measure(self):
        records = run_trial(GraphConfig(), SDDParams(), ["lc", "lcrc"], seed=0, dt_tau="x")
        assert records[0].pem_kind == "lc" and not records[0].error
        assert records[1].error == "pem[lcrc]: dt/tau must lie in (0, 1], got 'x'"
        assert np.isnan(records[1].accuracy)

    def test_delta_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            run_trial(GraphConfig(delta=2), SDDParams(delta=0), ["lc"], seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 0, "trial": 0.5}, "trial must be an integer, got 0.5"),
        ({"seed": 0, "trial": -2}, "trial must be >= 0, got -2"),
    ])
    def test_seed_and_trial_refused(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            run_trial(GraphConfig(), SDDParams(), ["lc"], **kwargs)

    def test_bare_string_of_measures_refused(self):
        with pytest.raises(ConfigurationError, match="pems must be a list"):
            run_trial(GraphConfig(), SDDParams(), "lc", seed=0)

    def test_non_integer_delta_hat_is_a_record_per_measure(self):
        records = run_trial(GraphConfig(), SDDParams(), ["lc", "lcrc", "gc"], seed=0,
                            delta_hat=0.5)
        assert [r.pem_kind for r in records] == ["lc", "lcrc", "gc"]
        for r in records:
            assert r.error == f"pem[{r.pem_kind}]: delta_hat must be an integer, got 0.5"
            assert np.isnan(r.accuracy)

    def test_repeated_kind_is_a_record_each(self):
        records = run_trial(GraphConfig(), SDDParams(), ["lc", "lccf", "lc"], seed=4)
        assert [r.pem_kind for r in records] == ["lc", "lccf", "lc"]
        assert records[0] == records[2] and not records[0].error

    def test_wall_time_measured(self):
        records = run_trial(GraphConfig(), SDDParams(), ["gc"], seed=1)
        assert records[0].wall_time_s > 0.0


def stage_by_stage(config, params, pems, seed, dt_tau=None):
    """run_trial at delta_hat = delta as the per-kind stage path: compute_pem,
    threshold_pem and accuracy for each kind on its own, wall_time_s left out."""
    d_hat = config.delta
    z = params.dt_tau if dt_tau is None else dt_tau
    rng = np.random.default_rng(seed)
    graph = assign_lags(gen_graph_non_nilpotent(config, rng), config.delta, rng)
    ts = simulate_sdd(normalize_adjacency(graph)[1], params, rng)
    ts = add_measurement_noise(ts, params.eta, rng)
    records = []
    for kind in pems:
        try:
            pem = compute_pem(ts, kind, dt_tau=z, delta_hat=d_hat)
            phi = accuracy(threshold_pem(pem, graph.m), graph)
            records.append(TrialRecord(config, params, kind, d_hat, 0, seed, phi,
                                       flags=pem.flags))
        except PemnetError as exc:
            records.append(TrialRecord(config, params, kind, d_hat, 0, seed,
                                       error=f"pem[{kind}]: {exc}"))
    return records


def without_wall_time(records):
    return [dataclasses.replace(r, wall_time_s=0.0) for r in records]


class TestOneStackPerTrial:
    ORDERS = (["lc", "lccf", "lcrc", "gc"], ["lcrc", "gc", "lc"])

    @pytest.mark.parametrize("pems", ORDERS)
    @pytest.mark.parametrize("delta_hat", [0, 3])
    @pytest.mark.parametrize("dt_tau", [None, AUTO])
    def test_matches_stage_by_stage(self, pems, delta_hat, dt_tau):
        config, params = GraphConfig(delta=delta_hat), SDDParams(delta=delta_hat)
        got = run_trial(config, params, pems, 8, dt_tau=dt_tau)
        assert all(not r.error and r.wall_time_s > 0.0 for r in got)
        assert without_wall_time(got) == without_wall_time(
            stage_by_stage(config, params, pems, 8, dt_tau=dt_tau))

    @pytest.mark.parametrize("pems", ORDERS)
    @pytest.mark.parametrize("config, params, dt_tau, failing", [
        # zero signal: every lc-family kind fails on the variance, gc still runs
        (GraphConfig(), SDDParams(sigma=0.0), None, {"lc", "lccf", "lcrc"}),
        # N = delta_hat + 2: lc scores, the corrected kinds (and gc) fail
        (GraphConfig(delta=3), SDDParams(delta=3, n_obs=5), None, {"lccf", "lcrc", "gc"}),
        # an estimate at N < n + 2 fails only the kinds that read it (and gc)
        (GraphConfig(), SDDParams(n_obs=8), AUTO, {"lccf", "lcrc", "gc"}),
    ])
    def test_errors_stay_per_kind(self, pems, config, params, dt_tau, failing):
        got = run_trial(config, params, pems, 2, dt_tau=dt_tau)
        assert {r.pem_kind for r in got if r.error} == failing & set(pems)
        assert without_wall_time(got) == without_wall_time(
            stage_by_stage(config, params, pems, 2, dt_tau=dt_tau))

    @pytest.mark.parametrize("delta_hat", [0, 3])
    @pytest.mark.parametrize("dt_tau, estimates", [(None, 0), (AUTO, 1)])
    def test_each_lag_and_estimate_computed_once(self, monkeypatch, delta_hat, dt_tau,
                                                 estimates):
        calls = Counter()
        real_cov, real_est = pemnet.pem.sample_lagged_cov, pemnet.pem.estimate_tau_inv

        def counting_cov(x, k):
            calls[k] += 1
            return real_cov(x, k)

        def counting_est(*args):
            calls["tau"] += 1
            return real_est(*args)

        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov", counting_cov)
        monkeypatch.setattr(pemnet.pem, "estimate_tau_inv", counting_est)
        run_trial(GraphConfig(delta=delta_hat), SDDParams(delta=delta_hat),
                  ["lc", "lccf", "lcrc"], 4, dt_tau=dt_tau)
        # one pass for every lag, read by all three kinds
        assert calls == Counter({delta_hat + 1: 1}, tau=estimates)

    def test_zero_signal_fails_from_one_pass(self, monkeypatch):
        # the zero-variance error of the first kind is raised again for the
        # others, not found again by a pass of their own
        lags = []
        real = pemnet.pem.sample_lagged_cov
        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov",
                            lambda x, k: lags.append(k) or real(x, k))
        records = run_trial(GraphConfig(), SDDParams(sigma=0.0), ["lc", "lccf", "lcrc"], 0)
        assert all("zero variance" in r.error for r in records)
        assert lags == [1]

    def test_no_cache_across_calls(self, monkeypatch):
        ts = simulate_sdd([np.zeros((4, 4))], SDDParams(n_obs=300), np.random.default_rng(1))
        lags = []
        real = pemnet.pem.sample_lagged_cov
        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov",
                            lambda x, k: lags.append(k) or real(x, k))
        for _ in range(2):
            compute_pem(ts, "lcrc", dt_tau=AUTO, delta_hat=2)
        assert lags == [3, 3]

    @pytest.mark.parametrize("delta_hat", [0, 3])
    def test_wall_time_charges_what_each_kind_read(self, monkeypatch, delta_hat):
        # on a clock that only the lag pass (1 s) and the estimate (10 s)
        # advance, each kind is charged the parts it read, in whatever order it
        # ran; lc reads the pass built as deep as the corrected kinds need
        now = [0.0]
        real_cov, real_est = pemnet.pem.sample_lagged_cov, pemnet.pem.estimate_tau_inv

        def slow_cov(x, k):
            now[0] += 1.0
            return real_cov(x, k)

        def slow_est(*args):
            now[0] += 10.0
            return real_est(*args)

        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov", slow_cov)
        monkeypatch.setattr(pemnet.pem, "estimate_tau_inv", slow_est)
        monkeypatch.setattr(pemnet.pem, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        ts = simulate_sdd([np.zeros((4, 4))], SDDParams(n_obs=300), np.random.default_rng(2))
        want = {"lc": 1.0, "lccf": 11.0, "lcrc": 11.0, "gc": 0.0}
        for kinds in (["lc", "lccf", "lcrc", "gc"], ["lcrc", "gc", "lccf", "lc"]):
            got = compute_pems(ts, kinds, dt_tau=AUTO, delta_hat=delta_hat)
            assert {kind: wall for kind, (_, wall) in got.items()} == want


class TestSweep:
    def test_single_cell_matches_run_trial(self):
        spec = SweepSpec(trials=1, seed=7, pems=("lcrc",))
        records = sweep(spec)
        direct = run_trial(GraphConfig(), SDDParams(), ["lcrc"],
                           seed=derive_seed(7, 0, 0))
        assert len(records) == 1
        assert records[0].accuracy == direct[0].accuracy

    def test_determinism_across_runs(self):
        spec = SweepSpec(grid={"dt": [0.5, 1.0]}, trials=3, seed=1,
                         pems=("lcrc", "lc"))
        a = [r.accuracy for r in sweep(spec)]
        b = [r.accuracy for r in sweep(spec)]
        assert a == b

    def test_jobs_do_not_change_content(self):
        spec1 = SweepSpec(grid={"n": [5, 10]}, trials=2, seed=3, pems=("lcrc",))
        spec2 = SweepSpec(grid={"n": [5, 10]}, trials=2, seed=3, pems=("lcrc",),
                          jobs=2)
        a = sweep(spec1)
        b = sweep(spec2)
        assert [r.accuracy for r in a] == [r.accuracy for r in b]
        assert [r.seed for r in a] == [r.seed for r in b]

    @pytest.mark.parametrize("jobs, trials, workers", [(64, 1, []), (8, 3, [3]), (2, 3, [2])])
    def test_pool_no_larger_than_its_tasks(self, monkeypatch, jobs, trials, workers):
        # a stand-in pool that records its size and start method and maps in
        # this process
        sizes, methods = [], []

        class RecordingPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)
                methods.append(mp_context.get_start_method())

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = SweepSpec(grid={"n": [5]}, trials=trials, seed=6, pems=("lc",), jobs=jobs)
        records = sweep(spec)
        assert sizes == workers
        assert methods == ["forkserver"] * len(workers)
        assert without_wall_time(records) == without_wall_time(
            sweep(dataclasses.replace(spec, jobs=1)))

    def test_workers_run_one_blas_thread(self, monkeypatch):
        # the workers start with one BLAS thread whatever the caller set, and
        # the caller's environment is as it was: a set value kept, an unset
        # one still unset
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"] * 2
        assert bench._pool_map(os.getenv, names, 2) == ["1"] * 6
        assert dict(os.environ) == before

    def test_failures_recorded_and_sweep_continues(self):
        spec = SweepSpec(grid={"sigma": [0.0, 0.2]}, trials=2, seed=5,
                         pems=("lc",))
        records = sweep(spec)
        assert len(records) == 4
        failed = [r for r in records if r.error]
        good = [r for r in records if not r.error]
        assert len(failed) == 2 and len(good) == 2
        assert all(np.isnan(r.accuracy) for r in failed)

    def test_trial_out_of_memory_keeps_every_other_row(self, monkeypatch):
        # the first trial at n = 10 cannot hold its states: its records carry
        # the refusal, and every other trial keeps the rows it would have had
        spec = SweepSpec(grid={"n": [5, 10]}, trials=2, seed=3, pems=("lc", "gc"))
        want = sweep(spec)
        real, failed = pemnet.dynamics.sdd_recurrence, []

        def out_of_memory_once(w, noise):
            if noise.shape[1] == 10 and not failed:
                failed.append(noise.shape)
                raise MemoryError("Unable to allocate the states")
            return real(w, noise)

        monkeypatch.setattr(pemnet.dynamics, "sdd_recurrence", out_of_memory_once)
        got = sweep(spec)
        assert len(got) == len(want) == 8
        for i, (g, w) in enumerate(zip(got, want)):
            if i in (4, 5):  # cell 1, trial 0: one record per measure
                assert g.error == ("simulate: cannot hold the noise for n_obs=1000 at n=10: "
                                   "Unable to allocate the states")
                assert (g.config, g.pem_kind, g.trial) == (w.config, w.pem_kind, w.trial)
            else:
                assert dataclasses.replace(g, wall_time_s=0.0) == dataclasses.replace(
                    w, wall_time_s=0.0)
                assert not g.error

    def test_csv_format(self, tmp_path):
        spec = SweepSpec(trials=1, seed=0, pems=("lcrc",))
        records = sweep(spec)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        fields = lines[1].split(",")
        assert len(fields) == len(SWEEP_CSV_HEADER.split(","))
        assert fields[0] == "gnm"
        assert fields[-1] == ""  # empty error column on success

    @pytest.mark.parametrize("values", [[-1], [0, -2]])
    def test_rejects_negative_delta_hat(self, values):
        with pytest.raises(ConfigurationError, match="delta_hat must be >= 0"):
            SweepSpec(grid={"delta_hat": values})

    def test_rejects_unknown_grid_key(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(grid={"bogus": [1]})

    @pytest.mark.parametrize("grid, message", [
        ({"n": "12"}, r"n must be a list, such as \['12'\], not '12'"),  # once n = 1, 2
        ({"dt": "0.5"}, r"dt must be a list, such as \['0.5'\], not '0.5'"),
        ({"n": 5}, r"n must be a list, such as \[5\], not 5"),  # once a TypeError
        ({"n": []}, "sweep grid has an empty value list"),
    ], ids=["string-n", "string-dt", "int-n", "empty"])
    def test_rejects_grid_value_that_is_no_list(self, grid, message):
        with pytest.raises(ConfigurationError, match=message):
            SweepSpec(grid=grid)

    @pytest.mark.parametrize("grid, message", [
        ({"n": [10.7], "delta": [0.9]}, "n must be an integer, got 10.7"),
        ({"delta": [0, 0.9]}, "delta must be an integer, got 0.9"),
        ({"N": ["1e3"]}, "n_obs must be an integer, got '1e3'"),
        ({"eps": ["x"]}, "eps must lie in [0, inf), got 'x'"),
        ({"model": [5]}, "unknown graph model 5"),
        ({"delta": [True]}, "delta must be an integer, got True"),  # int() would run delta = 1
        ({"eps": [0.5, True]}, "eps must lie in [0, inf), got True"),
        ({"delta_hat": ["2"]}, "delta_hat must be an integer, got '2'"),
    ], ids=["grid0-n", "grid1-delta", "grid2-N", "grid3-eps", "grid4-model", "grid5-delta",
            "grid6-eps", "string-delta_hat"])
    def test_rejects_value_its_type_changes(self, grid, message):
        # a value reaches its config as given, and the config names the field
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SweepSpec(grid=grid)

    def test_accepts_values_that_keep_their_value(self):
        # numpy integers, and integers for a real field, reach the configs as given
        spec = SweepSpec(grid={"n": [np.int64(5), 12], "eps": [1, 0.5]})
        assert [cell["n"] for cell in spec.cells()] == [5, 5, 12, 12]
        config, params, _ = bench._cell_setup(spec.cells()[0])
        assert (config.n, params.eps) == (5, 1)

    def test_rejects_unknown_dt_tau_mode(self):
        with pytest.raises(ConfigurationError, match="unknown dt/tau mode 'bogus'"):
            SweepSpec(dt_tau="bogus")

    @pytest.mark.parametrize("kwargs, message", [
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"jobs": 1.5}, "jobs must be an integer, got 1.5"),
        ({"trials": 2.0}, "trials must be an integer, got 2.0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ])
    def test_rejects_non_integer_counts(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            SweepSpec(**kwargs)
        spec = SweepSpec(trials=np.int64(2), jobs=np.int32(1))
        assert len(sweep(spec)) == 2

    def test_master_seed_may_be_negative(self):
        records = sweep(SweepSpec(seed=-3, pems=("lc",)))
        assert records[0].seed == derive_seed(-3, 0, 0) and not records[0].error

    def test_rejects_bare_string_of_measures(self):
        with pytest.raises(ConfigurationError, match="pems must be a list"):
            SweepSpec(pems="lcrc")

    def test_rejects_no_measures(self):
        with pytest.raises(ConfigurationError, match="no edge measures requested"):
            SweepSpec(pems=())

    def test_cell_keys_map_onto_configs_and_columns(self):
        grid = {"N": [500], "delta": [2], "eps": [0.5]}
        records = sweep(SweepSpec(grid=grid, trials=1, pems=("lc",)))
        (r,) = records
        assert r.config == GraphConfig(delta=2)
        assert r.params == SDDParams(delta=2, eps=0.5, n_obs=500)
        assert r.delta_hat == 2
        row = dict(zip(SWEEP_CSV_HEADER.split(","), sweep_rows(records)[0].split(",")))
        assert list(row)[: len(GRID_KEYS)] == list(GRID_KEYS)
        assert (row["N"], row["delta"], row["delta_hat"], row["eps"]) == (
            "500", "2", "2", "0.5")

    def test_row_format_ten_significant_digits(self):
        records = sweep(SweepSpec(trials=1, seed=0, pems=("lcrc",)))
        row = sweep_rows(records)[0]
        accuracy_field = row.split(",")[15]
        assert len(accuracy_field.replace(".", "").replace("-", "")) <= 11


class TestGoldenSweep:
    def test_matches_recorded_csv(self, tmp_path):
        """Rerun the sweep recorded in tests/data/golden_sweep.csv and compare
        every column but wall_time_s. The file was written with

            PYTHONPATH=src python -m pemnet.cli sweep --model-list gnm,er,ba,rr,sw \\
                --n-list 5,12 --delta-list 0,2 --pems lc,lccf,lcrc --trials 2 \\
                --seed 11 --out tests/data/golden_sweep.csv

        so a change that alters any random draw of graph sampling, lag
        assignment or simulation, or any score, threshold or accuracy, fails it.
        """
        out = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep", "--model-list", "gnm,er,ba,rr,sw", "--n-list", "5,12",
            "--delta-list", "0,2", "--pems", "lc,lccf,lcrc", "--trials", "2",
            "--seed", "11", "--out", str(out),
        ]) == 0

        golden = (Path(__file__).parent / "data" / "golden_sweep.csv").read_text()
        assert len(golden.splitlines()) == 1 + 5 * 2 * 2 * 2 * 3
        assert golden_columns(out.read_text()) == golden_columns(golden)

    @pytest.mark.parametrize("name, args, rows", [
        ("golden_sweep_n100.csv", ["--n-list", "100", "--d-e-list", "0.1", "--trials", "2"], 6),
        ("golden_sweep_lagged.csv",
         ["--n-list", "30", "--d-e-list", "0.2", "--delta-list", "5", "--n-obs-list", "10000",
          "--dt-tau-mode", "auto", "--trials", "1"], 3),
    ], ids=["n100", "lagged-auto"])
    def test_matches_recorded_csv_beyond_small_n(self, tmp_path, name, args, rows):
        """The paths the small cells miss, held to their bits: at n = 100 the
        Perron root, the chunked carry and the top-m mask of a large matrix;
        at n = 30, N = 10 000, delta = 5 the whole-block lag pass and the
        dt/tau estimate. tests/data/<name> was written with

            PYTHONPATH=src python -m pemnet.cli sweep --model-list gnm \\
                --pems lc,lccf,lcrc --seed 11 <args> --out tests/data/<name>
        """
        out = tmp_path / name
        assert cli.main(["sweep", "--model-list", "gnm", "--pems", "lc,lccf,lcrc",
                         "--seed", "11", *args, "--out", str(out)]) == 0
        golden = (Path(__file__).parent / "data" / name).read_text()
        assert len(golden.splitlines()) == 1 + rows
        assert golden_columns(out.read_text()) == golden_columns(golden)


def golden_columns(text):
    """The rows of a sweep CSV without its wall_time_s column."""
    rows = [line.split(",") for line in text.splitlines()]
    wall = rows[0].index("wall_time_s")
    return [row[:wall] + row[wall + 1:] for row in rows]


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestTracedBenchmark:
    def test_patch_targets_exist(self):
        # perfbench/run.py --trace 1 exits 2 when pemnet lacks a patch target
        tracing = load_tracing()
        assert tracing.PATCHES
        for module_name, attr, _, _ in tracing.PATCHES:
            module = importlib.import_module(f"pemnet.{module_name}")
            assert callable(getattr(module, attr, None)), f"pemnet.{module_name}.{attr}"

    def test_patch_targets_reached(self):
        # a target that a trial bypasses would read 0 in its per-layer metric
        tracing = load_tracing()
        tracer = tracing.Tracer()
        config, params = GraphConfig(delta=1), SDDParams(delta=1)
        with tracing.installed(tracer):
            (record,) = run_trial(config, params, ["lccf"], seed=3, dt_tau=AUTO)
        assert record.error == ""
        names = Counter(span[3] for span in tracer.spans)
        for _, _, name, _ in tracing.PATCHES:
            assert names[name] > 0, name
        # one each from graphs.normalize_adjacency and the dynamics' stability check
        assert names["numerics.spectral_radius"] == 2
        (recurrence,) = [s for s in tracer.spans if s[3] == "dynamics.recurrence"]
        # the burn-in spans 2.05 e-folds of rho^(1/p), the slowest companion
        # radius the summed lag matrix's rho = 0.95 allows: 80 steps at p = 2
        steps = 80 + params.n_obs
        assert recurrence[6] == {"steps": steps, "flops": 2 * 2 * 10 * 10 * steps}


def load_perfbench(name, module_name=None):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(module_name or f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkCorrectnessGate:
    """The benchmark's output check, run on a few items: a break between
    run_trial and the stage-by-stage path fails here, not only in perfbench."""

    @pytest.fixture
    def workloads(self, monkeypatch):
        # workloads.py imports its siblings by their bare names
        for name in ("tracing", "reference"):
            monkeypatch.setitem(sys.modules, name, load_perfbench(name, name))
        return load_perfbench("workloads")

    # infer-lags is the one workload whose lag kernel reads whole blocks
    @pytest.mark.parametrize("name, items",
                             [("sweep-paper", 60), ("sweep-n100", 4), ("infer-lags", 4)])
    def test_problems_empty(self, workloads, name, items):
        workload = workloads.make(name, seed=1)
        workload.setup()
        for i in range(items):
            workload.observe(i, workload.run_plain(i))
        assert workload.problems() == []
