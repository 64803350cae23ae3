import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pemnet.dynamics import SDDParams, TimeSeries, simulate_sdd
from pemnet.errors import ConfigurationError, DataError, FileFormatError, PemnetError
from pemnet.graphs import (
    DirectedGraph, GraphConfig, assign_lags, gen_graph_non_nilpotent, normalize_adjacency,
)
from pemnet.numerics import solve_discrete_lyapunov
import pemnet.pem
from pemnet.pem import (
    AUTO,
    PEM_KINDS,
    PEMMatrix,
    alpha_lccf,
    alpha_lcrc,
    compute_pem,
    compute_pems,
    estimate_tau_inv,
    lagged_corrs,
    load_pem,
    pem_gc,
    sample_lagged_cov,
    save_pem,
)

from oracles import alpha_from_contributions


def ring_mats(n=3):
    a = np.zeros((n, n))
    for i in range(n):
        a[(i + 1) % n, i] = 1.0
    return [a]


def zero_mats(n=3):
    return [np.zeros((n, n))]


def off_diag(values):
    return values[~np.eye(values.shape[0], dtype=bool)]


def centered(ts):
    return ts.values - ts.values.mean(axis=0)


def lag_product(x, k):
    """The lag-k covariance as one product: the oracle of the lag kernel."""
    n_obs = x.shape[0]
    return x[k:].T @ x[: n_obs - k] / (n_obs - k - 1)


def takes_blocked_pass(x, k_max):
    return (x.shape[1] > 1 and x.size >= pemnet.pem._BLOCKED_MIN_VALUES
            and (k_max + 1) * x.shape[1] <= pemnet.pem._BLOCKED_MAX_GRAM)


def graph_with_cycle(extra_pairs, n=5):
    # embeds directed pairs beside a 2-cycle so the adjacency is not nilpotent
    pairs = tuple(extra_pairs) + ((n - 2, n - 1), (n - 1, n - 2))
    return DirectedGraph(n, pairs)


class TestSampleLaggedCov:
    def test_constant_series_is_zero(self):
        ts = TimeSeries(values=np.full((100, 3), 7.0), dt=1.0)
        assert_allclose(sample_lagged_cov(centered(ts), 0)[0], 0.0, atol=1e-12)

    def test_iid_noise_identity(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries(values=rng.standard_normal((100_000, 4)), dt=1.0)
        s0 = sample_lagged_cov(centered(ts), 0)[0]
        bound = 4.0 / np.sqrt(ts.n_obs)
        assert np.abs(np.diag(s0) - 1.0).max() < bound
        assert np.abs(off_diag(s0)).max() < bound
        assert np.array_equal(s0, s0.T)

    def test_lag1_matches_one_step_update(self):
        params = SDDParams(n_obs=200_000)
        ts = simulate_sdd(ring_mats(), params, np.random.default_rng(1))
        s0, s1 = sample_lagged_cov(centered(ts), 1)
        k_mat = 0.5 * np.eye(3) + 0.5 * 0.9 * ring_mats()[0]
        expected = k_mat @ s0
        scale = np.abs(expected).max()
        assert np.abs(s1 - expected).max() / scale < 0.05

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            sample_lagged_cov(np.zeros((5, 2)), 4)

    @pytest.mark.parametrize("shape", [(50,), (50, 2, 2)])
    def test_series_must_be_2d(self, shape):
        # refused before the lag checks: k_max 1.5 and 60 would raise otherwise
        for k_max in (1, 1.5, 60):
            with pytest.raises(DataError, match=re.escape(f"2-D (N, n), got shape {shape}")):
                sample_lagged_cov(np.zeros(shape), k_max)

    @pytest.mark.parametrize("n, n_obs, k_max", [
        (2, 2**16, 3), (30, 10_000, 6), (30, 10_003, 6), (5, 40_000, 8),
    ])
    def test_blocked_pass_matches_lag_products(self, n, n_obs, k_max):
        # 10 003 leaves 0 < rows < k_max + 1 after the last full block
        values = np.random.default_rng(n_obs).standard_normal((n_obs, n)) + 3.0
        x = centered(TimeSeries(values=values, dt=1.0))
        assert takes_blocked_pass(x, k_max)
        got = sample_lagged_cov(x, k_max)
        assert got.shape == (k_max + 1, n, n)
        want = np.stack([lag_product(x, k) for k in range(k_max + 1)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want[0]).max()
        assert np.array_equal(got[0], got[0].T)

    @pytest.mark.parametrize("n, n_obs, k_max", [
        (1, 2**17 - 1, 3), (1, 2**17, 3), (12, 3000, 9), (100, 1000, 6),
        (30, 10_000, 68),
    ])
    def test_short_path_is_lag_products_bit_for_bit(self, n, n_obs, k_max):
        # short series, a single node however long, and (last case) a Gram
        # wider than the blocked pass takes
        x = np.random.default_rng(n).standard_normal((n_obs, n))
        assert not takes_blocked_pass(x, k_max)
        want = np.stack([lag_product(x, k) for k in range(k_max + 1)])
        assert np.array_equal(sample_lagged_cov(x, k_max), want)

    def test_single_node_never_takes_blocked_pass(self, monkeypatch):
        # each lag product of one column is a dot product; summing whole
        # blocks would only add the packing
        def failing(*args):
            raise AssertionError("whole-block pass ran")

        monkeypatch.setattr(pemnet.pem, "_whole_blocks", failing)
        x = np.random.default_rng(3).standard_normal((2**18, 1))
        want = np.stack([lag_product(x, k) for k in range(4)])
        assert np.array_equal(sample_lagged_cov(x, 3), want)
        with pytest.raises(AssertionError, match="whole-block pass ran"):
            sample_lagged_cov(np.hstack([x, x]), 3)  # two nodes do read the blocks


class TestSampleLaggedCorr:
    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(2)
        ts = TimeSeries(values=rng.standard_normal((500, 4)), dt=1.0)
        assert_allclose(np.diag(lagged_corrs(ts, 0)[1][0]), 1.0, rtol=1e-14)

    def test_lag0_symmetry(self):
        rng = np.random.default_rng(3)
        ts = TimeSeries(values=rng.standard_normal((500, 4)), dt=1.0)
        r0 = lagged_corrs(ts, 0)[1][0]
        assert np.abs(r0 - r0.T).max() < 1e-14

    def test_memoryful_autocorrelation(self):
        params = SDDParams(n_obs=100_000)  # dt_tau = 0.5
        ts = simulate_sdd(zero_mats(), params, np.random.default_rng(4))
        r1 = lagged_corrs(ts, 1)[1][1]
        assert np.abs(np.diag(r1) - 0.5).max() < 4.0 / np.sqrt(ts.n_obs)

    def test_zero_variance_names_node(self):
        values = np.random.default_rng(5).standard_normal((100, 3))
        values[:, 1] = 2.5
        ts = TimeSeries(values=values, dt=1.0)
        with pytest.raises(DataError, match="node 1"):
            lagged_corrs(ts, 0)

    @pytest.mark.parametrize("n_obs", [1000, 40_000])
    def test_constant_node_is_named_on_either_path(self, n_obs):
        values = np.random.default_rng(7).standard_normal((n_obs, 5))
        values[:, 3] = 0.1
        ts = TimeSeries(values=values, dt=1.0)
        assert takes_blocked_pass(values, 4) == (n_obs == 40_000)
        with pytest.raises(DataError, match="node 3 has zero variance"):
            lagged_corrs(ts, 4)

    @pytest.mark.parametrize("n_obs", [997, 1000, 10_000])
    @pytest.mark.parametrize("level", [0.1, 1.0 / 3.0, 7.1])
    @pytest.mark.parametrize("dt_tau", [0.5, AUTO])
    def test_constant_node_left_with_roundoff_is_named(self, n_obs, level, dt_tau):
        # centering a constant without an exact binary form leaves roundoff,
        # which must not be ranked as correlation
        values = np.random.default_rng(6).standard_normal((n_obs, 3))
        values[:, 1] = level
        ts = TimeSeries(values=values, dt=0.5)
        with pytest.raises(DataError, match="node 1 has zero variance"):
            compute_pem(ts, "lc")
        with pytest.raises(DataError, match="node 1 has zero variance"):
            compute_pem(ts, "lccf", dt_tau=dt_tau, delta_hat=2)

    def test_stack_shape_and_lags(self):
        rng = np.random.default_rng(13)
        ts = TimeSeries(values=rng.standard_normal((300, 4)), dt=1.0)
        corrs = np.stack(lagged_corrs(ts, 3)[1])
        assert corrs.shape == (4, 4, 4)
        for k in range(4):
            assert np.array_equal(corrs[k], corr_reference(ts, k))

    def test_negative_max_lag(self):
        ts = TimeSeries(values=np.zeros((10, 2)), dt=1.0)
        with pytest.raises(ConfigurationError):
            lagged_corrs(ts, -1)


def corr_reference(ts, k):
    """Lag-k correlation formed one lag at a time: the reference for the stack."""
    x = centered(ts)
    scale = np.sqrt(np.diag(lag_product(x, 0)))
    return lag_product(x, k) / np.outer(scale, scale)


def per_lag_reference(ts, kind, dt_tau, delta_hat):
    """The corrected score as a loop over lags, one correlation pair at a time."""
    if dt_tau == AUTO:
        x = centered(ts)
        dt_tau = estimate_tau_inv(ts, [lag_product(x, 0), lag_product(x, 1)]).dt_tau
    alpha = (alpha_lccf if kind == "lccf" else alpha_lcrc)(dt_tau)
    best = None
    for lag in range(delta_hat + 1):
        f = corr_reference(ts, lag + 1) - alpha * corr_reference(ts, lag)
        best = f if best is None else np.maximum(best, f)
    return best


class TestLagStack:
    @pytest.fixture(scope="class")
    def ts(self):
        g = graph_with_cycle([(0, 1), (1, 2), (0, 3)], n=6)
        _, mats = normalize_adjacency(g)
        return simulate_sdd(mats, SDDParams(n_obs=2000), np.random.default_rng(31))

    @pytest.mark.parametrize("kind", ["lccf", "lcrc"])
    @pytest.mark.parametrize("delta_hat", [0, 5, 8])
    @pytest.mark.parametrize("dt_tau", [0.5, AUTO])
    def test_corrected_matches_per_lag_loop(self, ts, kind, delta_hat, dt_tau):
        got = compute_pem(ts, kind, dt_tau=dt_tau, delta_hat=delta_hat).values
        want = per_lag_reference(ts, kind, dt_tau, delta_hat)
        assert np.array_equal(off_diag(got), off_diag(want))

    def test_lc_matches_lag1_correlation(self, ts):
        want = corr_reference(ts, 1)
        assert np.array_equal(off_diag(compute_pem(ts, "lc").values), off_diag(want))

    @pytest.mark.parametrize("kind", ["lccf", "lcrc"])
    @pytest.mark.parametrize(
        "dt_tau, delta_hat, lags",
        [(0.5, 0, 2), (0.5, 5, 7), (0.5, 8, 10), (AUTO, 0, 2), (AUTO, 5, 7)],
    )
    def test_each_lag_computed_once(self, ts, monkeypatch, kind, dt_tau,
                                    delta_hat, lags):
        # one pass builds all the lags, the estimate's included
        count = []
        real = pemnet.pem.sample_lagged_cov

        def counting(series, k):
            count.append(k)
            return real(series, k)

        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov", counting)
        compute_pem(ts, kind, dt_tau=dt_tau, delta_hat=delta_hat)
        assert count == [lags - 1]

    @pytest.mark.parametrize("kind", ["lccf", "lcrc"])
    @pytest.mark.parametrize("delta_hat", [0, 5])
    def test_auto_estimates_once_on_one_centered_series(self, ts, monkeypatch, kind,
                                                        delta_hat):
        arrays, estimates = [], []
        real_cov, real_est = pemnet.pem.sample_lagged_cov, pemnet.pem.estimate_tau_inv

        def counting_cov(x, k):
            arrays.append(x)
            return real_cov(x, k)

        def counting_est(*args):
            estimates.append(args)
            return real_est(*args)

        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov", counting_cov)
        monkeypatch.setattr(pemnet.pem, "estimate_tau_inv", counting_est)
        compute_pem(ts, kind, dt_tau=AUTO, delta_hat=delta_hat)
        assert len(estimates) == 1
        assert len(arrays) == 1
        assert np.array_equal(arrays[0], centered(ts))

    @pytest.mark.parametrize("dt_tau", [0.5, AUTO])
    @pytest.mark.parametrize("delta_hat", [0, 5])
    @pytest.mark.parametrize("kind", ["lc", "lccf", "lcrc"])
    def test_long_series_matches_per_lag_loop(self, long_ts, kind, delta_hat, dt_tau):
        assert takes_blocked_pass(long_ts.values, delta_hat + 1)
        got = compute_pem(long_ts, kind, dt_tau=dt_tau, delta_hat=delta_hat)
        if kind == "lc":
            want = corr_reference(long_ts, 1)
        else:
            want = per_lag_reference(long_ts, kind, dt_tau, delta_hat)
        assert np.abs(off_diag(got.values) - off_diag(want)).max() < 1e-12

    @pytest.fixture(scope="class")
    def long_ts(self):
        rng = np.random.default_rng(32)
        config = GraphConfig(model="gnm", n=30, d_e=0.2, r_e=0.5, delta=5)
        graph = assign_lags(gen_graph_non_nilpotent(config, rng), 5, rng)
        _, mats = normalize_adjacency(graph)
        return simulate_sdd(mats, SDDParams(delta=5, n_obs=10_000), rng)

    def test_short_series_scores_the_lags_it_has(self):
        # N = 6 holds lags up to 4: lc scores, lccf at delta_hat = 5 needs lag 6
        values = np.random.default_rng(33).standard_normal((6, 3))
        got = compute_pems(TimeSeries(values=values, dt=1.0), ["lc", "lccf"], delta_hat=5)
        assert isinstance(got["lc"][0], PEMMatrix)
        assert isinstance(got["lccf"][0], DataError)
        assert str(got["lccf"][0]) == "lccf at delta_hat=5 reads lag 6: needs N >= 8, got N=6"

    def test_mixed_kinds_check_every_configuration_first(self, ts, monkeypatch):
        # a bad kind gets its own error; the good ones still share one pass,
        # and a call with no good kind makes none
        lags = []
        real = pemnet.pem.sample_lagged_cov
        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov",
                            lambda x, k: lags.append(k) or real(x, k))
        got = compute_pems(ts, ["lc", "bogus", "lcrc"], dt_tau=AUTO, delta_hat=2)
        assert list(got) == ["lc", "bogus", "lcrc"]
        assert isinstance(got["bogus"][0], ConfigurationError)
        assert isinstance(got["lc"][0], PEMMatrix) and isinstance(got["lcrc"][0], PEMMatrix)
        assert lags == [3]
        got = compute_pems(ts, ["bogus", "lccf"], dt_tau=1.5)
        assert all(isinstance(result, ConfigurationError) for result, _ in got.values())
        assert lags == [3]

    # delta_hat < 0 is refused for every kind; the lcrc cases keep their ids
    CONFIG_ERRORS = [(0.5, -1, kind) for kind in PEM_KINDS] + [(1.5, 0, "lcrc"),
                                                              (0.0, 3, "lcrc")]

    @pytest.mark.parametrize("dt_tau, delta_hat, kind", CONFIG_ERRORS, ids=[
        f"{z}-{d}" + ("" if kind == "lcrc" else f"-{kind}") for z, d, kind in CONFIG_ERRORS
    ])
    def test_configuration_errors_before_any_covariance(self, ts, monkeypatch,
                                                        dt_tau, delta_hat, kind):
        def failing(x, k):
            raise AssertionError("covariance computed before the configuration check")

        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov", failing)
        match = "delta_hat must be >= 0" if delta_hat < 0 else None
        with pytest.raises(ConfigurationError, match=match):
            compute_pem(ts, kind, dt_tau=dt_tau, delta_hat=delta_hat)

    @pytest.mark.parametrize("call, shown", [
        (lambda ts: compute_pem(ts, "lcrc", dt_tau="x"), "'x'"),
        (lambda ts: compute_pem(ts, "lccf", dt_tau=None), "None"),
        (lambda ts: compute_pem(ts, "lcrc", dt_tau=np.nan), "nan"),
        (lambda ts: alpha_lccf("0.5"), "'0.5'"),
        (lambda ts: alpha_lcrc(0.0), "0.0"),
    ], ids=["string", "none", "nan", "alpha-string", "alpha-zero"])
    def test_dt_tau_that_is_no_number_in_range_refused(self, ts, call, shown):
        # one check serves the measures and the motif layer; a string or None
        # once ended in a bare TypeError
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"dt/tau must lie in (0, 1], got {shown}")):
            call(ts)


class TestCentering:
    # the three workload shapes (N, n), and one with an odd N and n
    @pytest.mark.parametrize("shape", [(10_000, 30), (1000, 100), (1000, 10), (10_003, 7)])
    def test_lag_kernel_reads_values_minus_their_mean(self, monkeypatch, shape):
        # bit for bit: the einsum column sums add the rows in mean(axis=0)'s order
        rng = np.random.default_rng(shape[0] + shape[1])
        ts = TimeSeries(values=rng.standard_normal(shape) + rng.uniform(-100, 100, shape[1]),
                        dt=1.0)
        arrays = []
        real = pemnet.pem.sample_lagged_cov
        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov",
                            lambda x, k: arrays.append(x) or real(x, k))
        lagged_corrs(ts, 1)
        assert len(arrays) == 1
        assert np.array_equal(arrays[0], ts.values - ts.values.mean(axis=0))

    @pytest.fixture(scope="class")
    def series(self):
        # long enough for the blocked pass; the offsets make the mean's rounding matter
        g = graph_with_cycle([(0, 1), (1, 2), (0, 3)])
        _, mats = normalize_adjacency(g)
        ts = simulate_sdd(mats, SDDParams(n_obs=80_000), np.random.default_rng(34))
        return ts.values + np.array([3.0, -40.0, 0.5, 700.0, -2.0])

    @pytest.mark.parametrize("n_obs", [1000, 40_000])  # per-lag products, blocked pass
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_scores_do_not_depend_on_the_layout(self, series, n_obs, layout):
        if layout == "fortran":
            values = np.asfortranarray(series[:n_obs])
        else:
            values = series[: 2 * n_obs : 2]
        assert not values.flags.c_contiguous
        c_copy = np.ascontiguousarray(values)
        assert takes_blocked_pass(c_copy, 3) == (n_obs > 1000)
        kinds = ("lc", "lccf", "lcrc", "gc")
        got = compute_pems(TimeSeries(values=values, dt=1.0), kinds, AUTO, 2)
        want = compute_pems(TimeSeries(values=c_copy, dt=1.0), kinds, AUTO, 2)
        for kind in kinds:
            assert np.array_equal(got[kind][0].values, want[kind][0].values, equal_nan=True)
            assert got[kind][0].params == want[kind][0].params

    def test_series_stored_c_ordered_without_copying_c_input(self, series):
        assert TimeSeries(values=series, dt=1.0).values is series
        stored = TimeSeries(values=np.asfortranarray(series), dt=1.0).values
        assert stored.flags.c_contiguous and np.array_equal(stored, series)


class TestLagDepthsMustBeIntegers:
    @pytest.fixture(scope="class")
    def ts(self):
        return TimeSeries(values=np.random.default_rng(35).standard_normal((500, 4)), dt=1.0)

    @pytest.mark.parametrize("kind", PEM_KINDS)
    @pytest.mark.parametrize("delta_hat", [1.5, 0.5, 2.0])
    def test_delta_hat_refused_for_every_kind(self, ts, monkeypatch, kind, delta_hat):
        def failing(x, k):
            raise AssertionError("covariance computed before the delta_hat check")

        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov", failing)
        message = f"delta_hat must be an integer, got {delta_hat}"
        with pytest.raises(ConfigurationError, match=message):
            compute_pem(ts, kind, dt_tau=0.5, delta_hat=delta_hat)

    def test_bare_string_of_kinds_refused(self, ts):
        with pytest.raises(ConfigurationError, match=r"kinds must be a list, such as \['lc'\]"):
            compute_pems(ts, "lc")

    def test_each_kind_gets_the_error_as_its_result(self, ts):
        got = compute_pems(ts, ["lc", "gc", "bogus", "lcrc"], AUTO, 1.5)
        assert list(got) == ["lc", "gc", "bogus", "lcrc"]
        for result, seconds in got.values():
            assert isinstance(result, ConfigurationError) and seconds == 0.0
            assert str(result) == "delta_hat must be an integer, got 1.5"

    @pytest.mark.parametrize("call, message", [
        (lambda ts: lagged_corrs(ts, 1.5), "k_max must be an integer, got 1.5"),
        (lambda ts: sample_lagged_cov(centered(ts), 2.0), "k_max must be an integer, got 2.0"),
        (lambda ts: pem_gc(ts, p_hat=1.5), "p_hat must be an integer, got 1.5"),
        (lambda ts: pem_gc(ts, p_hat=0), "p_hat must be >= 1, got 0"),
    ], ids=["lagged_corrs", "sample_lagged_cov", "pem_gc", "pem_gc-zero"])
    def test_kernel_depths_refused(self, ts, call, message):
        with pytest.raises(ConfigurationError, match=message):
            call(ts)

    def test_numpy_integers_pass(self, ts):
        for kind in PEM_KINDS:
            got = compute_pem(ts, kind, dt_tau=0.5, delta_hat=np.int64(2)).values
            assert np.array_equal(got, compute_pem(ts, kind, dt_tau=0.5, delta_hat=2).values,
                                  equal_nan=True)
        assert np.array_equal(lagged_corrs(ts, np.int32(2))[0], lagged_corrs(ts, 2)[0])


class TestCorrectionFactors:
    def test_boundary_at_one(self):
        assert alpha_lccf(1.0) == 0.0
        assert alpha_lcrc(1.0) == 0.0

    def test_half_values(self):
        assert alpha_lccf(0.5) == pytest.approx(0.8, rel=1e-14)
        assert alpha_lcrc(0.5) == pytest.approx(0.5, rel=1e-14)

    def test_match_contribution_ratios_for_any_coupling(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            z = rng.uniform(0.01, 1.0)
            eps = rng.uniform(0.05, 2.0)
            assert abs(
                alpha_lccf(z) - alpha_from_contributions("lccf", z, eps)
            ) < 1e-12
            assert abs(
                alpha_lcrc(z) - alpha_from_contributions("lcrc", z, eps)
            ) < 1e-12

    def test_ordering_and_range(self):
        for z in np.arange(0.05, 1.0, 0.05):
            a_cf, a_rc = alpha_lccf(z), alpha_lcrc(z)
            assert 0.0 <= a_rc < a_cf <= 1.0

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            alpha_lccf(0.0)
        with pytest.raises(ConfigurationError):
            alpha_lcrc(1.2)


class TestPemLc:
    def test_white_noise_scores_near_zero(self):
        rng = np.random.default_rng(6)
        ts = TimeSeries(values=rng.standard_normal((100_000, 4)), dt=1.0)
        pem = compute_pem(ts, "lc")
        assert np.abs(off_diag(pem.values)).max() < 4.0 / np.sqrt(ts.n_obs)
        assert np.isnan(np.diag(pem.values)).all()

    def test_chain_edge_outranks_non_edges(self):
        g = graph_with_cycle([(0, 1)])
        _, mats = normalize_adjacency(g)
        wins = 0
        for seed in range(100):
            ts = simulate_sdd(mats, SDDParams(), np.random.default_rng(seed))
            values = compute_pem(ts, "lc").values
            edge_score = values[1, 0]
            non_edges = [
                values[i, j]
                for i in range(5) for j in range(5)
                if i != j and not g.has_edge(j, i) and (i, j) != (1, 0)
            ]
            wins += edge_score > max(non_edges)
        assert wins >= 90

    def test_reciprocal_graph_gives_symmetric_scores(self):
        pairs = ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0))
        _, mats = normalize_adjacency(DirectedGraph(3, pairs))
        ts = simulate_sdd(mats, SDDParams(n_obs=50_000), np.random.default_rng(7))
        values = compute_pem(ts, "lc").values
        asym = np.nanmax(np.abs(values - values.T))
        assert asym < 10.0 / np.sqrt(ts.n_obs)


class TestPemCorrected:
    def test_lccf_at_unit_dt_tau_equals_lc(self):
        ts = simulate_sdd(ring_mats(), SDDParams(dt=1.0, tau=1.0), np.random.default_rng(8))
        a = compute_pem(ts, "lccf", dt_tau=1.0, delta_hat=0).values
        b = compute_pem(ts, "lc").values
        assert np.array_equal(off_diag(a), off_diag(b))

    def test_lccf_differs_from_lc_by_alpha_r0(self):
        ts = simulate_sdd(ring_mats(), SDDParams(), np.random.default_rng(9))
        alpha = alpha_lccf(0.5)
        got = compute_pem(ts, "lccf", dt_tau=0.5, delta_hat=0).values
        want = compute_pem(ts, "lc").values - alpha * lagged_corrs(ts, 0)[1][0]
        assert np.abs(off_diag(got) - off_diag(want)).max() < 1e-14

    def test_lcrc_equals_lccf_at_unit_dt_tau(self):
        ts = simulate_sdd(ring_mats(), SDDParams(dt=1.0, tau=1.0), np.random.default_rng(10))
        a = compute_pem(ts, "lcrc", dt_tau=1.0).values
        b = compute_pem(ts, "lccf", dt_tau=1.0).values
        assert np.array_equal(off_diag(a), off_diag(b))

    def test_confounder_score_is_reduced(self):
        # shared driver 0 -> 1 and 0 -> 2 without a 1-2 edge: the lag-0
        # correlation it induces is subtracted, so lccf < lc on that pair
        g = graph_with_cycle([(0, 1), (0, 2)])
        _, mats = normalize_adjacency(g)
        reduced = 0
        for seed in range(100):
            ts = simulate_sdd(mats, SDDParams(), np.random.default_rng(200 + seed))
            lc_score = compute_pem(ts, "lc").values[2, 1]
            lccf_score = compute_pem(ts, "lccf", dt_tau=0.5).values[2, 1]
            reduced += lccf_score < lc_score
        assert reduced >= 95

    def test_reverse_direction_suppressed(self):
        g = graph_with_cycle([(0, 1)])
        _, mats = normalize_adjacency(g)
        correct = 0
        for seed in range(100):
            ts = simulate_sdd(mats, SDDParams(dt=0.2), np.random.default_rng(400 + seed))
            values = compute_pem(ts, "lcrc", dt_tau=0.2).values
            correct += values[1, 0] > values[0, 1]
        assert correct >= 95

    def test_delta_hat_monotonicity_is_exact(self):
        g = graph_with_cycle([(0, 1), (1, 2)])
        _, mats = normalize_adjacency(g)
        ts = simulate_sdd(mats, SDDParams(), np.random.default_rng(11))
        prev = compute_pem(ts, "lcrc", dt_tau=0.5, delta_hat=0).values
        for delta_hat in (1, 2, 3):
            cur = compute_pem(ts, "lcrc", dt_tau=0.5, delta_hat=delta_hat).values
            assert (off_diag(cur) >= off_diag(prev)).all()
            prev = cur

    def test_auto_mode_records_estimate(self):
        ts = simulate_sdd(ring_mats(), SDDParams(n_obs=5000), np.random.default_rng(12))
        pem = compute_pem(ts, "lcrc", dt_tau=AUTO)
        assert abs(pem.params["dt_tau"] - 0.5) < 0.1

    def test_auto_failure_asks_for_explicit_value(self):
        # duplicated node makes the lag-0 covariance exactly singular
        base = np.random.default_rng(20).standard_normal((200, 2))
        ts = TimeSeries(values=np.column_stack([base, base[:, 0]]), dt=0.5)
        with pytest.raises(DataError, match="pass dt_tau explicitly"):
            compute_pem(ts, "lcrc", dt_tau=AUTO)


class TestEstimateTauInv:
    def test_population_identity_without_self_loops(self):
        # diag(S1 S0^{-1}) = diag(K) = 1 - dt/tau when A has a zero diagonal
        a = ring_mats(4)[0]
        k_mat = 0.5 * np.eye(4) + 0.5 * 0.9 * a
        s0 = solve_discrete_lyapunov(k_mat, 0.01 * np.eye(4))
        m = (k_mat @ s0) @ np.linalg.inv(s0)
        assert_allclose(np.diag(m), 0.5, rtol=1e-10)

    def test_uncoupled_estimate(self):
        estimates = [
            estimate_tau_inv(
                simulate_sdd(zero_mats(), SDDParams(n_obs=10_000), np.random.default_rng(s))
            ).tau_inv
            for s in range(5)
        ]
        assert abs(np.mean(estimates) - 1.0) < 0.1

    def test_slower_time_scale(self):
        estimates = [
            estimate_tau_inv(
                simulate_sdd(ring_mats(), SDDParams(tau=2.0, n_obs=10_000),
                             np.random.default_rng(s))
            ).tau_inv
            for s in range(5)
        ]
        assert abs(np.mean(estimates) - 0.5) < 0.05

    def test_clamping_flag(self):
        # anti-correlated consecutive samples push the raw estimate above 1
        rng = np.random.default_rng(13)
        noise = rng.standard_normal((4000, 3))
        values = np.empty((4000, 3))
        values[0] = noise[0]
        for t in range(1, 4000):
            values[t] = -0.5 * values[t - 1] + noise[t]
        est = estimate_tau_inv(TimeSeries(values=values, dt=0.5))
        assert est.clamped
        assert est.dt_tau == 1.0

    @pytest.mark.parametrize("k_max", [1, 6])
    def test_precomputed_stack_gives_identical_estimate(self, k_max):
        g = graph_with_cycle([(0, 1), (1, 2)])
        _, mats = normalize_adjacency(g)
        ts = simulate_sdd(mats, SDDParams(n_obs=3000), np.random.default_rng(16))
        stack = sample_lagged_cov(centered(ts), k_max)
        assert estimate_tau_inv(ts, stack) == estimate_tau_inv(ts)

    def test_needs_enough_rows(self):
        ts = TimeSeries(values=np.random.default_rng(14).standard_normal((4, 3)),
                        dt=1.0)
        with pytest.raises(DataError):
            estimate_tau_inv(ts)


class TestPemGc:
    def test_null_pairs_have_small_positive_bias(self):
        rng = np.random.default_rng(15)
        ts = TimeSeries(values=rng.standard_normal((10_000, 2)), dt=1.0)
        pem = pem_gc(ts, p_hat=1)
        vals = off_diag(pem.values)
        assert (vals >= 0.0).all()
        assert vals.max() < 50.0 / ts.n_obs

    def test_chain_direction_recovered(self):
        g = graph_with_cycle([(0, 1)], n=4)
        _, mats = normalize_adjacency(g)
        params = SDDParams(dt=1.0, tau=1.0, n_obs=10_000)
        correct = 0
        for seed in range(100):
            ts = simulate_sdd(mats, params, np.random.default_rng(600 + seed))
            values = pem_gc(ts, p_hat=1).values
            correct += values[1, 0] > values[0, 1]
        assert correct >= 99

    def test_entries_nonnegative_on_arbitrary_data(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            ts = TimeSeries(values=rng.standard_normal((400, 5)), dt=1.0)
            assert (off_diag(pem_gc(ts, p_hat=2).values) >= 0.0).all()

    def test_needs_enough_data(self):
        ts = TimeSeries(values=np.random.default_rng(17).standard_normal((12, 2)),
                        dt=1.0)
        with pytest.raises(DataError):
            pem_gc(ts, p_hat=2)


def scored_with_lc(ts, kind, delta_hat):
    """kind's result from one compute_pems call over lc, lccf and lcrc; an
    error is raised."""
    result = compute_pems(ts, ["lc", "lccf", "lcrc"], AUTO, delta_hat)[kind][0]
    if isinstance(result, PemnetError):
        raise result
    return result


class TestRowRule:
    # each statistic names the rows it reads; message None: the series scores
    # with no flag
    @pytest.mark.parametrize("n_obs, call, message", [
        pytest.param(3, lambda ts: sample_lagged_cov(centered(ts), 5),
                     "sample_lagged_cov at k_max=5 needs N >= 7, got N=3",
                     id="sample_lagged_cov"),
        *[pytest.param(500, lambda ts, kind=kind: scored_with_lc(ts, kind, 600), message,
                       id=f"compute_pems-{kind}")
          for kind, message in [
              ("lc", None),
              ("lccf", "lccf at delta_hat=600 reads lag 601: needs N >= 603, got N=500"),
              ("lcrc", "lcrc at delta_hat=600 reads lag 601: needs N >= 603, got N=500")]],
        pytest.param(4, estimate_tau_inv, "estimate_tau_inv at n=3 needs N >= 5, got N=4",
                     id="estimate_tau_inv"),
        *[pytest.param(n_obs, lambda ts, p_hat=p_hat: pem_gc(ts, p_hat), message,
                       id=f"pem_gc-p{p_hat}-N{n_obs}")
          for p_hat in (1, 20)
          for n_obs, message in [
              (3 * p_hat + 9,
               f"gc at p_hat={p_hat} needs N >= {3 * p_hat + 10}, got N={3 * p_hat + 9}"),
              (3 * p_hat + 10, None)]],
    ])
    def test_each_statistic_states_its_rows(self, n_obs, call, message):
        ts = TimeSeries(values=np.random.default_rng(34).standard_normal((n_obs, 3)),
                        dt=1.0)
        if message is None:
            pem = call(ts)
            assert isinstance(pem, PEMMatrix) and pem.flags == ()
        else:
            with pytest.raises(DataError) as info:
                call(ts)
            assert str(info.value) == message


class TestInvariances:
    def make_ts(self, n_obs=2000, seed=18):
        g = graph_with_cycle([(0, 1), (1, 2), (3, 0)])
        _, mats = normalize_adjacency(g)
        return simulate_sdd(mats, SDDParams(n_obs=n_obs), np.random.default_rng(seed))

    def test_scale_invariance(self):
        ts = self.make_ts()
        scaled = TimeSeries(values=537.2 * ts.values, dt=ts.dt)
        for kind in ("lc", "lccf", "lcrc", "gc"):
            a = compute_pem(ts, kind, dt_tau=0.5, delta_hat=1).values
            b = compute_pem(scaled, kind, dt_tau=0.5, delta_hat=1).values
            assert np.abs(off_diag(a) - off_diag(b)).max() < 1e-10

    def test_relabeling_invariance(self):
        ts = self.make_ts()
        perm = np.array([3, 0, 4, 1, 2])
        permuted = TimeSeries(values=ts.values[:, perm], dt=ts.dt)
        for kind in ("lc", "lccf", "lcrc", "gc"):
            a = compute_pem(ts, kind, dt_tau=0.5, delta_hat=1).values
            b = compute_pem(permuted, kind, dt_tau=0.5, delta_hat=1).values
            assert np.allclose(
                off_diag(b), off_diag(a[np.ix_(perm, perm)]), atol=1e-10,
                equal_nan=True,
            )


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ts = simulate_sdd(ring_mats(), SDDParams(), np.random.default_rng(19))
        pem = compute_pem(ts, "lcrc", dt_tau=0.5, delta_hat=2)
        path = tmp_path / "pem.txt"
        save_pem(pem, str(path))
        loaded = load_pem(str(path))
        assert loaded.kind == "lcrc"
        assert loaded.params["delta_hat"] == 2
        assert np.array_equal(off_diag(loaded.values), off_diag(pem.values))
        assert np.isnan(np.diag(loaded.values)).all()
        rows = path.read_text().splitlines()[1:]
        assert rows == [" ".join(f"{v:.17g}" for v in row) for row in pem.values]

    def test_rejects_incoherent_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a pem file\n")
        with pytest.raises(Exception):
            load_pem(str(path))

    @pytest.mark.parametrize("lines, lineno", [
        ("pem lc 2\nnan 0.5\nx nan\n", 3),
        ("pem lc 2\n\nnan 0.5\n\nx nan\n", 5),
    ], ids=["plain", "blank-lines"])
    def test_bad_float_names_physical_line(self, tmp_path, lines, lineno):
        path = tmp_path / "bad.txt"
        path.write_text(lines)
        with pytest.raises(FileFormatError, match=rf"bad\.txt:{lineno}: bad float"):
            load_pem(str(path))

    @pytest.mark.parametrize("lines, message", [
        ("pem lc 2\nnan 0.5\n", "header claims 2 rows, found 1"),
        ("pem lc 2\nnan 0.5\n\n0.5\n", ":4: expected 2 values, got 1"),
        ("pem lc 2\n\nnan 0.5 1\n0.5 nan\n", ":3: expected 2 values, got 3"),
        ("pem lc 2\nnan 0.5 1\n0.5 nan 1\n", ":2: expected 2 values, got 3"),
    ], ids=["count", "short-after-blank", "long-after-blank", "every-row-wide"])
    def test_bad_row_names_its_line(self, tmp_path, lines, message):
        path = tmp_path / "bad.txt"
        path.write_text(lines)
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_pem(str(path))

    @pytest.mark.parametrize("header", ["pem lc x", "pem lc"])
    def test_bad_header_names_its_line(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"\n{header}\nnan 0.5\n0.5 nan\n")
        with pytest.raises(FileFormatError, match=re.escape(f":2: bad header {header!r}")):
            load_pem(str(path))

    def test_header_value_of_no_number_stays_a_string(self, tmp_path):
        path = tmp_path / "pem.txt"
        path.write_text("pem lcrc 2 delta_hat=2 dt_tau=0.5 note=auto\nnan 0.5\n0.5 nan\n")
        assert load_pem(str(path)).params == {"delta_hat": 2, "dt_tau": 0.5, "note": "auto"}

    def test_reads_tokens_only_float_takes(self, tmp_path):
        # numpy's parser refuses 1_000; the token-by-token pass reads it
        path = tmp_path / "pem.txt"
        path.write_text("pem lc 2\nnan 1_000\n-2 nan\n")
        assert np.array_equal(load_pem(str(path)).values, [[np.nan, 1000.0], [-2.0, np.nan]],
                              equal_nan=True)

    @pytest.mark.parametrize("shape", [(2, 3), (3,)])
    def test_matrix_must_be_square(self, shape):
        with pytest.raises(DataError, match="must be square"):
            PEMMatrix(np.zeros(shape), "lc")

    def test_matrix_requires_finite_off_diagonal(self):
        values = np.zeros((3, 3))
        values[0, 1] = np.nan
        with pytest.raises(DataError):
            PEMMatrix(values, "lc")
