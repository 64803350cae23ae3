import numpy as np
import pytest
from numpy.testing import assert_allclose

from pemnet.dynamics import SDDParams, TimeSeries, simulate_sdd
from pemnet.errors import ConfigurationError, DataError, FileFormatError
from pemnet.graphs import DirectedGraph, normalize_adjacency
from pemnet.numerics import solve_discrete_lyapunov
import pemnet.pem
from pemnet.pem import (
    AUTO,
    PEMMatrix,
    alpha_from_contributions,
    alpha_lccf,
    alpha_lcrc,
    compute_pem,
    estimate_tau_inv,
    load_pem,
    pem_gc,
    pem_lc,
    pem_lccf,
    pem_lcrc,
    sample_lagged_corrs,
    sample_lagged_cov,
    save_pem,
)


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


def graph_with_cycle(extra_pairs, n=5):
    # embeds directed pairs beside a 2-cycle so the adjacency is not nilpotent
    pairs = tuple(extra_pairs) + ((n - 2, n - 1), (n - 1, n - 2))
    return DirectedGraph(n, pairs)


class TestSampleLaggedCov:
    def test_constant_series_is_zero(self):
        ts = TimeSeries(values=np.full((100, 3), 7.0), dt=1.0)
        assert_allclose(sample_lagged_cov(centered(ts), 0), 0.0, atol=1e-12)

    def test_iid_noise_identity(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries(values=rng.standard_normal((100_000, 4)), dt=1.0)
        s0 = sample_lagged_cov(centered(ts), 0)
        bound = 4.0 / np.sqrt(ts.n_obs)
        assert np.abs(np.diag(s0) - 1.0).max() < bound
        assert np.abs(off_diag(s0)).max() < bound
        assert np.array_equal(s0, s0.T)

    def test_lag1_matches_one_step_update(self):
        params = SDDParams(n_obs=200_000, seed=1)
        ts = simulate_sdd(ring_mats(), params)
        s0 = sample_lagged_cov(centered(ts), 0)
        s1 = sample_lagged_cov(centered(ts), 1)
        k_mat = 0.5 * np.eye(3) + 0.5 * 0.9 * ring_mats()[0]
        expected = k_mat @ s0
        scale = np.abs(expected).max()
        assert np.abs(s1 - expected).max() / scale < 0.05

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            sample_lagged_cov(np.zeros((5, 2)), 4)


class TestSampleLaggedCorr:
    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(2)
        ts = TimeSeries(values=rng.standard_normal((500, 4)), dt=1.0)
        assert_allclose(np.diag(sample_lagged_corrs(ts, 0)[0]), 1.0, rtol=1e-14)

    def test_lag0_symmetry(self):
        rng = np.random.default_rng(3)
        ts = TimeSeries(values=rng.standard_normal((500, 4)), dt=1.0)
        r0 = sample_lagged_corrs(ts, 0)[0]
        assert np.abs(r0 - r0.T).max() < 1e-14

    def test_memoryful_autocorrelation(self):
        params = SDDParams(n_obs=100_000, seed=4)  # dt_tau = 0.5
        ts = simulate_sdd(zero_mats(), params)
        r1 = sample_lagged_corrs(ts, 1)[1]
        assert np.abs(np.diag(r1) - 0.5).max() < 4.0 / np.sqrt(ts.n_obs)

    def test_zero_variance_names_node(self):
        values = np.random.default_rng(5).standard_normal((100, 3))
        values[:, 1] = 2.5
        ts = TimeSeries(values=values, dt=1.0)
        with pytest.raises(DataError, match="node 1"):
            sample_lagged_corrs(ts, 0)

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
            pem_lc(ts)
        with pytest.raises(DataError, match="node 1 has zero variance"):
            pem_lccf(ts, dt_tau=dt_tau, delta_hat=2)

    def test_stack_shape_and_lags(self):
        rng = np.random.default_rng(13)
        ts = TimeSeries(values=rng.standard_normal((300, 4)), dt=1.0)
        corrs = sample_lagged_corrs(ts, 3)
        assert corrs.shape == (4, 4, 4)
        for k in range(4):
            assert np.array_equal(corrs[k], corr_reference(ts, k))

    def test_negative_max_lag(self):
        ts = TimeSeries(values=np.zeros((10, 2)), dt=1.0)
        with pytest.raises(ConfigurationError):
            sample_lagged_corrs(ts, -1)


def corr_reference(ts, k):
    """Lag-k correlation formed one lag at a time: the reference for the stack."""
    x = centered(ts)
    scale = np.sqrt(np.diag(sample_lagged_cov(x, 0)))
    return sample_lagged_cov(x, k) / np.outer(scale, scale)


def per_lag_reference(ts, kind, dt_tau, delta_hat):
    """The corrected score as a loop over lags, one correlation pair at a time."""
    z = estimate_tau_inv(ts).dt_tau if dt_tau == AUTO else dt_tau
    alpha = (alpha_lccf if kind == "lccf" else alpha_lcrc)(z).alpha
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
        return simulate_sdd(mats, SDDParams(n_obs=2000, seed=31))

    @pytest.mark.parametrize("kind", ["lccf", "lcrc"])
    @pytest.mark.parametrize("delta_hat", [0, 5, 8])
    @pytest.mark.parametrize("dt_tau", [0.5, AUTO])
    def test_corrected_matches_per_lag_loop(self, ts, kind, delta_hat, dt_tau):
        got = compute_pem(ts, kind, dt_tau=dt_tau, delta_hat=delta_hat).values
        want = per_lag_reference(ts, kind, dt_tau, delta_hat)
        assert np.array_equal(off_diag(got), off_diag(want))

    def test_lc_matches_lag1_correlation(self, ts):
        want = corr_reference(ts, 1)
        assert np.array_equal(off_diag(pem_lc(ts).values), off_diag(want))

    @pytest.mark.parametrize("kind", ["lccf", "lcrc"])
    @pytest.mark.parametrize(
        "dt_tau, delta_hat, calls",
        [(0.5, 0, 2), (0.5, 5, 7), (0.5, 8, 10), (AUTO, 0, 2), (AUTO, 5, 7)],
    )
    def test_each_lag_computed_once(self, ts, monkeypatch, kind, dt_tau,
                                    delta_hat, calls):
        count = []
        real = pemnet.pem.sample_lagged_cov

        def counting(series, k):
            count.append(k)
            return real(series, k)

        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov", counting)
        compute_pem(ts, kind, dt_tau=dt_tau, delta_hat=delta_hat)
        assert len(count) == calls

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
        assert len(arrays) == delta_hat + 2
        assert all(x is arrays[0] for x in arrays)
        assert np.array_equal(arrays[0], centered(ts))

    @pytest.mark.parametrize("dt_tau, delta_hat", [(0.5, -1), (1.5, 0), (0.0, 3)])
    def test_configuration_errors_before_any_covariance(self, ts, monkeypatch,
                                                        dt_tau, delta_hat):
        def failing(x, k):
            raise AssertionError("covariance computed before the configuration check")

        monkeypatch.setattr(pemnet.pem, "sample_lagged_cov", failing)
        with pytest.raises(ConfigurationError):
            compute_pem(ts, "lcrc", dt_tau=dt_tau, delta_hat=delta_hat)


class TestCorrectionFactors:
    def test_boundary_at_one(self):
        assert alpha_lccf(1.0).alpha == 0.0
        assert alpha_lcrc(1.0).alpha == 0.0

    def test_half_values(self):
        assert alpha_lccf(0.5).alpha == pytest.approx(0.8, rel=1e-14)
        assert alpha_lcrc(0.5).alpha == pytest.approx(0.5, rel=1e-14)

    def test_match_contribution_ratios_for_any_coupling(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            z = rng.uniform(0.01, 1.0)
            eps = rng.uniform(0.05, 2.0)
            assert abs(
                alpha_lccf(z).alpha - alpha_from_contributions("lccf", z, eps)
            ) < 1e-12
            assert abs(
                alpha_lcrc(z).alpha - alpha_from_contributions("lcrc", z, eps)
            ) < 1e-12

    def test_ordering_and_range(self):
        for z in np.arange(0.05, 1.0, 0.05):
            a_cf, a_rc = alpha_lccf(z).alpha, alpha_lcrc(z).alpha
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
        pem = pem_lc(ts)
        assert np.abs(off_diag(pem.values)).max() < 4.0 / np.sqrt(ts.n_obs)
        assert np.isnan(np.diag(pem.values)).all()

    def test_chain_edge_outranks_non_edges(self):
        g = graph_with_cycle([(0, 1)])
        _, mats = normalize_adjacency(g)
        wins = 0
        for seed in range(100):
            ts = simulate_sdd(mats, SDDParams(seed=seed))
            values = pem_lc(ts).values
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
        ts = simulate_sdd(mats, SDDParams(n_obs=50_000, seed=7))
        values = pem_lc(ts).values
        asym = np.nanmax(np.abs(values - values.T))
        assert asym < 10.0 / np.sqrt(ts.n_obs)


class TestPemCorrected:
    def test_lccf_at_unit_dt_tau_equals_lc(self):
        ts = simulate_sdd(ring_mats(), SDDParams(dt=1.0, tau=1.0, seed=8))
        a = pem_lccf(ts, dt_tau=1.0, delta_hat=0).values
        b = pem_lc(ts).values
        assert np.array_equal(off_diag(a), off_diag(b))

    def test_lccf_differs_from_lc_by_alpha_r0(self):
        ts = simulate_sdd(ring_mats(), SDDParams(seed=9))
        alpha = alpha_lccf(0.5).alpha
        got = pem_lccf(ts, dt_tau=0.5, delta_hat=0).values
        want = pem_lc(ts).values - alpha * sample_lagged_corrs(ts, 0)[0]
        assert np.abs(off_diag(got) - off_diag(want)).max() < 1e-14

    def test_lcrc_equals_lccf_at_unit_dt_tau(self):
        ts = simulate_sdd(ring_mats(), SDDParams(dt=1.0, tau=1.0, seed=10))
        a = pem_lcrc(ts, dt_tau=1.0).values
        b = pem_lccf(ts, dt_tau=1.0).values
        assert np.array_equal(off_diag(a), off_diag(b))

    def test_confounder_score_is_reduced(self):
        # shared driver 0 -> 1 and 0 -> 2 without a 1-2 edge: the lag-0
        # correlation it induces is subtracted, so lccf < lc on that pair
        g = graph_with_cycle([(0, 1), (0, 2)])
        _, mats = normalize_adjacency(g)
        reduced = 0
        for seed in range(100):
            ts = simulate_sdd(mats, SDDParams(seed=200 + seed))
            lc_score = pem_lc(ts).values[2, 1]
            lccf_score = pem_lccf(ts, dt_tau=0.5).values[2, 1]
            reduced += lccf_score < lc_score
        assert reduced >= 95

    def test_reverse_direction_suppressed(self):
        g = graph_with_cycle([(0, 1)])
        _, mats = normalize_adjacency(g)
        correct = 0
        for seed in range(100):
            ts = simulate_sdd(mats, SDDParams(dt=0.2, seed=400 + seed))
            values = pem_lcrc(ts, dt_tau=0.2).values
            correct += values[1, 0] > values[0, 1]
        assert correct >= 95

    def test_delta_hat_monotonicity_is_exact(self):
        g = graph_with_cycle([(0, 1), (1, 2)])
        _, mats = normalize_adjacency(g)
        ts = simulate_sdd(mats, SDDParams(seed=11))
        prev = pem_lcrc(ts, dt_tau=0.5, delta_hat=0).values
        for delta_hat in (1, 2, 3):
            cur = pem_lcrc(ts, dt_tau=0.5, delta_hat=delta_hat).values
            assert (off_diag(cur) >= off_diag(prev)).all()
            prev = cur

    def test_auto_mode_records_estimate(self):
        ts = simulate_sdd(ring_mats(), SDDParams(n_obs=5000, seed=12))
        pem = pem_lcrc(ts, dt_tau=AUTO)
        assert abs(pem.params["dt_tau"] - 0.5) < 0.1

    def test_auto_failure_asks_for_explicit_value(self):
        # duplicated node makes the lag-0 covariance exactly singular
        base = np.random.default_rng(20).standard_normal((200, 2))
        ts = TimeSeries(values=np.column_stack([base, base[:, 0]]), dt=0.5)
        with pytest.raises(DataError, match="pass dt_tau explicitly"):
            pem_lcrc(ts, dt_tau=AUTO)


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
                simulate_sdd(zero_mats(), SDDParams(n_obs=10_000, seed=s))
            ).tau_inv
            for s in range(5)
        ]
        assert abs(np.mean(estimates) - 1.0) < 0.1

    def test_slower_time_scale(self):
        estimates = [
            estimate_tau_inv(
                simulate_sdd(ring_mats(), SDDParams(tau=2.0, n_obs=10_000, seed=s))
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
        ts = simulate_sdd(mats, SDDParams(n_obs=3000, seed=16))
        x = centered(ts)
        stack = np.stack([sample_lagged_cov(x, k) for k in range(k_max + 1)])
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
            ts = simulate_sdd(mats, params.with_(seed=600 + seed))
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


class TestInvariances:
    def make_ts(self, n_obs=2000, seed=18):
        g = graph_with_cycle([(0, 1), (1, 2), (3, 0)])
        _, mats = normalize_adjacency(g)
        return simulate_sdd(mats, SDDParams(n_obs=n_obs, seed=seed))

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
        ts = simulate_sdd(ring_mats(), SDDParams(seed=19))
        pem = pem_lcrc(ts, dt_tau=0.5, delta_hat=2)
        path = tmp_path / "pem.txt"
        save_pem(pem, str(path))
        loaded = load_pem(str(path))
        assert loaded.kind == "lcrc"
        assert loaded.params["delta_hat"] == 2
        assert np.array_equal(off_diag(loaded.values), off_diag(pem.values))
        assert np.isnan(np.diag(loaded.values)).all()

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

    def test_matrix_requires_finite_off_diagonal(self):
        values = np.zeros((3, 3))
        values[0, 1] = np.nan
        with pytest.raises(DataError):
            PEMMatrix(values, "lc")
