from contextlib import nullcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pemnet.dynamics
from pemnet import _sdd_py, numerics
from pemnet._sdd_py import sdd_recurrence as python_kernel
from pemnet.dynamics import (
    SDDParams,
    TimeSeries,
    add_measurement_noise,
    load_time_series,
    save_time_series,
    simulate_sdd,
    step_matrices,
)
from pemnet.errors import ConfigurationError, DataError, FileFormatError, StabilityError
from pemnet.graphs import (
    DirectedGraph,
    GraphConfig,
    assign_lags,
    gen_graph_non_nilpotent,
    normalize_adjacency,
)
from pemnet.numerics import solve_discrete_lyapunov, spectral_radius


def ring_mats(n=3):
    a = np.zeros((n, n))
    for i in range(n):
        a[(i + 1) % n, i] = 1.0
    return [a]


def zero_mats(n=3):
    return [np.zeros((n, n))]


def per_lag_recurrence(w, noise):
    """The numpy kernel's former loop: one product per lag, first step apart."""
    p = w.shape[0]
    t_total, n = noise.shape
    x = np.zeros((t_total, n))
    for t in range(t_total):
        if t == 0:
            x[0] = noise[0]
            continue
        acc = noise[t] + w[0] @ x[t - 1]
        for k in range(2, min(p, t) + 1):
            acc += w[k - 1] @ x[t - k]
        x[t] = acc
    return x


def per_step_recurrence(w, noise):
    """The numpy kernel's per-step loop: one block-row product per step."""
    p = w.shape[0]
    t_total, n = noise.shape
    w_rev = np.hstack(w[::-1])
    x = np.zeros((p + t_total, n))
    for t in range(t_total):
        x[p + t] = noise[t] + w_rev @ x[t : t + p].ravel()
    return x[p:]


def assert_blocked_matches(got, ref):
    """Blocked sums change the order of additions: agree to 1e-12 * max|x|."""
    assert got.shape == ref.shape
    assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def lag1_autocorr(values):
    x = values - values.mean(axis=0)
    num = (x[1:] * x[:-1]).sum(axis=0)
    den = (x * x).sum(axis=0)
    return num / den


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SDDParams(tau=0.0)
        with pytest.raises(ConfigurationError):
            SDDParams(sigma=-1.0)
        with pytest.raises(ConfigurationError):
            SDDParams(n_obs=1)

    @pytest.mark.parametrize("name", ["eps", "tau", "dt", "sigma", "eta", "burn_in"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            SDDParams(**{name: value})

    def test_burn_in_default_is_twenty_tau(self):
        assert SDDParams(tau=2.0).burn_in_time == 40.0
        assert SDDParams(tau=2.0, burn_in=5.0).burn_in_time == 5.0

    def test_dt_tau_above_one_warns(self):
        with pytest.warns(UserWarning, match="outside the studied regime"):
            simulate_sdd(zero_mats(), SDDParams(dt=1.5, tau=1.0, n_obs=10, seed=0))


class TestSimulate:
    def test_deterministic_given_seed(self):
        params = SDDParams(n_obs=500, seed=99)
        a = simulate_sdd(ring_mats(), params)
        b = simulate_sdd(ring_mats(), params)
        assert np.array_equal(a.values, b.values)

    def test_memoryless_case_white(self):
        # no coupling and dt = tau: samples are i.i.d. Gaussian
        params = SDDParams(dt=1.0, tau=1.0, n_obs=50_000, seed=1)
        ts = simulate_sdd(zero_mats(), params)
        assert np.abs(lag1_autocorr(ts.values)).max() < 4.0 / np.sqrt(ts.n_obs)

    def test_scalar_ar_autocorrelation(self):
        # no coupling, dt/tau = 0.5: per-node autocorrelation at lag k is 0.5^k
        params = SDDParams(dt=0.5, tau=1.0, n_obs=100_000, seed=2)
        ts = simulate_sdd(zero_mats(), params)
        x = ts.values - ts.values.mean(axis=0)
        den = (x * x).sum(axis=0)
        for k in (1, 2, 3):
            rk = (x[k:] * x[:-k]).sum(axis=0) / den
            assert np.abs(rk - 0.5**k).max() < 4.0 / np.sqrt(ts.n_obs)

    def test_covariance_matches_lyapunov_oracle(self):
        params = SDDParams(n_obs=200_000, seed=3)  # defaults: eps .9, dt .5
        ts = simulate_sdd(ring_mats(), params)
        x = ts.values - ts.values.mean(axis=0)
        sample_cov = x.T @ x / (ts.n_obs - 1)
        k_mat = step_matrices(ring_mats(), params)[0]
        q = params.sigma**2 * params.dt / 3 * np.eye(3)
        expected = solve_discrete_lyapunov(k_mat, q)
        rel = np.abs(np.diag(sample_cov) / np.diag(expected) - 1.0)
        assert rel.max() < 0.05

    def test_lag1_covariance_recursion(self):
        params = SDDParams(n_obs=200_000, seed=4)
        ts = simulate_sdd(ring_mats(), params)
        x = ts.values - ts.values.mean(axis=0)
        n_obs = ts.n_obs
        s0 = x.T @ x / (n_obs - 1)
        s1 = x[1:].T @ x[:-1] / (n_obs - 2)
        k_mat = step_matrices(ring_mats(), params)[0]
        expected = k_mat @ s0
        scale = np.abs(expected).max()
        assert np.abs(s1 - expected).max() / scale < 0.05

    def test_stationary_mean(self):
        params = SDDParams(n_obs=50_000, seed=5)
        ts = simulate_sdd(ring_mats(), params)
        n_eff = ts.n_obs * params.dt_tau
        bound = 4.0 * ts.values.std(axis=0) / np.sqrt(n_eff)
        assert (np.abs(ts.values.mean(axis=0)) < bound).all()

    def test_var1_limit(self):
        # dt = tau: the update reduces to x_t = eps * A x_{t-1} + noise
        params = SDDParams(dt=1.0, tau=1.0, n_obs=200, seed=6)
        ts = simulate_sdd(ring_mats(), params)
        rng = np.random.default_rng(6)
        burn = 20
        noise = rng.standard_normal((burn + 200, 3)) * (
            params.sigma * np.sqrt(params.dt / 3)
        )
        x = np.zeros(3)
        manual = []
        for t in range(burn + 200):
            x = 0.9 * ring_mats()[0] @ x + noise[t]
            manual.append(x)
        assert_allclose(ts.values, np.array(manual)[burn:], atol=1e-12)

    def test_unstable_raises(self):
        with pytest.raises(StabilityError):
            simulate_sdd(ring_mats(), SDDParams(eps=1.2, n_obs=100))

    def test_eps_one_refused_on_every_graph(self):
        # at eps = 1 the radius of a normalized graph is 1 up to roundoff, on
        # either side; the margin refuses all of them, and eps = 0.999 runs
        for n in (3, 10, 30, 100):
            for seed in range(10):
                rng = np.random.default_rng(seed)
                g = gen_graph_non_nilpotent(GraphConfig(n=n), rng)
                _, mats = normalize_adjacency(g)
                with pytest.raises(StabilityError, match="needs < 1 - 1e-12"):
                    simulate_sdd(mats, SDDParams(eps=1.0, n_obs=10), rng)
                ts = simulate_sdd(mats, SDDParams(eps=0.999, n_obs=10), rng)
                assert ts.values.shape == (10, n)

    def test_one_stability_margin(self):
        # the README names pemnet.dynamics.STABILITY_MARGIN; it is the margin
        # the Lyapunov solver and covariance_series apply too
        assert pemnet.dynamics.STABILITY_MARGIN is numerics.STABILITY_MARGIN
        k = (1.0 - 1e-13) * np.eye(2)
        with pytest.raises(StabilityError, match="needs < 1 - 1e-12"):
            solve_discrete_lyapunov(k, np.eye(2))

    def test_order_p_dynamics(self):
        pairs = ((0, 1), (1, 0), (1, 2), (2, 1))
        g = DirectedGraph(3, pairs)
        g = assign_lags(g, 2, np.random.default_rng(7))
        _, mats = normalize_adjacency(g)
        params = SDDParams(delta=2, n_obs=5000, seed=8)
        ts = simulate_sdd(mats, params)
        assert ts.values.shape == (5000, 3)
        b = simulate_sdd(mats, params)
        assert np.array_equal(ts.values, b.values)

    def test_order_p_companion_stability(self):
        # all mass on lag 2 with eps dt_tau too large for the companion form
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = 1.0
        mats = [np.zeros((2, 2)), a]
        with pytest.raises(StabilityError):
            simulate_sdd(mats, SDDParams(eps=2.5, delta=1, n_obs=100))

    @pytest.mark.parametrize("eps", [0.5, 0.9, 0.99, 1.01, 1.2])
    def test_summed_lag_matrix_decides_like_companion(self, eps):
        # Perron-Frobenius: for W_k >= 0 both radii fall on the same side of 1
        rng = np.random.default_rng(41)
        for trial in range(48):
            delta = trial % 6
            config = GraphConfig(model="gnm", n=int(rng.integers(3, 11)), d_e=0.3,
                                 r_e=0.5, delta=delta)
            g = assign_lags(gen_graph_non_nilpotent(config, rng), delta, rng)
            _, mats = normalize_adjacency(g)
            w = step_matrices(mats, SDDParams(eps=eps, delta=delta))
            assert (w >= 0.0).all()
            summed = spectral_radius(w.sum(axis=0))
            assert (summed < 1.0) == (pemnet.dynamics._companion_radius(w) < 1.0)

    @pytest.mark.parametrize(
        "dt, eps, shape, which",
        [(0.5, 1.2, (2, 2), "summed lag matrix"), (1.5, 2.0, (4, 4), "companion matrix")],
    )
    def test_stability_check_radius(self, monkeypatch, dt, eps, shape, which):
        # dt/tau > 1 makes W_0 negative on its diagonal: the companion check runs
        shapes = []
        real = pemnet.dynamics.spectral_radius

        def recording(m):
            shapes.append(m.shape)
            return real(m)

        monkeypatch.setattr(pemnet.dynamics, "spectral_radius", recording)
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = 1.0
        params = SDDParams(dt=dt, eps=eps, delta=1, n_obs=100)
        with pytest.warns(UserWarning) if dt > 1.0 else nullcontext():
            with pytest.raises(StabilityError, match=which):
                simulate_sdd([np.zeros((2, 2)), a], params)
        assert shapes == [shape]

    def test_graph_lags_exceed_params_delta(self):
        mats = [np.zeros((2, 2)), np.eye(2) * 0.1]
        with pytest.raises(ConfigurationError):
            simulate_sdd(mats, SDDParams(delta=0, n_obs=100))


class TestBackends:
    @pytest.mark.parametrize("p, t_total", [(1, 3000), (2, 3000), (3, 3000),
                                            (6, 3000), (6, 4)])
    def test_numpy_kernel_matches_per_lag_loop(self, p, t_total):
        rng = np.random.default_rng(p)
        w = rng.standard_normal((p, 6, 6)) * (0.3 / p)
        noise = rng.standard_normal((t_total, 6))
        got, ref = python_kernel(w, noise), per_lag_recurrence(w, noise)
        assert_blocked_matches(got, ref)

    @pytest.mark.parametrize("p", [1, 3, 6])
    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_blocked_kernel_matches_per_step_loop(self, n, p):
        block = _sdd_py._BLOCK_ROWS // n
        assert block > 1
        rng = np.random.default_rng(10 * n + p)
        w = rng.standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        for t_total in sorted({1, max(p - 1, 1), block - 1, block, block + 1,
                               7 * block + 3}):
            noise = rng.standard_normal((t_total, n))
            assert_blocked_matches(python_kernel(w, noise),
                                   per_step_recurrence(w, noise))

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_single_step_blocks_are_bit_identical(self, p):
        n = _sdd_py._BLOCK_ROWS // 2 + 1  # block length 1
        rng = np.random.default_rng(p)
        w = rng.standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        noise = rng.standard_normal((300, n))
        assert np.array_equal(python_kernel(w, noise), per_step_recurrence(w, noise))

    @pytest.mark.parametrize("eps, dt, tau", [
        (0.999, 0.05, 1.0),  # spectral radius ~0.99995: slow decay over a block
        (0.9, 1.5, 1.0),  # dt/tau > 1: W_0 has negative entries
    ])
    def test_blocked_kernel_on_paper_graphs(self, eps, dt, tau):
        rng = np.random.default_rng(5)
        graph = assign_lags(gen_graph_non_nilpotent(GraphConfig(delta=2), rng), 2, rng)
        _, lag_mats = normalize_adjacency(graph)
        w = step_matrices(lag_mats, SDDParams(eps=eps, dt=dt, tau=tau, delta=2))
        assert (dt / tau > 1) == (w < 0).any()
        noise = rng.standard_normal((2000, w.shape[1]))
        assert_blocked_matches(python_kernel(w, noise), per_step_recurrence(w, noise))


class TestMeasurementNoise:
    def test_zero_eta_is_identity(self):
        ts = simulate_sdd(ring_mats(), SDDParams(n_obs=100, seed=9))
        out = add_measurement_noise(ts, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.values, ts.values)

    def test_variance_additivity_on_white_noise(self):
        # eta = sigma doubles the variance of a memoryless series
        params = SDDParams(dt=1.0, tau=1.0, n_obs=100_000, seed=10)
        ts = simulate_sdd(zero_mats(), params)
        noisy = add_measurement_noise(ts, params.sigma, np.random.default_rng(11))
        ratio = noisy.values.var(axis=0) / ts.values.var(axis=0)
        assert np.abs(ratio - 2.0).max() < 0.1

    def test_large_eta_dilutes_autocorrelation(self):
        params = SDDParams(n_obs=50_000, seed=12)  # dt_tau = 0.5, autocorrelated
        ts = simulate_sdd(zero_mats(), params)
        noisy = add_measurement_noise(ts, 10 * params.sigma, np.random.default_rng(13))
        assert np.abs(lag1_autocorr(noisy.values)).max() < np.abs(
            lag1_autocorr(ts.values)
        ).min()


class TestTimeSeriesIO:
    def test_round_trip_exact(self, tmp_path):
        ts = simulate_sdd(ring_mats(), SDDParams(n_obs=50, seed=14))
        path = tmp_path / "ts.txt"
        save_time_series(ts, str(path))
        loaded = load_time_series(str(path))
        assert np.array_equal(loaded.values, ts.values)  # %.17g round-trips exactly
        assert loaded.dt == ts.dt

    def test_rejects_short_rows(self, tmp_path):
        path = tmp_path / "ts.txt"
        path.write_text("2 2 0.5\n0.0 0.0\n1.0\n")
        with pytest.raises(Exception):
            load_time_series(str(path))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            TimeSeries(values=np.array([[0.0, np.inf], [1.0, 2.0]]), dt=0.5)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_sampling_period(self, dt):
        with pytest.raises(DataError, match="dt must be finite and > 0"):
            TimeSeries(values=np.zeros((2, 2)), dt=dt)

    @pytest.mark.parametrize("lines, lineno", [
        ("2 2 0.5\n0.0 0.0\n1.0 x\n", 3),
        ("2 2 0.5\n\n0.0 0.0\n1.0 x\n", 4),
    ], ids=["plain", "blank-lines"])
    def test_bad_float_names_physical_line(self, tmp_path, lines, lineno):
        path = tmp_path / "ts.txt"
        path.write_text(lines)
        with pytest.raises(FileFormatError, match=rf":{lineno}: bad float"):
            load_time_series(str(path))

    @pytest.mark.parametrize("header", ["-1 2 0.5", "2 1 0.5", "2 2 0", "2 2 -1",
                                        "2 2 nan", "2 2 inf"])
    def test_rejects_bad_header(self, tmp_path, header):
        path = tmp_path / "ts.txt"
        path.write_text(header + "\n0.0 0.0\n1.0 2.0\n")
        with pytest.raises(FileFormatError, match=":1: bad header"):
            load_time_series(str(path))

    def test_absurd_node_count(self, tmp_path):
        path = tmp_path / "ts.txt"
        path.write_text(f"{10**20} 2 0.5\n0.0 0.0\n1.0 2.0\n")
        with pytest.raises(FileFormatError, match=f":2: expected {10**20} values"):
            load_time_series(str(path))
