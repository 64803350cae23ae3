import re
from contextlib import nullcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pemnet.dynamics
import pemnet.motifs
from pemnet import numerics
from pemnet.dynamics import (
    SDDParams,
    TimeSeries,
    add_measurement_noise,
    load_time_series,
    save_time_series,
    sdd_recurrence,
    simulate_sdd,
    step_matrices,
)
from pemnet.errors import (ConfigurationError, DataError, FileFormatError, NumericalError,
                           StabilityError)
from pemnet.graphs import (
    DirectedGraph,
    GraphConfig,
    assign_lags,
    gen_graph_non_nilpotent,
    normalize_adjacency,
)
from pemnet.motifs import covariance_series
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


def state_map(w, block):
    """M at block length L: the last p states before a block to those after it."""
    return pemnet.dynamics._state_map(pemnet.dynamics._block_operators(w, block)[0])


def chunks_of(t_total, n, p):
    """Blocks per chunk sdd_recurrence takes for T steps; 0 is no chunks."""
    return pemnet.dynamics._route(t_total, n, p)[2]


def first_chunked_length(n, p):
    """The shortest T that sdd_recurrence runs as chunks."""
    t_total = 1
    while not chunks_of(t_total, n, p):
        t_total += 1
    return t_total


def scan_recurrence(w, noise, block):
    """sdd_recurrence with its route forced to the scan at block length L."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pemnet.dynamics, "_route", lambda *shape: ("scan", block, 0))
        return sdd_recurrence(w, noise)


def assert_blocked_matches(got, ref):
    """Blocked sums change the order of additions: agree to 1e-12 * max|x|."""
    assert got.shape == ref.shape
    assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def lag1_autocorr(values):
    x = values - values.mean(axis=0)
    num = (x[1:] * x[:-1]).sum(axis=0)
    den = (x * x).sum(axis=0)
    return num / den


class OutOfMemoryRng:
    def standard_normal(self, shape):
        raise MemoryError(f"Unable to allocate an array of shape {shape}")


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SDDParams(tau=0.0)
        with pytest.raises(ConfigurationError):
            SDDParams(sigma=-1.0)
        with pytest.raises(ConfigurationError):
            SDDParams(n_obs=1)
        with pytest.raises(ConfigurationError, match="delta must be >= 0, got -1"):
            SDDParams(delta=-1)

    @pytest.mark.parametrize("name, value", [
        ("delta", 1.5), ("delta", 1.0), ("n_obs", 1000.5), ("n_obs", "1000")])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            SDDParams(**{name: value})
        # numpy integers are integers
        assert getattr(SDDParams(**{name: np.int64(3)}), name) == 3

    @pytest.mark.parametrize("name", ["eps", "tau", "dt", "sigma", "eta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must lie in"):
            SDDParams(**{name: value})

    def test_overflow_raises_numerical_error(self):
        # a finite sigma whose noise overflows to inf within the first steps
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="simulation produced non-finite values"):
                simulate_sdd(ring_mats(), SDDParams(sigma=1.6e308, n_obs=10),
                             np.random.default_rng(0))

    def test_dt_tau_above_one_warns(self):
        with pytest.warns(UserWarning, match="outside the studied regime"):
            simulate_sdd(zero_mats(), SDDParams(dt=1.5, tau=1.0, n_obs=10),
                         np.random.default_rng(0))


class TestSimulate:
    def test_deterministic_given_seed(self):
        params = SDDParams(n_obs=500)
        a = simulate_sdd(ring_mats(), params, np.random.default_rng(99))
        b = simulate_sdd(ring_mats(), params, np.random.default_rng(99))
        assert np.array_equal(a.values, b.values)

    def test_memoryless_case_white(self):
        # no coupling and dt = tau: samples are i.i.d. Gaussian
        params = SDDParams(dt=1.0, tau=1.0, n_obs=50_000)
        ts = simulate_sdd(zero_mats(), params, np.random.default_rng(1))
        assert np.abs(lag1_autocorr(ts.values)).max() < 4.0 / np.sqrt(ts.n_obs)

    def test_scalar_ar_autocorrelation(self):
        # no coupling, dt/tau = 0.5: per-node autocorrelation at lag k is 0.5^k
        params = SDDParams(dt=0.5, tau=1.0, n_obs=100_000)
        ts = simulate_sdd(zero_mats(), params, np.random.default_rng(2))
        x = ts.values - ts.values.mean(axis=0)
        den = (x * x).sum(axis=0)
        for k in (1, 2, 3):
            rk = (x[k:] * x[:-k]).sum(axis=0) / den
            assert np.abs(rk - 0.5**k).max() < 4.0 / np.sqrt(ts.n_obs)

    def test_covariance_matches_lyapunov_oracle(self):
        params = SDDParams(n_obs=200_000)  # defaults: eps .9, dt .5
        ts = simulate_sdd(ring_mats(), params, np.random.default_rng(3))
        x = ts.values - ts.values.mean(axis=0)
        sample_cov = x.T @ x / (ts.n_obs - 1)
        k_mat = step_matrices(ring_mats(), params)[0]
        q = params.sigma**2 * params.dt / 3 * np.eye(3)
        expected = solve_discrete_lyapunov(k_mat, q)
        rel = np.abs(np.diag(sample_cov) / np.diag(expected) - 1.0)
        assert rel.max() < 0.05

    def test_lag1_covariance_recursion(self):
        params = SDDParams(n_obs=200_000)
        ts = simulate_sdd(ring_mats(), params, np.random.default_rng(4))
        x = ts.values - ts.values.mean(axis=0)
        n_obs = ts.n_obs
        s0 = x.T @ x / (n_obs - 1)
        s1 = x[1:].T @ x[:-1] / (n_obs - 2)
        k_mat = step_matrices(ring_mats(), params)[0]
        expected = k_mat @ s0
        scale = np.abs(expected).max()
        assert np.abs(s1 - expected).max() / scale < 0.05

    def test_stationary_mean(self):
        params = SDDParams(n_obs=50_000)
        ts = simulate_sdd(ring_mats(), params, np.random.default_rng(5))
        n_eff = ts.n_obs * params.dt_tau
        bound = 4.0 * ts.values.std(axis=0) / np.sqrt(n_eff)
        assert (np.abs(ts.values.mean(axis=0)) < bound).all()

    def test_var1_limit(self):
        # dt = tau: the update reduces to x_t = eps * A x_{t-1} + noise
        params = SDDParams(dt=1.0, tau=1.0, n_obs=200)
        ts = simulate_sdd(ring_mats(), params, np.random.default_rng(6))
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
            simulate_sdd(ring_mats(), SDDParams(eps=1.2, n_obs=100), np.random.default_rng(0))

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

    def test_one_stability_margin(self, monkeypatch):
        # the simulator, covariance_series and the Lyapunov solver refuse a
        # radius of 1 - 1e-13 through the one check in numerics
        checked = []
        real = numerics.require_stable

        def recording(rho, what):
            checked.append(what)
            return real(rho, what)

        for module in (pemnet.dynamics, pemnet.motifs, numerics):
            monkeypatch.setattr(module, "require_stable", recording)
        z = 1e-13  # W_0 = (1 - z) I has radius 1 - 1e-13
        calls = [
            lambda: simulate_sdd(zero_mats(), SDDParams(dt=z, n_obs=10),
                                 np.random.default_rng(0)),
            lambda: covariance_series(np.zeros((2, 2)), eps=0.9, tau=1.0, sigma=1.0,
                                      dt_tau=z),
            lambda: solve_discrete_lyapunov((1.0 - z) * np.eye(2), np.eye(2)),
        ]
        for call in calls:
            with pytest.raises(StabilityError, match="needs < 1 - 1e-12"):
                call()
        assert len(checked) == 3

    def test_order_p_dynamics(self):
        pairs = ((0, 1), (1, 0), (1, 2), (2, 1))
        g = DirectedGraph(3, pairs)
        g = assign_lags(g, 2, np.random.default_rng(7))
        _, mats = normalize_adjacency(g)
        params = SDDParams(delta=2, n_obs=5000)
        ts = simulate_sdd(mats, params, np.random.default_rng(8))
        assert ts.values.shape == (5000, 3)
        b = simulate_sdd(mats, params, np.random.default_rng(8))
        assert np.array_equal(ts.values, b.values)

    def test_order_p_companion_stability(self):
        # all mass on lag 2 with eps dt_tau too large for the companion form
        a = np.zeros((2, 2))
        a[0, 1] = a[1, 0] = 1.0
        mats = [np.zeros((2, 2)), a]
        with pytest.raises(StabilityError):
            simulate_sdd(mats, SDDParams(eps=2.5, delta=1, n_obs=100), np.random.default_rng(0))

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
                simulate_sdd([np.zeros((2, 2)), a], params, np.random.default_rng(0))
        assert shapes == [shape]

    def test_graph_lags_exceed_params_delta(self):
        mats = [np.zeros((2, 2)), np.eye(2) * 0.1]
        with pytest.raises(ConfigurationError):
            simulate_sdd(mats, SDDParams(delta=0, n_obs=100), np.random.default_rng(0))

    @pytest.mark.parametrize("mats, message", [
        ([np.zeros((3, 3)), np.diag([0.1, np.nan, 0.0])], "lag 1 has non-finite"),
        ([np.full((3, 3), np.inf)], "lag 0 has non-finite"),
        ([np.zeros((3, 2))], r"lag 0 must be square, got shape \(3, 2\)"),
        ([np.zeros((3, 3)), np.zeros((2, 2))], r"lag 1 has shape \(2, 2\)"),
        ([], "need at least one coupling matrix"),
    ])
    def test_bad_couplings_refused_before_any_noise(self, mats, message):
        rng, fresh = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match=message):
            simulate_sdd(mats, SDDParams(delta=1, n_obs=100), rng)
        assert rng.random() == fresh.random()

    # only sizes numpy refuses before it allocates, or a generator out of
    # memory: never a size that an overcommitting kernel could grant
    @pytest.mark.parametrize("n_obs, rng", [
        (10**18, np.random.default_rng(0)),
        (1000, OutOfMemoryRng()),
    ], ids=["too-big", "memory-error"])
    def test_unallocatable_noise_is_a_configuration_error(self, n_obs, rng):
        with pytest.raises(ConfigurationError,
                           match=f"cannot hold the noise for n_obs={n_obs} at n=3: "):
            simulate_sdd(ring_mats(), SDDParams(n_obs=n_obs), rng)

    def test_unallocatable_state_buffer_is_a_configuration_error(self, monkeypatch):
        def out_of_memory(w, noise):
            raise MemoryError(f"Unable to allocate the states of {noise.shape}")

        monkeypatch.setattr(pemnet.dynamics, "sdd_recurrence", out_of_memory)
        with pytest.raises(ConfigurationError,
                           match="cannot hold the noise for n_obs=1000 at n=3: Unable"):
            simulate_sdd(ring_mats(), SDDParams(n_obs=1000), np.random.default_rng(0))


def burn_of(lag_mats, params):
    """The burn-in simulate_sdd uses: the noise rows it draws beyond n_obs."""
    rows = []

    def recording(w, noise):
        rows.append(noise.shape[0])
        return np.zeros_like(noise)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pemnet.dynamics, "sdd_recurrence", recording)
        simulate_sdd(lag_mats, params, np.random.default_rng(0))
    return rows[0] - params.n_obs


def paper_graph_mats(delta, seed=0):
    rng = np.random.default_rng(seed)
    g = assign_lags(gen_graph_non_nilpotent(GraphConfig(delta=delta), rng), delta, rng)
    return normalize_adjacency(g)[1]


class TestBurnIn:
    @pytest.mark.parametrize("eps, dt, delta", [
        (0.9, 0.5, 0),  # paper cell, radius 0.95: the 40 steps it always burned
        (0.9, 0.1, 0),  # radius 0.99
        (0.99, 0.1, 0),  # radius 0.999: 66% short after 20 tau
        (0.999, 0.05, 0),  # radius 0.99995: 96% short after 20 tau
        (0.9, 0.5, 2),  # p = 3: 4.2% short after 20 tau
        (0.9, 0.5, 5),  # p = 6: 8.3% short after 20 tau
    ])
    def test_first_kept_sample_is_near_stationary(self, eps, dt, delta):
        # from zero history the covariance after b steps is Sigma - C^b Sigma C^bT
        mats = paper_graph_mats(delta, seed=delta)
        params = SDDParams(eps=eps, dt=dt, delta=delta, n_obs=2)
        b = burn_of(mats, params)
        comp = state_map(step_matrices(mats, params), 1)
        q = np.zeros_like(comp)
        q[-10:, -10:] = np.eye(10)  # the noise drives the newest state, last
        sigma = solve_discrete_lyapunov(comp, q)
        cb = np.linalg.matrix_power(comp, b)
        deficit = np.abs(cb @ sigma @ cb.T).max() / np.abs(sigma).max()
        assert deficit <= 0.02
        if (eps, dt, delta) == (0.9, 0.5, 0):
            assert b == 40

    @pytest.mark.parametrize("p", [1, 2])
    def test_zero_radius_burns_p_times_n_steps(self, p):
        # an acyclic graph at dt = tau: the update is nilpotent, so p * n steps
        # forget the zero start exactly
        a = np.zeros((p, 3, 3))
        a[0, 1, 0] = a[p - 1, 2, 1] = 1.0
        params = SDDParams(dt=1.0, tau=1.0, delta=p - 1, n_obs=50)
        w = step_matrices(list(a), params)
        b = burn_of(list(a), params)
        assert b == p * 3
        assert not np.linalg.matrix_power(state_map(w, 1), b).any()
        noise = np.random.default_rng(3).standard_normal((b + 50, 3)) * (
            params.sigma * np.sqrt(params.dt / 3))
        ts = simulate_sdd(list(a), params, np.random.default_rng(3))
        assert np.array_equal(ts.values, sdd_recurrence(w, noise)[b:])

    def test_too_long_burn_in_refused_before_any_noise(self, monkeypatch):
        # radius 1 - 5e-8 would need about 4.1e7 steps, 3.3 GB of noise at n = 10
        def failing(w, noise):
            raise AssertionError("recurrence ran")

        monkeypatch.setattr(pemnet.dynamics, "sdd_recurrence", failing)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(StabilityError,
                           match=r"radius 0\.9999999\d* needs a burn-in of 4\d{7} steps"):
            simulate_sdd(paper_graph_mats(0), SDDParams(eps=0.9999999), rng)
        assert rng.bit_generator.state == state

    def test_order_three_returns_recurrence_after_burn_in(self):
        # p = 3, every W_k >= 0: the companion radius is at most rho^(1/3)
        mats = paper_graph_mats(2, seed=4)
        params = SDDParams(delta=2, n_obs=300)
        w = step_matrices(mats, params)
        rho = spectral_radius(w.sum(axis=0))
        b = int(np.ceil(2.05 / -np.log(rho ** (1 / 3))))
        assert b == 120
        noise = np.random.default_rng(5).standard_normal((b + 300, 10)) * (
            params.sigma * np.sqrt(params.dt / 10))
        ts = simulate_sdd(mats, params, np.random.default_rng(5))
        assert np.array_equal(ts.values, sdd_recurrence(w, noise)[b:])


class TestKernel:
    @pytest.mark.parametrize("p, t_total", [(1, 3000), (2, 3000), (3, 3000),
                                            (6, 3000), (6, 4)])
    def test_numpy_kernel_matches_per_lag_loop(self, p, t_total):
        rng = np.random.default_rng(p)
        w = rng.standard_normal((p, 6, 6)) * (0.3 / p)
        noise = rng.standard_normal((t_total, 6))
        got, ref = sdd_recurrence(w, noise), per_lag_recurrence(w, noise)
        assert_blocked_matches(got, ref)

    @pytest.mark.parametrize("p", [1, 3, 6])
    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_blocked_kernel_matches_per_step_loop(self, n, p):
        block = pemnet.dynamics._BLOCK_ROWS // n
        assert block > 1
        rng = np.random.default_rng(10 * n + p)
        w = rng.standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        for t_total in sorted({1, max(p - 1, 1), block - 1, block, block + 1,
                               7 * block + 3}):
            noise = rng.standard_normal((t_total, n))
            assert_blocked_matches(sdd_recurrence(w, noise),
                                   per_step_recurrence(w, noise))

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_single_step_blocks_are_bit_identical(self, p):
        # fewer blocks than chunking needs: the one loop, which at L = 1 is
        # the per-step loop
        n = pemnet.dynamics._BLOCK_ROWS // 2 + 1  # block length 1
        t_total = pemnet.dynamics._CHUNK_MIN_BLOCKS - 1
        rng = np.random.default_rng(p)
        w = rng.standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        noise = rng.standard_normal((t_total, n))
        assert np.array_equal(sdd_recurrence(w, noise), per_step_recurrence(w, noise))

    @pytest.mark.parametrize("p", [3, 6])
    def test_costly_carry_power_keeps_one_loop(self, p):
        # at n = 100 and p > 1 the (p n)^3 carry power costs more than the
        # 1040-step recurrence it would split, so the one loop stays
        n, t_total = 100, 1040
        assert not chunks_of(t_total, n, p)
        assert chunks_of(t_total, n, 1)
        rng = np.random.default_rng(p)
        w = rng.standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        noise = rng.standard_normal((t_total, n))
        assert np.array_equal(sdd_recurrence(w, noise), per_step_recurrence(w, noise))

    @pytest.mark.parametrize("p", [1, 3, 6])
    @pytest.mark.parametrize("n", [65, 100])
    def test_chunked_kernel_matches_per_step_loop(self, n, p):
        t_total = first_chunked_length(n, p)
        rng = np.random.default_rng(10 * n + p)
        w = rng.standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        noise = rng.standard_normal((t_total, n))
        assert_blocked_matches(sdd_recurrence(w, noise), per_step_recurrence(w, noise))

    @pytest.mark.parametrize("n, p", [(40, 1), (40, 3), (65, 1)])
    def test_chunked_kernel_at_edge_lengths(self, n, p):
        # the whole chunk length C S L and one step either side of it; at
        # n = 40 (L = 3) the lengths around it are not whole blocks either
        block = pemnet.dynamics._BLOCK_ROWS // n
        t_whole = first_chunked_length(n, p)
        while t_whole % (chunks_of(t_whole, n, p) * block):
            t_whole += 1
        for t_total in (t_whole - 1, t_whole, t_whole + 1):
            assert chunks_of(t_total, n, p)
        # below the chunking threshold, and shorter than the history
        lengths = (max(p - 1, 1), block * pemnet.dynamics._CHUNK_MIN_BLOCKS - 1,
                   t_whole - 1, t_whole, t_whole + 1)
        rng = np.random.default_rng(n + p)
        w = rng.standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        for t_total in lengths:
            noise = rng.standard_normal((t_total, n))
            assert_blocked_matches(sdd_recurrence(w, noise),
                                   per_step_recurrence(w, noise))

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
        # one loop, then chunks: 2000 steps make 17 chunks, 20 000 make 58
        for t_total in (1000, 2000, 20_000):
            assert bool(chunks_of(t_total, 10, 3)) == (t_total > 1000)
            noise = rng.standard_normal((t_total, w.shape[1]))
            assert_blocked_matches(sdd_recurrence(w, noise),
                                   per_step_recurrence(w, noise))


def impulse_responses(w, count):
    """H_0 = I, H_1, ..., H_{count-1}: the recurrence stepped on a unit impulse."""
    p, n, _ = w.shape
    h = [np.eye(n)]
    for t in range(1, count):
        h.append(sum(w[k - 1] @ h[t - k] for k in range(1, min(p, t) + 1)))
    return h


class TestBlockOperators:
    @pytest.mark.parametrize("block", [2, 4, 12])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_toeplitz_blocks_are_impulse_responses(self, p, block):
        n = 5
        w = np.random.default_rng(p).standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        _, op = pemnet.dynamics._block_operators(w, block)
        assert op.shape == (block * n, block * n)
        h = impulse_responses(w, block)
        for i in range(block):
            for j in range(block):
                got = op[i * n : (i + 1) * n, j * n : (j + 1) * n]
                if i < j:
                    assert not got.any()
                elif i == j:
                    assert np.array_equal(got, np.eye(n))
                else:
                    assert_allclose(got, h[i - j], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    def test_state_map_is_companion_power(self, p):
        # M at L = 1 is the companion matrix with its state oldest first: the
        # last n rows are [W_p ... W_1], the rest shift the history by n
        n = 4
        w = np.random.default_rng(p).standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        companion = state_map(w, 1)
        assert np.array_equal(companion[-n:], np.hstack(w[::-1]))
        assert np.array_equal(companion[:-n], np.eye(p * n)[n:])
        # every block length, shorter than the history (shift rows on top
        # of G) or not, maps the history as L steps of the companion
        for block in sorted({1, 2, p, p + 1, 12}):
            assert_allclose(state_map(w, block), np.linalg.matrix_power(companion, block),
                            rtol=0, atol=1e-14)


class TestScan:
    @pytest.mark.parametrize("p", [1, 3, 6])
    @pytest.mark.parametrize("n", [3, 10, 16])
    def test_scan_matches_per_step_loop(self, n, p):
        # block lengths from the shortest longer than the history to the
        # longest, around the doubling steps' powers of two
        rng = np.random.default_rng(100 * n + p)
        w = rng.standard_normal((p, n, n)) * (0.5 / (p * np.sqrt(n)))
        longest = pemnet.dynamics._BLOCK_ROWS // n
        for block in sorted({p + 1, pemnet.dynamics._SCAN_BLOCK, longest} - set(range(p + 1))):
            for t_total in sorted({1, max(p - 1, 1), 32 * block - 1, 32 * block,
                                   32 * block + 1, 1040}):
                noise = rng.standard_normal((t_total, n))
                assert_blocked_matches(scan_recurrence(w, noise, block),
                                       per_step_recurrence(w, noise))

    @pytest.mark.parametrize("delta", [0, 2])
    @pytest.mark.parametrize("eps, dt, tau", [
        (0.999, 0.05, 1.0),  # spectral radius ~0.99995: M^s decays slowly
        (0.9, 1.2, 1.0),  # dt/tau > 1: W_0 has negative entries, radius < 0.95
    ])
    def test_scan_on_paper_graphs(self, eps, dt, tau, delta):
        rng = np.random.default_rng(6)
        graph = assign_lags(gen_graph_non_nilpotent(GraphConfig(delta=delta), rng),
                            delta, rng)
        _, lag_mats = normalize_adjacency(graph)
        w = step_matrices(lag_mats, SDDParams(eps=eps, dt=dt, tau=tau, delta=delta))
        assert (dt / tau > 1) == (w < 0).any()
        for t_total in (2000, 20_000):
            noise = rng.standard_normal((t_total, w.shape[1]))
            ref = per_step_recurrence(w, noise)
            for block in (4, pemnet.dynamics._BLOCK_ROWS // 10):
                assert_blocked_matches(scan_recurrence(w, noise, block), ref)

    def test_routes(self):
        route = pemnet.dynamics._route
        # the paper cell, 1040 steps of n = 10, p = 1, and short p = 1 runs
        # whose blocks are shorter than _SCAN_BLOCK
        assert route(1040, 10, 1) == ("scan", 4, 0)
        assert route(300, 40, 1) == ("scan", 3, 0)
        assert route(250, 64, 1) == ("scan", 2, 0)
        # 150 blocks of L = 2: the power M^S costs 4 products, less than a pass
        assert route(300, 64, 1) == ("chunks", 2, 9)
        # sweep-n100 keeps its chunks, p > 1 at n = 100 the per-step loop
        assert route(1040, 100, 1)[0] == "chunks"
        assert route(1040, 100, 3) == ("loop", 1, 0)
        # p > 1 below the chunks: the one block loop
        assert route(1040, 10, 3) == ("loop", 12, 0)
        assert route(1040, 30, 6) == ("loop", 4, 0)
        # the infer-lags pool: n = 30, delta = 5, N = 10 000 and its burn-in
        config = GraphConfig(model="gnm", n=30, d_e=0.2, r_e=0.5, delta=5)
        params = SDDParams(delta=5, n_obs=10_000)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            graph = assign_lags(gen_graph_non_nilpotent(config, rng), 5, rng)
            t_total = burn_of(normalize_adjacency(graph)[1], params) + 10_000
            assert route(t_total, 30, 6)[0] == "chunks"

    def test_block_loop_matches_per_step_loop(self):
        # n = 30, p = 6 on 1040 steps, which the one loop at L = 4 carries
        rng = np.random.default_rng(30)
        w = rng.standard_normal((6, 30, 30)) * (0.5 / (6 * np.sqrt(30)))
        noise = rng.standard_normal((1040, 30))
        assert_blocked_matches(sdd_recurrence(w, noise), per_step_recurrence(w, noise))

    def test_paper_cell_runs_the_scan(self, monkeypatch):
        carried = []
        real = pemnet.dynamics._scan_carry

        def recording(g, blocks, history):
            carried.append(blocks.shape)
            return real(g, blocks, history)

        monkeypatch.setattr(pemnet.dynamics, "_scan_carry", recording)
        ts = simulate_sdd(paper_graph_mats(0), SDDParams(), np.random.default_rng(0))
        assert ts.values.shape == (1000, 10)
        assert len(carried) == 1


class TestMeasurementNoise:
    def test_zero_eta_is_identity(self):
        ts = simulate_sdd(ring_mats(), SDDParams(n_obs=100), np.random.default_rng(9))
        out = add_measurement_noise(ts, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.values, ts.values)

    def test_variance_additivity_on_white_noise(self):
        # eta = sigma doubles the variance of a memoryless series
        params = SDDParams(dt=1.0, tau=1.0, n_obs=100_000)
        ts = simulate_sdd(zero_mats(), params, np.random.default_rng(10))
        noisy = add_measurement_noise(ts, params.sigma, np.random.default_rng(11))
        ratio = noisy.values.var(axis=0) / ts.values.var(axis=0)
        assert np.abs(ratio - 2.0).max() < 0.1

    def test_unallocatable_draw_is_a_configuration_error(self):
        ts = simulate_sdd(ring_mats(), SDDParams(n_obs=100), np.random.default_rng(9))
        with pytest.raises(ConfigurationError, match="cannot hold the measurement noise "
                                                     "for n_obs=100 at n=3: Unable"):
            add_measurement_noise(ts, 0.1, OutOfMemoryRng())

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), -0.1])
    def test_bad_eta_refused_as_configuration(self, eta):
        ts = simulate_sdd(ring_mats(), SDDParams(n_obs=100), np.random.default_rng(9))
        with pytest.raises(ConfigurationError, match="eta must lie in"):
            add_measurement_noise(ts, eta, np.random.default_rng(0))

    def test_large_eta_dilutes_autocorrelation(self):
        params = SDDParams(n_obs=50_000)  # dt_tau = 0.5, autocorrelated
        ts = simulate_sdd(zero_mats(), params, np.random.default_rng(12))
        noisy = add_measurement_noise(ts, 10 * params.sigma, np.random.default_rng(13))
        assert np.abs(lag1_autocorr(noisy.values)).max() < np.abs(
            lag1_autocorr(ts.values)
        ).min()


class TestTimeSeriesIO:
    def test_round_trip_exact(self, tmp_path):
        ts = simulate_sdd(ring_mats(), SDDParams(n_obs=50), np.random.default_rng(14))
        path = tmp_path / "ts.txt"
        save_time_series(ts, str(path))
        loaded = load_time_series(str(path))
        assert np.array_equal(loaded.values, ts.values)  # %.17g round-trips exactly
        assert loaded.dt == ts.dt

    def test_round_trip_exact_on_any_double(self, tmp_path):
        # the numpy parse reads %.17g back to the same bits as float() does
        bits = np.random.default_rng(15).integers(0, 2**63, 3000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:2000]
        values[:4] = [-0.0, 5e-324, -2.5e-310, np.finfo(float).max]
        values = values.reshape(-1, 4)
        path = tmp_path / "ts.txt"
        save_time_series(TimeSeries(values=values, dt=0.5), str(path))
        assert np.array_equal(load_time_series(str(path)).values, values)
        assert path.read_text() == "4 500 0.5\n" + "".join(
            " ".join(f"{v:.17g}" for v in row) + "\n" for row in values)

    def test_reads_tokens_only_float_takes(self, tmp_path):
        # numpy's parser refuses 1_000; the token-by-token pass reads it
        path = tmp_path / "ts.txt"
        path.write_text("2 2 0.5\n1_000 0.5\n-2 3e-3\n")
        assert np.array_equal(load_time_series(str(path)).values,
                              [[1000.0, 0.5], [-2.0, 0.003]])

    @pytest.mark.parametrize("lines, message", [
        ("2 2 0.5\n0.0 0.0\n1.0\n", ":3: expected 2 values, got 1"),
        ("2 2 0.5\n0.0 0.0 0.0\n1.0 2.0\n", ":2: expected 2 values, got 3"),
        ("2 2 0.5\n0.0 0.0 0.0\n1.0 2.0 3.0\n", ":2: expected 2 values, got 3"),
        ("2 2 0.5\n0.0 0.0\n1.0 0x10\n", ":3: bad float in '1.0 0x10'"),
        ("2 2 0.5\n# 0.0\n1.0 2.0\n", ":2: bad float in '# 0.0'"),
    ], ids=["short", "long", "every-row-wide", "hex", "comment"])
    def test_bad_row_names_its_line(self, tmp_path, lines, message):
        path = tmp_path / "ts.txt"
        path.write_text(lines)
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_time_series(str(path))

    @pytest.mark.parametrize("header", ["2 x 0.5", "2 2", "2 2 0.5 junk extra"])
    def test_bad_header_refused(self, tmp_path, header):
        path = tmp_path / "ts.txt"
        path.write_text(header + "\n0.0 0.0\n1.0 2.0\n")
        with pytest.raises(FileFormatError, match=re.escape(f":1: bad header {header!r}")):
            load_time_series(str(path))

    def test_rejects_short_rows(self, tmp_path):
        path = tmp_path / "ts.txt"
        path.write_text("2 2 0.5\n0.0 0.0\n1.0\n")
        with pytest.raises(Exception):
            load_time_series(str(path))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            TimeSeries(values=np.array([[0.0, np.inf], [1.0, 2.0]]), dt=0.5)

    def test_rejects_no_columns(self):
        with pytest.raises(DataError, match=r"n >= 1\), got \(50, 0\)"):
            TimeSeries(values=np.zeros((50, 0)), dt=0.5)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf, "0.5", None, True])
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
