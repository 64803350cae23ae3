import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from numpy.testing import assert_allclose

from pemnet import numerics
from pemnet.bench import derive_seed
from pemnet.dynamics import SDDParams, step_matrices
from pemnet.errors import ConfigurationError, ConvergenceError, NumericalError, StabilityError
from pemnet.graphs import (
    GraphConfig,
    assign_lags,
    gen_graph,
    gen_graph_non_nilpotent,
    normalize_adjacency,
)
from pemnet.numerics import _perron_root, solve_discrete_lyapunov, spectral_radius

from oracles import hyp2f1_equal_ab, solve_continuous_lyapunov


def ring_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[(i + 1) % n, i] = 1.0
    return a


def block_triangular(n, rng, upstream_scale):
    # two strongly connected blocks, the first feeding the second; rows 0-4
    # are sources (no inputs) and rows n-5..n-1 are sinks (nobody reads them)
    k = n // 3
    up, down = slice(5, 5 + k), slice(5 + k, n - 5)
    size = n - 10 - k
    a = np.zeros((n, n))
    a[up, up] = upstream_scale * (rng.random((k, k)) < 0.3) * rng.random((k, k))
    a[down, down] = (rng.random((size, size)) < 0.3) * rng.random((size, size))
    a[down, up] = (rng.random((size, k)) < 0.1) * rng.random((size, k))
    a[5 : n - 5, :5] = rng.random((n - 10, 5)) < 0.2
    a[n - 5 :, : n - 5] = rng.random((5, n - 5)) < 0.2
    np.fill_diagonal(a, 0.0)
    return a


def summed_step_matrices(n, dt_tau, seed):
    rng = np.random.default_rng(seed)
    g = gen_graph_non_nilpotent(GraphConfig(n=n, d_e=0.1, delta=2), rng)
    _, mats = normalize_adjacency(assign_lags(g, 2, rng))
    return step_matrices(mats, SDDParams(dt=dt_tau, delta=2)).sum(axis=0)


def ring_lattice(n, seed):
    g = gen_graph(GraphConfig(model="rr", n=n, d_e=0.1), np.random.default_rng(seed))
    return g.adjacency()


def largest_abs_eigenvalue(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def bracket_root(a, max_iter=None):
    """_perron_root's bracket iterated until it closes, with no early exit,
    within max_iter steps (by default _perron_root's cap)."""
    n = a.shape[0]
    diag = np.diagonal(a)
    shift = numerics._PERRON_SHIFT * float(a.sum() - diag.sum()) / n - float(diag.min())
    b = a + shift * np.eye(n)
    x = np.ones(n)
    for _ in range(max_iter or n):
        y = b @ x
        keep = x >= numerics._PERRON_FLOOR
        hi = float((y / x).max())
        lo = float(((b @ np.where(keep, x, 0.0))[keep] / x[keep]).min())
        if hi - lo <= numerics._PERRON_RTOL * (hi - shift):
            return 0.5 * (hi + lo) - shift
        x = y / y.max()
    raise AssertionError("bracket did not close")


class TestHyp2f1:
    def test_binomial_series_identity(self):
        # 2F1(1,1;1;x) = 1/(1-x)
        for x in np.arange(0.0, 0.95, 0.1):
            assert abs(hyp2f1_equal_ab(1, 1, x) * (1.0 - x) - 1.0) < 1e-12

    def test_x_zero_is_one(self):
        for a, c in [(1, 1), (3, 2), (7, 4)]:
            assert hyp2f1_equal_ab(a, c, 0.0) == 1.0

    def test_against_partial_sum_oracle(self):
        # 2F1(2,2;2;x) = sum_k (k+1) x^k; frozen from a 1e4-term partial sum
        x = 0.36
        oracle = sum((k + 1) * x**k for k in range(10_000))
        assert abs(oracle - 2.44140625) < 1e-12  # oracle sanity: 1/(1-x)^2
        assert abs(hyp2f1_equal_ab(2, 2, x) - oracle) < 1e-12

    def test_against_scipy(self):
        for a, c, x in [(2, 1, 0.5), (3, 4, 0.25), (5, 2, 0.8), (4, 1, 0.9)]:
            assert_allclose(
                hyp2f1_equal_ab(a, c, x),
                scipy.special.hyp2f1(a, a, c, x),
                rtol=1e-11,
            )

    def test_non_convergence_reports_a_and_x(self):
        with pytest.raises(ConvergenceError, match="5"):
            hyp2f1_equal_ab(5, 1, 0.9999999)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1_equal_ab(0, 1, 0.5)
        with pytest.raises(ValueError):
            hyp2f1_equal_ab(1, 1, 1.0)


class TestDiscreteLyapunov:
    def test_zero_k_returns_q(self):
        q = np.eye(3)
        assert_allclose(solve_discrete_lyapunov(np.zeros((3, 3)), q), q)

    def test_scalar_fixed_point(self):
        s = solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
        assert_allclose(s, [[4.0 / 3.0]], rtol=1e-12)

    def test_residual_and_symmetry_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            k = rng.standard_normal((5, 5))
            k *= 0.9 / spectral_radius(k)
            q = np.eye(5)
            s = solve_discrete_lyapunov(k, q)
            residual = k @ s @ k.T - s + q
            assert np.abs(residual).max() < 1e-10
            assert np.abs(s - s.T).max() < 1e-12

    def test_matches_truncated_power_sum(self):
        rng = np.random.default_rng(7)
        k = rng.standard_normal((4, 4))
        k *= 0.9 / spectral_radius(k)
        q = np.diag([1.0, 2.0, 0.5, 1.5])
        expected = np.zeros((4, 4))
        term = q.copy()
        for _ in range(201):
            expected += term
            term = k @ term @ k.T
        assert np.abs(solve_discrete_lyapunov(k, q) - expected).max() < 1e-8

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        k = rng.standard_normal((6, 6))
        k *= 0.85 / spectral_radius(k)
        q = rng.standard_normal((6, 6))
        q = q @ q.T
        assert_allclose(
            solve_discrete_lyapunov(k, q),
            scipy.linalg.solve_discrete_lyapunov(k, q),
            atol=1e-10,
        )
        # radius 0.9999: the sum over j of K^j Q K^jT needs ~10^5 terms to converge
        k *= 0.9999 / 0.85
        want = scipy.linalg.solve_discrete_lyapunov(k, q)
        got = solve_discrete_lyapunov(k, q)
        assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()

    def test_unstable_k_raises(self):
        with pytest.raises(StabilityError):
            solve_discrete_lyapunov(np.eye(2), np.eye(2))

    def test_doubling_cap_raises_convergence_error(self, monkeypatch):
        # 0.99^(2^2) is far from 0: two doublings leave a large update
        monkeypatch.setattr(numerics, "_LYAP_MAX_DOUBLINGS", 2)
        with pytest.raises(ConvergenceError, match="did not converge within 2 steps"):
            solve_discrete_lyapunov(0.99 * np.eye(2), np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_k_raises_numerical_error(self):
        k = 0.5 * np.eye(3)
        k[0, 1] = np.nan
        with pytest.raises(NumericalError, match="spectral radius"):
            solve_discrete_lyapunov(k, np.eye(3))


class TestContinuousLyapunov:
    def test_minus_identity(self):
        s = solve_continuous_lyapunov(-np.eye(2), np.eye(2))
        assert_allclose(s, np.eye(2) / 2.0, atol=1e-12)

    def test_decoupled_scalars(self):
        s = solve_continuous_lyapunov(np.diag([-1.0, -2.0]), np.diag([2.0, 4.0]))
        assert_allclose(s, np.eye(2), atol=1e-12)

    def test_matches_walk_series_on_ring(self):
        # Independent series oracle: S = sum_L sum_l c_{L-l,l} A^l (A^T)^{L-l}
        # with c = tau s^2 eps^L / (2^{L+1} n) binom(L, l). Layers decay like
        # eps^L, so 200 layers reach well below the 1e-8 comparison level.
        from math import comb

        eps, sigma, n = 0.9, 1.0, 3
        a = ring_adjacency(3)
        m = eps * a - np.eye(3)
        s = solve_continuous_lyapunov(m, sigma**2 / n * np.eye(3))
        powers = [np.linalg.matrix_power(a, k) for k in range(201)]
        series = np.zeros((3, 3))
        for total in range(201):
            for l_f in range(total + 1):
                c = sigma**2 * eps**total / (2 ** (total + 1) * n) * comb(total, l_f)
                series += c * powers[l_f] @ powers[total - l_f].T
        assert np.abs(s - series).max() < 1e-8

    def test_residual_at_moderate_size(self):
        rng = np.random.default_rng(8)
        for n in (10, 20, 50):
            # random part scaled well inside the mean-reversion margin
            m = -2.0 * np.eye(n) + 0.8 / np.sqrt(n) * rng.standard_normal((n, n))
            q = rng.standard_normal((n, n))
            q = q @ q.T / n
            s = solve_continuous_lyapunov(m, q)
            residual = m @ s + s @ m.T + q
            assert np.abs(residual).max() < 1e-9

    def test_singular_raises(self):
        with pytest.raises(StabilityError):
            solve_continuous_lyapunov(np.zeros((2, 2)), np.eye(2))


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_ring_is_one(self):
        assert spectral_radius(ring_adjacency(3)) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent_is_exactly_zero(self):
        a = np.triu(np.ones((3, 3)), k=1)
        assert spectral_radius(a) == 0.0

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_non_square_refused(self):
        with pytest.raises(ConfigurationError,
                           match=r"expected a square matrix, got shape \(2, 3\)"):
            spectral_radius(np.zeros((2, 3)))

    def test_diagonal_falls_back_to_the_eigensolve(self):
        # no off-diagonal mass, so the Perron bracket has no shift to work with
        a = np.diag(np.arange(1.0, 65.0))
        assert _perron_root(a) is None
        assert spectral_radius(a) == 64.0

    def test_non_zero_diagonal_skips_the_peel(self, monkeypatch):
        # a self-loop is a cycle: the radius of a triangular matrix is its
        # largest diagonal entry, found without peeling the pattern
        def refuse(pattern):
            raise AssertionError("nilpotency peel reached")

        monkeypatch.setattr(numerics, "_pattern_nilpotent", refuse)
        rng = np.random.default_rng(3)
        for n in (3, 10, 64):
            diag = np.zeros(n)
            diag[rng.integers(n)] = -0.5
            a = np.triu(rng.random((n, n)), k=1) + np.diag(diag)
            assert spectral_radius(a) == pytest.approx(0.5, rel=1e-12)

    def test_scaling_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            c = rng.uniform(-3.0, 3.0)
            assert_allclose(
                spectral_radius(c * a), abs(c) * spectral_radius(a), rtol=1e-9
            )

    @pytest.mark.parametrize("n", [64, 100, 150])
    def test_perron_root_matches_eigensolve(self, n):
        rng = np.random.default_rng(n)
        cases = []
        for _ in range(5):
            sparse = (rng.random((n, n)) < 0.1) * rng.random((n, n))
            cases.append(sparse)
            cases.append(sparse + np.diag(3.0 * rng.random(n)))  # positive diagonal
            cases.append(block_triangular(n, rng, upstream_scale=4.0))
            cases.append(block_triangular(n, rng, upstream_scale=0.25))
        cases += [summed_step_matrices(n, dt_tau, seed)
                  for dt_tau in (0.1, 0.5, 1.0) for seed in range(3)]
        cases += [ring_lattice(n, seed) for seed in range(3)]
        for a in cases:
            assert spectral_radius(a) == pytest.approx(largest_abs_eigenvalue(a), rel=1e-12)

    @pytest.mark.parametrize("n", [64, 100, 150])
    def test_bracket_closes_on_reducible_matrices(self, n):
        # the dominant block feeds the rest, and sources decay out of the lower bound
        rng = np.random.default_rng(n + 1)
        for _ in range(5):
            a = block_triangular(n, rng, upstream_scale=4.0)
            assert _perron_root(a) == pytest.approx(largest_abs_eigenvalue(a), rel=1e-12)

    def test_ring_lattice_falls_back_early(self):
        # the bracket closes too slowly, so the early exit hands the matrix to
        # eigvals after a few iterations rather than the full cap
        a = ring_lattice(100, 0)
        products = []

        class Counting(np.ndarray):
            def __matmul__(self, other):
                products.append(other)
                return np.asarray(self) @ other

        assert _perron_root(a.view(Counting)) is None
        assert len(products) <= 2 * numerics._PERRON_WINDOW + 3
        assert spectral_radius(a) == pytest.approx(largest_abs_eigenvalue(a), rel=1e-12)

    # Nodes 0..k-1 read the all-ones block with weight 1e-12 and feed it with
    # weight `feed`. Their Perron entries sit near 1e-12 of the others', so the
    # lower bound drops them and misses what they feed the block: the bracket
    # stays open once x has converged. With k = 1 and feed 1 x reaches an
    # exact fixed point (a zero step); with k = 4 and feed 100 its steps stay
    # at roundoff, which the rate check reads as closing in time, until the cap.
    @pytest.mark.parametrize("k, feed, capped", [(1, 1.0, False), (4, 100.0, True)],
                             ids=["zero-step", "iteration-cap"])
    def test_open_bracket_on_a_converged_iterate_falls_back(self, k, feed, capped,
                                                            monkeypatch):
        n = 64
        a = np.ones((n, n))
        a[:k] = 1e-12
        a[k:, :k] = feed

        class StepNorms:
            """numerics' math module, recording the norm of each power step."""

            def __init__(self):
                self.norms = []

            def sqrt(self, value):
                self.norms.append(math.sqrt(value))
                return self.norms[-1]

            def __getattr__(self, name):
                return getattr(math, name)

        steps = StepNorms()
        monkeypatch.setattr(numerics, "math", steps)
        assert _perron_root(a) is None
        if capped:
            assert len(steps.norms) == n and steps.norms[-1] > 0.0
        else:
            assert len(steps.norms) < n and steps.norms[-1] == 0.0
        monkeypatch.undo()
        assert spectral_radius(a) == largest_abs_eigenvalue(a)

    @pytest.mark.parametrize("d_e", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("n", [64, 100])
    @pytest.mark.parametrize("model", ["rr", "sw"])
    def test_slowly_mixing_lattices_fall_back_within_ten_steps(self, model, n, d_e):
        # sparse ring lattices close the bracket too slowly for the cap; the
        # rate of x's steps tells so after 5 to 10 power steps, where the
        # upper bound's drops took 11 to 16
        for seed in range(2):
            g = gen_graph(GraphConfig(model=model, n=n, d_e=d_e), np.random.default_rng(seed))
            a = g.adjacency()
            products = []

            class Counting(np.ndarray):
                def __matmul__(self, other):
                    products.append(other)
                    return np.asarray(self) @ other

            assert _perron_root(a.view(Counting)) is None
            assert len(products) <= 10
            assert spectral_radius(a) == largest_abs_eigenvalue(a)

    @pytest.mark.parametrize("model", ["gnm", "ba"])
    def test_sweep_graphs_keep_their_bracket_root(self, model):
        # the early exit never fires on the n = 100 graphs of the sweeps: the
        # root is the one the bracket closes on, bit for bit
        config = GraphConfig(model=model, n=100, d_e=0.1, r_e=0.5)
        for seed in range(1, 4):
            for item in range(10):
                rng = np.random.default_rng(derive_seed(seed, 0, item))
                graph = assign_lags(gen_graph_non_nilpotent(config, rng), 0, rng)
                _, mats = normalize_adjacency(graph)
                for a in (graph.adjacency(), step_matrices(mats, SDDParams()).sum(axis=0)):
                    assert _perron_root(a) == bracket_root(a)

    def test_cap_is_n_power_steps(self):
        # at n = 64 an eigensolve costs as much as 42-114 power steps: sparse
        # gnm graphs whose bracket needs 65-100 steps go to the eigensolve
        rng = np.random.default_rng(7)
        capped = 0
        for _ in range(20):
            config = GraphConfig(model="gnm", n=64, d_e=0.05)
            a = gen_graph_non_nilpotent(config, rng).adjacency()
            try:
                bracket_root(a, max_iter=64)
                continue
            except AssertionError:
                assert _perron_root(a) is None
            try:
                bracket_root(a, max_iter=100)  # the former cap took these
                capped += 1
            except AssertionError:
                pass
        assert capped >= 3

    def test_large_nilpotent_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        for n in (64, 100, 150):
            a = np.triu(rng.random((n, n)), k=1)
            perm = rng.permutation(n)
            assert spectral_radius(a) == 0.0
            assert spectral_radius(a[np.ix_(perm, perm)]) == 0.0

    def test_gnm_adjacency_skips_the_eigensolve(self, monkeypatch):
        def refuse(a):
            raise AssertionError("dense eigensolve reached")

        monkeypatch.setattr(numerics.np.linalg, "eigvals", refuse)
        for seed in range(5):
            g = gen_graph_non_nilpotent(GraphConfig(n=100, d_e=0.1),
                                        np.random.default_rng(seed))
            assert spectral_radius(g.adjacency()) > 0.0
            assert spectral_radius(summed_step_matrices(100, 0.5, seed)) > 0.0

    # an inf reaches the Perron iteration from n = 64 on, a NaN never does;
    # either way the eigensolve refuses it, with no warning on the way
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [5, 70])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_entries_raise_numerical_error(self, n, value):
        with pytest.raises(NumericalError, match="spectral radius"):
            spectral_radius(np.full((n, n), value))
        a = np.ones((n, n))
        a[1, 2] = value
        with pytest.raises(NumericalError, match="spectral radius"):
            spectral_radius(a)

    @pytest.mark.parametrize("a", [
        np.ones((63, 63)),  # below _PERRON_MIN_N
        np.ones((64, 64)) - 2.0 * np.eye(64),  # a negative entry
    ], ids=["small", "negative"])
    def test_other_matrices_take_the_eigensolve(self, a, monkeypatch):
        def refuse(a):
            raise AssertionError("Perron iteration reached")

        monkeypatch.setattr(numerics, "_perron_root", refuse)
        assert spectral_radius(a) == pytest.approx(largest_abs_eigenvalue(a), rel=1e-12)
