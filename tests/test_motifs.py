"""Walk-pair contribution tests, anchored by independent summation oracles."""

import warnings
from math import comb

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pemnet.errors import ConfigurationError, NumericalError, StabilityError
from pemnet.graphs import GraphConfig, gen_graph_non_nilpotent, normalize_adjacency
from pemnet.motifs import (
    TruncationWarning,
    contribution_cov,
    contribution_lagk,
    contribution_table,
    covariance_series,
    psi,
    write_contribution_table,
)
from pemnet.numerics import solve_discrete_lyapunov

from oracles import (
    contribution_delayed,
    contribution_lagk_per_term,
    contribution_oup,
    covariance_series_per_term,
    hyp2f1_equal_ab,
)

DEFAULTS = dict(eps=0.9, tau=1.0, sigma=0.2, n=5, dt_tau=0.5)


def zeta_sum_oracle(l_b, l_f, z, terms=1000):
    # finite partial sum of the raw binomial resummation that defines psi
    top = max(l_b, l_f)
    total = 0.0
    for k in range(terms):
        kk = k + top
        total += (
            comb(kk, l_b) * comb(kk, l_f)
            * (1.0 - z) ** (2 * kk - l_b - l_f) * z ** (l_b + l_f)
        ) * z
    return total


def random_normalized(seed, n=5):
    g = gen_graph_non_nilpotent(GraphConfig(n=n), np.random.default_rng(seed))
    a, _ = normalize_adjacency(g)
    return a


class TestPsi:
    def test_symmetry_is_exact(self):
        for z in (0.1, 0.5, 0.77, 1.0):
            for p in range(5):
                for q in range(5):
                    assert psi(p, q, z) == psi(q, p, z)

    def test_zero_zero_closed_form(self):
        for z in (0.1, 0.5, 0.9, 1.0):
            assert psi(0, 0, z) == pytest.approx(1.0 / (2.0 - z), rel=1e-14)

    def test_boundary_values_at_one(self):
        for p in range(4):
            assert psi(p, p, 1.0) == 1.0
            for q in range(4):
                if p != q:
                    assert psi(p, q, 1.0) == 0.0

    def test_matches_direct_hypergeometric_formula(self):
        # same function through the un-transformed series route
        for z in (0.3, 0.5, 0.8, 0.95):
            for p in range(4):
                for q in range(4):
                    gap = abs(p - q)
                    direct = (
                        z ** (p + q + 1) * (1.0 - z) ** gap * comb(max(p, q), gap)
                        * hyp2f1_equal_ab(max(p, q) + 1, gap + 1, (1.0 - z) ** 2)
                    )
                    assert_allclose(psi(p, q, z), direct, rtol=1e-12)

    def test_matches_zeta_sum_oracle(self):
        assert abs(psi(1, 0, 0.5) - zeta_sum_oracle(1, 0, 0.5)) < 1e-10
        assert abs(psi(2, 2, 0.6) - zeta_sum_oracle(2, 2, 0.6)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ConfigurationError):
            psi(0, 0, 0.0)
        with pytest.raises(ConfigurationError):
            psi(0, 0, 1.5)


class TestContributionCov:
    def test_self_pair_closed_form(self):
        got = contribution_cov(0, 0, **DEFAULTS)
        scale = DEFAULTS["tau"] * DEFAULTS["sigma"] ** 2 / DEFAULTS["n"]
        assert got == pytest.approx(scale / 1.5, rel=1e-14)

    def test_var1_localization(self):
        args = dict(DEFAULTS, dt_tau=1.0)
        assert contribution_cov(0, 1, **args) == 0.0
        scale = DEFAULTS["tau"] * DEFAULTS["sigma"] ** 2 / DEFAULTS["n"]
        assert contribution_cov(1, 1, **args) == pytest.approx(
            scale * 0.81, rel=1e-14
        )
        for l_b in range(5):
            for l_f in range(5):
                if l_b != l_f:
                    assert contribution_cov(l_b, l_f, **args) == 0.0

    def test_small_dt_tau_approaches_continuous_limit(self):
        args = dict(DEFAULTS, dt_tau=1e-4)
        got = contribution_cov(1, 2, **args)
        want = contribution_oup(1, 2, eps=0.9, tau=1.0, sigma=0.2, n=5)
        assert abs(got / want - 1.0) < 1e-3
        assert want == pytest.approx(
            1.0 * 0.2**2 * 0.9**3 / (2**4 * 5) * comb(3, 2), rel=1e-14
        )

    def test_is_the_closed_product_bit_for_bit(self):
        # the lag-0 table entry is the product (tau sigma^2 / n eps^L) psi, in
        # that order, that contribution_cov once computed itself
        tau, sigma, n = DEFAULTS["tau"], DEFAULTS["sigma"], DEFAULTS["n"]
        for z in (1e-5, 0.1, 0.5, 1.0):
            for eps in (0.5, 0.9):
                args = dict(DEFAULTS, eps=eps, dt_tau=z)
                for total in range(25):
                    for l_f in range(total + 1):
                        l_b = total - l_f
                        want = tau * sigma**2 / n * eps ** (l_b + l_f) * psi(l_b, l_f, z)
                        assert contribution_cov(l_b, l_f, **args) == want


class TestContributionLagk:
    def test_k1_recursion_instance(self):
        z = DEFAULTS["dt_tau"]
        got = contribution_lagk(1, 1, 1, **DEFAULTS)
        want = contribution_cov(1, 1, **DEFAULTS) * (1 - z) + contribution_cov(
            1, 0, **DEFAULTS
        ) * 0.9 * z
        assert got == pytest.approx(want, rel=1e-14)

    def test_k1_boundary_term_vanishes(self):
        z = DEFAULTS["dt_tau"]
        assert contribution_lagk(1, 0, 0, **DEFAULTS) == pytest.approx(
            (1 - z) * contribution_cov(0, 0, **DEFAULTS), rel=1e-14
        )

    def test_reverse_walk_ratio(self):
        for z in (0.1, 0.4, 0.9):
            for eps in (0.2, 0.9):
                args = dict(DEFAULTS, dt_tau=z, eps=eps)
                ratio = contribution_lagk(1, 1, 0, **args) / contribution_cov(
                    1, 0, **args
                )
                assert ratio == pytest.approx(1.0 - z, rel=1e-12)


class TestCoefficientTable:
    def test_lagk_matches_per_term_recursion_bit_for_bit(self):
        for z in (1e-4, 0.1, 0.5, 0.8, 1.0):
            for eps in (0.3, 0.9, 1.7):
                args = dict(DEFAULTS, eps=eps, dt_tau=z)
                for k in range(5):
                    for l_b in range(9):
                        for l_f in range(9):
                            assert contribution_lagk(k, l_b, l_f, **args) == (
                                contribution_lagk_per_term(k, l_b, l_f, **args))

    @pytest.mark.parametrize("k, l_b, l_f", [(-1, 0, 0), (0, -1, 2), (2, 1, -1)])
    def test_negative_lag_or_length_raises(self, k, l_b, l_f):
        with pytest.raises(ConfigurationError):
            contribution_lagk(k, l_b, l_f, **DEFAULTS)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("eps, dt_tau", [(0.3, 0.5), (0.9, 0.5), (0.9, 0.8)])
    def test_series_matches_per_term_loop(self, k, eps, dt_tau):
        # one product per layer against one product per term: the same stop,
        # the same sum up to the order of its roundoff
        for seed in range(5):
            a = random_normalized(seed)
            for l_max in (0, 1, 5, 12):
                args = dict(eps=eps, tau=1.0, sigma=0.2, dt_tau=dt_tau, k=k,
                            l_max=l_max, tol=1e-9)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", TruncationWarning)
                    got = covariance_series(a, **args)
                want, layers, converged = covariance_series_per_term(a, **args)
                assert (got.layers, got.converged) == (layers, converged)
                assert np.abs(got.matrix - want).max() <= 1e-15 * np.abs(want).max()


class TestContributionOup:
    def test_self_pair(self):
        assert contribution_oup(0, 0, eps=0.9, tau=1.0, sigma=0.2, n=5) == (
            pytest.approx(1.0 * 0.04 / (2 * 5), rel=1e-14)
        )

    def test_single_step_walks_tie(self):
        fwd = contribution_oup(0, 1, eps=0.9, tau=1.0, sigma=0.2, n=5)
        bwd = contribution_oup(1, 0, eps=0.9, tau=1.0, sigma=0.2, n=5)
        assert fwd == bwd == pytest.approx(1.0 * 0.04 * 0.9 / (4 * 5), rel=1e-14)

    def test_is_small_dt_tau_limit_up_to_length_8(self):
        for total in range(9):
            for l_f in range(total + 1):
                got = contribution_cov(total - l_f, l_f, **dict(DEFAULTS, dt_tau=1e-5))
                want = contribution_oup(total - l_f, l_f, eps=0.9, tau=1.0,
                                        sigma=0.2, n=5)
                assert abs(got / want - 1.0) < 1e-3


class TestContributionDelayed:
    def test_zero_delays_identity(self):
        for k in (0, 1, 2):
            assert contribution_delayed(k, 1, 2, 0, 0, **DEFAULTS) == (
                contribution_lagk(k, 1, 2, **DEFAULTS)
            )

    def test_forward_delay_instance(self):
        args = dict(DEFAULTS, dt_tau=0.8)
        got = contribution_delayed(2, 0, 1, 0, 1, **args)
        want = contribution_lagk(2, 0, 2, **args) / (0.9 * 0.8)
        assert got == pytest.approx(want, rel=1e-14)

    def test_positive_on_grid(self):
        for z in (0.2, 0.8, 1.0):
            for d in (0, 1, 2):
                v = contribution_delayed(1, 1, 1, d, d, **dict(DEFAULTS, dt_tau=z))
                assert np.isfinite(v) and v >= 0.0

    def test_zero_coupling_with_delay_raises(self):
        with pytest.raises(ConfigurationError):
            contribution_delayed(1, 0, 1, 0, 1, **dict(DEFAULTS, eps=0.0))


class TestCovarianceSeries:
    def test_decoupled_diagonal(self):
        res = covariance_series(np.zeros((4, 4)), eps=0.9, tau=1.0, sigma=0.2,
                                dt_tau=0.5)
        scale = 1.0 * 0.04 / 4 / 1.5
        assert res.converged
        assert_allclose(res.matrix, scale * np.eye(4), atol=1e-15)

    def test_oracle_equivalence_with_discrete_lyapunov(self):
        # adaptive depth: layers shrink like eps^L, so the tolerance-driven
        # stop lands around layer 150 at eps = 0.9
        for seed in range(100):
            a = random_normalized(seed)
            res = covariance_series(a, eps=0.9, tau=1.0, sigma=0.2, dt_tau=0.5,
                                    l_max=250, tol=1e-11)
            k_mat = 0.5 * np.eye(5) + 0.5 * 0.9 * a
            want = solve_discrete_lyapunov(k_mat, 0.04 * 0.5 / 5 * np.eye(5))
            assert res.converged
            assert np.abs(res.matrix - want).max() < 1e-8

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("dt_tau", [1.0, 1.0 - 1e-7])
    def test_runs_past_exactly_zero_layers(self, k, dt_tau):
        # at dt/tau = 1 the layers below k, and then every other layer, are
        # exactly 0; one small layer must not stop the sum
        for seed in range(5):
            a = random_normalized(seed)
            res = covariance_series(a, eps=0.9, tau=1.0, sigma=0.2, dt_tau=dt_tau, k=k,
                                    l_max=250, tol=1e-11)
            k_mat = (1.0 - dt_tau) * np.eye(5) + dt_tau * 0.9 * a
            sigma = solve_discrete_lyapunov(k_mat, 0.04 * dt_tau / 5 * np.eye(5))
            assert res.converged and res.layers > 100
            want = np.linalg.matrix_power(k_mat, k) @ sigma
            assert np.abs(res.matrix - want).max() < 1e-9

    def test_lagged_series_recursion(self):
        for seed in range(5):
            a = random_normalized(seed)
            k_mat = 0.5 * np.eye(5) + 0.5 * 0.9 * a
            prev = covariance_series(a, eps=0.9, tau=1.0, sigma=0.2, dt_tau=0.5,
                                     k=0, l_max=250, tol=1e-11).matrix
            for k in (1, 2, 3):
                cur = covariance_series(a, eps=0.9, tau=1.0, sigma=0.2, dt_tau=0.5,
                                        k=k, l_max=250, tol=1e-11).matrix
                assert np.abs(cur - k_mat @ prev).max() < 1e-9
                prev = cur

    def test_truncation_warning(self):
        a = random_normalized(1)
        with pytest.warns(TruncationWarning):
            res = covariance_series(a, eps=0.9, tau=1.0, sigma=0.2, dt_tau=0.5,
                                    l_max=10, tol=1e-12)
        assert not res.converged
        assert res.last_increment > 1e-12

    def test_unstable_raises(self):
        a = random_normalized(2)
        with pytest.raises(StabilityError):
            covariance_series(a, eps=1.05, tau=1.0, sigma=0.2, dt_tau=1.0)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_adjacency_raises_numerical_error(self):
        a = random_normalized(3)
        a[1, 2] = np.nan
        with pytest.raises(NumericalError, match="spectral radius"):
            covariance_series(a, eps=0.9, tau=1.0, sigma=0.2, dt_tau=0.5)

    def test_eps_one_refused_on_every_graph(self):
        # at eps = 1 the radius is 1 up to roundoff; the stability margin
        # refuses every graph rather than summing a divergent series
        for n in (3, 10):
            for seed in range(5):
                g = gen_graph_non_nilpotent(GraphConfig(n=n), np.random.default_rng(seed))
                a, _ = normalize_adjacency(g)
                with pytest.raises(StabilityError, match="needs < 1 - 1e-12"):
                    covariance_series(a, eps=1.0, tau=1.0, sigma=0.2, dt_tau=0.5)


TABLE_KW = dict(eps=0.9, tau=1.0, sigma=1.0, n=10, dt_tau=0.5)
SERIES_KW = dict(eps=0.5, tau=1.0, sigma=1.0, dt_tau=0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: psi(1.5, 1, 0.5), "p must be an integer, got 1.5"),
    (lambda: contribution_cov(0.5, 1, **TABLE_KW), "l_b must be an integer, got 0.5"),
    (lambda: contribution_cov(1, 1, **dict(TABLE_KW, n=2.5)), "n must be an integer"),
    (lambda: contribution_lagk(1.5, 1, 1, **TABLE_KW), "k must be an integer, got 1.5"),
    (lambda: contribution_lagk(1, 1, 1.0, **TABLE_KW), "l_f must be an integer, got 1.0"),
    (lambda: covariance_series(np.zeros((3, 3)), k=1.5, **SERIES_KW),
     "k must be an integer, got 1.5"),
    (lambda: covariance_series(np.zeros((3, 3)), l_max=10.0, **SERIES_KW),
     "l_max must be an integer, got 10.0"),
    (lambda: covariance_series(np.zeros((3, 3)), l_max=-1, **SERIES_KW),
     "l_max must be >= 0, got -1"),
    (lambda: covariance_series(np.zeros((2, 3)), **SERIES_KW),
     r"adjacency must be square, got shape \(2, 3\)"),
    (lambda: covariance_series(np.zeros((3, 3)), tol=np.nan, **SERIES_KW),
     r"tol must lie in \[0, inf\), got nan"),
    (lambda: covariance_series(np.zeros((3, 3)), tol=-1e-12, **SERIES_KW),
     r"tol must lie in \[0, inf\), got -1e-12"),
    (lambda: contribution_table([1.5], 2, **TABLE_KW), "k must be an integer, got 1.5"),
    (lambda: contribution_table([1], 2.5, **TABLE_KW), "l_max must be an integer, got 2.5"),
    (lambda: contribution_table([1], 2, **dict(TABLE_KW, n=2.5)),
     "n must be an integer, got 2.5"),
], ids=["psi", "cov-l_b", "cov-n", "lagk-k", "lagk-l_f", "series-k", "series-l_max",
        "series-negative-l_max", "series-square", "series-nan-tol", "series-negative-tol",
        "table-k", "table-l_max", "table-n"])
def test_counts_and_lags_must_be_integers(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call()


STABLE = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("call, message", [
    (lambda: psi(1, 1, "x"), r"dt/tau must lie in \(0, 1\], got 'x'"),
    (lambda: contribution_cov(1, 1, **dict(TABLE_KW, n=0)), "n must be >= 1, got 0"),
    (lambda: contribution_lagk(1, 1, 1, **dict(TABLE_KW, n=0)), "n must be >= 1, got 0"),
    (lambda: covariance_series(np.zeros((0, 0)), **SERIES_KW), "n must be >= 1, got 0"),
    (lambda: contribution_cov(1, 1, **dict(TABLE_KW, tau=-1.0)),
     r"tau must lie in \(0, inf\), got -1.0"),
    (lambda: contribution_lagk(1, 1, 1, **dict(TABLE_KW, tau=-1.0)),
     r"tau must lie in \(0, inf\), got -1.0"),
    (lambda: covariance_series(STABLE, **dict(SERIES_KW, tau=-1.0)),
     r"tau must lie in \(0, inf\), got -1.0"),
    (lambda: contribution_cov(1, 1, **dict(TABLE_KW, eps=np.nan)), "eps must lie in"),
    (lambda: contribution_lagk(1, 1, 1, **dict(TABLE_KW, eps=np.nan)), "eps must lie in"),
    (lambda: covariance_series(STABLE, **dict(SERIES_KW, eps=np.nan)), "eps must lie in"),
    (lambda: contribution_lagk(1, 1, 1, **dict(TABLE_KW, sigma="x")), "sigma must lie in"),
    (lambda: contribution_table([0], 2, **dict(TABLE_KW, dt_tau=1.5)),
     r"dt/tau must lie in \(0, 1\], got 1.5"),
    (lambda: contribution_table([0], 0, **TABLE_KW), "l_max must be >= 1, got 0"),
    (lambda: contribution_table([], 2, **dict(TABLE_KW, n=0)), "need at least one lag k"),
    (lambda: psi(-1, 0, 0.5), "p must be >= 0, got -1"),
], ids=["psi-string-z", "cov-n0", "lagk-n0", "series-0x0", "cov-tau", "lagk-tau",
        "series-tau", "cov-nan-eps", "lagk-nan-eps", "series-nan-eps", "lagk-string-sigma",
        "table-dt_tau", "table-l_max-0", "table-no-lag", "psi-negative-p"])
def test_every_motif_function_refuses_bad_parameters(call, message):
    # one check in _coefficients serves every function; the n = 0, tau < 0 and
    # NaN eps calls once raised ZeroDivisionError, returned a negative
    # covariance, or returned NaN (covariance_series: NumericalError)
    with pytest.raises(ConfigurationError, match=message):
        call()


class TestContributionTable:
    def test_var1_argmax_is_shared_driver(self):
        rows = contribution_table([0], 3, eps=0.9, tau=1.0, sigma=1.0, n=10,
                                  dt_tau=1.0)
        peaks = {(r.l_b, r.l_f) for r in rows if r.is_argmax}
        assert peaks == {(1, 1)}

    def test_continuous_proxy_argmax_is_single_step_pair(self):
        rows = contribution_table([0], 3, eps=0.9, tau=1.0, sigma=1.0, n=10,
                                  dt_tau=1e-4)
        peaks = {(r.l_b, r.l_f) for r in rows if r.is_argmax}
        assert peaks == {(0, 1), (1, 0)}

    def test_lag3_argmax_is_length3_forward_walk(self):
        rows = contribution_table([3], 4, eps=0.9, tau=1.0, sigma=1.0, n=10,
                                  dt_tau=0.8)
        peaks = {(r.l_b, r.l_f) for r in rows if r.is_argmax and r.k == 3}
        assert peaks == {(0, 3)}

    def test_lmax_guard(self):
        with pytest.raises(ConfigurationError):
            contribution_table([0], 13, eps=0.9, tau=1.0, sigma=1.0, n=10,
                               dt_tau=0.5)

    def test_csv_round_trip(self, tmp_path):
        rows = contribution_table([0, 1], 2, eps=0.9, tau=1.0, sigma=1.0, n=10,
                                  dt_tau=0.5)
        path = tmp_path / "table.csv"
        write_contribution_table(rows, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,lB,lF,value,is_argmax"
        assert len(lines) == 1 + len(rows)
        k, l_b, l_f, value, is_max = lines[1].split(",")
        assert float(value) == rows[0].value  # 17 significant digits round-trip
