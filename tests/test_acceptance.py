"""Acceptance suite: one test per exit criterion, one printed line per criterion.

Every tolerance is pinned here. Seeds derive from a master seed of 0 through
the documented mixing function, with the criterion number and arm index as
stream separators, so no arm shares or cherry-picks random streams.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
import warnings

import numpy as np

from pemnet.bench import (
    accuracy,
    baseline_accuracy,
    derive_seed,
    run_trial,
    spearman,
    threshold_pem,
)
from pemnet.dynamics import SDDParams, simulate_sdd
from pemnet.graphs import (
    GraphConfig,
    anticlustering,
    gen_graph_non_nilpotent,
    gen_shooting_star,
    normalize_adjacency,
)
from pemnet.motifs import (
    TruncationWarning,
    contribution_cov,
    contribution_lagk,
    covariance_series,
)
from pemnet.numerics import solve_discrete_lyapunov
from pemnet.pem import alpha_lccf, alpha_lcrc, compute_pem, estimate_tau_inv

from oracles import contribution_oup

DEFAULT_GRAPH = dict(model="gnm", n=10, d_e=0.5, r_e=0.5)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_normalized_5node(seed):
    g = gen_graph_non_nilpotent(
        GraphConfig(n=5, d_e=0.5, r_e=0.5), np.random.default_rng(seed)
    )
    a, _ = normalize_adjacency(g)
    return a


def trial_means(criterion, arm, cell, pems, trials, delta_hat=None):
    """Mean accuracy per measure over `trials` seeded trials of one arm."""
    config = GraphConfig(**{**DEFAULT_GRAPH, "delta": cell.get("delta", 0)})
    params = SDDParams(
        eps=cell.get("eps", 0.9), tau=cell.get("tau", 1.0),
        dt=cell.get("dt", 0.5), sigma=cell.get("sigma", 0.2),
        eta=cell.get("eta", 0.0), delta=cell.get("delta", 0),
        n_obs=cell.get("N", 1000),
    )
    accs = {kind: [] for kind in pems}
    for trial in range(trials):
        seed = derive_seed(0, criterion, arm, trial)
        for rec in run_trial(config, params, pems, seed, delta_hat=delta_hat,
                             trial=trial):
            assert not rec.error, rec.error
            accs[rec.pem_kind].append(rec.accuracy)
    return {kind: np.asarray(v) for kind, v in accs.items()}


def test_criterion_01_series_matches_lyapunov_at_stated_depth():
    # As stated: 100 random 5-node stable instances, eps=0.9, dt/tau=0.5,
    # series depth capped at 80 layers, max-abs tolerance 1e-8, under 5 s.
    # The series sheds only a factor eps=0.9 per layer, so 80 layers leave a
    # truncation residual near 4e-6; the stated depth cannot reach 1e-8 (the
    # adaptive-depth equivalence check in test_motifs passes at 1e-8).
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        a = random_normalized_5node(derive_seed(0, 1, 0, i))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            res = covariance_series(a, eps=0.9, tau=1.0, sigma=0.2, dt_tau=0.5,
                                    k=0, l_max=80, tol=1e-12)
        k_mat = 0.5 * np.eye(5) + 0.5 * 0.9 * a
        want = solve_discrete_lyapunov(k_mat, 0.2**2 * 0.5 / 5 * np.eye(5))
        worst = max(worst, float(np.abs(res.matrix - want).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    report(1, ok, f"max |series(l_max=80) - lyapunov| = {worst:.3g} "
                  f"(tol 1e-8), runtime {elapsed:.2f} s (< 5 s)")


def test_criterion_02_continuous_limit_of_contributions():
    worst = 0.0
    for total in range(9):
        for l_f in range(total + 1):
            got = contribution_cov(total - l_f, l_f, eps=0.9, tau=1.0,
                                   sigma=0.2, n=5, dt_tau=1e-5)
            want = contribution_oup(total - l_f, l_f, eps=0.9, tau=1.0,
                                    sigma=0.2, n=5)
            worst = max(worst, abs(got / want - 1.0))
    ok = worst < 1e-3
    report(2, ok, f"max relative gap to continuous-time contributions "
                  f"{worst:.3g} (tol 1e-3) over lengths <= 8")


def test_criterion_03_lagged_series_recursion_identity():
    worst = 0.0
    for i in range(20):
        a = random_normalized_5node(derive_seed(0, 3, 0, i))
        k_mat = 0.5 * np.eye(5) + 0.5 * 0.9 * a
        prev = covariance_series(a, eps=0.9, tau=1.0, sigma=0.2, dt_tau=0.5,
                                 k=0, l_max=250, tol=1e-11).matrix
        for k in (1, 2, 3):
            cur = covariance_series(a, eps=0.9, tau=1.0, sigma=0.2, dt_tau=0.5,
                                    k=k, l_max=250, tol=1e-11).matrix
            worst = max(worst, float(np.abs(cur - k_mat @ prev).max()))
            prev = cur
    ok = worst < 1e-9
    report(3, ok, f"max |series(k) - K series(k-1)| = {worst:.3g} (tol 1e-9), "
                  f"k in 1..3, 20 instances")


def test_criterion_04_correction_factor_identities():
    worst = 0.0
    for z in np.arange(0.1, 1.0, 0.1):
        for eps in (0.3, 0.9, 1.7):
            shared = dict(eps=eps, tau=1.0, sigma=1.0, n=1, dt_tau=z)
            ratio_cf = contribution_lagk(1, 1, 1, **shared) / contribution_cov(
                1, 1, **shared)
            ratio_rc = contribution_lagk(1, 1, 0, **shared) / contribution_cov(
                1, 0, **shared)
            worst = max(worst, abs(alpha_lccf(z) - ratio_cf),
                        abs(alpha_lcrc(z) - ratio_rc))
    boundary = abs(alpha_lccf(1.0)) + abs(alpha_lcrc(1.0))
    ok = worst < 1e-12 and boundary == 0.0
    report(4, ok, f"max |closed form - contribution ratio| = {worst:.3g} "
                  f"(tol 1e-12) on 9-point grid, both factors 0 at dt/tau=1")


def test_criterion_05_default_ordering_and_margin():
    t0 = time.perf_counter()
    means = trial_means(5, 0, {}, ["lcrc", "lc"], trials=100)
    elapsed = time.perf_counter() - t0
    lcrc, lc = means["lcrc"].mean(), means["lc"].mean()
    ok = (lcrc > lc + 0.03) and (lcrc > 0.5 + 0.10) and elapsed < 120.0
    report(5, ok, f"mean lcrc {lcrc:.4f} vs lc {lc:.4f} (margin 0.03) and "
                  f"baseline 0.5 (margin 0.10); runtime {elapsed:.1f} s (< 120 s)")


def test_criterion_06_correction_crossover_in_sampling_period():
    details = []
    ok = True
    for arm, (dt, expect_positive) in enumerate(
        [(0.1, True), (0.5, False), (0.8, False)]
    ):
        means = trial_means(6, arm, {"dt": dt}, ["lcrc", "lccf"], trials=200)
        diff = means["lcrc"] - means["lccf"]
        t_stat = diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size))
        good = t_stat >= 3.0 if expect_positive else t_stat <= -3.0
        ok = ok and good
        details.append(f"dt={dt}: mean diff {diff.mean():+.4f} (t={t_stat:+.1f})")
    report(6, ok, "lcrc - lccf paired over 200 trials: " + "; ".join(details)
                  + " (need t >= +3 at 0.1, t <= -3 at 0.5 and 0.8)")


def test_criterion_07_low_reciprocity_favors_confounder_correction():
    means = {}
    for arm, r_e in enumerate([0.0, 1.0]):
        config = GraphConfig(model="gnm", n=10, d_e=0.5, r_e=r_e)
        accs = []
        for trial in range(200):
            seed = derive_seed(0, 7, arm, trial)
            rec = run_trial(config, SDDParams(), ["lccf"], seed, trial=trial)[0]
            assert not rec.error
            accs.append(rec.accuracy)
        means[r_e] = np.mean(accs)
    gap = means[0.0] - means[1.0]
    ok = gap >= 0.02
    report(7, ok, f"mean lccf accuracy {means[0.0]:.4f} at r_e=0 vs "
                  f"{means[1.0]:.4f} at r_e=1; gap {gap:+.4f} (need >= 0.02)")


def test_criterion_08_noise_effects():
    # system noise: identical seed streams isolate the scale invariance of the
    # correlation pipeline, so accuracy must not move at all across sigma
    sigma_means = {}
    for sigma in (0.05, 0.2, 1.0):
        means = trial_means(8, 0, {"sigma": sigma}, ["lcrc"], trials=100)
        sigma_means[sigma] = means["lcrc"]
    spread = max(v.mean() for v in sigma_means.values()) - min(
        v.mean() for v in sigma_means.values())
    se = sigma_means[0.2].std(ddof=1) / np.sqrt(100)
    clean = trial_means(8, 1, {}, ["lcrc"], trials=100)["lcrc"].mean()
    noisy = trial_means(8, 1, {"eta": 2.0}, ["lcrc"], trials=100)["lcrc"].mean()
    drop = clean - noisy
    ok = spread < 2 * se and drop >= 0.03
    report(8, ok, f"accuracy spread across sigma {spread:.4g} (< 2 se = {2*se:.4g}); "
                  f"measurement noise at 10x sigma drops accuracy by {drop:.4f} "
                  f"(need >= 0.03)")


def test_criterion_09_inverse_time_scale_estimator():
    details = []
    ok = True
    for arm, tau in enumerate([1.0, 2.0, 5.0]):
        params = SDDParams(tau=tau, n_obs=10_000)
        estimates = []
        for trial in range(20):
            rng = np.random.default_rng(derive_seed(0, 9, arm, trial))
            g = gen_graph_non_nilpotent(GraphConfig(**DEFAULT_GRAPH), rng)
            _, mats = normalize_adjacency(g)
            ts = simulate_sdd(mats, params, rng)
            estimates.append(estimate_tau_inv(ts).tau_inv)
        rel = abs(np.mean(estimates) * tau - 1.0)
        ok = ok and rel < 0.10
        details.append(f"tau={tau}: mean estimate {np.mean(estimates):.4f} "
                       f"(rel err {rel:.3f})")
    report(9, ok, "; ".join(details) + " (need rel err < 0.10, 20 trials each)")


def test_criterion_10_shooting_star_dip():
    means = {}
    for arm, hub_degree in enumerate([2, 5, 9]):
        g = gen_shooting_star(10, hub_degree)
        _, mats = normalize_adjacency(g)
        accs = []
        for trial in range(100):
            rng = np.random.default_rng(derive_seed(0, 10, arm, trial))
            ts = simulate_sdd(mats, SDDParams(), rng)
            inferred = threshold_pem(compute_pem(ts, "lcrc", dt_tau=0.5), g.m)
            accs.append(accuracy(inferred, g))
        means[hub_degree] = np.mean(accs)
    ok = means[5] < means[2] and means[5] < means[9]
    report(10, ok, f"mean lcrc accuracy by hub fraction: "
                   f"0.2 -> {means[2]:.4f}, 0.5 -> {means[5]:.4f}, "
                   f"0.9 -> {means[9]:.4f} (dip required at 0.5)")


def test_criterion_11_assumed_lag_mismatch():
    stats = {}
    for arm, delta_hat in enumerate([0, 5, 8]):
        means = trial_means(11, arm, {"delta": 5}, ["lcrc"], trials=100,
                            delta_hat=delta_hat)["lcrc"]
        stats[delta_hat] = (means.mean(), means.std(ddof=1) / np.sqrt(means.size))
    gain = stats[5][0] - stats[0][0]
    gap = abs(stats[8][0] - stats[5][0])
    limit = 2 * float(np.hypot(stats[5][1], stats[8][1]))
    ok = gain >= 0.05 and gap <= limit
    report(11, ok, f"underestimation penalty: {stats[5][0]:.4f} at matched lag vs "
                   f"{stats[0][0]:.4f} at lag 0 (gain {gain:+.4f}, need >= 0.05); "
                   f"overestimation gap {gap:.4f} vs 2 se = {limit:.4f}")


def test_criterion_12_timing_separation():
    times = {kind: [] for kind in ("lcrc", "lccf", "lc", "gc")}
    for trial in range(20):
        seed = derive_seed(0, 12, 0, trial)
        for rec in run_trial(GraphConfig(**DEFAULT_GRAPH), SDDParams(),
                             list(times), seed, trial=trial):
            assert not rec.error
            times[rec.pem_kind].append(rec.wall_time_s)
    med = {kind: float(np.median(v)) for kind, v in times.items()}
    ratio_rc = med["gc"] / med["lcrc"]
    ratio_cf = med["gc"] / med["lccf"]
    ok = ratio_rc >= 10.0 and ratio_cf >= 10.0
    report(12, ok, f"median wall time gc {med['gc']*1e3:.2f} ms vs "
                   f"lcrc {med['lcrc']*1e3:.3f} ms ({ratio_rc:.0f}x) and "
                   f"lccf {med['lccf']*1e3:.3f} ms ({ratio_cf:.0f}x); need >= 10x")


def test_criterion_13_baseline_formula_monte_carlo():
    rng = np.random.default_rng(derive_seed(0, 13, 0, 0))
    draws = 100_000
    details = []
    ok = True
    for m in (9, 45, 81):
        truth = np.zeros(90, dtype=bool)
        truth[rng.choice(90, size=m, replace=False)] = True
        scores = rng.random((draws, 90))
        top = np.argpartition(scores, 90 - m, axis=1)[:, 90 - m:]
        guesses = np.zeros((draws, 90), dtype=np.int64)
        np.put_along_axis(guesses, top, 1, axis=1)
        overlap = guesses @ truth.astype(np.int64)
        phi = 1.0 - 2.0 * (m - overlap) / 90.0
        gap = abs(phi.mean() - baseline_accuracy(10, m))
        ok = ok and gap < 0.005
        details.append(f"d={m/90:.1f}: gap {gap:.4f}")
    report(13, ok, "monte carlo vs 1 - 2d(1-d): " + "; ".join(details)
                   + f" (tol 0.005, {draws} draws)")


def test_criterion_14_anticlustering_anticorrelates_with_accuracy():
    cell_acc, cell_anticl = [], []
    for mi, model in enumerate(("gnm", "ba", "rr", "sw")):
        for ni, n in enumerate((10, 20, 30)):
            config = GraphConfig(model=model, n=n, d_e=0.5, r_e=0.5)
            accs, anticls = [], []
            for trial in range(25):
                rng = np.random.default_rng(derive_seed(0, 14, mi * 10 + ni, trial))
                g = gen_graph_non_nilpotent(config, rng)
                anticls.append(anticlustering(g)[1])
                _, mats = normalize_adjacency(g)
                ts = simulate_sdd(mats, SDDParams(), rng)
                inferred = threshold_pem(compute_pem(ts, "lcrc", dt_tau=0.5), g.m)
                accs.append(accuracy(inferred, g))
            cell_acc.append(np.mean(accs))
            cell_anticl.append(np.mean(anticls))
    r_s = spearman(cell_acc, cell_anticl)
    ok = r_s < 0.0 and abs(r_s) >= 0.5
    report(14, ok, f"rank correlation of mean accuracy vs mean anticlustering "
                   f"over 12 (model, n) cells: {r_s:.3f} (need <= -0.5)")
