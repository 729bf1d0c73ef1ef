"""End-to-end acceptance gate.

Each test prints one ``criterion NN PASS/FAIL`` line via ``record_criterion``
(re-printed in the terminal summary) and then asserts. Criteria 3, 4, 5, and 9
share one seeded experiment grid over calibration sizes (100, 500, 2000).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from _oracles import dense_pair_kernel, dual_witness_check, mixture_logistic_model, qp_oracle, witness_probe
from conftest import record_criterion
from unsupcp.bounds import excess_gap_kernel
from unsupcp.classifier import ce_objective_grad, estimate_loss_bound, train_logistic
from unsupcp.data import Dataset, SyntheticConfig, generate_synthetic, split_dataset
from unsupcp.harness import (
    CalibrationResult,
    ExperimentConfig,
    _val_count,
    calibrate_unsupervised,
    run_experiment,
    run_trial,
)
from unsupcp.kernel import KernelSpec, build_context, mmd_objective
from unsupcp.quantile import conformal_quantile_supervised, conformal_quantile_weighted, evaluate, prediction_mask
from unsupcp.scores import build_score_matrix
from unsupcp.solver import (
    ConstraintSet,
    SolverOptions,
    SolverReport,
    solve_label_weights,
    supervised_weights,
)

R_MEANS = 1.45
MIXTURE_MEANS = (R_MEANS * np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])).tolist()

GRID_CFG = ExperimentConfig(
    dataset={
        "type": "synthetic",
        "class_means": MIXTURE_MEANS,
        "cov_scale": 1.0,
        "priors": [1 / 3, 1 / 3, 1 / 3],
    },
    train_size=2700,
    cal_sizes=(100, 500, 2000),
    test_size=2000,
    alpha=0.1,
    trials=100,
    seed=424242,
)


@pytest.fixture(scope="module")
def grid_results():
    return run_experiment(GRID_CFG, workers=1)


def _method_rows(results, method):
    return [row for rec in results.records for row in rec.rows() if row["method"] == method]


def _gap_arrays(results, method):
    """Per-calibration-size arrays of |coverage - (1 - alpha)|, ordered by n."""
    target = 1.0 - results.config.alpha
    out = []
    for n in results.config.cal_sizes:
        covs = np.array([r["coverage"] for r in _method_rows(results, method) if r["cal_size"] == n])
        out.append(np.abs(covs - target))
    return out


def _nonincreasing_with_slack(gaps_by_size):
    """True when the mean gap curve is non-increasing, allowing a single
    inversion no larger than one Monte Carlo standard error of the
    difference."""
    means = [float(g.mean()) for g in gaps_by_size]
    ses = [float(g.std(ddof=1)) / math.sqrt(g.size) for g in gaps_by_size]
    inversions = 0
    for a in range(len(means) - 1):
        rise = means[a + 1] - means[a]
        if rise > 0:
            inversions += 1
            if rise > math.sqrt(ses[a] ** 2 + ses[a + 1] ** 2):
                return False, means
    return inversions <= 1, means


def test_criterion_01_supervised_marginal_coverage(three_class_mixture):
    """Mean marginal coverage of the supervised threshold at n=100, alpha=0.1
    lands on the (n+1)-quantile law: expectation 91/101, window 0.905 +/- 0.01."""
    model = mixture_logistic_model(three_class_mixture)
    trials = 2000
    n = 100
    alpha = 0.1
    t0 = time.perf_counter()
    root = np.random.SeedSequence(11)
    coverages = np.empty(trials)
    for t, child in enumerate(root.spawn(trials)):
        s_data, s_cal, s_test = child.generate_state(3)
        cal = generate_synthetic(three_class_mixture, n, int(s_data))
        test = generate_synthetic(three_class_mixture, n, int(s_test))
        cal_scores = build_score_matrix(model, cal.instances, "adaptive", int(s_cal))
        true_scores = cal_scores.values[np.arange(n), cal.labels - 1]
        q_hat = conformal_quantile_supervised(true_scores, alpha)
        test_scores = build_score_matrix(model, test.instances, "adaptive", int(s_cal) + 1, 0.0)
        coverages[t] = evaluate(prediction_mask(test_scores.values, q_hat), test.labels).coverage
    elapsed = time.perf_counter() - t0
    mean_cov = float(coverages.mean())
    ok = 0.895 <= mean_cov <= 0.915 and elapsed < 120.0
    record_criterion(1, ok, f"mean coverage {mean_cov:.4f} in [0.895, 0.915]; {elapsed:.1f}s < 120s")
    assert ok


def test_criterion_02_conditional_coverage_beta_law():
    """With distinct uniform scores the threshold is the 41st of 50 order
    statistics, so conditional coverage is Beta(41, 10); KS distance of 2000
    draws must beat the 1% critical value."""
    n, alpha, trials = 50, 0.2, 2000
    # a = n + 1 - floor((n+1) alpha) = 41, b = floor((n+1) alpha) = 10
    a, b = 41, 10
    rng = np.random.default_rng(2026)
    samples = np.empty(trials)
    for t in range(trials):
        scores = rng.uniform(0.0, 1.0, n)
        q_hat = conformal_quantile_supervised(scores, alpha)
        samples[t] = min(q_hat, 1.0)  # PIT: conditional coverage of U(0,1) scores is q itself
    ks = stats.kstest(samples, stats.beta(a, b).cdf).statistic
    crit = stats.kstwo.ppf(0.99, trials)
    ok = ks < crit
    record_criterion(2, ok, f"KS {ks:.4f} < 1% critical {crit:.4f} vs Beta({a}, {b})")
    assert ok


def test_criterion_03_unsupervised_pipeline_coverage(grid_results):
    """Unsupervised calibration on the mixture: imperfect classifier, mean
    coverage 0.90 +/- 0.03 at n=m=500, mean absolute gap <= 0.02 at n=m=2000."""
    sup_rows = _method_rows(grid_results, "supervised")
    err = float(np.mean([r["classifier_error"] for r in sup_rows]))
    unsup = _method_rows(grid_results, "unsupervised")
    cov500 = float(np.mean([r["coverage"] for r in unsup if r["cal_size"] == 500]))
    gap2000 = float(np.mean([abs(r["coverage"] - 0.9) for r in unsup if r["cal_size"] == 2000]))
    ok = 0.15 < err < 0.25 and abs(cov500 - 0.90) <= 0.03 and gap2000 <= 0.02
    record_criterion(
        3, ok, f"classifier error {err:.3f}; coverage@500 {cov500:.4f}; mean |gap|@2000 {gap2000:.4f}"
    )
    assert ok


def test_criterion_04_naive_baseline_separation(grid_results):
    """The naive one-hot baseline must sit strictly farther from target than
    the unsupervised weights, and its gap must exceed half the classifier
    error in at least 80% of the calibration sizes tested."""
    naive_gaps = [float(g.mean()) for g in _gap_arrays(grid_results, "naive")]
    unsup_gaps = [float(g.mean()) for g in _gap_arrays(grid_results, "unsupervised")]
    sizes = grid_results.config.cal_sizes
    by_size_err = {
        n: float(np.mean([r["classifier_error"] for r in _method_rows(grid_results, "naive") if r["cal_size"] == n]))
        for n in sizes
    }
    i500, i2000 = sizes.index(500), sizes.index(2000)
    separated = naive_gaps[i500] > unsup_gaps[i500] and naive_gaps[i2000] > unsup_gaps[i2000]
    margins = [naive_gaps[i] > 0.5 * by_size_err[n] for i, n in enumerate(sizes)]
    frac = sum(margins) / len(margins)
    ok = separated and frac >= 0.8
    record_criterion(
        4,
        ok,
        f"naive gaps {naive_gaps[i500]:.3f}/{naive_gaps[i2000]:.3f} vs unsupervised "
        f"{unsup_gaps[i500]:.3f}/{unsup_gaps[i2000]:.3f}; error-margin fraction {frac:.0%}",
    )
    assert ok


def test_criterion_05_gap_decreases_with_n(grid_results):
    """Mean absolute coverage gap is non-increasing in n for the supervised
    and unsupervised methods (one inversion within 1 MC standard error allowed)."""
    ok_sup, sup_means = _nonincreasing_with_slack(_gap_arrays(grid_results, "supervised"))
    ok_unsup, unsup_means = _nonincreasing_with_slack(_gap_arrays(grid_results, "unsupervised"))
    ok = ok_sup and ok_unsup
    fmt = lambda v: "/".join(f"{x:.4f}" for x in v)
    record_criterion(5, ok, f"gaps over n=100/500/2000: supervised {fmt(sup_means)}, unsupervised {fmt(unsup_means)}")
    assert ok


def test_criterion_06_qp_matches_enumeration_oracle():
    """Solver objective within 1e-6 of exhaustive active-set enumeration on 50
    random small instances; exact simplex feasibility; slack >= -1e-8 b."""
    rng = np.random.default_rng(62)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 6))
        c = int(rng.integers(2, 4))
        sigma = float(rng.choice([0.7, 1.0, 2.0]))
        cal = rng.standard_normal((n, 2))
        m = n + int(rng.integers(1, 4))
        train = Dataset(rng.standard_normal((m, 2)), 1 + rng.integers(0, c, m), num_classes=c)
        ctx = build_context(cal, train, KernelSpec(sigma))
        options = SolverOptions(max_iters=50000, rel_tol=1e-12)
        constraints = None
        loss_row = None
        bound = None
        if i % 2 == 1:
            B = rng.uniform(0.2, 2.5, (n, c))
            free_w, _ = solve_label_weights(ctx, options=options)
            free_loss = float(np.sum(B * free_w.matrix))
            feas_min = float(B.min(axis=1).sum())
            bound = max(0.5 * (feas_min + free_loss), feas_min * 1.05 + 0.05)
            constraints = ConstraintSet(loss_matrix=B, bound=bound)
            loss_row = B.ravel()
        weights, report = solve_label_weights(ctx, constraints=constraints, options=options)
        assert weights.matrix.min() >= 0.0
        assert np.abs(weights.matrix.sum(axis=1) - 1.0).max() <= 1e-9
        if constraints is not None:
            assert report.inequality_slack >= -1e-8 * bound - 1e-15
        expect = qp_oracle(dense_pair_kernel(ctx), ctx.cross_v.ravel(), n, ctx.m, c, loss_row=loss_row, bound=bound)
        worst = max(worst, abs(report.objective_value - expect))
    ok = worst <= 1e-6
    record_criterion(6, ok, f"max |objective - oracle| {worst:.2e} over 50 instances")
    assert ok


def test_criterion_07_dual_witness_equivalence():
    """The analytic witness probe reproduces the MMD objective within 1e-8 on
    20 random fixtures, and random RKHS probes never exceed the objective."""
    rng = np.random.default_rng(7)
    worst = 0.0
    probes_bounded = True
    for i in range(20):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(3, 7))
        c = int(rng.integers(2, 4))
        sigma = float(rng.uniform(0.5, 2.0))
        cal = rng.standard_normal((n, 2))
        train = Dataset(rng.standard_normal((m, 2)), 1 + rng.integers(0, c, m), num_classes=c)
        ctx = build_context(cal, train, KernelSpec(sigma))
        w = rng.dirichlet(np.ones(c), size=n)
        worst = max(worst, abs(witness_probe(w, ctx, cal, train) - mmd_objective(w, ctx)))
        out = dual_witness_check(w, ctx, cal, train, probe_count=16, seed=i)
        probes_bounded &= bool(np.all(out["probes"] <= out["objective"] + 1e-10))
    ok = worst <= 1e-8 and probes_bounded
    record_criterion(7, ok, f"max |witness - objective| {worst:.2e}; random probes bounded: {probes_bounded}")
    assert ok


def test_criterion_08_supervised_reduction_identity(monkeypatch):
    """One-hot weights at the true labels must reproduce the supervised path
    bit for bit: on raw quantiles across 200 random score draws, and end to
    end through the experiment pipeline with the weight solve swapped out."""
    rng = np.random.default_rng(8)
    exact = True
    for _ in range(200):
        n = int(rng.integers(1, 41))
        c = int(rng.integers(2, 7))
        alpha = float(rng.uniform(0.05, 0.5))
        values = rng.uniform(0.0, 1.0, (n, c))
        labels = 1 + rng.integers(0, c, n)
        w = supervised_weights(labels, c)
        q_w = conformal_quantile_weighted(values, w.matrix, alpha)
        q_s = conformal_quantile_supervised(values[np.arange(n), labels - 1], alpha)
        exact &= q_w == q_s or (math.isinf(q_w) and math.isinf(q_s))

    seen = {}

    def capture_split(ds, spec):
        parts = split_dataset(ds, spec)
        seen["cal"] = parts[1]
        return parts

    def oracle_weights(model, cal_instances, train, cal_scores, alpha, loss_bound, **_):
        cal = seen["cal"]
        w_star = supervised_weights(cal.hidden_labels, cal.num_classes)
        ctx = build_context(cal_instances, Dataset(train.instances[:4], train.labels[:4], train.num_classes), KernelSpec(1.0))
        report = SolverReport(
            objective_value=0.0,
            iterations=0,
            inequality_slack=np.inf,
            dual_lambda=0.0,
            converged=True,
            objective_history=np.zeros(1),
        )
        return CalibrationResult(
            q_hat=conformal_quantile_weighted(cal_scores.values, w_star.matrix, alpha),
            weights=w_star,
            report=report,
            spec=KernelSpec(1.0),
            selection={},
            mmd=mmd_objective(w_star, ctx),
            kernel_bound=None,
            bound_path={},
        )

    monkeypatch.setattr("unsupcp.harness.split_dataset", capture_split)
    monkeypatch.setattr("unsupcp.harness.calibrate_unsupervised", oracle_weights)
    cfg = ExperimentConfig(
        dataset=GRID_CFG.dataset,
        train_size=60,
        cal_sizes=(25,),
        test_size=40,
        alpha=0.1,
        trials=1,
        seed=88,
        methods=("supervised", "unsupervised"),
    )
    rec = run_trial(cfg, 0, 25)
    by_method = {r.method: r for r in rec.results}
    sup, unsup = by_method["supervised"], by_method["unsupervised"]
    pipeline_exact = (
        unsup.q_hat == sup.q_hat and unsup.coverage == sup.coverage and unsup.mean_size == sup.mean_size
    )
    ok = exact and pipeline_exact
    record_criterion(8, ok, f"200 quantile reductions bit-equal: {exact}; pipeline outputs bit-equal: {pipeline_exact}")
    assert ok


def test_criterion_09_bound_monotone_and_calibrated(grid_results):
    """The kernel gap bound is monotone in each input as documented, and the
    measured |E| diagnostic exceeds the per-trial evaluated bound in at most a
    0.1 + 3 SE fraction of trials."""
    ref = dict(n=100, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.01)
    monotone = (
        excess_gap_kernel(n=400, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.01) < excess_gap_kernel(**ref)
        and excess_gap_kernel(n=100, m=400, delta=0.1, rkhs_norm=2.0, approx_error=0.01) < excess_gap_kernel(**ref)
        and excess_gap_kernel(n=100, m=100, delta=0.1, rkhs_norm=4.0, approx_error=0.01) > excess_gap_kernel(**ref)
        and excess_gap_kernel(n=100, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.5) > excess_gap_kernel(**ref)
        and excess_gap_kernel(n=100, m=100, delta=0.01, rkhs_norm=2.0, approx_error=0.01) > excess_gap_kernel(**ref)
        and excess_gap_kernel(n=100, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.01, num_candidates=10)
        > excess_gap_kernel(**ref)
    )
    rows = _method_rows(grid_results, "unsupervised")
    assert len(rows) >= 200
    violations = sum(
        1 for r in rows if r["kernel_bound"] is None or abs(r["e_diag"]) > r["kernel_bound"]
    )
    frac = violations / len(rows)
    limit = 0.1 + 3.0 * math.sqrt(0.1 * 0.9 / len(rows))
    ok = monotone and frac <= limit
    record_criterion(
        9, ok, f"monotone: {monotone}; |E| > bound in {violations}/{len(rows)} trials ({frac:.3f} <= {limit:.3f})"
    )
    assert ok


def _timed_unsupervised_calibration(n: int, seed: int) -> float:
    """Wall time of ``calibrate_unsupervised`` (bandwidth selection, kernel
    assembly, constrained weight solve, threshold, gap bound) at c=10, d=10."""
    c, d = 10, 10
    cfg = ExperimentConfig(
        dataset={
            "type": "synthetic",
            "class_means": (2.2 * np.eye(d)).tolist(),
            "cov_scale": 1.0,
            "priors": [1.0 / c] * c,
        },
        train_size=int(1.3 * n),
        cal_sizes=(n,),
        test_size=1,
        alpha=0.1,
        trials=1,
        seed=seed,
    )
    syn = SyntheticConfig(
        class_means=2.2 * np.eye(d), cov_scale=1.0, priors=np.full(c, 1.0 / c)
    )
    train_ds = generate_synthetic(syn, cfg.train_size, seed)
    cal_ds = generate_synthetic(syn, n, seed + 1)
    vc = _val_count(cfg.train_size)
    fit = Dataset(train_ds.instances[:-vc], train_ds.labels[:-vc], c)
    val = Dataset(train_ds.instances[-vc:], train_ds.labels[-vc:], c)
    model = train_logistic(fit, l2=cfg.l2, max_iters=cfg.classifier_max_iters)
    loss_bound = estimate_loss_bound(model, val)
    cal_scores = build_score_matrix(model, cal_ds.instances, "adaptive", seed + 2)
    # m = n training samples; the synthetic draw is i.i.d., so its first n serve
    train = Dataset(fit.instances[:n], fit.labels[:n], c)
    t0 = time.perf_counter()
    out = calibrate_unsupervised(model, cal_ds.instances, train, cal_scores, cfg.alpha, loss_bound.value)
    elapsed = time.perf_counter() - t0
    assert out.report.converged
    return elapsed


def test_criterion_10_runtime_envelope():
    """Unsupervised calibration at c=10 finishes within 120 s for n=1000 and
    within 15 minutes for n=3000, single-threaded."""
    t1 = _timed_unsupervised_calibration(1000, seed=101)
    t3 = _timed_unsupervised_calibration(3000, seed=103)
    ok = t1 <= 120.0 and t3 <= 900.0
    record_criterion(10, ok, f"n=1000: {t1:.1f}s <= 120s; n=3000: {t3:.1f}s <= 900s")
    assert ok


def test_criterion_11_classifier_gradient_check():
    """Analytic cross-entropy gradients agree with central differences to
    1e-5 relative error on 10 random small instances."""
    rng = np.random.default_rng(11)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        c = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        N = int(rng.integers(4, 9))
        l2 = float(rng.choice([0.0, 1e-3, 0.1]))
        X = rng.standard_normal((N, d))
        labels = 1 + rng.integers(0, c, N)
        W = 0.5 * rng.standard_normal((c, d + 1))
        _, grad = ce_objective_grad(W, X, labels, c, l2)
        num = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            Wp = W.copy()
            Wp[idx] += h
            Wm = W.copy()
            Wm[idx] -= h
            fp, _ = ce_objective_grad(Wp, X, labels, c, l2)
            fm, _ = ce_objective_grad(Wm, X, labels, c, l2)
            num[idx] = (fp - fm) / (2.0 * h)
        rel = float(np.linalg.norm(num - grad) / max(np.linalg.norm(grad), 1e-12))
        worst = max(worst, rel)
    ok = worst < 1e-5
    record_criterion(11, ok, f"max relative gradient error {worst:.2e} over 10 instances")
    assert ok
