"""Separable kernel assembly, MMD objective, interpolation, selection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unsupcp.kernel as kernel_mod
from _oracles import dense_pair_kernel, kernel_eval, plain_cg_columns
from unsupcp.data import Dataset, SyntheticConfig, generate_synthetic
from unsupcp.errors import EmptyInputError, InterpolationError
from unsupcp.kernel import (
    KernelSpec,
    _cg_columns,
    _gram_from_sq_dists,
    _nystrom_preconditioner,
    _pivoted_cholesky,
    _sq_dists,
    bandwidth_grid,
    build_context,
    dual_witness_check,
    gaussian_gram,
    mmd_objective,
    ridge_path,
    select_kernel,
    witness_probe,
)
from unsupcp.scores import ScoreMatrix
from unsupcp.solver import supervised_weights


def _fit(K, u, ridge=0.0, **kwargs):
    """The kernel-ridge fit at one ridge."""
    (fit,) = ridge_path(K, u, (ridge,), **kwargs)
    return fit


def _context(n=4, m=5, c=3, d=2, sigma=1.0, seed=0):
    rng = np.random.default_rng(seed)
    cal = rng.standard_normal((n, d))
    train = Dataset(rng.standard_normal((m, d)), rng.integers(1, c + 1, m), num_classes=c)
    return build_context(cal, train, KernelSpec(sigma=sigma))


def _simplex_weights(n, c, seed):
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.1, 1.0, (n, c))
    return W / W.sum(axis=1, keepdims=True)


class TestKernelEval:
    def test_same_pair(self):
        assert kernel_eval(np.array([1.0, 2.0]), 1, np.array([1.0, 2.0]), 1, KernelSpec(0.5)) == 1.0

    def test_label_mismatch(self):
        assert kernel_eval(np.zeros(2), 1, np.zeros(2), 2, KernelSpec(0.5)) == 0.0

    def test_closed_form_at_two_sigma_squared(self):
        sigma = 0.7
        x2 = np.array([math.sqrt(2.0) * sigma, 0.0])
        val = kernel_eval(np.zeros(2), 3, x2, 3, KernelSpec(sigma))
        assert abs(val - math.exp(-1.0)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(np.zeros(2), 1, np.zeros(3), 1, KernelSpec(1.0))

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            KernelSpec(sigma=0.0)


class TestBandwidthGrid:
    def test_decade_grid(self):
        grid = bandwidth_grid(num_features=8)
        assert len(grid) == 10
        want = [10.0 ** (-1.0 + t / 3.0) * 2.0 for t in range(10)]
        np.testing.assert_allclose([s.sigma for s in grid], want, rtol=1e-12)

    def test_sorted_ascending(self):
        grid = bandwidth_grid(3, scales=(1.0, 0.1, 10.0))
        assert [s.sigma for s in grid] == sorted(s.sigma for s in grid)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            bandwidth_grid(0)


class TestBuildContext:
    def test_single_instance_identity(self):
        x0 = np.array([[0.3, -0.2]])
        train = Dataset(x0, np.array([1]), num_classes=2)
        ctx = build_context(x0, train, KernelSpec(1.0))
        np.testing.assert_allclose(dense_pair_kernel(ctx), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(ctx.cross_v.ravel(), [1.0, 0.0], atol=1e-15)
        assert ctx.train_self == 1.0

    def test_train_self_matches_full_gram(self):
        # unbalanced labels, class 3 of 4 absent from the training sample
        rng = np.random.default_rng(5)
        T = rng.standard_normal((40, 3))
        labels = rng.choice([1, 2, 4], size=40, p=[0.7, 0.2, 0.1])
        ctx = build_context(rng.standard_normal((6, 3)), Dataset(T, labels, num_classes=4), KernelSpec(1.3))
        onehot = np.zeros((40, 4))
        onehot[np.arange(40), labels - 1] = 1.0
        Kt = gaussian_gram(T, T, 1.3)
        full = float(np.sum((Kt @ onehot) * onehot)) / 40**2
        assert abs(ctx.train_self - full) <= 1e-12 * full

    def test_gram_symmetric_unit_diagonal(self):
        ctx = _context(n=6, sigma=0.8)
        K0 = ctx.base_gram
        np.testing.assert_allclose(K0, K0.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(K0), 1.0, atol=1e-15)
        assert K0.min() >= 0.0 and K0.max() <= 1.0

    def test_dense_pair_kernel_matches_kernel_eval(self):
        ctx = _context(n=4, c=3, sigma=0.9, seed=6)
        pairs = [(x, y) for x in ctx.cal_instances for y in range(1, ctx.c + 1)]  # (i, y) -> i*c + (y-1)
        want = [[kernel_eval(a, y, b, y2, ctx.spec) for b, y2 in pairs] for a, y in pairs]
        np.testing.assert_allclose(dense_pair_kernel(ctx), want, rtol=0.0, atol=1e-15)

    def test_block_sparsity_fraction(self):
        ctx = _context(n=3, c=3)
        D = dense_pair_kernel(ctx)
        nonzero = D != 0.0
        assert nonzero.sum() == ctx.n**2 * ctx.c
        assert nonzero.sum() / D.size == 1.0 / ctx.c

    def test_psd_with_jitter_slack(self):
        ctx = _context(n=8, c=2, sigma=0.5, seed=3)
        D = dense_pair_kernel(ctx)
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.standard_normal(ctx.n * ctx.c)
            assert w @ D @ w >= -1e-10 * (w @ w)

    def test_unlabeled_train_rejected(self):
        train = Dataset(np.zeros((2, 2)), None, num_classes=2)
        with pytest.raises(ValueError, match="labeled"):
            build_context(np.zeros((1, 2)), train, KernelSpec(1.0))

    def test_feature_mismatch(self):
        train = Dataset(np.zeros((2, 3)), np.array([1, 2]), num_classes=2)
        with pytest.raises(ValueError, match="dimension"):
            build_context(np.zeros((1, 2)), train, KernelSpec(1.0))

    def test_empty_calibration(self):
        train = Dataset(np.zeros((2, 2)), np.array([1, 2]), num_classes=2)
        with pytest.raises(EmptyInputError):
            build_context(np.zeros((0, 2)), train, KernelSpec(1.0))


class TestMmdObjective:
    def test_matched_one_hot_weights_vanish(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 2))
        labels = rng.integers(1, 3, 6)
        train = Dataset(X, labels, num_classes=2)
        ctx = build_context(X, train, KernelSpec(0.9))
        w = supervised_weights(labels, 2)
        assert mmd_objective(w, ctx) < 1e-7

    def test_single_pair_hand_values(self):
        x0 = np.array([[0.0, 0.0]])
        train = Dataset(x0, np.array([1]), num_classes=2)
        ctx = build_context(x0, train, KernelSpec(1.0))
        assert mmd_objective(np.array([[1.0, 0.0]]), ctx) == 0.0
        assert abs(mmd_objective(np.array([[0.0, 1.0]]), ctx) - math.sqrt(2.0)) < 1e-12

    def test_weight_shape_checked(self):
        ctx = _context()
        with pytest.raises(ValueError, match="weight"):
            mmd_objective(np.zeros(5), ctx)

    def test_decreases_with_sample_size(self):
        # w* on two i.i.d. samples: the empirical discrepancy shrinks as n = m grows
        cfg = SyntheticConfig(class_means=np.array([[-1.0, 0.0], [1.0, 0.0]]), cov_scale=1.0, priors=np.array([0.5, 0.5]))
        means = []
        for n in (20, 80, 320):
            vals = []
            for seed in range(5):
                cal, _ = generate_synthetic(cfg, n, seed=100 + seed)
                train, _ = generate_synthetic(cfg, n, seed=200 + seed)
                ctx = build_context(cal.instances, train, KernelSpec(1.0))
                vals.append(mmd_objective(supervised_weights(cal.labels, 2), ctx))
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]


class TestMinNormInterpolation:
    def test_identity_system(self):
        u = np.array([1.0, -2.0, 0.5])
        res = _fit(np.eye(3), u)
        np.testing.assert_allclose(res.gamma, u, rtol=1e-9)
        assert abs(np.sum(u * res.gamma) - float(u @ u)) < 1e-8

    def test_two_by_two_hand_solve(self):
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        u = np.array([1.0, 1.0])
        res = _fit(K, u)
        np.testing.assert_allclose(res.gamma, [2 / 3, 2 / 3], rtol=1e-8)
        assert abs(np.sum(u * res.gamma) - 4 / 3) < 1e-8

    def test_zero_targets(self):
        u = np.zeros(4)
        res = _fit(np.eye(4), u)
        np.testing.assert_array_equal(res.gamma, 0.0)
        assert np.sum(u * res.gamma) == 0.0

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            _fit(np.zeros((2, 3)), np.zeros(2))

    def test_iteration_cap_is_unconverged(self):
        res = _fit(np.eye(3), np.ones(3), max_iters=0)
        assert res.converged is False
        assert res.iterations == 0
        assert res.residual == math.sqrt(3.0)

    def test_nan_residual_is_unconverged(self):
        K = np.eye(3)
        K[0, 1] = K[1, 0] = np.nan
        res = _fit(K, np.ones(3))
        assert res.converged is False
        assert res.iterations == 1
        assert math.isnan(res.residual)

    def test_block_matches_columns(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 2))
        K = gaussian_gram(X, X, 0.8)
        U = rng.uniform(0.0, 1.0, (6, 3))
        block = _fit(K, U, ridge=0.5)
        cols = [_fit(K, U[:, y], ridge=0.5) for y in range(3)]
        assert block.gamma.shape == (6, 3)
        for y, col in enumerate(cols):
            np.testing.assert_allclose(block.gamma[:, y], col.gamma, rtol=1e-7, atol=1e-10)
        assert abs(np.sum(U * block.gamma) - sum(np.sum(U[:, y] * col.gamma) for y, col in enumerate(cols))) < 1e-8

    def test_ridge_shifts_the_system(self):
        u = np.array([1.0, -2.0, 0.5])
        res = _fit(np.eye(3), u, ridge=3.0)
        np.testing.assert_allclose(res.gamma, u / 4.0, rtol=1e-9)

    def test_target_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            _fit(np.eye(3), np.ones((2, 2)))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError, match="ridge"):
            _fit(np.eye(3), np.ones(3), ridge=-1.0)


class TestSelectKernel:
    def _all_ones_fixture(self, n, c, alpha):
        # level (1 - alpha)(1 + 1/n) > 1 makes q0 the +inf sentinel, so the
        # coverage indicator is identically 1
        rng = np.random.default_rng(7)
        cal = np.array([[0.0, 0.0], [1.0, 0.0]])[:n]
        scores = ScoreMatrix(values=rng.uniform(0, 1, (n, c)), kind="adaptive", noise_epsilon=1e-9, seed=0)
        weights = np.full((n, c), 1.0 / c)
        return cal, scores, weights, alpha

    def test_singleton_returned(self):
        cal, scores, weights, alpha = self._all_ones_fixture(2, 2, 0.1)
        spec, diag = select_kernel([KernelSpec(1.3)], cal, scores, weights, alpha)
        assert spec.sigma == 1.3
        assert diag["selected_index"] == 0

    def test_smoother_kernel_wins_on_constant_indicator(self):
        cal, scores, weights, alpha = self._all_ones_fixture(2, 2, 0.1)
        spec, diag = select_kernel([KernelSpec(0.05), KernelSpec(5.0)], cal, scores, weights, alpha)
        assert spec.sigma == 5.0
        assert np.isinf(diag["q_hat0"])
        assert diag["statistics"][1] < diag["statistics"][0]

    def test_zero_ridge_rejected(self):
        # without a ridge the smooth candidates' solves run to the CG cap
        cal, scores, weights, alpha = self._all_ones_fixture(2, 2, 0.1)
        with pytest.raises(ValueError, match="ridge must be positive"):
            select_kernel([KernelSpec(0.05), KernelSpec(5.0)], cal, scores, weights, alpha, ridge=0.0)

    def test_equal_statistics_tie_to_smaller_sigma(self):
        # n=1 blocks are 1x1, so the penalized statistic is sigma-independent
        cal, scores, weights, alpha = self._all_ones_fixture(1, 2, 0.4)
        spec, diag = select_kernel([KernelSpec(3.0), KernelSpec(0.7)], cal, scores, weights, alpha)
        assert spec.sigma == 0.7
        np.testing.assert_allclose(diag["statistics"][0], diag["statistics"][1], rtol=1e-10)
        np.testing.assert_array_equal(diag["sigmas"], [0.7, 3.0])

    def test_empty_candidates(self):
        cal, scores, weights, alpha = self._all_ones_fixture(2, 2, 0.1)
        with pytest.raises(EmptyInputError):
            select_kernel([], cal, scores, weights, alpha)

    def test_negative_ridge(self):
        cal, scores, weights, alpha = self._all_ones_fixture(2, 2, 0.1)
        with pytest.raises(ValueError, match="ridge"):
            select_kernel([KernelSpec(1.0)], cal, scores, weights, alpha, ridge=-0.5)
        with pytest.raises(ValueError, match="ridge"):
            select_kernel([KernelSpec(1.0)], cal, scores, weights, alpha, ridge=math.nan)
        # an infinite ridge would leave every candidate's statistic NaN
        with pytest.raises(ValueError, match="ridge must be positive and finite"):
            select_kernel([KernelSpec(1.0)], cal, scores, weights, alpha, ridge=math.inf)

    def test_all_candidates_failing_raises(self, monkeypatch):
        cal, scores, weights, alpha = self._all_ones_fixture(2, 2, 0.1)
        monkeypatch.setattr(kernel_mod, "CG_MAX_ITERS", 0)  # no candidate takes a step
        with pytest.raises(InterpolationError, match="candidates"):
            select_kernel([KernelSpec(1.0), KernelSpec(2.0)], cal, scores, weights, alpha)

    def test_capped_candidate_is_skipped(self, monkeypatch):
        # on this mixed coverage indicator sigma = 3 wins but needs more CG
        # steps than sigma = 30, which is visited first: a cap at sigma =
        # 30's count fails sigma = 3 alone, which is capped, not pruned
        rng = np.random.default_rng(11)
        n, c = 40, 3
        cal = rng.standard_normal((n, 2))
        scores = ScoreMatrix(values=rng.uniform(0, 1, (n, c)), kind="adaptive", noise_epsilon=1e-9, seed=0)
        weights = supervised_weights(1 + rng.integers(0, c, n), c).matrix
        specs = [KernelSpec(0.3), KernelSpec(3.0), KernelSpec(30.0)]
        _, free = select_kernel(specs, cal, scores, weights, 0.5)
        counts = free["iterations"]
        assert free["selected_index"] == 1
        assert counts[1] > counts[2]
        cap = int(counts[2])
        monkeypatch.setattr(kernel_mod, "CG_MAX_ITERS", cap)
        spec, diag = select_kernel(specs, cal, scores, weights, 0.5)
        assert math.isnan(diag["statistics"][1]) and not diag["pruned"][1]
        assert diag["iterations"][1] == cap
        assert diag["residuals"][1] > 1e-8 * math.sqrt(n)
        assert diag["statistics"][2] == free["statistics"][2]
        assert diag["selected_index"] in (0, 2)
        assert spec.sigma == diag["sigmas"][diag["selected_index"]]

    @staticmethod
    def _mixture_fixture(seed, d, spread, posterior=False):
        """n=400 points of a 3-class mixture, scored uniformly at random (the
        smoothest kernels win) or by one minus the mixture posterior, whose
        inclusion indicator has a boundary in x that a mid-grid sigma fits."""
        rng = np.random.default_rng(seed)
        n, c = 400, 3
        labels = rng.integers(0, c, n)
        means = spread * rng.standard_normal((c, d))
        cal = means[labels] + rng.standard_normal((n, d))
        if not posterior:
            scores = ScoreMatrix(values=rng.uniform(0, 1, (n, c)), kind="adaptive", noise_epsilon=1e-9, seed=0)
            return cal, scores, supervised_weights(labels + 1, c).matrix
        logits = -0.5 * ((cal[:, None, :] - means[None]) ** 2).sum(axis=2)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        values = 1.0 - p + 1e-3 * rng.uniform(0, 1, (n, c))
        scores = ScoreMatrix(values=values, kind="probability", noise_epsilon=1e-3, seed=0)
        return cal, scores, supervised_weights(p.argmax(axis=1) + 1, c).matrix

    @staticmethod
    def _check_against_plain_cg(cal, scores, weights, d, ridge=kernel_mod.SELECTION_RIDGE):
        """Selection with pruning and preconditioning against every candidate
        solved by plain CG from 0; returns the selected index."""
        grid = bandwidth_grid(d)
        spec, diag = select_kernel(grid, cal, scores, weights, 0.1, ridge=ridge)
        assert diag["ranks"].max() > 0
        assert np.all((diag["ranks"] >= 0) & (diag["ranks"] <= 400 // 16))
        U = (scores.values <= diag["q_hat0"]).astype(np.float64)
        D2 = _sq_dists(cal, cal)
        plain, plain_iters = np.empty(len(grid)), np.empty(len(grid), dtype=np.int64)
        for j, s in enumerate(grid):
            K = _gram_from_sq_dists(D2, s.sigma)
            shift = ridge + 1e-10
            X, _, plain_iters[j], converged = plain_cg_columns(lambda P: K @ P + shift * P, U, 1e-8, 1500)
            assert converged
            plain[j] = float(np.sum(U * X))
        pruned = diag["pruned"]
        assert pruned.any() and not pruned[-1]  # the largest sigma is visited first
        assert np.all(np.isnan(diag["statistics"][pruned]))
        np.testing.assert_allclose(diag["statistics"][~pruned], plain[~pruned], rtol=1e-9, atol=0.0)
        assert np.all(diag["lower"][pruned] <= plain[pruned])
        assert np.all(plain[pruned] <= diag["upper"][pruned])
        assert spec == grid[int(np.argmin(plain))]
        # the factor pays where it is built: a solved candidate takes no more
        # CG steps, its first plain one included, than plain CG
        used = (diag["ranks"] > 0) & ~pruned
        assert np.all(diag["iterations"][used] <= plain_iters[used])
        return diag["selected_index"]

    @pytest.mark.parametrize("seed, d, spread", [(40, 2, 1.5), (41, 2, 3.0), (42, 10, 2.2)])
    def test_preconditioning_keeps_the_selection(self, seed, d, spread):
        self._check_against_plain_cg(*self._mixture_fixture(seed, d, spread), d)

    @pytest.mark.parametrize("seed, d, spread, ridge", [(40, 2, 1.5, 3.0), (42, 10, 2.2, 3.0), (40, 2, 1.5, 0.3),
                                                        (42, 10, 2.2, 0.1)])
    def test_pruning_keeps_a_mid_grid_selection(self, seed, d, spread, ridge):
        # the argmin sits inside the grid, with pruned candidates below it;
        # at the small ridges the brackets of early iterates are wide, so
        # pruning on anything but the certified lower end drops the winner
        best = self._check_against_plain_cg(*self._mixture_fixture(seed, d, spread, posterior=True), d, ridge)
        assert 0 < best < len(bandwidth_grid(d)) - 2

    def test_candidate_pruned_at_its_first_step_builds_no_factor(self, monkeypatch):
        cal, scores, weights = self._mixture_fixture(40, 2, 1.5)
        built = []

        def counted(K, mu):
            built.append(mu)
            return _pivoted_cholesky(K, mu)

        monkeypatch.setattr(kernel_mod, "_pivoted_cholesky", counted)
        _, diag = select_kernel(bandwidth_grid(2), cal, scores, weights, 0.1)
        first = diag["pruned"] & (diag["iterations"] == 1)
        assert first.any()
        assert np.all(diag["ranks"][first] == 0)
        # a factor is built for exactly the candidates that went past their
        # plain step, and on this fixture every such factor is kept
        assert len(built) == int(np.sum(diag["iterations"] > 1)) == int(np.sum(diag["ranks"] > 0))

    def test_diagnostics_shape(self):
        cal, scores, weights, alpha = self._all_ones_fixture(2, 3, 0.1)
        specs = [KernelSpec(0.5), KernelSpec(1.0), KernelSpec(2.0)]
        spec, diag = select_kernel(specs, cal, scores, weights, alpha)
        assert diag["ridge"] == kernel_mod.SELECTION_RIDGE
        assert len(diag["statistics"]) == 3
        assert len(diag["residuals"]) == 3
        assert set(diag) == {"q_hat0", "ridge", "sigmas", "statistics", "residuals", "iterations", "ranks", "pruned",
                             "lower", "upper", "selected_index"}
        assert diag["pruned"].dtype == bool and len(diag["pruned"]) == 3
        assert len(diag["lower"]) == 3 and len(diag["upper"]) == 3
        assert diag["sigmas"][diag["selected_index"]] == spec.sigma


class TestDualWitness:
    def test_witness_probe_matches_objective(self):
        ctx = _context(n=5, m=4, c=2, sigma=1.2, seed=9)
        w = _simplex_weights(5, 2, seed=10)
        assert abs(witness_probe(w, ctx) - mmd_objective(w, ctx)) < 1e-8

    def test_random_probes_never_exceed_objective(self):
        ctx = _context(n=4, m=6, c=3, sigma=0.8, seed=11)
        w = _simplex_weights(4, 3, seed=12)
        out = dual_witness_check(w, ctx, probe_count=32, seed=13)
        assert out["best_probe"] <= out["objective"] + 1e-10
        assert np.all(out["probes"] <= out["objective"] + 1e-10)

    def test_zero_objective_zero_probes(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((5, 2))
        labels = rng.integers(1, 3, 5)
        ctx = build_context(X, Dataset(X, labels, num_classes=2), KernelSpec(1.0))
        w = supervised_weights(labels, 2)
        out = dual_witness_check(w, ctx, probe_count=8, seed=15)
        assert out["objective"] < 1e-7
        assert np.all(out["probes"] <= 1e-7)

    def test_probe_count_validated(self):
        ctx = _context()
        with pytest.raises(ValueError, match="probe_count"):
            dual_witness_check(_simplex_weights(4, 3, 0), ctx, probe_count=0)


class TestGaussianGram:
    def test_cross_gram_value(self):
        X1 = np.zeros((1, 3))
        X2 = np.ones((1, 3))
        val = gaussian_gram(X1, X2, sigma=1.0)[0, 0]
        assert abs(val - math.exp(-1.5)) < 1e-12

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
    def test_matches_kernel_eval(self, sigma):
        rng = np.random.default_rng(30)
        X1, X2 = rng.standard_normal((6, 3)), rng.standard_normal((5, 3))
        K = gaussian_gram(X1, X2, sigma)
        want = [[kernel_eval(a, 1, b, 1, KernelSpec(sigma)) for b in X2] for a in X1]
        np.testing.assert_allclose(K, want, rtol=1e-13, atol=0.0)

    def test_sq_dists_matches_broadcast_formula(self):
        rng = np.random.default_rng(31)
        X1, X2 = rng.standard_normal((37, 4)), rng.standard_normal((23, 4))
        n1, n2 = np.sum(X1 * X1, axis=1), np.sum(X2 * X2, axis=1)
        want = np.maximum(n1[:, None] + n2[None, :] - 2.0 * (X1 @ X2.T), 0.0)
        assert _sq_dists(X1, X2).tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [7, kernel_mod.GRAM_BLOCK_ENTRIES])
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 1.0])
    def test_no_subnormals_and_plain_bits_elsewhere(self, monkeypatch, sigma, block):
        monkeypatch.setattr(kernel_mod, "GRAM_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(32)
        X1, X2 = 1.5 * rng.standard_normal((300, 2)), 1.5 * rng.standard_normal((450, 2))
        D2 = _sq_dists(X1, X2)
        plain = np.exp(D2 / (-2.0 * sigma**2))
        tiny = np.finfo(np.float64).tiny
        if sigma < 1.0:  # the fixture reaches the subnormal range
            assert np.any((plain > 0.0) & (plain < tiny))
        K = gaussian_gram(X1, X2, sigma)
        assert not np.any((K > 0.0) & (K < tiny))
        normal = plain >= tiny
        assert K[normal].tobytes() == plain[normal].tobytes()
        assert np.all(K[~normal] == 0.0)

    def test_out_buffer_gives_same_bits(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((60, 3))
        D2 = _sq_dists(X, X)
        fresh = _gram_from_sq_dists(D2, 0.4)
        buf = np.full_like(D2, np.nan)
        assert _gram_from_sq_dists(D2, 0.4, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        assert _gram_from_sq_dists(D2, 0.4, out=D2) is D2
        assert D2.tobytes() == fresh.tobytes()
        assert gaussian_gram(X, X, 0.4).tobytes() == fresh.tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestGramMemory:
    """A dense calibration holds at most two n x n float64 arrays at once."""

    N = 1500

    def _inputs(self, n, c=3, d=2, seed=34):
        rng = np.random.default_rng(seed)
        cal = rng.standard_normal((n, d))
        train = Dataset(rng.standard_normal((n, d)), rng.integers(1, c + 1, n), num_classes=c)
        scores = ScoreMatrix(values=rng.uniform(0, 1, (n, c)), kind="adaptive", noise_epsilon=1e-9, seed=0)
        weights = np.zeros((n, c))
        weights[np.arange(n), rng.integers(0, c, n)] = 1.0
        return cal, train, scores, weights

    def _warm_up(self):
        # first calls import lazily; keep that out of the trace
        cal, train, scores, weights = self._inputs(20)
        spec, _ = select_kernel(bandwidth_grid(2)[2:5], cal, scores, weights, 0.1)
        build_context(cal, train, spec)

    def test_select_kernel_peak(self):
        self._warm_up()
        cal, _, scores, weights = self._inputs(self.N)
        peak = _traced_peak(lambda: select_kernel(bandwidth_grid(2)[2:5], cal, scores, weights, 0.1))
        assert peak <= 2.1 * 8 * self.N**2

    def test_build_context_peak(self):
        self._warm_up()
        cal, train, _, _ = self._inputs(self.N)
        peak = _traced_peak(lambda: build_context(cal, train, KernelSpec(0.5)))
        assert peak <= 2.1 * 8 * self.N**2


def _ridge_fixture(c=None, n=80, seed=35):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    K = gaussian_gram(X, X, 0.6)
    shape = (n,) if c is None else (n, c)
    return K, (rng.uniform(0.0, 1.0, shape) < 0.7).astype(np.float64)


class TestRidgePath:
    RIDGES = (0.3, 3.0, 30.0)

    @pytest.mark.parametrize("c", [None, 3])
    def test_each_ridge_matches_its_own_solve(self, c):
        K, u = _ridge_fixture(c)
        path = ridge_path(K, u, self.RIDGES)
        for ridge, fit in zip(self.RIDGES, path):
            alone = _fit(K, u, ridge)
            assert fit.gamma.shape == u.shape
            assert np.linalg.norm(fit.gamma - alone.gamma) <= 1e-6 * np.linalg.norm(alone.gamma)
            assert abs(np.sum(u * fit.gamma) - np.sum(u * alone.gamma)) <= 1e-6 * np.sum(u * alone.gamma)
            assert abs(fit.iterations - alone.iterations) <= 1
            assert fit.residual <= 1e-8 * np.linalg.norm(u, axis=0).max()

    def test_order_follows_the_input(self):
        K, u = _ridge_fixture(3)
        fwd = ridge_path(K, u, self.RIDGES)
        rev = ridge_path(K, u, self.RIDGES[::-1])
        assert [f.iterations for f in rev] == [f.iterations for f in fwd][::-1]
        for a, b in zip(fwd, rev[::-1]):
            np.testing.assert_allclose(a.gamma, b.gamma, rtol=1e-12, atol=0.0)

    def test_small_cap_fails_only_the_smallest_ridge(self):
        K, u = _ridge_fixture(3)
        counts = [_fit(K, u, r).iterations for r in self.RIDGES]
        assert counts[0] > counts[1] + 2
        cap = counts[1] + 1
        path = ridge_path(K, u, self.RIDGES, max_iters=cap)
        assert path[0].converged is False
        assert path[0].iterations == cap
        assert path[0].residual > 1e-8 * np.linalg.norm(u, axis=0).max()
        for ridge, fit in zip(self.RIDGES[1:], path[1:]):
            assert fit.converged is True
            alone = _fit(K, u, ridge)
            assert np.linalg.norm(fit.gamma - alone.gamma) <= 1e-6 * np.linalg.norm(alone.gamma)
        capped = _fit(K, u, self.RIDGES[0], max_iters=cap)
        assert capped.converged is False
        assert (capped.iterations, capped.residual) == (path[0].iterations, path[0].residual)

    def test_single_shift_is_plain_cg_bit_for_bit(self):
        K, u = _ridge_fixture(4, n=120, seed=36)
        shift = 0.3 + 1e-10

        def matvec(P):
            return K @ P + shift * P

        for max_iters in (1500, 7):
            X, R, iters, converged = _cg_columns(matvec, u, 1e-8, max_iters)
            X0, res0, iters0, converged0 = plain_cg_columns(matvec, u, 1e-8, max_iters)
            assert X.shape == R.shape == (1,) + u.shape
            assert X[0].tobytes() == X0.tobytes()
            assert np.sqrt(np.sum(R[0] * R[0], axis=0)).tobytes() == res0.tobytes()
            assert (int(iters[0]), bool(converged[0])) == (iters0, converged0)

    def test_path_records_its_rank(self):
        rng = np.random.default_rng(37)
        X = rng.standard_normal((320, 2))
        K = gaussian_gram(X, X, 1.0)
        u = (rng.uniform(0.0, 1.0, (320, 3)) < 0.7).astype(np.float64)
        path = ridge_path(K, u, self.RIDGES)
        assert 0 < path[0].rank <= 320 // 16
        assert {fit.rank for fit in path} == {path[0].rank}
        assert all(fit.converged for fit in path)
        # the factor is built at the smallest shift, and each column of the
        # stacked solve stops on its own residual
        for ridge, fit in zip(self.RIDGES, path):
            true_res = u - (K @ fit.gamma + (ridge + 1e-10) * fit.gamma)
            assert np.all(np.linalg.norm(true_res, axis=0) <= 1e-8 * np.linalg.norm(u, axis=0))

    def test_ridges_validated(self):
        K, u = _ridge_fixture()
        with pytest.raises(ValueError, match="ridge"):
            ridge_path(K, u, (0.3, -1.0))
        with pytest.raises(ValueError, match="ridges"):
            ridge_path(K, u, ())


def _ill_conditioned_system(n=300, c=3, ridge=0.3, seed=38):
    """A smooth 2-d Gaussian Gram at ridge 0.3: plain CG needs many steps."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    K = gaussian_gram(X, X, 1.0)
    u = (rng.uniform(0.0, 1.0, (n, c)) < 0.7).astype(np.float64)
    mu = ridge + 1e-10
    return K, u, mu, lambda P: K @ P + mu * P


class TestPreconditionedCG:
    def test_matches_plain_cg(self):
        K, u, mu, matvec = _ill_conditioned_system()
        precond, rank = _nystrom_preconditioner(K, np.array([mu]), u.shape[1])
        assert precond is not None and rank == 300 // 16
        X, R, iters, converged = _cg_columns(matvec, u, 1e-8, 1500, precond)
        X0, res0, iters0, converged0 = plain_cg_columns(matvec, u, 1e-8, 1500)
        assert bool(converged[0]) and converged0
        assert int(iters[0]) < iters0
        gamma = X[0]
        assert np.linalg.norm(gamma - X0) <= 1e-6 * np.linalg.norm(X0)
        stat, stat0 = float(np.sum(u * gamma)), float(np.sum(u * X0))
        assert abs(stat - stat0) <= 1e-10 * abs(stat0)
        true_res = np.linalg.norm(u - matvec(gamma), axis=0)
        assert np.all(true_res <= 1e-8 * np.linalg.norm(u, axis=0))
        assert np.all(np.linalg.norm(R[0], axis=0) <= 1e-8 * np.linalg.norm(u, axis=0))

    def test_flat_spectrum_falls_back_to_plain_cg(self):
        # a near-identity Gram: n // 16 pivots leave about 15/16 of the trace
        X = np.random.default_rng(40).standard_normal((320, 10))
        shifts = np.array([3.0])
        assert _nystrom_preconditioner(gaussian_gram(X, X, 0.3), shifts, 3) == (None, 0)
        precond, rank = _nystrom_preconditioner(gaussian_gram(X, X, 10.0), shifts, 3)
        assert precond is not None and 0 < rank <= 320 // 16

    def test_poor_preconditioner_still_meets_the_tolerance(self):
        K, u, mu, matvec = _ill_conditioned_system()
        F = np.random.default_rng(39).standard_normal((18, 300))
        M = F.T @ F + mu * np.eye(300)  # SPD, but unrelated to K

        def precond(R):
            return np.linalg.solve(M, R)

        X, R, iters, converged = _cg_columns(matvec, u, 1e-8, 1500, precond)
        assert bool(converged[0])
        assert np.all(np.linalg.norm(R[0], axis=0) <= 1e-8 * np.linalg.norm(u, axis=0))
        true_res = np.linalg.norm(u - matvec(X[0]), axis=0)
        assert np.all(true_res <= 1e-8 * np.linalg.norm(u, axis=0))

    def test_stacked_blocks_report_per_block(self):
        K, u, _, _ = _ill_conditioned_system(n=120, c=2)
        shifts = np.repeat([0.3, 30.0], 2) + 1e-10
        X, R, iters, converged = _cg_columns(lambda P: K @ P + shifts * P, np.stack([u, u]), 1e-8, 1500)
        assert X.shape == R.shape == (2, 120, 2)
        assert iters[0] > iters[1]  # the larger ridge converges sooner
        assert converged.tolist() == [True, True]
        for j, ridge in enumerate((0.3, 30.0)):
            true_res = u - (K @ X[j] + (ridge + 1e-10) * X[j])
            assert np.all(np.linalg.norm(true_res, axis=0) <= 1e-8 * np.linalg.norm(u, axis=0))
            np.testing.assert_allclose(R[j], true_res, rtol=0.0, atol=1e-8 * np.linalg.norm(u))

    def test_warm_start(self):
        K, u, mu, matvec = _ill_conditioned_system()
        exact = np.linalg.solve(K + mu * np.eye(300), u)
        X, _, iters, converged = _cg_columns(matvec, u, 1e-8, 1500, X0=exact)
        assert int(iters[0]) == 0 and bool(converged[0])
        assert X[0].tobytes() == exact.tobytes()
        # one plain step, then preconditioned CG from that iterate, with its
        # recurrence residual or with the one the start computes
        cold, _, _, _ = _cg_columns(matvec, u, 1e-8, 1500)
        X1, R1, one, _ = _cg_columns(matvec, u, 1e-8, 1)
        assert int(one[0]) == 1
        precond, _ = _nystrom_preconditioner(K, np.array([mu]), u.shape[1])
        stat0 = float(np.sum(u * cold[0]))
        for R0 in (R1, None):
            X, R, iters, converged = _cg_columns(matvec, u, 1e-8, 1500, precond, X1, R0)
            assert bool(converged[0]) and int(iters[0]) >= 1
            assert abs(float(np.sum(u * X[0])) - stat0) <= 1e-10 * abs(stat0)
            true_res = np.linalg.norm(u - matvec(X[0]), axis=0)
            assert np.all(true_res <= 1e-8 * np.linalg.norm(u, axis=0))

    def test_stop_is_confirmed_on_the_true_residual(self):
        K, u, mu, matvec = _ill_conditioned_system(n=120)
        seen = []

        def refused(X, R):  # yes on every recurrence residual, no on its check
            seen.append((X.copy(), R.copy()))
            return len(seen) % 2 == 1

        X, R, iters, converged = _cg_columns(matvec, u, 1e-8, 1500, stop=refused)
        X0, R0, iters0, converged0 = _cg_columns(matvec, u, 1e-8, 1500)
        assert X.tobytes() == X0.tobytes() and R.tobytes() == R0.tobytes()
        assert int(iters[0]) == int(iters0[0]) > 1 and bool(converged[0])
        # every step but the last, which converged, is checked on B - A X
        assert len(seen) == 2 * int(iters[0]) - 1
        for Xk, Rk in seen[1::2]:
            assert Rk.tobytes() == (u - matvec(Xk)).tobytes()

        seen.clear()
        X, _, iters, converged = _cg_columns(matvec, u, 1e-8, 1500, stop=lambda X, R: seen.append(R) or True)
        assert int(iters[0]) == 1 and not bool(converged[0]) and len(seen) == 2
        assert X[0].tobytes() == _cg_columns(matvec, u, 1e-8, 1)[0][0].tobytes()


class TestPivotedCholesky:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 200),
        d=st.sampled_from([1, 2, 10]),
        scale=st.sampled_from(kernel_mod.BASE_BANDWIDTH_SCALES),
        duplicates=st.integers(0, 50),
        mu=st.sampled_from([1e-10, 0.3, 3.0]),
    )
    def test_factor(self, seed, n, d, scale, duplicates, mu):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        X[rng.integers(0, n, duplicates)] = X[rng.integers(0, n, duplicates)]  # duplicated points
        sigma = scale * math.sqrt(d / 2.0)
        K = gaussian_gram(X, X, sigma)
        F, trace = _pivoted_cholesky(K, mu)
        r = F.shape[0]
        assert r <= n // 16
        E = K - F.T @ F
        assert np.linalg.eigvalsh(E).min() >= -1e-10 * n
        assert abs(trace - np.trace(E)) <= 1e-9 * n
        assert r == n // 16 or np.diag(E).max() <= 1e-3 * mu + 1e-12
        F2, trace2 = _pivoted_cholesky(K, mu)
        assert F2.tobytes() == F.tobytes() and trace2 == trace
