"""Separable kernel assembly, MMD objective, interpolation, selection."""

import math
import tracemalloc

import numpy as np
import pytest

import unsupcp.kernel as kernel_mod
from _oracles import dense_pair_kernel, kernel_eval, plain_cg_columns
from unsupcp.data import Dataset, SyntheticConfig, generate_synthetic
from unsupcp.errors import EmptyInputError, InterpolationError
from unsupcp.kernel import (
    KernelSpec,
    _cg_columns,
    _gram_from_sq_dists,
    _sq_dists,
    bandwidth_grid,
    build_context,
    dual_witness_check,
    gaussian_gram,
    min_norm_interpolation,
    mmd_objective,
    ridge_path,
    select_kernel,
    witness_probe,
)
from unsupcp.scores import ScoreMatrix
from unsupcp.solver import supervised_weights


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
        res = min_norm_interpolation(np.eye(3), u)
        np.testing.assert_allclose(res.gamma, u, rtol=1e-9)
        assert abs(res.min_norm_sq - float(u @ u)) < 1e-8

    def test_two_by_two_hand_solve(self):
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = min_norm_interpolation(K, np.array([1.0, 1.0]))
        np.testing.assert_allclose(res.gamma, [2 / 3, 2 / 3], rtol=1e-8)
        assert abs(res.min_norm_sq - 4 / 3) < 1e-8

    def test_zero_targets(self):
        res = min_norm_interpolation(np.eye(4), np.zeros(4))
        np.testing.assert_array_equal(res.gamma, 0.0)
        assert res.min_norm_sq == 0.0

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            min_norm_interpolation(np.zeros((2, 3)), np.zeros(2))

    def test_iteration_cap_raises(self):
        with pytest.raises(InterpolationError, match="converge"):
            min_norm_interpolation(np.eye(3), np.ones(3), max_iters=0)

    def test_nan_residual_raises(self):
        K = np.eye(3)
        K[0, 1] = K[1, 0] = np.nan
        with pytest.raises(InterpolationError, match="converge in 1 iterations") as info:
            min_norm_interpolation(K, np.ones(3))
        assert math.isnan(info.value.residual)

    def test_block_matches_columns(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 2))
        K = gaussian_gram(X, X, 0.8)
        U = rng.uniform(0.0, 1.0, (6, 3))
        block = min_norm_interpolation(K, U, ridge=0.5)
        cols = [min_norm_interpolation(K, U[:, y], ridge=0.5) for y in range(3)]
        assert block.gamma.shape == (6, 3)
        for y, col in enumerate(cols):
            np.testing.assert_allclose(block.gamma[:, y], col.gamma, rtol=1e-7, atol=1e-10)
        assert abs(block.min_norm_sq - sum(col.min_norm_sq for col in cols)) < 1e-8

    def test_ridge_shifts_the_system(self):
        u = np.array([1.0, -2.0, 0.5])
        res = min_norm_interpolation(np.eye(3), u, ridge=3.0)
        np.testing.assert_allclose(res.gamma, u / 4.0, rtol=1e-9)

    def test_target_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            min_norm_interpolation(np.eye(3), np.ones((2, 2)))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError, match="ridge"):
            min_norm_interpolation(np.eye(3), np.ones(3), ridge=-1.0)


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

    def test_smoother_also_wins_without_ridge(self):
        cal, scores, weights, alpha = self._all_ones_fixture(2, 2, 0.1)
        spec, _ = select_kernel([KernelSpec(0.05), KernelSpec(5.0)], cal, scores, weights, alpha, ridge=0.0)
        assert spec.sigma == 5.0

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

    def test_all_candidates_failing_raises(self, monkeypatch):
        cal, scores, weights, alpha = self._all_ones_fixture(2, 2, 0.1)

        def never_converges(K, u, tol=1e-8, max_iters=None, ridge=0.0):
            raise InterpolationError("CG did not converge", residual=1.0)

        monkeypatch.setattr(kernel_mod, "min_norm_interpolation", never_converges)
        with pytest.raises(InterpolationError, match="candidates"):
            select_kernel([KernelSpec(1.0), KernelSpec(2.0)], cal, scores, weights, alpha)

    def test_diagnostics_shape(self):
        cal, scores, weights, alpha = self._all_ones_fixture(2, 3, 0.1)
        specs = [KernelSpec(0.5), KernelSpec(1.0), KernelSpec(2.0)]
        spec, diag = select_kernel(specs, cal, scores, weights, alpha)
        assert diag["ridge"] == kernel_mod.SELECTION_RIDGE
        assert len(diag["statistics"]) == 3
        assert len(diag["residuals"]) == 3
        assert set(diag) == {"q_hat0", "ridge", "sigmas", "statistics", "residuals", "iterations", "selected_index"}
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
            alone = min_norm_interpolation(K, u, ridge=ridge)
            assert fit.gamma.shape == u.shape
            assert np.linalg.norm(fit.gamma - alone.gamma) <= 1e-6 * np.linalg.norm(alone.gamma)
            assert abs(fit.min_norm_sq - alone.min_norm_sq) <= 1e-6 * alone.min_norm_sq
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
        counts = [min_norm_interpolation(K, u, ridge=r).iterations for r in self.RIDGES]
        assert counts[0] > counts[1] + 2
        cap = counts[1] + 1
        path = ridge_path(K, u, self.RIDGES, max_iters=cap)
        assert isinstance(path[0], InterpolationError)
        assert path[0].residual > 0.0
        for ridge, fit in zip(self.RIDGES[1:], path[1:]):
            assert not isinstance(fit, InterpolationError)
            alone = min_norm_interpolation(K, u, ridge=ridge)
            assert np.linalg.norm(fit.gamma - alone.gamma) <= 1e-6 * np.linalg.norm(alone.gamma)
        with pytest.raises(InterpolationError, match="converge"):
            min_norm_interpolation(K, u, ridge=self.RIDGES[0], max_iters=cap)

    def test_single_shift_is_plain_cg_bit_for_bit(self):
        K, u = _ridge_fixture(4, n=120, seed=36)
        shift = 0.3 + 1e-10

        def matvec(P):
            return K @ P + shift * P

        for max_iters in (1500, 7):
            X, res, iters, converged = _cg_columns(matvec, u, 1e-8, max_iters)
            X0, res0, iters0, converged0 = plain_cg_columns(matvec, u, 1e-8, max_iters)
            assert X.shape == (1,) + u.shape
            assert X[0].tobytes() == X0.tobytes()
            assert res[0].tobytes() == res0.tobytes()
            assert (int(iters[0]), bool(converged[0])) == (iters0, converged0)

    def test_ridges_validated(self):
        K, u = _ridge_fixture()
        with pytest.raises(ValueError, match="ridge"):
            ridge_path(K, u, (0.3, -1.0))
        with pytest.raises(ValueError, match="ridges"):
            ridge_path(K, u, ())
