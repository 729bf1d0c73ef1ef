"""Separable kernel assembly, MMD objective, interpolation, selection."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unsupcp.kernel as kernel_mod
from _oracles import dense_pair_kernel, dual_witness_check, kernel_eval, plain_cg_columns, witness_probe
from unsupcp.data import Dataset, SyntheticConfig, generate_synthetic
from unsupcp.errors import EmptyInputError, InterpolationError
from unsupcp.kernel import (
    GRAM32_ABS_ERR,
    GRAM32_REL_ERR,
    Gram,
    KernelSpec,
    _cg_columns,
    _gram_from_sq_dists,
    _nystrom_preconditioner,
    _pivoted_cholesky,
    as_weight_matrix,
    bandwidth_grid,
    build_context,
    gaussian_gram,
    mmd_objective,
    pairwise_sq_dists,
    ridge_path,
    select_kernel,
)
from unsupcp.classifier import estimate_loss_bound, train_logistic
from unsupcp.harness import calibrate_unsupervised
from unsupcp.quantile import conformal_quantile_weighted
from unsupcp.scores import ScoreMatrix, build_score_matrix
from unsupcp.solver import SolverOptions, solve_label_weights, supervised_weights


def _fit(K, u, ridge=0.0, **kwargs):
    """The kernel-ridge fit of the (n, c) targets u at one ridge, and its path."""
    return ridge_path(Gram(K), u, (ridge,), **kwargs)


def _samples(n=4, m=5, c=3, d=2, seed=0):
    """Calibration instances and a labeled training sample."""
    rng = np.random.default_rng(seed)
    cal = rng.standard_normal((n, d))
    return cal, Dataset(rng.standard_normal((m, d)), rng.integers(1, c + 1, m), num_classes=c)


def _context(n=4, m=5, c=3, d=2, sigma=1.0, seed=0):
    return build_context(*_samples(n, m, c, d, seed), KernelSpec(sigma=sigma))


def _sq_dists64(X1, X2):
    """The float64 squared distances by the single-GEMM formula, whose bits
    every row block of the package's float64 distances keeps."""
    n1, n2 = np.sum(X1 * X1, axis=1), np.sum(X2 * X2, axis=1)
    D2 = np.add.outer(n1, n2)
    D2 -= 2.0 * (X1 @ X2.T)
    return np.maximum(D2, 0.0, out=D2)


def _within_rounding(K32, K):
    """Whether the float32 Gram K32 is within its stated rounding of K."""
    return bool(np.all(np.abs(K32 - K) <= GRAM32_REL_ERR * K32 + GRAM32_ABS_ERR))


def _mmd_rounding(W, ctx):
    """The bound d by which K0's rounding can move the squared MMD (see ``mmd_objective``)."""
    A = np.abs(as_weight_matrix(W, ctx.n, ctx.c))
    l1 = A.sum(axis=0)
    return float((GRAM32_REL_ERR * np.sum(A * (ctx.gram.values.astype(np.float64) @ A)) + GRAM32_ABS_ERR * l1 @ l1)
                 / ctx.n**2)


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

    @pytest.mark.parametrize("sigma", [math.inf, 1e200, 1e-200, 1e20, 1e-23])
    def test_unscalable_sigma_rejected(self, sigma):
        # 2 sigma^2 scales every exponent: inf or overflowing, or underflowing to 0, it cannot; and the float32
        # Gram rounds it to float32, where it must stay normal (at 1e-23 it rounds to 0, at 1e20 to inf); the
        # Gram builders that take a raw sigma check it as KernelSpec does
        X = np.random.default_rng(3).standard_normal((4, 2))
        for build in (lambda: KernelSpec(sigma=sigma), lambda: gaussian_gram(X, X, sigma),
                      lambda: _gram_from_sq_dists(pairwise_sq_dists(X, X), sigma, np.empty((4, 4), np.float32)),
                      lambda: kernel_mod._context_gram(pairwise_sq_dists(X, X), sigma)):
            with pytest.raises(ValueError, match="sigma"):
                build()

    @pytest.mark.parametrize("sigma", [1e-19, 1e19])
    def test_float32_gram_at_the_ends_of_the_sigma_range(self, sigma):
        # the smallest and largest accepted scales stay normal in float32: a unit diagonal, no NaN
        X = np.random.default_rng(3).standard_normal((4, 2))
        for gram in (lambda D2, s: _gram_from_sq_dists(D2, s, D2), kernel_mod._context_gram):
            K = gram(pairwise_sq_dists(X, X), KernelSpec(sigma=sigma).sigma)
            np.testing.assert_array_equal(K, np.eye(4) if sigma < 1.0 else np.ones((4, 4)))


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
        K0 = ctx.gram.values
        assert K0.dtype == np.float32
        np.testing.assert_allclose(K0, K0.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(K0), 1.0, atol=1e-15)
        assert K0.min() >= 0.0 and K0.max() <= 1.0

    def test_dense_pair_kernel_matches_kernel_eval(self):
        cal, train = _samples(n=4, c=3, seed=6)
        ctx = build_context(cal, train, KernelSpec(0.9))
        pairs = [(x, y) for x in cal for y in range(1, ctx.c + 1)]  # (i, y) -> i*c + (y-1)
        want = [[kernel_eval(a, y, b, y2, ctx.spec) for b, y2 in pairs] for a, y in pairs]
        # the float32 Gram's entries, within its rounding of the exact ones
        assert _within_rounding(dense_pair_kernel(ctx), np.array(want))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_features_rejected(self, bad):
        # a non-finite feature would make cross_v and train_self, or K0, NaN
        cal, train = _samples(n=5, m=4, c=2, seed=9)
        broken = cal.copy()
        broken[2, 1] = bad
        with pytest.raises(ValueError, match="calibration instances must be finite"):
            build_context(broken, train, KernelSpec(1.0))
        rows = train.instances.copy()
        rows[3, 0] = bad
        with pytest.raises(ValueError, match="training instances must be finite"):
            build_context(cal, Dataset(rows, train.labels, train.num_classes), KernelSpec(1.0))


class TestMmdObjective:
    def test_matched_one_hot_weights_vanish(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 2))
        labels = rng.integers(1, 3, 6)
        train = Dataset(X, labels, num_classes=2)
        ctx = build_context(X, train, KernelSpec(0.9))
        w = supervised_weights(labels, 2)
        # exact in the float64 Gram of the same points; the float32 K0 moves the squared MMD by at most its
        # rounding bound d, so the MMD by at most sqrt(d)
        assert mmd_objective(w, replace(ctx, gram=Gram(gaussian_gram(X, X, 0.9)))) < 1e-7
        assert mmd_objective(w, ctx) <= 1e-7 + math.sqrt(_mmd_rounding(w, ctx))

    @pytest.mark.parametrize("seed", range(4))
    def test_within_its_rounding_bound_of_the_float64_gram(self, seed):
        cal, train = _samples(n=30, m=25, c=3, seed=seed)
        ctx = build_context(cal, train, KernelSpec(0.7))
        W = _simplex_weights(30, 3, seed=seed + 10)
        exact = mmd_objective(W, replace(ctx, gram=Gram(gaussian_gram(cal, cal, 0.7))))
        got, d = mmd_objective(W, ctx), _mmd_rounding(W, ctx)
        assert got != exact  # the float32 K0 is read
        assert abs(got * got - exact * exact) <= d + 1e-15
        assert abs(got - exact) <= (d + 1e-15) / (got + exact)

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
                cal = generate_synthetic(cfg, n, seed=100 + seed)
                train = generate_synthetic(cfg, n, seed=200 + seed)
                ctx = build_context(cal.instances, train, KernelSpec(1.0))
                vals.append(mmd_objective(supervised_weights(cal.labels, 2), ctx))
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]


def _ref_gemm_product(K, shift, P):
    """(K + shift I) P by the float32 GEMM formula the Gram's products are held to."""
    KP = (P.T.astype(K.dtype, copy=False) @ K).T.astype(np.float64, order="C")
    if isinstance(shift, np.ndarray) or shift:
        KP += shift * P
    return KP


def _ref_product64(K, shift, P):
    """(K + shift I) P by the float64-accumulated row-block formula."""
    out = np.empty((K.shape[0],) + P.shape[1:])
    for rows, block in kernel_mod._float64_row_blocks(K):
        np.matmul(block, P, out=out[rows])
        if isinstance(shift, np.ndarray) or shift:
            out[rows] += shift * P[rows]
    return out


def _ref_fit_terms(K, u, gammas):
    """Per column, the widened squared norm and summed error of the fits
    ``gammas`` to u, in the order of operations the bound certifies with."""
    n = u.shape[0]
    G = np.hstack(gammas)
    A = np.abs(G)
    F = _ref_product64(K, 0.0, G)
    gamma = (n + 1) * 2.0**-24 / (1.0 - (n + 1) * 2.0**-24)
    Y = _ref_gemm_product(K, 0.0, np.hstack([A, np.ones((n, 1))]))
    Y += 4.0 * n * float(np.finfo(np.float32).tiny)
    Y /= 1.0 - gamma
    S, colsum = Y[:, :-1], Y[:, -1]
    l1 = A.sum(axis=0)
    norm_sq = (G * F).sum(axis=0) + GRAM32_REL_ERR * (A * S).sum(axis=0) + GRAM32_ABS_ERR * l1 * l1
    approx = (np.abs(np.tile(u, len(gammas)) - F).sum(axis=0) + GRAM32_REL_ERR * (colsum @ A)
              + GRAM32_ABS_ERR * n * l1)
    return norm_sq, approx


class TestGram:
    @staticmethod
    def _fixture(n=300, k=3, seed=41):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2))
        return kernel_mod._context_gram(pairwise_sq_dists(X, X), 0.8), rng.standard_normal((n, k))

    def test_float32_kept_without_copy(self):
        K32, _ = self._fixture(n=20)
        assert Gram(K32).values is K32
        K64 = K32.astype(np.float64)
        assert Gram(K64).values is K64
        assert Gram(K32.astype(np.float16)).values.dtype == np.float64
        assert Gram([[1, 0], [0, 1]]).values.dtype == np.float64

    def test_nonsquare_rejected(self):
        for bad in (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                Gram(bad)

    def test_context_sizes_follow_its_arrays(self):
        ctx = _context(n=7, c=4)
        assert (ctx.n, ctx.c, ctx.m) == (7, 4, 5)
        assert ctx.n == ctx.gram.n == ctx.gram.values.shape[0]
        assert replace(ctx, gram=Gram(np.eye(3)), cross_v=np.zeros((3, 2))).n == 3
        assert replace(ctx, cross_v=np.zeros((7, 2))).c == 2

    @pytest.mark.parametrize("shift", [0.0, 0.3, np.array([0.1, 2.0, 30.0])])
    def test_products_keep_their_formulas(self, shift):
        K32, P = self._fixture()
        gram = Gram(K32)
        assert gram.product(P, shift).tobytes() == _ref_gemm_product(K32, shift, P).tobytes()
        assert gram.product64(P, shift).tobytes() == _ref_product64(K32, shift, P).tobytes()
        assert gram.product(P, shift).flags.c_contiguous
        if not isinstance(shift, np.ndarray):  # a vector, with a scalar shift
            q = P[:, 0].copy()
            assert gram.product(q, shift).tobytes() == _ref_gemm_product(K32, shift, q).tobytes()
            assert gram.product64(q, shift).tobytes() == _ref_product64(K32, shift, q).tobytes()
        # the default shift is 0
        assert gram.product(P).tobytes() == _ref_gemm_product(K32, 0.0, P).tobytes()
        assert gram.product64(P).tobytes() == _ref_product64(K32, 0.0, P).tobytes()

    def test_shift_adds_the_jitter(self):
        K32, _ = self._fixture()
        mean = float(K32.trace(dtype=np.float64) / 300)
        assert Gram(K32).shift(3.0) == kernel_mod.CG_JITTER_SCALE * mean + 3.0
        ridges = np.array([30.0, 300.0])
        assert Gram(K32).shift(ridges).tobytes() == (kernel_mod.CG_JITTER_SCALE * mean + ridges).tobytes()

    def test_fit_terms_keep_the_bound_arithmetic(self):
        K32, _ = self._fixture()
        rng = np.random.default_rng(42)
        u = (rng.uniform(size=(300, 3)) < 0.6).astype(np.float64)
        gammas = [10.0**e * rng.standard_normal((300, 3)) for e in (-2, 0, 1)]
        got = Gram(K32).fit_terms(np.hstack(gammas), np.tile(u, 3))
        for a, b in zip(got, _ref_fit_terms(K32, u, gammas)):
            assert a.shape == (9,) and a.tobytes() == b.tobytes()


class TestUpperAbsProducts:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), k=st.integers(1, 4),
           log_sigma=st.floats(-2.5, 1.5), log_lo=st.floats(-46.0, 0.0), log_hi=st.floats(0.0, 6.0))
    def test_bounds_the_exact_products(self, seed, n, k, log_sigma, log_lo, log_hi):
        # over entries from below float32's normal range to large ones: never below the float64 products of the
        # float32 Gram, and above them only by the GEMM's forward error
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2))
        K32 = kernel_mod._context_gram(pairwise_sq_dists(X, X), math.exp(log_sigma))
        A = 10.0 ** rng.uniform(log_lo, log_hi, (n, k)) * (rng.uniform(size=(n, k)) < 0.8)
        S, colsum = Gram(K32)._upper_abs_products(A)
        K = K32.astype(np.float64)
        for got, exact in ((S, K.T @ A), (colsum, K.sum(axis=0))):
            assert np.all(got >= exact)
            assert np.all(got <= exact * (1.0 + 1e-5) + 1e-30)

    def test_asymmetric_gram_uses_its_transpose(self):
        # the widening terms need K^T |g| and K^T 1, so a K that is not exactly symmetric is bounded correctly
        K32 = np.array([[1.0, 0.5], [0.0, 1.0]], np.float32)
        A = np.array([[1.0], [2.0]])
        S, colsum = Gram(K32)._upper_abs_products(A)
        np.testing.assert_allclose(S[:, 0], [1.0, 2.5], rtol=1e-6)
        np.testing.assert_allclose(colsum, [1.0, 1.5], rtol=1e-6)
        assert np.all(S[:, 0] >= [1.0, 2.5]) and np.all(colsum >= [1.0, 1.5])


class TestMinNormInterpolation:
    def test_identity_system(self):
        u = np.array([[1.0], [-2.0], [0.5]])
        G, _ = _fit(np.eye(3), u)
        np.testing.assert_allclose(G, u, rtol=1e-9)
        assert abs(np.sum(u * G) - float(np.sum(u * u))) < 1e-8

    def test_two_by_two_hand_solve(self):
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        u = np.ones((2, 1))
        G, _ = _fit(K, u)
        np.testing.assert_allclose(G, [[2 / 3], [2 / 3]], rtol=1e-8)
        assert abs(np.sum(u * G) - 4 / 3) < 1e-8

    def test_zero_targets(self):
        u = np.zeros((4, 1))
        G, _ = _fit(np.eye(4), u)
        np.testing.assert_array_equal(G, 0.0)
        assert np.sum(u * G) == 0.0

    def test_iteration_cap_is_unconverged(self):
        _, path = _fit(np.eye(3), np.ones((3, 1)), max_iters=0)
        assert path["converged"].tolist() == [False]
        assert path["iterations"].tolist() == [0]
        assert path["residuals"].tolist() == [math.sqrt(3.0)]

    def test_nan_residual_is_unconverged(self):
        K = np.eye(3)
        K[0, 1] = K[1, 0] = np.nan
        _, path = _fit(K, np.ones((3, 1)))
        assert path["converged"].tolist() == [False]
        assert path["iterations"].tolist() == [1]
        assert math.isnan(path["residuals"][0])

    def test_block_matches_columns(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 2))
        K = gaussian_gram(X, X, 0.8)
        U = rng.uniform(0.0, 1.0, (6, 3))
        block, _ = _fit(K, U, ridge=0.5)
        cols = [_fit(K, U[:, [y]], ridge=0.5)[0] for y in range(3)]
        assert block.shape == (6, 3)
        for y, col in enumerate(cols):
            np.testing.assert_allclose(block[:, [y]], col, rtol=1e-7, atol=1e-10)
        assert abs(np.sum(U * block) - sum(np.sum(U[:, [y]] * col) for y, col in enumerate(cols))) < 1e-8

    def test_ridge_shifts_the_system(self):
        u = np.array([[1.0], [-2.0], [0.5]])
        G, _ = _fit(np.eye(3), u, ridge=3.0)
        np.testing.assert_allclose(G, u / 4.0, rtol=1e-9)

    def test_target_shape_checked(self):
        for u in (np.ones((2, 2)), np.ones(3), np.ones((3, 1, 1))):  # only an (n, c) target is fit
            with pytest.raises(ValueError, match="shape"):
                _fit(np.eye(3), u)

    def test_negative_ridge_rejected(self):
        for ridge in (-1.0, np.inf):  # an infinite ridge would run CG on inf shifts into a NaN residual
            with pytest.raises(ValueError, match="ridge"):
                _fit(np.eye(3), np.ones((3, 1)), ridge=ridge)


def _naive_indicator(scores, weights, alpha):
    """The inclusion indicator selection fits, built as calibrate_unsupervised builds it."""
    return scores.values <= conformal_quantile_weighted(scores.values, weights, alpha)


class TestSelectKernel:
    def _all_ones_fixture(self, n, c):
        # an identically 1 coverage indicator on at most two points
        return np.array([[0.0, 0.0], [1.0, 0.0]])[:n], np.ones((n, c))

    def test_singleton_returned(self):
        cal, u = self._all_ones_fixture(2, 2)
        spec, diag = select_kernel([KernelSpec(1.3)], cal, u)
        assert spec.sigma == 1.3
        assert diag["selected_index"] == 0

    def test_smoother_kernel_wins_on_constant_indicator(self):
        cal, u = self._all_ones_fixture(2, 2)
        spec, diag = select_kernel([KernelSpec(0.05), KernelSpec(5.0)], cal, u)
        assert spec.sigma == 5.0
        assert diag["statistics"][1] < diag["statistics"][0]

    def test_zero_ridge_rejected(self):
        # without a ridge the smooth candidates' solves run to the CG cap
        cal, u = self._all_ones_fixture(2, 2)
        with pytest.raises(ValueError, match="ridge must be positive"):
            select_kernel([KernelSpec(0.05), KernelSpec(5.0)], cal, u, ridge=0.0)

    def test_equal_statistics_tie_to_smaller_sigma(self):
        # n=1 blocks are 1x1, so the penalized statistic is sigma-independent
        cal, u = self._all_ones_fixture(1, 2)
        spec, diag = select_kernel([KernelSpec(3.0), KernelSpec(0.7)], cal, u)
        assert spec.sigma == 0.7
        np.testing.assert_allclose(diag["statistics"][0], diag["statistics"][1], rtol=1e-10)
        np.testing.assert_array_equal(diag["sigmas"], [0.7, 3.0])

    def test_empty_candidates(self):
        cal, u = self._all_ones_fixture(2, 2)
        with pytest.raises(EmptyInputError):
            select_kernel([], cal, u)

    def test_negative_ridge(self):
        cal, u = self._all_ones_fixture(2, 2)
        with pytest.raises(ValueError, match="ridge"):
            select_kernel([KernelSpec(1.0)], cal, u, ridge=-0.5)
        with pytest.raises(ValueError, match="ridge"):
            select_kernel([KernelSpec(1.0)], cal, u, ridge=math.nan)
        # an infinite ridge would leave every candidate's statistic NaN
        with pytest.raises(ValueError, match="ridge must be positive and finite"):
            select_kernel([KernelSpec(1.0)], cal, u, ridge=math.inf)

    @pytest.mark.parametrize("u", [np.ones(2), np.ones((3, 2)), np.ones((2, 2, 1)), np.array([[1.0, np.nan]] * 2),
                                   np.array([[np.inf, 0.0]] * 2)])
    def test_indicator_checked(self, u):
        # u must be a finite (n, c) matrix with a row per calibration point
        cal, _ = self._all_ones_fixture(2, 2)
        with pytest.raises(ValueError, match=r"u must be a finite \(2, c\) matrix"):
            select_kernel([KernelSpec(1.0)], cal, u)

    def test_all_candidates_failing_raises(self, monkeypatch):
        cal, u = self._all_ones_fixture(2, 2)
        monkeypatch.setattr(kernel_mod, "CG_MAX_ITERS", 0)  # no candidate takes a step
        with pytest.raises(InterpolationError, match="candidates"):
            select_kernel([KernelSpec(1.0), KernelSpec(2.0)], cal, u)

    def test_capped_candidate_is_skipped(self, monkeypatch):
        # on this mixed coverage indicator sigma = 3 wins, is visited first
        # (nearest sqrt(d/2) = 1 in log sigma), and needs more CG steps than
        # sigma = 30 takes to be solved outright: a cap at that count fails
        # sigma = 3 alone, which is capped, not pruned, and leaves sigma = 30
        # nothing solved to be pruned against
        rng = np.random.default_rng(11)
        n, c = 40, 3
        cal = rng.standard_normal((n, 2))
        scores = ScoreMatrix(values=rng.uniform(0, 1, (n, c)), kind="adaptive", noise_epsilon=1e-9, seed=0)
        u = _naive_indicator(scores, supervised_weights(1 + rng.integers(0, c, n), c).matrix, 0.5)
        specs = [KernelSpec(0.3), KernelSpec(3.0), KernelSpec(30.0)]
        _, free = select_kernel(specs, cal, u)
        _, alone = select_kernel(specs[2:], cal, u)
        counts = free["iterations"]
        assert free["selected_index"] == 1
        assert counts[1] > alone["iterations"][0]
        cap = int(alone["iterations"][0])
        monkeypatch.setattr(kernel_mod, "CG_MAX_ITERS", cap)
        spec, diag = select_kernel(specs, cal, u)
        assert math.isnan(diag["statistics"][1]) and not diag["pruned"][1]
        assert diag["iterations"][1] == cap
        assert diag["residuals"][1] > 1e-8 * math.sqrt(n)
        assert diag["statistics"][2] == alone["statistics"][0]
        assert diag["selected_index"] in (0, 2)
        assert spec.sigma == diag["sigmas"][diag["selected_index"]]

    @staticmethod
    def _mixture_fixture(seed, d, spread, posterior=False):
        """n=400 points of a 3-class mixture and their naive indicator at
        alpha = 0.1, scored uniformly at random (the smoothest kernels win)
        or by one minus the mixture posterior, whose inclusion indicator has
        a boundary in x that a mid-grid sigma fits."""
        rng = np.random.default_rng(seed)
        n, c = 400, 3
        labels = rng.integers(0, c, n)
        means = spread * rng.standard_normal((c, d))
        cal = means[labels] + rng.standard_normal((n, d))
        if not posterior:
            scores = ScoreMatrix(values=rng.uniform(0, 1, (n, c)), kind="adaptive", noise_epsilon=1e-9, seed=0)
            return cal, _naive_indicator(scores, supervised_weights(labels + 1, c).matrix, 0.1)
        logits = -0.5 * ((cal[:, None, :] - means[None]) ** 2).sum(axis=2)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        values = 1.0 - p + 1e-3 * rng.uniform(0, 1, (n, c))
        scores = ScoreMatrix(values=values, kind="probability", noise_epsilon=1e-3, seed=0)
        return cal, _naive_indicator(scores, supervised_weights(p.argmax(axis=1) + 1, c).matrix, 0.1)

    @staticmethod
    def _check_against_plain_cg(cal, u, d, ridge=kernel_mod.SELECTION_RIDGE):
        """Selection with pruning and preconditioning against every candidate
        solved by plain CG from 0; returns the selected index."""
        grid = bandwidth_grid(d)
        spec, diag = select_kernel(grid, cal, u, ridge=ridge)
        assert diag["ranks"].max() > 0
        assert np.all((diag["ranks"] >= 0) & (diag["ranks"] <= 400 // 16))
        U = u.astype(np.float64)
        D2 = pairwise_sq_dists(cal, cal)
        # the statistics come from direct solves on selection's float32 Gram,
        # upcast: plain CG at 1e-8 can land just past a pruned candidate's
        # certified bracket; its iteration counts are kept for the factor's
        # check below. The float64 Gram's statistics must pick the same sigma
        exact, exact64 = np.empty(len(grid)), np.empty(len(grid))
        plain_iters = np.empty(len(grid), dtype=np.int64)
        for j, s in enumerate(grid):
            K = _gram_from_sq_dists(D2, s.sigma, out=np.empty(D2.shape, np.float32)).astype(np.float64)
            shift = ridge + 1e-10
            _, _, plain_iters[j], converged = plain_cg_columns(lambda P: K @ P + shift * P, U, 1e-8, 1500)
            assert converged
            exact[j] = float(np.sum(U * np.linalg.solve(K + shift * np.eye(len(K)), U)))
            K = gaussian_gram(cal, cal, s.sigma)
            exact64[j] = float(np.sum(U * np.linalg.solve(K + shift * np.eye(len(K)), U)))
        pruned = diag["pruned"]
        first = [s.sigma for s in grid].index(math.sqrt(d / 2.0))  # the candidate visited first
        assert pruned.any() and not pruned[first]
        assert np.all(np.isnan(diag["statistics"][pruned]))
        np.testing.assert_allclose(diag["statistics"][~pruned], exact[~pruned], rtol=1e-9, atol=0.0)
        assert np.all(diag["lower"][pruned] <= exact[pruned])
        assert np.all(exact[pruned] <= diag["upper"][pruned])
        assert spec == grid[int(np.argmin(exact))] == grid[int(np.argmin(exact64))]
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

    # the default grid's visit order: sqrt(d/2) first, then outward, ties to the larger sigma
    DEFAULT_VISIT_ORDER = [3, 4, 2, 5, 1, 6, 0, 7, 8, 9]

    @staticmethod
    def _visited_sigmas(monkeypatch, specs, d):
        """The sigmas whose Grams select_kernel builds, in order, on random
        points in d dimensions."""
        built = []

        def spy(D2, sigma, out):
            built.append(sigma)
            return _gram_from_sq_dists(D2, sigma, out=out)

        monkeypatch.setattr(kernel_mod, "_gram_from_sq_dists", spy)
        rng = np.random.default_rng(5)
        n, c = 30, 3
        cal = rng.standard_normal((n, d))
        scores = ScoreMatrix(values=rng.uniform(0, 1, (n, c)), kind="adaptive", noise_epsilon=1e-9, seed=0)
        select_kernel(specs, cal, _naive_indicator(scores, supervised_weights(1 + rng.integers(0, c, n), c).matrix, 0.1))
        return built

    @pytest.mark.parametrize("d", [2, 10])
    def test_default_grid_visited_outward_from_the_base_scale(self, monkeypatch, d):
        grid = bandwidth_grid(d)
        built = self._visited_sigmas(monkeypatch, grid, d)
        assert built == [grid[j].sigma for j in self.DEFAULT_VISIT_ORDER]

    @pytest.mark.parametrize("d, sigmas, visited", [
        # sqrt(8/2) = 2: 1.5 is nearest in log sigma; 3.0 and 0.5 are one grid step away, the larger first
        (8, [0.5, 1.5, 3.0, 10.0], [1.5, 3.0, 0.5, 10.0]),
        # sqrt(2/2) = 1: 0.5 and 2.0 are equally near in log sigma, so the larger starts
        (2, [0.25, 0.5, 2.0, 4.0], [2.0, 4.0, 0.5, 0.25]),
    ])
    def test_custom_grid_starts_nearest_the_base_scale(self, monkeypatch, d, sigmas, visited):
        specs = [KernelSpec(s) for s in reversed(sigmas)]  # the given order does not matter
        assert self._visited_sigmas(monkeypatch, specs, d) == visited

    @pytest.mark.parametrize("seed, d, spread, ridge, unpruned", [(40, 2, 1.5, 3.0, 0), (42, 10, 2.2, 3.0, 1),
                                                                  (40, 2, 1.5, 0.3, 0), (42, 10, 2.2, 0.1, 1)])
    def test_candidates_after_the_winner_are_pruned(self, seed, d, spread, ridge, unpruned):
        # once the winner is solved, the candidates visited after it are
        # pruned, except at d = 10: there sigma = 0.22, whose Gram is nearly
        # the identity, is solved by its single plain step (at ridge 0.1 one
        # column's residual after it is 1.5e-8 relative, inside
        # SELECTION_CG_TOL)
        cal, u = self._mixture_fixture(seed, d, spread, posterior=True)
        _, diag = select_kernel(bandwidth_grid(d), cal, u, ridge=ridge)
        order = self.DEFAULT_VISIT_ORDER
        after = np.array(order[order.index(diag["selected_index"]) + 1:])
        assert len(after) > 0
        kept = after[~diag["pruned"][after]]
        assert len(kept) == unpruned
        assert np.all(diag["iterations"][kept] == 1) and not np.isnan(diag["statistics"][kept]).any()
        assert np.all(diag["iterations"][after] <= 2)

    def test_candidate_pruned_at_its_first_step_builds_no_factor(self, monkeypatch):
        cal, u = self._mixture_fixture(40, 2, 1.5)
        built = []

        def counted(K, mu):
            built.append(mu)
            return _pivoted_cholesky(K, mu)

        monkeypatch.setattr(kernel_mod, "_pivoted_cholesky", counted)
        _, diag = select_kernel(bandwidth_grid(2), cal, u)
        first = diag["pruned"] & (diag["iterations"] == 1)
        assert first.any()
        assert np.all(diag["ranks"][first] == 0)
        # a factor is built for exactly the candidates that went past their
        # plain step, and on this fixture every such factor is kept
        assert len(built) == int(np.sum(diag["iterations"] > 1)) == int(np.sum(diag["ranks"] > 0))

    def test_prune_is_confirmed_on_the_true_residual(self, monkeypatch):
        # every candidate but the winner is pruned here: a prune takes one
        # true residual to confirm what its recurrence residual said, and
        # the winner one for its statistic; each bracket is the true one
        cal, u = self._mixture_fixture(40, 2, 1.5, posterior=True)
        residual, taken = kernel_mod._residual, []

        def spy(gram, shift, B, X):
            taken.append((X.copy(), residual(gram, shift, B, X)))
            return taken[-1][1].copy()

        monkeypatch.setattr(kernel_mod, "_residual", spy)
        _, diag = select_kernel(bandwidth_grid(2), cal, u)
        assert int(diag["pruned"].sum()) == len(taken) - 1 == len(bandwidth_grid(2)) - 1
        U = u.astype(np.float64)
        for j, (X, R) in zip(self.DEFAULT_VISIT_ORDER, taken):
            assert diag["lower"][j] == float(np.vdot(U + R, X))
            assert diag["upper"][j] == diag["lower"][j] + float(np.vdot(R, R)) / (diag["ridge"] + 1e-10)

    def test_diagnostics_shape(self):
        cal, u = self._all_ones_fixture(2, 3)
        specs = [KernelSpec(0.5), KernelSpec(1.0), KernelSpec(2.0)]
        spec, diag = select_kernel(specs, cal, u)
        assert diag["ridge"] == kernel_mod.SELECTION_RIDGE
        assert len(diag["statistics"]) == 3
        assert len(diag["residuals"]) == 3
        assert set(diag) == {"ridge", "sigmas", "statistics", "residuals", "iterations", "ranks", "pruned",
                             "lower", "upper", "selected_index"}
        assert diag["pruned"].dtype == bool and len(diag["pruned"]) == 3
        assert len(diag["lower"]) == 3 and len(diag["upper"]) == 3
        assert diag["sigmas"][diag["selected_index"]] == spec.sigma


class TestDualWitness:
    def test_witness_probe_matches_objective(self):
        cal, train = _samples(n=5, m=4, c=2, seed=9)
        ctx = build_context(cal, train, KernelSpec(1.2))
        w = _simplex_weights(5, 2, seed=10)
        assert abs(witness_probe(w, ctx, cal, train) - mmd_objective(w, ctx)) < 1e-8

    def test_random_probes_never_exceed_objective(self):
        cal, train = _samples(n=4, m=6, c=3, seed=11)
        ctx = build_context(cal, train, KernelSpec(0.8))
        w = _simplex_weights(4, 3, seed=12)
        out = dual_witness_check(w, ctx, cal, train, probe_count=32, seed=13)
        assert out["best_probe"] <= out["objective"] + 1e-10
        assert np.all(out["probes"] <= out["objective"] + 1e-10)

    def test_zero_objective_zero_probes(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((5, 2))
        labels = rng.integers(1, 3, 5)
        train = Dataset(X, labels, num_classes=2)
        ctx = build_context(X, train, KernelSpec(1.0))
        w = supervised_weights(labels, 2)
        out = dual_witness_check(w, ctx, X, train, probe_count=8, seed=15)
        # 0 in the float64 Gram (see TestMmdObjective); the float32 K0 moves it by at most sqrt(d)
        assert out["objective"] <= 1e-7 + math.sqrt(_mmd_rounding(w, ctx))
        assert np.all(out["probes"] <= 1e-7)


class TestHandedDistances:
    """select_kernel and build_context read the calibration's squared
    distances when handed them, with the bits of their own build."""

    def test_select_kernel_same_diagnostics(self):
        cal, u = TestSelectKernel._mixture_fixture(40, 2, 1.5, posterior=True)
        D2 = pairwise_sq_dists(cal, cal)
        kept = D2.copy()
        spec, diag = select_kernel(bandwidth_grid(2), cal, u)
        spec_h, diag_h = select_kernel(bandwidth_grid(2), cal, u, sq_dists=D2)
        assert spec_h == spec
        assert repr(diag_h) == repr(diag)
        assert D2.tobytes() == kept.tobytes()  # selection only reads them

    @pytest.mark.parametrize("sigma", [0.05, 0.9])
    def test_build_context_same_bytes_in_place(self, sigma):
        cal, train = _samples(n=50, m=40, c=3, seed=37)
        ctx = build_context(cal, train, KernelSpec(sigma))
        D2 = pairwise_sq_dists(cal, cal)
        ctx_h = build_context(cal, train, KernelSpec(sigma), sq_dists=D2)
        assert ctx_h.gram.values is D2 and D2.dtype == np.float32  # K0 overwrites the distances
        assert ctx_h.gram.values.tobytes() == ctx.gram.values.tobytes()
        assert _within_rounding(ctx.gram.values, gaussian_gram(cal, cal, sigma))
        assert ctx_h.cross_v.tobytes() == ctx.cross_v.tobytes()
        assert repr(ctx_h.train_self) == repr(ctx.train_self)

    @pytest.mark.parametrize("bad", [np.zeros((5, 6), np.float32), np.zeros((6, 6)), [[0.0] * 6] * 6])
    def test_wrong_distances_rejected(self, bad):
        cal, train = _samples(n=6, m=5, c=3, seed=38)
        with pytest.raises(ValueError, match="sq_dists"):
            build_context(cal, train, KernelSpec(1.0), sq_dists=bad)
        with pytest.raises(ValueError, match="sq_dists"):
            select_kernel([KernelSpec(1.0)], cal, np.ones((6, 3)), sq_dists=bad)


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
        assert pairwise_sq_dists(X1, X2).tobytes() == want.astype(np.float32).tobytes()  # rounded once

    @pytest.mark.parametrize("block", [7, kernel_mod.GRAM_BLOCK_ENTRIES])
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 1.0])
    def test_no_subnormals_and_plain_bits_elsewhere(self, monkeypatch, sigma, block):
        monkeypatch.setattr(kernel_mod, "GRAM_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(32)
        X1, X2 = 1.5 * rng.standard_normal((300, 2)), 1.5 * rng.standard_normal((450, 2))
        D2 = _sq_dists64(X1, X2)
        plain = np.exp(D2 / (-2.0 * sigma**2))
        tiny = np.finfo(np.float64).tiny
        if sigma < 1.0:  # the fixture reaches the subnormal range
            assert np.any((plain > 0.0) & (plain < tiny))
        K = gaussian_gram(X1, X2, sigma)
        assert not np.any((K > 0.0) & (K < tiny))
        normal = plain >= tiny
        assert K[normal].tobytes() == plain[normal].tobytes()
        assert np.all(K[~normal] == 0.0)

    @pytest.mark.parametrize("block", [7, kernel_mod.GRAM_BLOCK_ENTRIES])
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0])
    def test_float32_exp_pass_has_no_subnormals_and_rounds_once(self, monkeypatch, sigma, block):
        # selection's float32 Grams: each exponent is the float32 quotient of the distance, itself rounded
        # once from float64, by -2 sigma^2 rounded to float32, then float32 exp
        monkeypatch.setattr(kernel_mod, "GRAM_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(32)
        X1, X2 = 1.5 * rng.standard_normal((300, 2)), 1.5 * rng.standard_normal((450, 2))
        D2 = pairwise_sq_dists(X1, X2)
        kept = D2.copy()
        K64 = gaussian_gram(X1, X2, sigma)
        K = _gram_from_sq_dists(D2, sigma, out=np.full(D2.shape, np.nan, np.float32))
        assert D2.dtype == K.dtype == np.float32 and D2.tobytes() == kept.tobytes()
        tiny = np.finfo(np.float32).tiny
        if sigma < 1.0:  # the fixture reaches float32's subnormal range
            assert np.any((K64 > 0.0) & (K64 < tiny))
        assert not np.any((K > 0.0) & (K < tiny))
        E = D2 / np.float32(-2.0 * sigma**2)
        normal = E >= kernel_mod._EXP_FLOOR32
        assert np.all(K[~normal] == 0.0)
        assert K[normal].tobytes() == np.exp(E[normal]).tobytes()
        # against the float64 Gram: the three roundings move the exponent x by at most 3 |x| 2^-24 to first order,
        # so the entry by a factor within exp(+-3 |x| 2^-24), and exp(t) - 1 <= t (1 + t) for t <= 264 * 2^-24;
        # numpy's float32 exp adds at most 3 ulps (2.42 the worst over 2e8 sampled exponents), and the
        # second-order terms and the float64 Gram's own rounding stay below one more ulp: 4 ulps in all
        x = E[normal].astype(np.float64)
        err = np.abs(K[normal] - K64[normal])
        assert np.all(err <= 3.0 * np.abs(x) * 2.0**-24 * K64[normal] + 4 * np.spacing(K[normal]))

    @pytest.mark.parametrize("block", [7, kernel_mod.GRAM_BLOCK_ENTRIES])
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0])
    def test_context_gram_rounds_the_float64_exp_once(self, monkeypatch, sigma, block):
        # K0: each float32 distance's float64 quotient by -2 sigma^2 and its float64 exp, rounded once to float32,
        # with float32's floor, in place
        monkeypatch.setattr(kernel_mod, "GRAM_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(32)
        X1, X2 = 1.5 * rng.standard_normal((300, 2)), 1.5 * rng.standard_normal((450, 2))
        D2 = pairwise_sq_dists(X1, X2)
        E = D2.astype(np.float64) / (-2.0 * sigma**2)
        K = kernel_mod._context_gram(D2, sigma)
        assert K is D2 and K.dtype == np.float32
        normal = E >= kernel_mod._EXP_FLOOR32
        if sigma < 1.0:  # the fixture reaches the floor
            assert not normal.all()
        assert np.all(K[~normal] == 0.0)
        assert not np.any((K > 0.0) & (K < np.finfo(np.float32).tiny))
        assert K[normal].tobytes() == np.exp(E[normal]).astype(np.float32).tobytes()
        assert _within_rounding(K, gaussian_gram(X1, X2, sigma))  # the bound the coverage-gap bound widens by

    def test_float32_floor_keeps_no_subnormal(self):
        # sigma = 0.5 makes each exponent D2 / -0.5 exact; a sweep of float64 exponents across log(float32 tiny)
        # and the floor, and every float32 exponent from 20 below the floor to 2000 above it (about 0.015),
        # each through the masked pass and, above the floor alone, the plain one
        floor = kernel_mod._EXP_FLOOR32
        tiny = np.finfo(np.float32).tiny
        sweep64 = np.linspace(-87.3367, -87.3363, 4001)
        bits = np.float32(floor).view(np.int32) + np.arange(20, -2000, -1, dtype=np.int32)  # negative: up is down
        sweep32 = bits.view(np.float32).astype(np.float64)
        for E in (sweep64, sweep32):
            for block in (E, E[E >= floor]):
                K = _gram_from_sq_dists(-0.5 * block[None, :], 0.5, out=np.empty((1, block.size), np.float32))
                assert not np.any((K > 0.0) & (K < tiny))
                np.testing.assert_array_equal(K[0] > 0.0, block.astype(np.float32) >= floor)
        # the floor is a float32 value, so both branches compare against it exactly, and it zeroes only entries
        # within 2e-4 relative of tiny
        assert float(np.float32(floor)) == floor and 0.0 < floor - math.log(tiny) < 2e-4

    def test_out_buffer_gives_same_bits(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((60, 3))
        D2 = _sq_dists64(X, X)
        fresh = gaussian_gram(X, X, 0.4)
        buf = np.full_like(D2, np.nan)
        assert _gram_from_sq_dists(D2, 0.4, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        assert _gram_from_sq_dists(D2, 0.4, out=D2) is D2
        assert D2.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("d", [2, 10])
    @pytest.mark.parametrize("m", [5, 23])
    def test_row_blocks_match_single_gemm(self, monkeypatch, block, d, m):
        # 37 rows make a ragged last block whenever a block holds several rows
        monkeypatch.setattr(kernel_mod, "GRAM_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(39)
        X1, X2 = 1.5 * rng.standard_normal((37, d)), 1.5 * rng.standard_normal((m, d))
        want = _sq_dists64(X1, X2)
        assert pairwise_sq_dists(X1, X2).tobytes() == want.astype(np.float32).tobytes()
        floor = math.log(np.finfo(np.float64).tiny)
        for sigma in (0.1 * math.sqrt(d / 2), 1.0):
            E = want / (-2.0 * sigma**2)
            plain = np.where(E >= floor, np.exp(np.maximum(E, floor)), 0.0)
            assert gaussian_gram(X1, X2, sigma).tobytes() == plain.tobytes()

    def test_exp_floor_boundary_on_masked_branch(self):
        # sigma = 0.5 makes the exponent D2 / -0.5 exact; the first entry puts
        # the block on the masked branch
        floor = kernel_mod._EXP_FLOOR
        E = np.array([[np.nextafter(floor, -np.inf), floor, np.nextafter(floor, np.inf), -1.0]])
        K = _gram_from_sq_dists(-0.5 * E, 0.5, np.empty_like(E))
        assert K[0, 0] == 0.0 and not np.signbit(K[0, 0])
        assert K[0, 1:].tobytes() == np.exp(E[0, 1:]).tobytes()


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
    """A dense calibration holds at most two n x n float32 arrays at once:
    the distances and a Gram, or K0 alone once selection is done."""

    N = 1500

    def _inputs(self, n, c=3, d=2, seed=34):
        rng = np.random.default_rng(seed)
        cal = rng.standard_normal((n, d))
        train = Dataset(rng.standard_normal((n, d)), rng.integers(1, c + 1, n), num_classes=c)
        scores = ScoreMatrix(values=rng.uniform(0, 1, (n, c)), kind="adaptive", noise_epsilon=1e-9, seed=0)
        weights = np.zeros((n, c))
        weights[np.arange(n), rng.integers(0, c, n)] = 1.0
        return cal, train, _naive_indicator(scores, weights, 0.1)

    def _warm_up(self):
        # first calls import lazily; keep that out of the trace
        cal, train, u = self._inputs(20)
        spec, _ = select_kernel(bandwidth_grid(2)[2:5], cal, u)
        solve_label_weights(build_context(cal, train, spec))

    def test_select_kernel_peak(self):
        self._warm_up()
        cal, _, u = self._inputs(self.N)
        peak = _traced_peak(lambda: select_kernel(bandwidth_grid(2)[2:5], cal, u))
        # the float32 distances, the float32 Gram buffer and one float32 factor of n / 16 rows
        assert peak <= 1.1 * 8 * self.N**2

    def test_build_context_peak(self):
        self._warm_up()
        cal, train, _ = self._inputs(self.N)
        peak = _traced_peak(lambda: build_context(cal, train, KernelSpec(0.5)))
        assert peak <= 0.6 * 8 * self.N**2

    def test_one_large_label_makes_no_training_gram(self):
        # m = 4n training points of a single label: their Gram would hold 16
        # times K0's bytes, and only row blocks of it are built
        rng = np.random.default_rng(36)
        n = self.N
        cal = rng.standard_normal((n, 2))
        train = Dataset(rng.standard_normal((4 * n, 2)), np.ones(4 * n, dtype=np.int64), num_classes=2)
        self._warm_up()
        peak = _traced_peak(lambda: build_context(cal, train, KernelSpec(0.5)))
        assert peak <= 0.6 * 8 * n**2

    def test_solve_label_weights_makes_no_gram_array(self):
        # the QP reads the context's float32 K0 in place: no copy of it, in either precision
        self._warm_up()
        cal, train, _ = self._inputs(self.N)
        ctx = build_context(cal, train, KernelSpec(1.0))
        peak = _traced_peak(lambda: solve_label_weights(ctx, options=SolverOptions(max_iters=50)))
        assert peak <= 0.1 * 8 * self.N**2

    def test_calibration_peak(self):
        # a whole unsupervised calibration peaks in selection: the float32 distances and Gram buffer and a factor
        n, c = self.N, 3
        means = 1.45 * np.stack([np.cos(2 * np.pi * np.arange(c) / c), np.sin(2 * np.pi * np.arange(c) / c)], axis=1)
        ds = generate_synthetic(SyntheticConfig(class_means=means, cov_scale=1.0, priors=np.full(c, 1.0 / c)),
                                3 * n, seed=38)
        fit = Dataset(ds.instances[:n], ds.labels[:n], c)
        model = train_logistic(fit)
        loss_bound = estimate_loss_bound(model, Dataset(ds.instances[n:2 * n], ds.labels[n:2 * n], c)).value
        cal = ds.instances[2 * n:]
        scores = build_score_matrix(model, cal, "adaptive", 37)
        self._warm_up()
        out = []
        peak = _traced_peak(lambda: out.append(calibrate_unsupervised(model, cal, fit, scores, 0.1, loss_bound)))
        assert out[0].report.converged
        assert peak <= 1.15 * 8 * n**2

    def test_gaussian_gram_makes_no_full_temporary(self):
        self._warm_up()
        cal, train, _ = self._inputs(self.N)
        peak = _traced_peak(lambda: gaussian_gram(cal, train.instances[: self.N // 2], 0.5))
        # the result plus one row block of norm sums and one of the floor's mask
        assert peak <= 8 * self.N * (self.N // 2) + 2 * 8 * kernel_mod.GRAM_BLOCK_ENTRIES

    def test_handed_distances_add_no_full_array(self):
        # K0 overwrites the distances, and the cross statistics are built by row block
        self._warm_up()
        cal, train, _ = self._inputs(self.N)
        D2 = pairwise_sq_dists(cal, cal)
        peak = _traced_peak(lambda: build_context(cal, train, KernelSpec(0.5), sq_dists=D2))
        assert peak <= 0.1 * 8 * self.N**2


def _ridge_fixture(c=1, n=80, seed=35):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    K = gaussian_gram(X, X, 0.6)
    return K, (rng.uniform(0.0, 1.0, (n, c)) < 0.7).astype(np.float64)


def _ridge_fits(G, c):
    """The per-ridge (n, c) fits in the columns of a ridge path's block."""
    return [G[:, j:j + c] for j in range(0, G.shape[1], c)]


class TestRidgePath:
    RIDGES = (0.3, 3.0, 30.0)

    @pytest.mark.parametrize("c", [1, 3])
    def test_each_ridge_matches_its_own_solve(self, c):
        K, u = _ridge_fixture(c)
        G, path = ridge_path(Gram(K), u, self.RIDGES)
        assert G.shape == (80, len(self.RIDGES) * c)
        for j, (ridge, fit) in enumerate(zip(self.RIDGES, _ridge_fits(G, c))):
            alone, alone_path = _fit(K, u, ridge)
            assert np.linalg.norm(fit - alone) <= 1e-6 * np.linalg.norm(alone)
            assert abs(np.sum(u * fit) - np.sum(u * alone)) <= 1e-6 * np.sum(u * alone)
            assert abs(path["iterations"][j] - alone_path["iterations"][0]) <= 1
            assert path["residuals"][j] <= 1e-8 * np.linalg.norm(u, axis=0).max()

    def test_order_follows_the_input(self):
        K, u = _ridge_fixture(3)
        fwd, fwd_path = ridge_path(Gram(K), u, self.RIDGES)
        rev, rev_path = ridge_path(Gram(K), u, self.RIDGES[::-1])
        assert rev_path["iterations"].tolist() == fwd_path["iterations"].tolist()[::-1]
        for a, b in zip(_ridge_fits(fwd, 3), _ridge_fits(rev, 3)[::-1]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)

    def test_small_cap_fails_only_the_smallest_ridge(self):
        K, u = _ridge_fixture(3)
        counts = [int(_fit(K, u, r)[1]["iterations"][0]) for r in self.RIDGES]
        assert counts[0] > counts[1] + 2
        cap = counts[1] + 1
        G, path = ridge_path(Gram(K), u, self.RIDGES, max_iters=cap)
        assert path["converged"].tolist() == [False, True, True]
        assert path["iterations"][0] == cap
        assert path["residuals"][0] > 1e-8 * np.linalg.norm(u, axis=0).max()
        for ridge, fit in zip(self.RIDGES[1:], _ridge_fits(G, 3)[1:]):
            alone, _ = _fit(K, u, ridge)
            assert np.linalg.norm(fit - alone) <= 1e-6 * np.linalg.norm(alone)
        _, capped = _fit(K, u, self.RIDGES[0], max_iters=cap)
        assert capped["converged"].tolist() == [False]
        assert (capped["iterations"][0], capped["residuals"][0]) == (path["iterations"][0], path["residuals"][0])

    def test_single_shift_is_plain_cg_bit_for_bit(self):
        K, u = _ridge_fixture(4, n=120, seed=36)
        shift = 0.3 + 1e-10
        gram = Gram(K)

        def matvec(P):
            return gram.product(P, shift)

        for max_iters in (1500, 7):
            X, R, iters, converged = _cg_columns(gram, shift, u, 1e-8, max_iters)
            X0, res0, iters0, converged0 = plain_cg_columns(matvec, u, 1e-8, max_iters)
            assert X.shape == R.shape == u.shape
            assert X.tobytes() == X0.tobytes()
            assert np.sqrt(np.sum(R * R, axis=0)).tobytes() == res0.tobytes()
            assert (int(iters.max()), bool(converged.all())) == (iters0, converged0)

    def test_path_records_its_rank(self):
        rng = np.random.default_rng(37)
        X = rng.standard_normal((320, 2))
        K = gaussian_gram(X, X, 1.0)
        u = (rng.uniform(0.0, 1.0, (320, 3)) < 0.7).astype(np.float64)
        G, path = ridge_path(Gram(K), u, self.RIDGES)
        assert list(path) == ["iterations", "residuals", "converged", "rank"]
        assert 0 < path["rank"] <= 320 // 16
        assert path["converged"].all()
        # the factor is built at the smallest shift, and each column of the
        # stacked solve stops on its own residual
        for ridge, fit in zip(self.RIDGES, _ridge_fits(G, 3)):
            true_res = u - (K @ fit + (ridge + 1e-10) * fit)
            assert np.all(np.linalg.norm(true_res, axis=0) <= 1e-8 * np.linalg.norm(u, axis=0))

    def test_ridges_validated(self):
        K, u = _ridge_fixture()
        with pytest.raises(ValueError, match="ridge"):
            ridge_path(Gram(K), u, (0.3, -1.0))
        with pytest.raises(ValueError, match="ridges"):
            ridge_path(Gram(K), u, ())

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_target_rejected(self, bad):
        # an infinite target makes the stopping threshold tol ||u|| infinite, so CG would report a
        # converged fit after 0 steps with gamma = 0 and an infinite residual
        K, u = _ridge_fixture(n=30)
        with pytest.raises(ValueError, match="target"):
            ridge_path(Gram(K), np.full((30, 1), bad), (1.0,))
        u = u.copy()
        u[4] = bad
        with pytest.raises(ValueError, match="target"):
            ridge_path(Gram(K), u, (1.0, 10.0))


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
        X, R, iters, converged = _cg_columns(Gram(K), mu, u, 1e-8, 1500, precond)
        X0, res0, iters0, converged0 = plain_cg_columns(matvec, u, 1e-8, 1500)
        assert bool(converged.all()) and converged0
        assert int(iters.max()) < iters0
        gamma = X
        assert np.linalg.norm(gamma - X0) <= 1e-6 * np.linalg.norm(X0)
        stat, stat0 = float(np.sum(u * gamma)), float(np.sum(u * X0))
        assert abs(stat - stat0) <= 1e-10 * abs(stat0)
        true_res = np.linalg.norm(u - matvec(gamma), axis=0)
        assert np.all(true_res <= 1e-8 * np.linalg.norm(u, axis=0))
        assert np.all(np.linalg.norm(R, axis=0) <= 1e-8 * np.linalg.norm(u, axis=0))

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

        X, R, iters, converged = _cg_columns(Gram(K), mu, u, 1e-8, 1500, precond)
        assert bool(converged.all())
        assert np.all(np.linalg.norm(R, axis=0) <= 1e-8 * np.linalg.norm(u, axis=0))
        true_res = np.linalg.norm(u - matvec(X), axis=0)
        assert np.all(true_res <= 1e-8 * np.linalg.norm(u, axis=0))

    def test_stacked_blocks_report_per_block(self):
        # two copies of a 2-column block side by side, one per shift: each column reports its own steps
        K, u, _, _ = _ill_conditioned_system(n=120, c=2)
        shifts = np.repeat([0.3, 30.0], 2) + 1e-10
        X, R, iters, converged = _cg_columns(Gram(K), shifts, np.tile(u, 2), 1e-8, 1500)
        assert X.shape == R.shape == (120, 4)
        assert iters.shape == converged.shape == (4,)
        assert iters[:2].max() > iters[2:].max()  # the larger ridge converges sooner
        assert converged.tolist() == [True] * 4
        for j, ridge in enumerate((0.3, 30.0)):
            Xj, Rj = X[:, 2 * j:2 * j + 2], R[:, 2 * j:2 * j + 2]
            true_res = u - (K @ Xj + (ridge + 1e-10) * Xj)
            assert np.all(np.linalg.norm(true_res, axis=0) <= 1e-8 * np.linalg.norm(u, axis=0))
            np.testing.assert_allclose(Rj, true_res, rtol=0.0, atol=1e-8 * np.linalg.norm(u))

    def test_warm_start(self):
        K, u, mu, matvec = _ill_conditioned_system()
        gram = Gram(K)
        exact = np.linalg.solve(K + mu * np.eye(300), u)
        X, _, iters, converged = _cg_columns(gram, mu, u, 1e-8, 1500, X0=exact, R0=u - gram.product(exact, mu))
        assert int(iters.max()) == 0 and bool(converged.all())
        assert X.tobytes() == exact.tobytes()
        # one plain step, then preconditioned CG from that iterate and its recurrence residual
        cold, _, _, _ = _cg_columns(gram, mu, u, 1e-8, 1500)
        X1, R1, one, _ = _cg_columns(gram, mu, u, 1e-8, 1)
        assert int(one.max()) == 1
        precond, _ = _nystrom_preconditioner(K, np.array([mu]), u.shape[1])
        stat0 = float(np.sum(u * cold))
        X, R, iters, converged = _cg_columns(gram, mu, u, 1e-8, 1500, precond, X1, R1)
        assert bool(converged.all()) and int(iters.max()) >= 1
        assert abs(float(np.sum(u * X)) - stat0) <= 1e-10 * abs(stat0)
        true_res = np.linalg.norm(u - matvec(X), axis=0)
        assert np.all(true_res <= 1e-8 * np.linalg.norm(u, axis=0))

    def test_true_stop_ends_the_run_after_that_step(self):
        K, u, mu, _ = _ill_conditioned_system(n=120)
        gram = Gram(K)
        seen = []
        X, _, iters, converged = _cg_columns(gram, mu, u, 1e-8, 1500, stop=lambda X, R: seen.append(R) or True)
        X1, R1, _, _ = _cg_columns(gram, mu, u, 1e-8, 1)
        assert int(iters.max()) == 1 and not bool(converged.all()) and len(seen) == 1
        assert X.tobytes() == X1.tobytes() and seen[0].tobytes() == R1.tobytes()
        # a stop that never holds leaves the run as it is without one, and
        # sees every step but the last, after which no column runs
        seen.clear()
        X, R, iters, converged = _cg_columns(gram, mu, u, 1e-8, 1500, stop=lambda X, R: seen.append(R))
        X0, R0, iters0, _ = _cg_columns(gram, mu, u, 1e-8, 1500)
        assert X.tobytes() == X0.tobytes() and R.tobytes() == R0.tobytes()
        assert bool(converged.all()) and len(seen) == int(iters0.max()) - 1 > 0


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
