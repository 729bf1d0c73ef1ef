"""The kernel gap bound: pinned values, monotonicity, the certified bound of
one calibration, and the E diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsupcp import bounds
from unsupcp.bounds import BOUND_RIDGES, coverage_diagnostic_E, coverage_gap_bound, excess_gap_kernel
from unsupcp.data import Dataset
from unsupcp.kernel import (
    GRAM32_ABS_ERR,
    GRAM32_REL_ERR,
    Gram,
    KernelSpec,
    _context_gram,
    build_context,
    gaussian_gram,
    pairwise_sq_dists,
    ridge_path,
)
from unsupcp.solver import supervised_weights


class TestBoundInputs:
    """The keyword inputs of excess_gap_kernel: defaults and checks."""

    def test_defaults(self):
        explicit = excess_gap_kernel(n=10, m=20, delta=0.1, rkhs_norm=1.0, approx_error=0.0, num_candidates=1)
        assert excess_gap_kernel(n=10, m=20, delta=0.1) == explicit

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=1, delta=0.1),
            dict(n=1, m=0, delta=0.1),
            dict(n=1, m=1, delta=1.5),
            dict(n=1, m=1, delta=0.1, rkhs_norm=math.nan),
            dict(n=1, m=1, delta=0.1, rkhs_norm=-1.0),
            dict(n=1, m=1, delta=0.1, approx_error=-0.1),
            dict(n=1, m=1, delta=0.1, approx_error=math.nan),
            dict(n=1, m=1, delta=0.1, num_candidates=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            excess_gap_kernel(**kwargs)


class TestExcessGapKernel:
    def test_pinned_value(self):
        # 2 * (1 + sqrt(log(2/0.1))) * sqrt(2/1000) * 10 = 2.4425182150818956
        assert abs(excess_gap_kernel(n=1000, m=1000, delta=0.1, rkhs_norm=10.0) - 2.4425182150818956) < 1e-12

    def test_pinned_value_with_selection(self):
        # 0.03 + 2 * (1 + sqrt(log(10/0.1))) * sqrt(1/400 + 1/900) * 1.5
        value = excess_gap_kernel(n=400, m=900, delta=0.1, rkhs_norm=1.5, approx_error=0.03, num_candidates=5)
        assert abs(value - 0.5971470909326966) < 1e-12

    def test_zero_radius_leaves_approx_error(self):
        assert excess_gap_kernel(n=10, m=10, delta=0.1, rkhs_norm=0.0, approx_error=0.25) == 0.25

    def test_root_two_scaling_in_sample_sizes(self):
        base = dict(n=250, m=400, delta=0.1, rkhs_norm=3.0)
        doubled = dict(n=500, m=800, delta=0.1, rkhs_norm=3.0)
        assert abs(excess_gap_kernel(**doubled) * math.sqrt(2.0) - excess_gap_kernel(**base)) < 1e-12

    def test_monotonicity(self):
        ref = dict(n=100, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.01)
        assert excess_gap_kernel(n=400, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.01) < excess_gap_kernel(**ref)
        assert excess_gap_kernel(n=100, m=400, delta=0.1, rkhs_norm=2.0, approx_error=0.01) < excess_gap_kernel(**ref)
        assert excess_gap_kernel(n=100, m=100, delta=0.1, rkhs_norm=4.0, approx_error=0.01) > excess_gap_kernel(**ref)
        assert excess_gap_kernel(n=100, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.5) > excess_gap_kernel(**ref)
        assert excess_gap_kernel(n=100, m=100, delta=0.01, rkhs_norm=2.0, approx_error=0.01) > excess_gap_kernel(**ref)
        assert (
            excess_gap_kernel(n=100, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.01, num_candidates=10)
            > excess_gap_kernel(**ref)
        )


def _bound_inputs(n=40, m=50, c=3, seed=2):
    rng = np.random.default_rng(seed)
    train = Dataset(rng.standard_normal((m, 2)), rng.integers(1, c + 1, m), num_classes=c)
    ctx = build_context(rng.standard_normal((n, 2)), train, KernelSpec(sigma=1.0))
    return ctx, rng.uniform(0.0, 1.0, (n, c)) < 0.6


class TestCoverageGapBound:
    def test_each_ridge_certifies_its_fit(self, monkeypatch):
        ctx, u = _bound_inputs()
        U = u.astype(np.float64)
        paths = []

        def spy(*args, **kwargs):
            G, fit_path = ridge_path(*args, **kwargs)
            paths.append((G, dict(fit_path)))
            return G, fit_path

        monkeypatch.setattr(bounds, "ridge_path", spy)
        bound, path = coverage_gap_bound(ctx, u, 0.1, 10)
        ((G, fit_path),) = paths
        assert G.shape == (ctx.n, len(BOUND_RIDGES) * ctx.c) and fit_path["converged"].all()
        np.testing.assert_array_equal(path["ridges"], BOUND_RIDGES)
        K = ctx.gram.values.astype(np.float64)

        def expected(gamma, inflation):
            # dense float64 products with the float32 Gram, widened by its rounding terms, whose K|gamma| is
            # taken exactly and scaled by ``inflation``
            F, S, l1 = K @ gamma, inflation * (K @ np.abs(gamma)), np.abs(gamma).sum(axis=0)
            norm_sq = np.sum(gamma * F) + GRAM32_REL_ERR * np.sum(np.abs(gamma) * S) + GRAM32_ABS_ERR * l1 @ l1
            approx = np.abs(U - F).sum() + GRAM32_REL_ERR * S.sum() + GRAM32_ABS_ERR * ctx.n * l1.sum()
            return excess_gap_kernel(n=ctx.n, m=ctx.m, delta=0.1, rkhs_norm=math.sqrt(max(float(norm_sq), 0.0)),
                                     approx_error=float(approx) / ctx.n, num_candidates=10)

        for j, certified in enumerate(path["bounds"]):
            gamma = G[:, j * ctx.c:(j + 1) * ctx.c]
            # K|gamma| comes from an inflated float32 GEMM: at least the exact value, and within 1e-5 of it here
            low, high = expected(gamma, 1.0), expected(gamma, 1.0 + 1e-5)
            assert low * (1.0 - 1e-12) <= certified <= high * (1.0 + 1e-12)
        assert path["zero"] == U.sum() / ctx.n
        assert bound == min(*path["bounds"], path["zero"])

    def test_capped_fit_reads_nan_and_zero_still_bounds(self, monkeypatch):
        ctx, u = _bound_inputs()
        counts = coverage_gap_bound(ctx, u, 0.1, 10)[1]["iterations"]
        assert counts[0] > counts[1]
        monkeypatch.setattr(bounds, "CG_MAX_ITERS", int(counts[1]))
        bound, path = coverage_gap_bound(ctx, u, 0.1, 10)
        assert math.isnan(path["bounds"][0]) and path["iterations"][0] == counts[1]
        assert np.all(np.isfinite(path["bounds"][1:]))
        assert bound == min(float(np.min(path["bounds"][1:])), path["zero"])
        monkeypatch.setattr(bounds, "CG_MAX_ITERS", 0)  # no fit converges
        bound, path = coverage_gap_bound(ctx, u, 0.1, 10)
        assert np.all(np.isnan(path["bounds"]))
        assert bound == path["zero"] == u.sum() / ctx.n

    def test_capped_ridge_leaves_the_others_bounds(self, monkeypatch):
        # the converged fits' columns reach product64 in the C order of the block ridge_path solved, whatever is
        # capped, so a capped smallest ridge changes no bit of the other ridges' certified bounds
        ctx, u = _bound_inputs()
        _, free = coverage_gap_bound(ctx, u, 0.1, 10)
        U = u.astype(np.float64)
        G, _ = ridge_path(ctx.gram, U, BOUND_RIDGES)
        norm_sq, approx = (x.reshape(-1, ctx.c).sum(axis=1) for x in ctx.gram.fit_terms(G, np.tile(U, 3)))
        assert free["bounds"].tolist() == [
            excess_gap_kernel(ctx.n, ctx.m, 0.1, rkhs_norm=math.sqrt(max(float(a), 0.0)), approx_error=float(b) / ctx.n,
                              num_candidates=10) for a, b in zip(norm_sq, approx)]
        monkeypatch.setattr(bounds, "CG_MAX_ITERS", int(free["iterations"][1]))
        _, capped = coverage_gap_bound(ctx, u, 0.1, 10)
        assert math.isnan(capped["bounds"][0])
        assert capped["bounds"][1:].tobytes() == free["bounds"][1:].tobytes()
        assert list(capped) == list(free) == ["ridges", "iterations", "residuals", "rank", "bounds", "zero"]

    def test_shape_checked(self):
        ctx, u = _bound_inputs()
        with pytest.raises(ValueError, match="u shape"):
            coverage_gap_bound(ctx, u[:, :2], 0.1, 10)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), c=st.integers(1, 3),
           log_sigma=st.floats(-2.5, 1.5), spread=st.floats(0.1, 4.0), log_scale=st.floats(-3.0, 3.0))
    def test_rounding_terms_cover_the_float64_gram(self, seed, n, c, log_sigma, spread, log_scale):
        # a fit's norm and approximation error, taken in the float32 Gram and widened by its rounding terms,
        # are at least their values in the float64 Gram of the same points, for any coefficients
        rng = np.random.default_rng(seed)
        X = spread * rng.standard_normal((n, 2))
        sigma = math.exp(log_sigma)
        gamma = 10.0**log_scale * rng.standard_normal((n, c))
        u = (rng.uniform(size=(n, c)) < 0.5).astype(np.float64)
        K32 = _context_gram(pairwise_sq_dists(X, X), sigma)
        F64 = gaussian_gram(X, X, sigma) @ gamma
        norm_sq, approx = (float(x.sum()) for x in Gram(K32).fit_terms(gamma, u))
        assert max(norm_sq, 0.0) >= float(np.sum(gamma * F64))
        assert approx / n >= float(np.abs(u - F64).sum()) / n


class TestCoverageDiagnosticE:
    def test_supervised_weights_give_zero(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, (20, 3))
        labels = 1 + rng.integers(0, 3, 20)
        w = supervised_weights(labels, 3)
        assert coverage_diagnostic_E(w, scores, q_hat=0.5, true_labels=labels) == 0.0

    def test_saturated_threshold_gives_zero(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 1, (10, 2))
        labels = 1 + rng.integers(0, 2, 10)
        W = rng.dirichlet(np.ones(2), size=10)
        assert coverage_diagnostic_E(W, scores, q_hat=2.0, true_labels=labels) == 0.0

    def test_hand_case(self):
        scores = np.array([[0.1, 0.9], [0.2, 0.8]])
        W = np.full((2, 2), 0.5)
        val = coverage_diagnostic_E(W, scores, q_hat=0.5, true_labels=np.array([1, 1]))
        assert abs(val - 0.5) < 1e-15

    def test_validation(self):
        scores = np.array([[0.1, 0.9]])
        W = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match=r"\(n, c\)"):
            coverage_diagnostic_E(W, scores.ravel(), 0.5, np.array([1]))
        with pytest.raises(ValueError, match="length"):
            coverage_diagnostic_E(W, scores, 0.5, np.array([1, 2]))
        with pytest.raises(ValueError, match="1..2"):
            coverage_diagnostic_E(W, scores, 0.5, np.array([3]))
