"""The kernel gap bound: pinned values, monotonicity, and the E diagnostic."""

import math

import numpy as np
import pytest

from unsupcp.bounds import BoundInputs, coverage_diagnostic_E, excess_gap_kernel
from unsupcp.solver import supervised_weights


class TestBoundInputs:
    def test_defaults(self):
        inp = BoundInputs(n=10, m=20, delta=0.1)
        assert inp.rkhs_norm == 1.0 and inp.approx_error == 0.0 and inp.num_candidates == 1

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
            BoundInputs(**kwargs)


class TestExcessGapKernel:
    def test_pinned_value(self):
        # 2 * (1 + sqrt(log(2/0.1))) * sqrt(2/1000) * 10 = 2.4425182150818956
        inp = BoundInputs(n=1000, m=1000, delta=0.1, rkhs_norm=10.0)
        assert abs(excess_gap_kernel(inp) - 2.4425182150818956) < 1e-12

    def test_pinned_value_with_selection(self):
        # 0.03 + 2 * (1 + sqrt(log(10/0.1))) * sqrt(1/400 + 1/900) * 1.5
        inp = BoundInputs(n=400, m=900, delta=0.1, rkhs_norm=1.5, approx_error=0.03, num_candidates=5)
        assert abs(excess_gap_kernel(inp) - 0.5971470909326966) < 1e-12

    def test_zero_radius_leaves_approx_error(self):
        inp = BoundInputs(n=10, m=10, delta=0.1, rkhs_norm=0.0, approx_error=0.25)
        assert excess_gap_kernel(inp) == 0.25

    def test_root_two_scaling_in_sample_sizes(self):
        base = BoundInputs(n=250, m=400, delta=0.1, rkhs_norm=3.0)
        doubled = BoundInputs(n=500, m=800, delta=0.1, rkhs_norm=3.0)
        assert abs(excess_gap_kernel(doubled) * math.sqrt(2.0) - excess_gap_kernel(base)) < 1e-12

    def test_monotonicity(self):
        ref = BoundInputs(n=100, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.01)
        assert excess_gap_kernel(BoundInputs(n=400, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.01)) < excess_gap_kernel(ref)
        assert excess_gap_kernel(BoundInputs(n=100, m=400, delta=0.1, rkhs_norm=2.0, approx_error=0.01)) < excess_gap_kernel(ref)
        assert excess_gap_kernel(BoundInputs(n=100, m=100, delta=0.1, rkhs_norm=4.0, approx_error=0.01)) > excess_gap_kernel(ref)
        assert excess_gap_kernel(BoundInputs(n=100, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.5)) > excess_gap_kernel(ref)
        assert excess_gap_kernel(BoundInputs(n=100, m=100, delta=0.01, rkhs_norm=2.0, approx_error=0.01)) > excess_gap_kernel(ref)
        assert (
            excess_gap_kernel(BoundInputs(n=100, m=100, delta=0.1, rkhs_norm=2.0, approx_error=0.01, num_candidates=10))
            > excess_gap_kernel(ref)
        )


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
