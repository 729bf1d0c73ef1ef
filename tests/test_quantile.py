"""Weighted quantiles, conformal thresholds, prediction sets, evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsupcp.errors import EmptyInputError
from unsupcp.quantile import (
    conformal_level,
    conformal_quantile_supervised,
    conformal_quantile_weighted,
    evaluate,
    prediction_mask,
    weighted_quantile,
)
from unsupcp.solver import supervised_weights

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestWeightedQuantile:
    def test_uniform_masses(self):
        vals = np.arange(1.0, 6.0)
        assert weighted_quantile(vals, np.full(5, 0.2), 0.6) == 3.0

    def test_beta_one_is_max(self):
        vals = np.arange(1.0, 6.0)
        assert weighted_quantile(vals, np.full(5, 0.2), 1.0) == 5.0

    def test_first_atom_attains_half(self):
        assert weighted_quantile(np.array([0.1, 0.9]), np.array([0.5, 0.5]), 0.5) == 0.1

    def test_beta_above_total_mass(self):
        assert weighted_quantile(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 1.5) == np.inf

    def test_equal_values_merge_mass(self):
        vals = np.array([1.0, 2.0, 2.0, 3.0])
        masses = np.array([0.2, 0.3, 0.3, 0.2])
        assert weighted_quantile(vals, masses, 0.7) == 2.0

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(20)
        masses = rng.uniform(0, 1, 20)
        masses /= masses.sum()
        perm = rng.permutation(20)
        assert weighted_quantile(vals, masses, 0.4) == weighted_quantile(vals[perm], masses[perm], 0.4)

    def test_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_quantile(np.array([1.0]), np.array([-0.1]), 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            conformal_quantile_weighted(np.array([[0.1, 0.9]]), np.array([[np.nan, np.nan]]), 0.1)

    def test_empty_values(self):
        with pytest.raises(EmptyInputError):
            weighted_quantile(np.array([]), np.array([]), 0.5)

    def test_nonpositive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            weighted_quantile(np.array([1.0]), np.array([1.0]), 0.0)

    def test_nonfinite_values(self):
        with pytest.raises(ValueError, match="finite"):
            weighted_quantile(np.array([np.inf]), np.array([1.0]), 0.5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        vals=st.lists(finite_floats, min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
        b1=st.floats(0.01, 1.0),
        b2=st.floats(0.01, 1.0),
    )
    def test_nondecreasing_in_beta(self, vals, seed, b1, b2):
        vals = np.asarray(vals)
        masses = np.random.default_rng(seed).uniform(0.0, 1.0, vals.size)
        total = masses.sum()
        if total <= 0:
            return
        masses /= total
        lo, hi = sorted((b1, b2))
        assert weighted_quantile(vals, masses, lo) <= weighted_quantile(vals, masses, hi)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(vals=st.lists(finite_floats, min_size=1, max_size=12), b=st.floats(0.01, 0.99))
    def test_result_is_an_input_value(self, vals, b):
        vals = np.asarray(vals)
        q = weighted_quantile(vals, np.full(vals.size, 1.0 / vals.size), b)
        assert q in vals


class TestConformalLevel:
    def test_formula(self):
        assert abs(conformal_level(19, 0.1) - 0.9 * 20 / 19) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            conformal_level(0, 0.1)
        with pytest.raises(ValueError):
            conformal_level(5, 1.0)


class TestSupervisedQuantile:
    def test_level_exactly_one(self):
        # n=9, alpha=0.1: level (0.9)(10/9) = 1 up to an ulp; must hit the max, not the sentinel
        assert conformal_quantile_supervised(np.arange(1.0, 10.0), 0.1) == 9.0

    def test_nineteen_scores(self):
        # level 18/19, cumulative mass j/19 first reaches it at the 18th score
        assert conformal_quantile_supervised(np.arange(1.0, 20.0), 0.1) == 18.0

    def test_four_scores_alpha_half(self):
        # level 0.625, cumulative 0.75 at the third score
        assert conformal_quantile_supervised(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 3.0

    def test_small_n_gives_sentinel(self):
        # n=1, alpha=0.1: level 1.8 > 1
        assert conformal_quantile_supervised(np.array([0.3]), 0.1) == np.inf


class TestWeightedQuantileConformal:
    def test_one_hot_reduction_bit_for_bit(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((17, 4))
        labels = rng.integers(1, 5, 17)
        w = supervised_weights(labels, 4)
        sup = conformal_quantile_supervised(scores[np.arange(17), labels - 1], 0.13)
        wtd = conformal_quantile_weighted(scores, w.matrix, 0.13)
        assert sup == wtd

    def test_sentinel_when_level_exceeds_mass(self):
        scores = np.array([[0.2, 0.8]])
        weights = np.array([[0.5, 0.5]])
        assert conformal_quantile_weighted(scores, weights, 0.1) == np.inf

    def test_uniform_weights_hand_case(self):
        # level 0.625; mass 0.5 at 0.1, 1.0 at 0.9
        scores = np.tile([0.1, 0.9], (4, 1))
        weights = np.full((4, 2), 0.5)
        assert conformal_quantile_weighted(scores, weights, 0.5) == 0.9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal"):
            conformal_quantile_weighted(np.zeros((3, 2)), np.zeros((2, 3)), 0.1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 25), c=st.integers(2, 5), seed=st.integers(0, 2**16), alpha=st.floats(0.05, 0.5))
    def test_reduction_property(self, n, c, seed, alpha):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((n, c))
        labels = rng.integers(1, c + 1, n)
        w = supervised_weights(labels, c)
        sup = conformal_quantile_supervised(scores[np.arange(n), labels - 1], alpha)
        assert sup == conformal_quantile_weighted(scores, w.matrix, alpha)


class TestPredictionSets:
    def test_sentinel_gives_full_set(self):
        mask = prediction_mask(np.array([[0.1, 0.5, 0.9], [2.0, -1.0, 7.5]]), np.inf)
        assert mask.all()

    def test_threshold_below_all(self):
        assert not prediction_mask(np.array([[0.1, 0.5]]), 0.0).any()

    def test_threshold_inclusion(self):
        # a score equal to the threshold is in the set
        mask = prediction_mask(np.array([[0.1, 0.5, 0.9]]), 0.5)
        np.testing.assert_array_equal(mask, [[True, True, False]])

    def test_mask_matches_sets(self):
        scores = np.array([[0.1, 0.9], [0.7, 0.2]])
        mask = prediction_mask(scores, 0.5)
        np.testing.assert_array_equal(mask, [[True, False], [False, True]])


class TestEvaluate:
    def test_full_sets(self):
        rep = evaluate(np.ones((3, 4), dtype=bool), np.array([1, 2, 3]))
        assert rep.coverage == 1.0 and rep.mean_size == 4.0

    def test_empty_sets(self):
        rep = evaluate(np.zeros((3, 4), dtype=bool), np.array([1, 2, 3]))
        assert rep.coverage == 0.0 and rep.mean_size == 0.0

    def test_mixed(self):
        mask = np.array([[True, False, False], [True, True, False], [True, True, True]])
        rep = evaluate(mask, np.array([1, 3, 2]))
        assert abs(rep.coverage - 2 / 3) < 1e-15
        assert rep.mean_size == 2.0
        assert rep.count == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            evaluate(np.ones((3, 2), dtype=bool), np.array([1, 2]))

    def test_no_instances(self):
        with pytest.raises(EmptyInputError):
            evaluate(np.ones((0, 2), dtype=bool), np.zeros(0, dtype=np.int64))
