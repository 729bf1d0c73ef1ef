"""Multinomial logistic training, prediction, and the loss bound."""

import math

import numpy as np
import pytest

from unsupcp.classifier import (
    ProbModel,
    ce_objective_grad,
    estimate_loss_bound,
    predict_labels,
    predict_proba,
    predict_proba_matrix,
    train_logistic,
)
from unsupcp.data import Dataset, SyntheticConfig
from unsupcp.errors import DegenerateTrainingError, EmptyInputError

from _oracles import mixture_logistic_model


class TestTraining:
    def test_separable_toy_reaches_full_accuracy(self, toy_labeled):
        model = train_logistic(toy_labeled, l2=1e-6, max_iters=2000)
        preds = predict_labels(model, toy_labeled.instances)
        np.testing.assert_array_equal(preds, toy_labeled.labels)

    def test_huge_l2_shrinks_to_uniform(self, toy_labeled):
        model = train_logistic(toy_labeled, l2=1e6)
        P = predict_proba_matrix(model, toy_labeled.instances)
        np.testing.assert_allclose(P, 0.5, atol=1e-3)
        assert np.abs(model.weights).max() < 1e-3

    def test_empty_training_set(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), num_classes=2)
        with pytest.raises(EmptyInputError):
            train_logistic(empty)

    def test_single_class_is_degenerate(self):
        ds = Dataset(np.random.default_rng(0).standard_normal((5, 2)), np.ones(5, dtype=np.int64), num_classes=2)
        with pytest.raises(DegenerateTrainingError):
            train_logistic(ds)

    def test_unlabeled_rejected(self):
        ds = Dataset(np.zeros((3, 2)), None, num_classes=2)
        with pytest.raises(ValueError, match="labeled"):
            train_logistic(ds)

    @pytest.mark.parametrize("l2", [-1e-3, float("nan")])
    def test_l2_validated(self, toy_labeled, l2):
        with pytest.raises(ValueError, match="l2"):
            train_logistic(toy_labeled, l2=l2)

    def test_fit_improves_on_initial_objective(self, toy_labeled):
        model = train_logistic(toy_labeled, l2=1e-3)
        zero = np.zeros_like(model.weights)
        f0, _ = ce_objective_grad(zero, toy_labeled.instances, toy_labeled.labels, 2, 1e-3)
        f1, _ = ce_objective_grad(model.weights, toy_labeled.instances, toy_labeled.labels, 2, 1e-3)
        assert f1 < f0


class TestPrediction:
    def test_zero_weights_give_uniform(self):
        model = ProbModel(weights=np.zeros((4, 3)), num_classes=4, num_features=2)
        np.testing.assert_allclose(predict_proba(model, np.array([1.0, -2.0])), 0.25, atol=1e-15)

    def test_saturated_margin_clamps(self):
        model = ProbModel(weights=np.array([[100.0, 0.0], [-100.0, 0.0]]), num_classes=2, num_features=1)
        p = predict_proba(model, np.array([5.0]))
        assert p[0] <= 1.0 - 1e-12
        assert p[0] > 1.0 - 1e-9

    def test_rows_normalize(self):
        rng = np.random.default_rng(3)
        model = ProbModel(weights=rng.standard_normal((5, 4)), num_classes=5, num_features=3)
        P = predict_proba_matrix(model, rng.standard_normal((20, 3)))
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert P.min() > 0.0 and P.max() < 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((3, 4))
        shift = rng.standard_normal(4)
        X = rng.standard_normal((10, 3))
        base = predict_proba_matrix(ProbModel(W, 3, 3), X)
        shifted = predict_proba_matrix(ProbModel(W + shift[None, :], 3, 3), X)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_dimension_mismatch(self):
        model = ProbModel(weights=np.zeros((2, 3)), num_classes=2, num_features=2)
        with pytest.raises(ValueError, match="features"):
            predict_proba_matrix(model, np.zeros((4, 5)))

    def test_matches_mixture_posterior(self):
        # the equal-covariance mixture posterior is itself a logistic model
        cfg = SyntheticConfig(
            class_means=np.array([[1.0, 0.2], [-0.7, 1.1], [0.0, -1.3]]),
            cov_scale=0.8,
            priors=np.array([0.5, 0.3, 0.2]),
        )
        from unsupcp.data import PosteriorOracle

        model = mixture_logistic_model(cfg)
        X = np.random.default_rng(5).standard_normal((40, 2))
        np.testing.assert_allclose(
            predict_proba_matrix(model, X), PosteriorOracle(cfg).posterior_batch(X), atol=1e-12
        )


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 2))
        labels = rng.integers(1, 4, 6)
        theta = rng.standard_normal((3, 3))
        _, grad = ce_objective_grad(theta, X, labels, 3, l2=0.01)
        h = 1e-6
        num = np.zeros_like(theta)
        for i in range(theta.shape[0]):
            for j in range(theta.shape[1]):
                up, down = theta.copy(), theta.copy()
                up[i, j] += h
                down[i, j] -= h
                fu, _ = ce_objective_grad(up, X, labels, 3, l2=0.01)
                fd, _ = ce_objective_grad(down, X, labels, 3, l2=0.01)
                num[i, j] = (fu - fd) / (2 * h)
        rel = np.linalg.norm(grad - num) / np.linalg.norm(num)
        assert rel < 1e-6


class TestLossBound:
    def test_uniform_model_gives_log_c(self):
        model = ProbModel(weights=np.zeros((4, 3)), num_classes=4, num_features=2)
        val = Dataset(np.random.default_rng(7).standard_normal((8, 2)), np.tile([1, 2, 3, 4], 2), num_classes=4)
        lb = estimate_loss_bound(model, val)
        assert abs(lb.mean - math.log(4)) < 1e-12
        assert lb.std < 1e-12
        assert abs(lb.value - math.log(4)) < 1e-11

    def test_two_losses_one_and_three(self):
        # sigmoid inputs chosen so -log p(label) is exactly 1 and 3
        x1 = math.log(math.exp(-1.0) / (1 - math.exp(-1.0)))
        x2 = math.log(math.exp(-3.0) / (1 - math.exp(-3.0)))
        model = ProbModel(weights=np.array([[1.0, 0.0], [0.0, 0.0]]), num_classes=2, num_features=1)
        val = Dataset(np.array([[x1], [x2]]), np.array([1, 1]), num_classes=2)
        lb = estimate_loss_bound(model, val)
        assert abs(lb.value - (2.0 + math.sqrt(2.0))) < 1e-9
        assert abs(lb.mean - 2.0) < 1e-9

    def test_near_perfect_model_stays_positive(self):
        model = ProbModel(weights=np.array([[1000.0, 0.0], [-1000.0, 0.0]]), num_classes=2, num_features=1)
        val = Dataset(np.array([[1.0], [2.0]]), np.array([1, 1]), num_classes=2)
        lb = estimate_loss_bound(model, val)
        assert lb.value >= 1e-12
        assert lb.value < 1e-10

    def test_single_sample_has_zero_std(self):
        model = ProbModel(weights=np.zeros((2, 2)), num_classes=2, num_features=1)
        val = Dataset(np.array([[0.5]]), np.array([2]), num_classes=2)
        lb = estimate_loss_bound(model, val)
        assert lb.std == 0.0
        assert abs(lb.value - math.log(2)) < 1e-12

    def test_empty_validation(self):
        model = ProbModel(weights=np.zeros((2, 2)), num_classes=2, num_features=1)
        empty = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=np.int64), num_classes=2)
        with pytest.raises(EmptyInputError):
            estimate_loss_bound(model, empty)
