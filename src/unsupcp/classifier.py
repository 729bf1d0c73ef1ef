"""L2-regularized multinomial logistic regression on numpy.

Written out by hand rather than wrapped from a library because the training
contract is part of the interface: accepted gradient steps must decrease the
objective monotonically, the analytic gradient is exposed for finite
difference verification, and the fit must be deterministic for a given
dataset. The penalty covers the intercept column as well, so an extreme l2
drives every logit to zero and predictions to the uniform 1/c vector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateTrainingError, EmptyInputError

PROB_CLAMP = 1e-12
LOSS_FLOOR = 1e-12


@dataclass(frozen=True)
class ProbModel:
    """Fitted classifier: weight matrix of shape (c, d+1), intercept last."""

    weights: np.ndarray
    num_classes: int
    num_features: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.num_classes, self.num_features + 1):
            raise ValueError(f"weights shape {w.shape} != ({self.num_classes}, {self.num_features + 1})")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class LossBound:
    """Cross-entropy loss bound: validation mean plus one sample std.

    ``floored`` marks the degenerate case where mean + std fell below the
    positivity floor and was clamped up to it.
    """

    value: float
    mean: float
    std: float
    floored: bool


def _design(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def ce_objective_grad(weights, instances, labels, num_classes, l2):
    """Regularized cross-entropy objective and its analytic gradient.

    Parameters
    ----------
    weights : np.ndarray
        (c, d+1) parameter matrix, intercept column last.
    instances : np.ndarray
        (N, d) features.
    labels : np.ndarray
        Length-N, values in {1, ..., c}.
    num_classes : int
        c.
    l2 : float
        Ridge strength; the penalty is (l2/2) * ||weights||_F^2.

    Returns
    -------
    (float, np.ndarray)
        Objective value and gradient of the same shape as ``weights``.
    """
    N = instances.shape[0]
    Xb = _design(np.asarray(instances, dtype=np.float64))
    P = _softmax_rows(Xb @ weights.T)
    onehot = np.zeros_like(P)
    onehot[np.arange(N), np.asarray(labels) - 1] = 1.0
    value = -np.mean(np.log(P[np.arange(N), np.asarray(labels) - 1])) + 0.5 * l2 * np.sum(weights * weights)
    grad = (P - onehot).T @ Xb / N + l2 * weights
    return value, grad


def train_logistic(train: Dataset, l2: float = 1e-3, max_iters: int = 500, tol: float = 1e-6) -> ProbModel:
    """Fit by batch gradient descent with a halving line search.

    A step is accepted only if it strictly decreases the objective, so the
    sequence of accepted objective values is monotone. Stops when the
    gradient Frobenius norm drops below ``tol``, when no decrease is
    achievable at the smallest step, or at ``max_iters``.
    """
    if train.labels is None:
        raise ValueError("training dataset must be labeled")
    if len(train) == 0:
        raise EmptyInputError("training dataset is empty")
    if not 0 <= l2 < math.inf:
        raise ValueError(f"l2 must be nonnegative and finite, got {l2}")
    observed = np.flatnonzero(np.bincount(train.labels))
    if observed.size < 2:
        raise DegenerateTrainingError(f"only class {observed[0]} observed in training data")
    c, d = train.num_classes, train.num_features
    theta = np.zeros((c, d + 1))
    value, grad = ce_objective_grad(theta, train.instances, train.labels, c, l2)
    step = 1.0
    for _ in range(max_iters):
        gnorm = np.sqrt(np.sum(grad * grad))
        if gnorm < tol:
            break
        accepted = False
        while step > 1e-16:
            cand = theta - step * grad
            cand_value, cand_grad = ce_objective_grad(cand, train.instances, train.labels, c, l2)
            if cand_value < value:
                theta, value, grad = cand, cand_value, cand_grad
                step *= 1.2
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return ProbModel(weights=theta, num_classes=c, num_features=d)


def predict_proba_matrix(model: ProbModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities for each row of X, shape (N, c)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.num_features:
        raise ValueError(f"expected (N, {model.num_features}) features, got {X.shape}")
    return _softmax_rows(_design(X) @ model.weights.T)


def predict_labels(model: ProbModel, X: np.ndarray) -> np.ndarray:
    """Hard 1-based predictions; probability ties resolve to the smaller label."""
    return np.argmax(predict_proba_matrix(model, X), axis=1) + 1


def estimate_loss_bound(model: ProbModel, val: Dataset) -> LossBound:
    """Mean validation cross-entropy plus one sample standard deviation.

    The std uses the n-1 normalization (0 when a single sample). The result
    is clamped up to a small positive floor so it can serve as the right-hand
    side of the solver's loss constraint.
    """
    if val.labels is None:
        raise ValueError("validation dataset must be labeled")
    if len(val) == 0:
        raise EmptyInputError("validation dataset is empty")
    P = predict_proba_matrix(model, val.instances)
    losses = -np.log(P[np.arange(len(val)), val.labels - 1])
    mean = float(np.mean(losses))
    std = float(np.std(losses, ddof=1)) if losses.size > 1 else 0.0
    raw = mean + std
    return LossBound(value=max(raw, LOSS_FLOOR), mean=mean, std=std, floored=raw < LOSS_FLOOR)
