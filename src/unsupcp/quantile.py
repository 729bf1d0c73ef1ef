"""Weighted empirical quantiles, conformal thresholds, prediction sets.

The quantile is the left-closed generalized inverse: the smallest value whose
cumulative mass reaches the requested level. When the level exceeds the total
mass the quantile is +inf and prediction sets become the full label set.

All cumulative comparisons share one absolute tolerance, small enough to sit
far below any realistic mass granularity: (1-alpha)(1+1/n) can land an ulp above
1.0 in float64 (n=9, alpha=0.1 does), and without the tolerance the scan
would return the +inf sentinel where the largest score is the right answer.
Both the supervised and the weighted paths go through the same scan, which
keeps the supervised reduction exact to the bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError

CUM_TOL = 1e-9


def weighted_quantile(values: np.ndarray, masses: np.ndarray, beta: float) -> float:
    """Smallest v with sum of masses at values <= v reaching beta.

    Parameters
    ----------
    values : np.ndarray
        Finite reals, any order. Equal values act as one atom with the
        summed mass.
    masses : np.ndarray
        Nonnegative, same length; need not normalize to 1.
    beta : float
        Target cumulative mass, > 0.

    Returns
    -------
    float
        The quantile, or +inf when beta exceeds the total mass (within
        tolerance).
    """
    values = np.asarray(values, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    if values.ndim != 1 or values.shape != masses.shape:
        raise ValueError(f"values {values.shape} and masses {masses.shape} must be equal-length vectors")
    if values.size == 0:
        raise EmptyInputError("no values")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    if not (masses >= 0).all():
        raise ValueError("masses must be nonnegative")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    tol = CUM_TOL * max(1.0, abs(beta))
    total = float(masses.sum())
    if beta > total + tol:
        return float("inf")
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(masses[order])
    idx = int(np.searchsorted(cum, beta - tol, side="left"))
    idx = min(idx, values.size - 1)
    return float(values[order[idx]])


def conformal_level(n: int, alpha: float) -> float:
    """The inflated split-conformal level (1 - alpha)(1 + 1/n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return (1.0 - alpha) * (1.0 + 1.0 / n)


def conformal_quantile_supervised(scores: np.ndarray, alpha: float) -> float:
    """Split-conformal threshold from n true-label calibration scores."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be a vector, got shape {scores.shape}")
    n = scores.size
    level = conformal_level(n, alpha)
    return weighted_quantile(scores, np.full(n, 1.0 / n), level)


def conformal_quantile_weighted(score_values: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    """Threshold over all n*c (instance, label) pairs with label weights.

    ``score_values`` and ``weights`` are (n, c); row i of ``weights`` is the
    label distribution w_i on the simplex. Pair (i, y) carries mass
    w_i(y)/n. Supervised one-hot weights reduce this to the supervised
    quantile on the same score values, bit for bit.
    """
    score_values = np.asarray(score_values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if score_values.ndim != 2 or score_values.shape != weights.shape:
        raise ValueError(f"scores {score_values.shape} and weights {weights.shape} must be equal (n, c) matrices")
    n = score_values.shape[0]
    level = conformal_level(n, alpha)
    return weighted_quantile(score_values.ravel(), weights.ravel() / n, level)


def prediction_mask(score_values: np.ndarray, q_hat: float) -> np.ndarray:
    """Prediction sets {y : S(x, y) <= q_hat} of many instances at once, as
    an (N, c) boolean inclusion matrix; the +inf sentinel gives full sets."""
    score_values = np.asarray(score_values, dtype=np.float64)
    if score_values.ndim != 2:
        raise ValueError(f"score_values must be (N, c), got shape {score_values.shape}")
    return score_values <= q_hat


@dataclass(frozen=True)
class CoverageReport:
    coverage: float
    mean_size: float
    count: int


def evaluate(mask: np.ndarray, labels: np.ndarray) -> CoverageReport:
    """Empirical coverage and mean set size of an inclusion mask."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    if mask.ndim != 2 or labels.shape != (mask.shape[0],):
        raise ValueError(f"mask {mask.shape} and labels {labels.shape} are inconsistent")
    if mask.shape[0] == 0:
        raise EmptyInputError("no instances to evaluate")
    if labels.min() < 1 or labels.max() > mask.shape[1]:
        raise ValueError(f"labels must lie in 1..{mask.shape[1]}")
    hit = mask[np.arange(mask.shape[0]), labels - 1]
    return CoverageReport(
        coverage=float(np.mean(hit)),
        mean_size=float(np.mean(mask.sum(axis=1))),
        count=int(mask.shape[0]),
    )
