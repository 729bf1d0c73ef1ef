"""Finite-sample coverage and excess-gap bound evaluators.

These are arithmetic on validated inputs; nothing here is estimated. The
kernel-family gap bound optionally union-corrects over the number of
bandwidth candidates searched (log(2s/delta) with s = num_candidates).
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import as_weight_matrix


def _check_delta(delta: float):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


@dataclass(frozen=True)
class CoverageBounds:
    """Two-sided marginal and training-conditional coverage bounds."""

    marginal_low: float
    marginal_high: float
    conditional_low: float
    conditional_high: float


def supervised_coverage_bounds(n: int, alpha: float, delta: float) -> CoverageBounds:
    """Split-conformal coverage brackets for n calibration samples.

    Marginal coverage lies in [1-alpha, 1-alpha + 1/(n+1)]. Conditionally on
    the calibration draw, the same bracket widens both ways by
    sqrt(log(2/delta)/(2n)) with probability 1 - delta.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    _check_delta(delta)
    lo = 1.0 - alpha
    hi = 1.0 - alpha + 1.0 / (n + 1)
    dev = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    return CoverageBounds(
        marginal_low=lo,
        marginal_high=hi,
        conditional_low=lo - dev,
        conditional_high=hi + dev,
    )


@dataclass(frozen=True)
class BoundInputs:
    """Shared ingredients of the excess-gap bounds.

    ``rkhs_norm`` is the radius R of the comparison function, ``approx_error``
    its average approximation error to the set indicator, ``v_opt`` the
    suboptimality of the weight solve, and ``num_candidates`` the size of the
    kernel grid the union bound must cover (1 = no selection).
    """

    n: int
    m: int
    delta: float
    kappa: float = 1.0
    rkhs_norm: float = 1.0
    approx_error: float = 0.0
    v_opt: float = 0.0
    num_candidates: int = 1

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        _check_delta(self.delta)
        if self.kappa <= 0 or self.rkhs_norm < 0 or self.approx_error < 0 or self.v_opt < 0:
            raise ValueError("kappa must be positive; rkhs_norm, approx_error, v_opt nonnegative")
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")


def excess_gap_kernel(inp: BoundInputs) -> float:
    """Kernel-family coverage-gap bound.

    approx_error + 2 kappa (1 + sqrt(log(2 s / delta))) sqrt(1/n + 1/m) R,
    holding with probability 1 - delta over both samples, union-corrected
    over s candidate kernels.
    """
    dev = 1.0 + math.sqrt(math.log(2.0 * inp.num_candidates / inp.delta))
    rate = math.sqrt(1.0 / inp.n + 1.0 / inp.m)
    return inp.approx_error + 2.0 * inp.kappa * dev * rate * inp.rkhs_norm


def excess_gap_general(inp: BoundInputs, rademacher_n: float, rademacher_m: float, sup_bound: float) -> float:
    """Generic-family coverage-gap bound from Rademacher complexities.

    v_opt + approx_error + 2 (R_n + R_m) + sup_bound
    sqrt((1/n + 1/m) log(2/delta) / 2).
    """
    if rademacher_n < 0 or rademacher_m < 0 or sup_bound < 0:
        raise ValueError("complexities and sup_bound must be nonnegative")
    dev = math.sqrt((1.0 / inp.n + 1.0 / inp.m) * math.log(2.0 / inp.delta) / 2.0)
    return inp.v_opt + inp.approx_error + 2.0 * (rademacher_n + rademacher_m) + sup_bound * dev


def rademacher_kernel_bound(kappa: float, rkhs_norm: float, t: int) -> float:
    """Rademacher complexity of the kappa-bounded RKHS ball: kappa R / sqrt(t)."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if kappa <= 0 or rkhs_norm < 0:
        raise ValueError("kappa must be positive, rkhs_norm nonnegative")
    return kappa * rkhs_norm / math.sqrt(t)


def objective_value_bound(kappa: float, rkhs_norm: float, n: int, m: int, delta: float, eps_opt: float = 0.0) -> float:
    """High-probability bound on the population MMD objective at the solution.

    eps_opt + 2 kappa R (1/sqrt(n) + 1/sqrt(m))
    + 2 kappa R sqrt((1/n + 1/m) log(1/delta) / 2),
    the last term using the sup bound 2 kappa R for unit-ball differences.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    _check_delta(delta)
    if kappa <= 0 or rkhs_norm < 0 or eps_opt < 0:
        raise ValueError("kappa must be positive; rkhs_norm and eps_opt nonnegative")
    rad = 2.0 * kappa * rkhs_norm * (1.0 / math.sqrt(n) + 1.0 / math.sqrt(m))
    dev = 2.0 * kappa * rkhs_norm * math.sqrt((1.0 / n + 1.0 / m) * math.log(1.0 / delta) / 2.0)
    return eps_opt + rad + dev


def coverage_diagnostic_E(w, score_values: np.ndarray, q_hat: float, true_labels: np.ndarray) -> float:
    """Signed gap between supervised and weighted empirical coverage.

    E = (1/n) sum_i 1{S(X_i, Y_i) <= q} - (1/n) sum_{i,y} w_i(y) 1{S(X_i, y) <= q}.
    Zero exactly when the weights reproduce the true-label inclusion pattern.
    """
    score_values = np.asarray(score_values, dtype=np.float64)
    if score_values.ndim != 2:
        raise ValueError(f"score_values must be (n, c), got shape {score_values.shape}")
    n, c = score_values.shape
    W = as_weight_matrix(w, n, c)
    true_labels = np.asarray(true_labels, dtype=np.int64)
    if true_labels.shape != (n,):
        raise ValueError(f"true_labels length {true_labels.shape} != {n}")
    if true_labels.min() < 1 or true_labels.max() > c:
        raise ValueError(f"labels must lie in 1..{c}")
    inside = score_values <= q_hat
    sup = float(np.mean(inside[np.arange(n), true_labels - 1]))
    weighted = float(np.sum(W * inside) / n)
    return sup - weighted
