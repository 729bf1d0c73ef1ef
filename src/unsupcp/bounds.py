"""The kernel coverage-gap bound and the coverage diagnostic E.

The bound is arithmetic on validated inputs; nothing here is estimated. It
takes the Gaussian pair kernel's sup K = 1 as its kernel bound and
optionally union-corrects over the number of bandwidth candidates searched
(log(2s/delta) with s = num_candidates).
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import as_weight_matrix


@dataclass(frozen=True)
class BoundInputs:
    """Ingredients of the kernel coverage-gap bound.

    ``rkhs_norm`` is the radius R of the comparison function, ``approx_error``
    its average approximation error to the set indicator, and
    ``num_candidates`` the size of the kernel grid the union bound must cover
    (1 = no selection).
    """

    n: int
    m: int
    delta: float
    rkhs_norm: float = 1.0
    approx_error: float = 0.0
    num_candidates: int = 1

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not (self.rkhs_norm >= 0 and self.approx_error >= 0):
            raise ValueError("rkhs_norm and approx_error must be nonnegative")
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be >= 1")


def excess_gap_kernel(inp: BoundInputs) -> float:
    """Kernel-family coverage-gap bound.

    approx_error + 2 (1 + sqrt(log(2 s / delta))) sqrt(1/n + 1/m) R for a
    kernel bounded by 1, holding with probability 1 - delta over both
    samples, union-corrected over s candidate kernels.
    """
    dev = 1.0 + math.sqrt(math.log(2.0 * inp.num_candidates / inp.delta))
    rate = math.sqrt(1.0 / inp.n + 1.0 / inp.m)
    return inp.approx_error + 2.0 * dev * rate * inp.rkhs_norm


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
