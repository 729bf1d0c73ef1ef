"""The kernel coverage-gap bound and the coverage diagnostic E.

The bound is arithmetic on validated inputs; nothing here is estimated. It
takes the Gaussian pair kernel's sup K = 1 as its kernel bound and
optionally union-corrects over the number of bandwidth candidates searched
(log(2s/delta) with s = num_candidates). ``coverage_gap_bound`` certifies
one calibration: it fits the comparison functions and takes the tightest
of their bounds. A fit's norm and approximation error hold for the Gram K
of the calibration's float64 distances, although only its float32 rounding
K~ is stored: with |K - K~| <= eps K~ + tau entrywise (GRAM32_REL_ERR and
GRAM32_ABS_ERR), |(K - K~) g| <= eps K~|g| + tau ||g||_1 and
|g^T (K - K~) g| <= eps |g|^T K~ |g| + tau ||g||_1^2 for any g. Those
widening terms need only upper bounds of K~|g|, which a float32 GEMM
gives once inflated by its forward error (``_upper_abs_products``).
"""

import math

import numpy as np

from .kernel import (
    CG_MAX_ITERS,
    GRAM32_ABS_ERR,
    GRAM32_REL_ERR,
    KernelContext,
    as_weight_matrix,
    gemm_product,
    product64,
    ridge_path,
)

BOUND_RIDGES = (30.0, 300.0, 3000.0)  # ridges of the penalized fits the coverage-gap bound is minimized over


def excess_gap_kernel(n: int, m: int, delta: float, rkhs_norm: float = 1.0, approx_error: float = 0.0,
                      num_candidates: int = 1) -> float:
    """Kernel-family coverage-gap bound.

    approx_error + 2 (1 + sqrt(log(2 s / delta))) sqrt(1/n + 1/m) R for a
    kernel bounded by 1, holding with probability 1 - delta over both
    samples, union-corrected over s candidate kernels. ``rkhs_norm`` is the
    radius R of the comparison function, ``approx_error`` its average
    approximation error to the set indicator, and ``num_candidates`` the
    size s of the kernel grid the union bound must cover (1 = no selection).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not (rkhs_norm >= 0 and approx_error >= 0):
        raise ValueError("rkhs_norm and approx_error must be nonnegative")
    if num_candidates < 1:
        raise ValueError("num_candidates must be >= 1")
    dev = 1.0 + math.sqrt(math.log(2.0 * num_candidates / delta))
    rate = math.sqrt(1.0 / n + 1.0 / m)
    return approx_error + 2.0 * dev * rate * rkhs_norm


def _upper_abs_products(K: np.ndarray, A: np.ndarray):
    """Upper bounds of K^T A and K^T 1, entrywise, for a float32 K with
    entries in [0, 1] and a nonnegative float64 (n, k) A, from one float32
    GEMM (``gemm_product``) of K with [A, 1].

    With u = 2^-24 and tiny float32's smallest normal (which covers
    underflow and flush to zero): rounding A to float32 gives A' with
    A <= A' / (1 - u) + tiny, so K^T A <= K^T A' / (1 - u) + n tiny. The
    GEMM's n-term sums y of nonnegative products, in any order, give
    K^T A' <= (y + 3 n tiny) / (1 - gamma_n), gamma_j = j u / (1 - j u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Sec. 3.5), the 3 n tiny covering underflow in its n products. As
    (1 - gamma_n)(1 - u) >= 1 - gamma_{n+1}, each exact entry is at most
    (y + 4 n tiny) / (1 - gamma_{n+1}). An overflowing A or y gives inf."""
    n = K.shape[0]
    gamma = (n + 1) * 2.0**-24 / (1.0 - (n + 1) * 2.0**-24)
    Y = gemm_product(K, 0.0, np.hstack([A, np.ones((n, 1))]))
    Y += 4.0 * n * float(np.finfo(np.float32).tiny)
    Y /= 1.0 - gamma
    return Y[:, :-1], Y[:, -1]


def _fit_terms(K: np.ndarray, u: np.ndarray, gammas: list) -> list:
    """(squared RKHS norm, approximation error) of each fit f = sum_i
    gamma_i k(x_i, .) to the (n, c) indicator u, one label column per
    column of its (n, c) gamma, that hold for the exact Gram K of which
    ``K`` is the float32 rounding: each term is its value in ``K`` plus the
    rounding terms of the module docstring. The fits' values are read off
    one float64-accumulated product of ``K`` with Gamma; the rounding terms
    take |g|^T K |g| = |g| . K^T|g| and sum(K |g|) = |g| . K^T 1 from upper
    bounds (``_upper_abs_products``), which need K^T only, so they hold
    whether or not K is exactly symmetric."""
    n, c = u.shape
    G = np.hstack(gammas)
    A = np.abs(G)
    F = product64(K, 0.0, G)
    S, colsum = _upper_abs_products(K, A)
    l1 = A.sum(axis=0)  # ||gamma||_1 of each column
    norm_sq = (G * F).sum(axis=0) + GRAM32_REL_ERR * (A * S).sum(axis=0) + GRAM32_ABS_ERR * l1 * l1
    approx = (np.abs(np.tile(u, len(gammas)) - F).sum(axis=0) + GRAM32_REL_ERR * (colsum @ A)
              + GRAM32_ABS_ERR * n * l1)
    norm_sq, approx = (x.reshape(len(gammas), c).sum(axis=1) for x in (norm_sq, approx))
    return [(max(float(a), 0.0), float(b) / n) for a, b in zip(norm_sq, approx)]


def coverage_gap_bound(ctx: KernelContext, u, delta: float, num_candidates: int) -> tuple[float, dict]:
    """The tightest certified coverage-gap bound for the inclusion indicator
    ``u`` (n, c) of one calibration, and the path it was minimized over.

    Every comparison function f of u certifies ``excess_gap_kernel`` with
    its norm and its approximation error, union-corrected over the
    ``num_candidates`` bandwidths searched, so the minimum over several f is
    itself certified. They are the penalized fits of u against
    ``ctx.base_gram`` at the ridges BOUND_RIDGES, solved in one
    ``ridge_path`` run in float32, whose norm and error are then taken
    exactly in ``ctx.base_gram`` and widened by its rounding terms
    (``_fit_terms``), and f = 0, whose bound sum(u) / n costs no kernel
    product, so a bound always exists.

    Returns (bound, bound_path). ``bound_path`` records the ``ridges``
    (BOUND_RIDGES), the ``rank`` of the path's CG preconditioner factor (0
    when plain CG ran), per ridge the CG ``iterations`` and ``residuals``
    and the certified ``bounds`` (NaN where the fit did not converge within
    CG_MAX_ITERS), and the ``zero`` function's bound.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (ctx.n, ctx.c):
        raise ValueError(f"u shape {u.shape} != ({ctx.n}, {ctx.c})")
    fits = ridge_path(ctx.base_gram, u, BOUND_RIDGES, max_iters=CG_MAX_ITERS)
    ok = [j for j, fit in enumerate(fits) if fit.converged]
    bounds = np.full(len(BOUND_RIDGES), np.nan)
    if ok:
        for j, (norm_sq, approx) in zip(ok, _fit_terms(ctx.base_gram, u, [fits[j].gamma for j in ok])):
            bounds[j] = excess_gap_kernel(ctx.n, ctx.m, delta, rkhs_norm=math.sqrt(norm_sq), approx_error=approx,
                                          num_candidates=num_candidates)
    zero = float(u.sum()) / ctx.n  # f = 0 has norm 0, so its bound is its approximation error
    bound_path = {
        "ridges": np.array(BOUND_RIDGES),
        "iterations": np.array([fit.iterations for fit in fits]),
        "residuals": np.array([fit.residual for fit in fits]),
        "rank": fits[0].rank,
        "bounds": bounds,
        "zero": zero,
    }
    return float(np.nanmin([*bounds, zero])), bound_path


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
