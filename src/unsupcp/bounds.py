"""The kernel coverage-gap bound and the coverage diagnostic E.

The bound is arithmetic on validated inputs; nothing here is estimated. It
takes the Gaussian pair kernel's sup K = 1 as its kernel bound and
optionally union-corrects over the number of bandwidth candidates searched
(log(2s/delta) with s = num_candidates). ``coverage_gap_bound`` certifies
one calibration: it fits the comparison functions and takes the tightest
of their bounds. A fit's norm and approximation error hold for the Gram K
of the calibration's float64 distances, although only its float32 rounding
is stored: ``Gram.fit_terms`` widens them by that rounding.
"""

import math

import numpy as np

from .kernel import CG_MAX_ITERS, KernelContext, as_weight_matrix, ridge_path

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


def coverage_gap_bound(ctx: KernelContext, u, delta: float, num_candidates: int) -> tuple[float, dict]:
    """The tightest certified coverage-gap bound for the inclusion indicator
    ``u`` (n, c) of one calibration, and the path it was minimized over.

    Every comparison function f of u certifies ``excess_gap_kernel`` with
    its norm and its approximation error, union-corrected over the
    ``num_candidates`` bandwidths searched, so the minimum over several f is
    itself certified. They are the penalized fits of u against
    ``ctx.gram`` at the ridges BOUND_RIDGES, solved as one block in one
    ``ridge_path`` run in float32, and f = 0, whose bound sum(u) / n costs
    no kernel product, so a bound always exists. The converged fits'
    columns are read from that block, and their norm and error are taken
    exactly in ``ctx.gram`` and widened by its rounding terms
    (``Gram.fit_terms``).

    Returns (bound, bound_path). ``bound_path`` records the ``ridges``
    (BOUND_RIDGES), the ``rank`` of the path's CG preconditioner factor (0
    when plain CG ran), per ridge the CG ``iterations`` and ``residuals``
    and the certified ``bounds`` (NaN where the fit did not converge within
    CG_MAX_ITERS), and the ``zero`` function's bound.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (ctx.n, ctx.c):
        raise ValueError(f"u shape {u.shape} != ({ctx.n}, {ctx.c})")
    G, path = ridge_path(ctx.gram, u, BOUND_RIDGES, max_iters=CG_MAX_ITERS)
    ok = path.pop("converged")
    bounds = np.full(len(BOUND_RIDGES), np.nan)
    if ok.any():  # the converged fits' columns, in C order as product64 reads them; terms summed per fit
        G = G.reshape(ctx.n, len(BOUND_RIDGES), ctx.c)[:, ok].reshape(ctx.n, -1)
        norm_sq, approx = (x.reshape(-1, ctx.c).sum(axis=1) for x in ctx.gram.fit_terms(G, np.tile(u, int(ok.sum()))))
        bounds[ok] = [excess_gap_kernel(ctx.n, ctx.m, delta, rkhs_norm=math.sqrt(max(float(a), 0.0)),
                                        approx_error=float(b) / ctx.n, num_candidates=num_candidates)
                      for a, b in zip(norm_sq, approx)]
    zero = float(u.sum()) / ctx.n  # f = 0 has norm 0, so its bound is its approximation error
    bound_path = {"ridges": np.array(BOUND_RIDGES), **path, "bounds": bounds, "zero": zero}
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
