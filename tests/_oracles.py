"""Reference implementations used as test oracles.

Everything here favors transparency over speed: the QP oracle enumerates
active sets exhaustively and the mixture model writes the exact Bayes
posterior of a spherical Gaussian mixture into logistic-regression weights,
so both give ground truth that is independent of the code under test.
"""

import itertools

import numpy as np

from unsupcp.classifier import ProbModel
from unsupcp.data import SyntheticConfig


def mixture_logistic_model(config: SyntheticConfig) -> ProbModel:
    """The Bayes posterior of an equal-covariance spherical mixture, as a model.

    With shared covariance s^2 I the posterior p(y|x) is the softmax of the
    affine score (mu_y / s^2) . x - ||mu_y||^2 / (2 s^2) + log pi_y, so the
    exact posterior is itself a logistic model and needs no training. Priors
    must be strictly positive.
    """
    mu = config.class_means
    s2 = config.cov_scale**2
    W = mu / s2
    b = -0.5 * np.sum(mu * mu, axis=1) / s2 + np.log(config.priors)
    return ProbModel(
        weights=np.hstack([W, b[:, None]]),
        num_classes=config.num_classes,
        num_features=config.num_features,
    )


def _kkt_candidate(K, v, n, m, idx, block_rows, extra_row=None, extra_rhs=None):
    """Minimize the QP over one support's affine set; None if unsolvable.

    The affine set fixes the support (variables outside ``idx`` are zero) and
    the block-sum equalities; ``extra_row`` optionally pins the loss
    constraint to equality. Returns the full-length candidate w.
    """
    k = len(idx)
    Q = (2.0 / n) * K[np.ix_(idx, idx)]
    lin = (2.0 / m) * v[idx]
    rows = [r for r in block_rows]
    rhs = [1.0] * len(rows)
    if extra_row is not None:
        rows.append(extra_row)
        rhs.append(extra_rhs)
    A = np.asarray(rows)
    r = A.shape[0]
    kkt = np.zeros((k + r, k + r))
    kkt[:k, :k] = Q
    kkt[:k, k:] = A.T
    kkt[k:, :k] = A
    full_rhs = np.concatenate([lin, rhs])
    try:
        sol = np.linalg.solve(kkt, full_rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, full_rhs, rcond=None)
    w_s = sol[:k]
    if np.abs(A @ w_s - np.asarray(rhs)).max() > 1e-8:
        return None
    w = np.zeros(K.shape[0])
    w[idx] = w_s
    return w


def qp_oracle(K, v, n, m, c, loss_row=None, bound=None):
    """Global minimum of (1/n) w^T K w - (2/m) v^T w over per-block simplices.

    ``loss_row . w <= bound`` is enforced when given. Every nonempty support
    pattern is tried, each with the inequality ignored and (when present)
    pinned active; each KKT solve minimizes the objective over its affine
    set, so any nonnegative solve that satisfies the inequality upper-bounds
    the constrained minimum, and the optimal pattern's solve attains it.
    Exponential in n; meant for n <= 5, c <= 3. Returns the minimum value.
    """
    K = np.asarray(K, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)

    def objective(w):
        return float(w @ K @ w / n - 2.0 * (v @ w) / m)

    block_supports = [s for r in range(1, c + 1) for s in itertools.combinations(range(c), r)]
    best = np.inf
    for pattern in itertools.product(block_supports, repeat=n):
        idx = np.concatenate([np.asarray(s) + i * c for i, s in enumerate(pattern)])
        block_rows = []
        pos = 0
        for s in pattern:
            row = np.zeros(idx.size)
            row[pos : pos + len(s)] = 1.0
            block_rows.append(row)
            pos += len(s)
        cases = [(None, None)]
        if loss_row is not None:
            cases.append((np.asarray(loss_row, dtype=np.float64)[idx], float(bound)))
        for extra_row, extra_rhs in cases:
            w = _kkt_candidate(K, v, n, m, idx, block_rows, extra_row, extra_rhs)
            if w is None or w.min() < -1e-9:
                continue
            if loss_row is not None and float(np.dot(loss_row, w)) > bound * (1.0 + 1e-10) + 1e-12:
                continue
            best = min(best, objective(w))
    if not np.isfinite(best):
        raise AssertionError("oracle found no feasible candidate")
    return best


def plain_cg_columns(matvec, B, tol, max_iters):
    """Single-system block CG exactly as the package ran it before the
    multi-shift form: one system per column of B, converged columns frozen
    by forcing their alpha and beta to 0. Returns (X, residual norms,
    iterations, converged)."""
    X = np.zeros_like(B)
    R = B.copy()
    P = R.copy()
    rs = np.sum(R * R, axis=0)
    thresh = tol * np.maximum(np.sqrt(np.sum(B * B, axis=0)), 1e-300)
    active = np.sqrt(rs) > thresh
    iters = 0
    while bool(active.any()) and iters < max_iters:
        AP = matvec(P)
        pAp = np.sum(P * AP, axis=0)
        safe = np.where(pAp <= 0.0, 1.0, pAp)
        alpha = np.where(active & (pAp > 0.0), rs / safe, 0.0)
        X += alpha * P
        R -= alpha * AP
        rs_new = np.sum(R * R, axis=0)
        beta = np.where(active, rs_new / np.where(rs == 0.0, 1.0, rs), 0.0)
        P = R + beta * P
        rs = rs_new
        active = np.sqrt(rs) > thresh
        iters += 1
    return X, np.sqrt(rs), iters, not bool(active.any())
