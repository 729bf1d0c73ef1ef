"""Reference implementations used as test oracles.

Everything here favors transparency over speed: the QP oracle enumerates
active sets exhaustively, the posterior oracle evaluates the Bayes posterior
of a spherical Gaussian mixture in closed form and the mixture model writes
it into logistic-regression weights, the pointwise kernel and scores
evaluate one pair at a time, and the RKHS probes recompute every kernel
value from the raw calibration and training samples. Each gives ground
truth that is independent of the vectorised code under test.
"""

import itertools
import math

import numpy as np

from unsupcp.classifier import ProbModel
from unsupcp.data import SyntheticConfig
from unsupcp.kernel import as_weight_matrix, mmd_objective


class PosteriorOracle:
    """Closed-form Bayes posterior of a SyntheticConfig mixture."""

    def __init__(self, config: SyntheticConfig):
        self.config = config

    def posterior_batch(self, X: np.ndarray) -> np.ndarray:
        """P(Y = y | X = x) for every row x of X and every y, shape (N, c)."""
        cfg = self.config
        diff = X[:, None, :] - cfg.class_means[None, :, :]
        sq = np.sum(diff * diff, axis=2)
        logits = np.log(cfg.priors)[None, :] - sq / (2.0 * cfg.cov_scale**2)
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        return p / p.sum(axis=1, keepdims=True)


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


def kernel_eval(x1, y1: int, x2, y2: int, spec) -> float:
    """Separable Gaussian kernel between two (instance, label) pairs."""
    if y1 != y2:
        return 0.0
    diff = np.asarray(x1, dtype=np.float64) - np.asarray(x2, dtype=np.float64)
    return float(math.exp(-float(diff @ diff) / (2.0 * spec.sigma**2)))


def dense_pair_kernel(ctx) -> np.ndarray:
    """The full (n*c) x (n*c) pair kernel of a KernelContext, pairs ordered
    (i, y) -> i*c + (y-1). Small n only."""
    return np.kron(ctx.gram.values, np.eye(ctx.c))


def _plain_gram(X1, X2, sigma: float) -> np.ndarray:
    """exp(-||x1 - x2||^2 / (2 sigma^2)) from the explicit differences of
    every pair of rows; small inputs only."""
    diff = np.asarray(X1, dtype=np.float64)[:, None, :] - np.asarray(X2, dtype=np.float64)[None, :, :]
    return np.exp(-np.sum(diff * diff, axis=2) / (2.0 * sigma**2))


def rkhs_probe(w, ctx, cal_instances, train, coeff_cal, coeff_train) -> float:
    """Evaluate one normalized RKHS probe against the embedding difference.

    The probe is f = sum of kernel sections at the calibration pairs (one
    coefficient per (instance, label), an (n, c) matrix) and at the labeled
    training pairs of ``train`` (one coefficient each). Its value is
    |weighted calibration mean of f - training mean of f| / ||f||, zero when
    f vanishes. Kernel values are recomputed from ``cal_instances`` and
    ``train`` at ``ctx.spec``, by exp of plain pairwise differences
    (``_plain_gram``), so the route shares none of the package's Gram
    code, squared distances or subnormal floor with ``mmd_objective``.
    """
    n, m, c = ctx.n, ctx.m, ctx.c
    W = as_weight_matrix(w, n, c)
    Gcal = np.asarray(coeff_cal, dtype=np.float64)
    gtr = np.asarray(coeff_train, dtype=np.float64)
    sigma = ctx.spec.sigma
    Kcc = _plain_gram(cal_instances, cal_instances, sigma)
    Kct = _plain_gram(cal_instances, train.instances, sigma)
    Ktt = _plain_gram(train.instances, train.instances, sigma)
    onehot = np.zeros((m, c))
    onehot[np.arange(m), train.labels - 1] = 1.0
    scaled = gtr[:, None] * onehot
    F_cal = Kcc @ Gcal + Kct @ scaled
    rows = np.arange(m)
    F_tr = (Kct.T @ Gcal)[rows, train.labels - 1] + (Ktt @ scaled)[rows, train.labels - 1]
    norm_sq = float(np.sum(Gcal * F_cal) + gtr @ F_tr)
    if norm_sq <= 0.0:
        return 0.0
    numer = float(np.sum(W * F_cal) / n - np.sum(F_tr) / m)
    return abs(numer) / math.sqrt(norm_sq)


def witness_probe(w, ctx, cal_instances, train) -> float:
    """Probe at the exact dual witness (the normalized embedding difference);
    equals the MMD objective up to roundoff."""
    W = as_weight_matrix(w, ctx.n, ctx.c)
    return rkhs_probe(w, ctx, cal_instances, train, W / ctx.n, np.full(ctx.m, -1.0 / ctx.m))


def dual_witness_check(w, ctx, cal_instances, train, probe_count: int = 16, seed: int = 0) -> dict:
    """Random RKHS probes; by Cauchy-Schwarz each lower-bounds the MMD
    objective, with equality approached only by probes aligned with the
    witness. Returns the objective, the best probe value and all of them."""
    rng = np.random.default_rng(seed)
    probes = np.empty(probe_count)
    for k in range(probe_count):
        G, g = rng.standard_normal((ctx.n, ctx.c)), rng.standard_normal(ctx.m)
        probes[k] = rkhs_probe(w, ctx, cal_instances, train, G, g)
    return {
        "objective": mmd_objective(w, ctx),
        "best_probe": float(probes.max()),
        "probes": probes,
    }


def aps_score(probs, y: int, u: float) -> float:
    """Adaptive score: mass strictly above p_y plus u * p_y.

    ``u`` in [0, 1] randomizes the candidate's own mass; u=0 gives the open
    tail mass, u=1 the closed one.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if not 1 <= y <= probs.shape[0]:
        raise ValueError(f"label {y} outside 1..{probs.shape[0]}")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must be in [0, 1], got {u}")
    py = probs[y - 1]
    return float(np.sum(probs[probs > py]) + u * py)


def prob_score(probs, y: int) -> float:
    """Probability score 1 - p_y."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 1 <= y <= probs.shape[0]:
        raise ValueError(f"label {y} outside 1..{probs.shape[0]}")
    return float(1.0 - probs[y - 1])


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
