"""Label-weight QP over a product of per-instance simplices.

Minimizes Phi(w) = (1/n) w^T K w - (2/m) v^T w subject to each calibration
instance's label weights lying on the simplex and an optional scalar loss
constraint B w <= b. The quadratic couples instances only through the shared
base Gram, so iterations run on (n, c) matrices with one GEMM each.

The inequality is part of the feasible set: one FISTA run projects every
step onto the simplices cut by B w <= b, a projection that costs a short
one-dimensional search over row projections. The cut's multiplier at the
last projection is the reported Lagrange multiplier lambda.
"""

import math
from dataclasses import dataclass

import numpy as np

from .classifier import ProbModel, predict_labels, predict_proba_matrix
from .errors import InfeasibleConstraintError
from .kernel import KernelContext, as_weight_matrix

BLOCK_SUM_TOL = 1e-9
SLACK_REL_TOL = 1e-8
CUT_RESOLUTION = 1e6  # largest mu * max(B) at which V - mu B resolves weights to BLOCK_SUM_TOL
CUT_STEPS = 100  # projections per multiplier search


@dataclass(frozen=True)
class LabelWeights:
    """Per-instance label distributions, flattened pair-major.

    ``w[i*c + (y-1)]`` is instance i's weight on label y. Every block is a
    point of the probability simplex (checked at construction).
    """

    w: np.ndarray
    n: int
    c: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.shape != (self.n * self.c,):
            raise ValueError(f"w length {w.shape} != n*c = {self.n * self.c}")
        if not np.isfinite(w).all() or w.min() < 0:
            raise ValueError("weights must be finite and nonnegative")
        sums = w.reshape(self.n, self.c).sum(axis=1)
        worst = float(np.abs(sums - 1.0).max())
        if worst > BLOCK_SUM_TOL:
            raise ValueError(f"block sums deviate from 1 by {worst:.2e}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def matrix(self) -> np.ndarray:
        return self.w.reshape(self.n, self.c)


def supervised_weights(labels: np.ndarray, num_classes: int) -> LabelWeights:
    """One-hot weights at the true labels (the supervised reduction)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty vector")
    if labels.min() < 1 or labels.max() > num_classes:
        raise ValueError(f"labels must lie in 1..{num_classes}")
    W = np.zeros((labels.size, num_classes))
    W[np.arange(labels.size), labels - 1] = 1.0
    return LabelWeights(w=W.ravel(), n=labels.size, c=num_classes)


def naive_weights(model: ProbModel, instances: np.ndarray) -> LabelWeights:
    """One-hot weights at the classifier's argmax predictions."""
    preds = predict_labels(model, instances)
    return supervised_weights(preds, model.num_classes)


def project_simplex_block(block: np.ndarray) -> np.ndarray:
    """Euclidean projection of one coefficient block onto the simplex."""
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 1 or block.size == 0:
        raise ValueError(f"block must be a non-empty vector, got shape {block.shape}")
    if not np.isfinite(block).all():
        raise ValueError("block must be finite")
    return _project_rows(block[None, :])[0]


def _project_rows(V: np.ndarray) -> np.ndarray:
    """Project each row of V onto the probability simplex (sort-threshold)."""
    n, c = V.shape
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    ks = np.arange(1, c + 1, dtype=np.float64)
    cond = U * ks > css
    # cond holds on a prefix; rho = length of that prefix (>= 1 always)
    not_cond = ~cond
    rho = np.where(not_cond.any(axis=1), not_cond.argmax(axis=1), c)
    theta = css[np.arange(n), rho - 1] / rho
    return np.maximum(V - theta[:, None], 0.0)


@dataclass(frozen=True)
class ConstraintSet:
    """Loss constraint B w <= b with per-pair losses laid out like weights."""

    loss_matrix: np.ndarray
    bound: float

    def __post_init__(self):
        B = np.asarray(self.loss_matrix, dtype=np.float64)
        if B.ndim != 2:
            raise ValueError(f"loss_matrix must be (n, c), got shape {B.shape}")
        if not np.isfinite(B).all() or B.min() < 0:
            raise ValueError("losses must be finite and nonnegative")
        if not self.bound > 0:
            raise ValueError(f"bound must be positive, got {self.bound}")
        B = B.copy()
        B.flags.writeable = False
        object.__setattr__(self, "loss_matrix", B)

    @property
    def flat(self) -> np.ndarray:
        return self.loss_matrix.ravel()


def build_loss_constraints(model: ProbModel, instances: np.ndarray, loss_bound_value: float) -> ConstraintSet:
    """Per-pair cross-entropy losses with right-hand side n * loss bound."""
    P = predict_proba_matrix(model, instances)
    return ConstraintSet(loss_matrix=-np.log(P), bound=instances.shape[0] * loss_bound_value)


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 20000
    rel_tol: float = 1e-7


@dataclass(frozen=True)
class SolverReport:
    """Diagnostics of one solve.

    ``objective_value`` is the un-rooted quadratic form Phi(w); the history
    (one value per accepted iterate, at most ``max_iters``) is monotone
    non-increasing. ``inequality_slack`` is b - B w, +inf when unconstrained;
    it never drops below -1e-8 b. ``dual_lambda`` is the loss constraint's
    multiplier at the last projection, 0 when the cut was slack there.
    """

    objective_value: float
    iterations: int
    final_rel_change: float
    inequality_slack: float
    dual_lambda: float
    converged: bool
    objective_history: np.ndarray


@dataclass(frozen=True)
class _InnerSolve:
    """One FISTA solve: the iterate W with its K0 @ W, the iteration count,
    the last relative change, the converged flag, the objective history and
    the loss constraint's multiplier at the last projection."""

    W: np.ndarray
    KW: np.ndarray
    iterations: int
    rel_change: float
    converged: bool
    history: np.ndarray
    multiplier: float


def _project_cut(V: np.ndarray, cut: ConstraintSet | None, mu: float = 0.0):
    """Project V onto the row simplices cut by <B, W> <= b; returns (W, mu).

    W is ``_project_rows(V - mu B)`` at the smallest mu >= 0 whose loss
    g(mu) = <B, W> meets the cut: mu = 0, leaving the plain projection
    unchanged, when g(0) <= b + SLACK_REL_TOL b, else the root of g = b, found
    with its slack in [-SLACK_REL_TOL b, 0]. g is continuous, non-increasing
    and piecewise linear: mu is bracketed by doubling from the guess, then
    found by regula falsi (Illinois) aimed at the middle of that band, exact
    once the bracket spans one piece. Each step costs one row projection.
    Raises InfeasibleConstraintError when no mu with mu max(B) <=
    CUT_RESOLUTION meets the cut.
    """
    W = _project_rows(V)
    if cut is None:
        return W, 0.0
    B, b = cut.loss_matrix, cut.bound
    half = 0.5 * SLACK_REL_TOL * b
    f_lo = float(np.vdot(B, W)) - b - half
    if f_lo <= half:
        return W, 0.0
    mu_cap = CUT_RESOLUTION / float(B.max())
    lo, hi, f_hi, W_hi, side = 0.0, math.inf, math.nan, W, 0
    mu = max(mu, 1e-12 * mu_cap)  # so the doubling takes at most 41 of the CUT_STEPS
    for _ in range(CUT_STEPS):
        W = _project_rows(V - mu * B)
        f = float(np.vdot(B, W)) - b - half
        if f > half:
            if mu >= mu_cap:
                raise InfeasibleConstraintError(f"loss constraint unsatisfiable: no multiplier up to {mu:.3g} meets {b:.6g}")
            if side < 0:
                f_hi *= 0.5  # Illinois: halve the value of an end kept twice in a row
            lo, f_lo, side = mu, f, -1
        elif f >= -half:
            return W, mu
        else:
            if side > 0:
                f_lo *= 0.5
            hi, f_hi, W_hi, side = mu, f, W, 1
        mu = min(2.0 * mu, mu_cap) if hi == math.inf else hi - f_hi * (hi - lo) / (f_hi - f_lo)
    return W_hi, hi


def _fista(K0, G, W0, lip, max_iters, rel_tol, cut=None) -> _InnerSolve:
    """Accelerated projected gradient on h(W) = (1/n)<W, K0 W> - <G, W>.

    Feasible set is the product of per-row simplices, cut by the loss
    constraint when ``cut`` is given (see ``_project_cut``). Momentum
    restarts on a function increase by redoing the step as plain projected
    gradient from the previous iterate, which the descent lemma makes
    non-increasing, so the recorded objective history is monotone. K0 @ y is
    recovered from cached K0 @ x by linearity; normal iterations cost a
    single GEMM. Each multiplier search starts from the last one's mu.
    """
    n = K0.shape[0]
    inv_n = 1.0 / n
    step = 1.0 / lip
    X, mu = _project_cut(W0, cut)
    KX = K0 @ X
    f = inv_n * np.sum(KX * X) - np.sum(G * X)
    hist = np.empty(max_iters + 1)
    hist[0] = f
    Xp = X
    KXp = KX
    t = 1.0
    rel = math.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        Y = X + beta * (X - Xp)
        KY = (1.0 + beta) * KX - beta * KXp
        grad = (2.0 * inv_n) * KY - G
        Z, mu = _project_cut(Y - step * grad, cut, mu)
        KZ = K0 @ Z
        fz = inv_n * np.sum(KZ * Z) - np.sum(G * Z)
        if fz > f:
            grad = (2.0 * inv_n) * KX - G
            Z, mu = _project_cut(X - step * grad, cut, mu)
            KZ = K0 @ Z
            fz = inv_n * np.sum(KZ * Z) - np.sum(G * Z)
            t_next = 1.0
        rel = abs(f - fz) / max(1.0, abs(fz))
        Xp = X
        KXp = KX
        X = Z
        KX = KZ
        f = fz
        t = t_next
        hist[iters] = f
        if rel < rel_tol:
            break
    return _InnerSolve(W=X, KW=KX, iterations=iters, rel_change=rel, converged=rel < rel_tol,
                       history=hist[: iters + 1], multiplier=mu / step)


def solve_label_weights(
    ctx: KernelContext,
    constraints: ConstraintSet | None = None,
    options: SolverOptions | None = None,
    init: LabelWeights | None = None,
):
    """Solve the weight QP. Returns (LabelWeights, SolverReport).

    ``init`` seeds the iteration (the pipeline passes the naive weights);
    None starts from uniform blocks. Raises InfeasibleConstraintError (from
    the first projection) when even the per-block loss-minimizing vertices
    violate the bound.

    One FISTA run whose every step projects onto the simplices cut by the
    loss constraint; ``options.max_iters`` caps the whole solve. The
    report's multiplier is the cut's multiplier at the last projection.
    """
    options = options or SolverOptions()
    n, m, c = ctx.n, ctx.m, ctx.c
    K0 = ctx.base_gram
    V = ctx.cross_v
    lip = max(2.0 / n * float(K0.sum(axis=1).max()), 1e-12)
    W0 = np.full((n, c), 1.0 / c) if init is None else as_weight_matrix(init, n, c).copy()
    G = (2.0 / m) * V

    B, b = (None, np.inf) if constraints is None else (constraints.loss_matrix, constraints.bound)
    if B is not None and B.shape != (n, c):
        raise ValueError(f"loss_matrix shape {B.shape} != ({n}, {c})")

    run = _fista(K0, G, W0, lip, options.max_iters, options.rel_tol, constraints)

    def objective(W, KW):
        return float(np.sum(W * KW) / n - 2.0 * np.sum(V * W) / m)

    # a flat block (gradient of the Lagrangian constant within the block) is
    # first-order indifferent; resolve flat blocks to uniform when that keeps
    # the constraint satisfied and does not raise the objective
    W, KW = run.W, run.KW
    slack = np.inf if B is None else b - float(np.sum(B * W))
    value = objective(W, KW)
    grad = (2.0 / n) * KW - G
    if B is not None:
        grad += run.multiplier * B
    flat = (grad.max(axis=1) - grad.min(axis=1)) == 0.0
    if bool(flat.any()):
        W_alt = W.copy()
        W_alt[flat] = 1.0 / c
        alt_slack = np.inf if B is None else b - float(np.sum(B * W_alt))
        if B is None or alt_slack >= -SLACK_REL_TOL * b:
            alt_value = objective(W_alt, K0 @ W_alt)
            if alt_value <= value:
                W, slack, value = W_alt, alt_slack, alt_value

    weights = LabelWeights(w=W.ravel(), n=n, c=c)
    report = SolverReport(
        objective_value=value,
        iterations=run.iterations,
        final_rel_change=float(run.rel_change),
        inequality_slack=float(slack),
        dual_lambda=float(run.multiplier),
        converged=bool(run.converged),
        objective_history=run.history,
    )
    return weights, report
