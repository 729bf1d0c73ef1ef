"""Label-weight QP over a product of per-instance simplices.

Minimizes Phi(w) = (1/n) w^T K w - (2/m) v^T w subject to each calibration
instance's label weights lying on the simplex and an optional scalar loss
constraint B w <= b. The quadratic couples instances only through the shared
base Gram, so iterations run on (n, c) matrices with one GEMM each.

The inequality is enforced by bisection on a multiplier lambda >= 0 whose
term lambda * B joins the gradient; the bisection stops when the slack
b - B w lands in [-1e-8 b, 0] (active within tolerance) or lambda = 0 is
already feasible.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .classifier import ProbModel, predict_labels, predict_proba_matrix
from .errors import InfeasibleConstraintError
from .kernel import KernelContext, as_weight_matrix

BLOCK_SUM_TOL = 1e-9
SLACK_REL_TOL = 1e-8


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
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
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
    (one value per accepted iterate of the final inner solve) is monotone
    non-increasing. ``inequality_slack`` is b - B w, +inf when unconstrained;
    it never drops below -1e-8 b.
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
    """One FISTA solve at a fixed multiplier: the iterate W with its K0 @ W,
    the iteration count, the last relative change, the converged flag and the
    objective history. ``lam`` and ``slack`` (b - B W, +inf unconstrained)
    are filled in by the multiplier search."""

    W: np.ndarray
    KW: np.ndarray
    iterations: int
    rel_change: float
    converged: bool
    history: np.ndarray
    lam: float = 0.0
    slack: float = math.inf


def _fista(K0, G, W0, lip, max_iters, rel_tol) -> _InnerSolve:
    """Accelerated projected gradient on h(W) = (1/n)<W, K0 W> - <G, W>.

    Feasible set is the product of per-row simplices. Momentum restarts on a
    function increase by redoing the step as plain projected gradient from the
    previous iterate, which the descent lemma makes non-increasing, so the
    recorded objective history is monotone. K0 @ y is recovered from cached
    K0 @ x by linearity; normal iterations cost a single GEMM.
    """
    n = K0.shape[0]
    inv_n = 1.0 / n
    step = 1.0 / lip
    X = _project_rows(W0)
    KX = K0 @ X
    f = inv_n * np.sum(KX * X) - np.sum(G * X)
    hist = np.empty(max_iters + 1)
    hist[0] = f
    Xp = X
    KXp = KX
    t = 1.0
    rel = math.inf
    iters = 0
    converged = False
    for k in range(1, max_iters + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        Y = X + beta * (X - Xp)
        KY = (1.0 + beta) * KX - beta * KXp
        grad = (2.0 * inv_n) * KY - G
        Z = _project_rows(Y - step * grad)
        KZ = K0 @ Z
        fz = inv_n * np.sum(KZ * Z) - np.sum(G * Z)
        if fz > f:
            grad = (2.0 * inv_n) * KX - G
            Z = _project_rows(X - step * grad)
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
        hist[k] = f
        iters = k
        if rel < rel_tol:
            converged = True
            break
    return _InnerSolve(W=X, KW=KX, iterations=iters, rel_change=rel, converged=converged, history=hist[: iters + 1])


def solve_label_weights(
    ctx: KernelContext,
    constraints: ConstraintSet | None = None,
    options: SolverOptions | None = None,
    init: LabelWeights | None = None,
):
    """Solve the weight QP. Returns (LabelWeights, SolverReport).

    ``init`` seeds the iteration (the pipeline passes the naive weights);
    None starts from uniform blocks. Raises InfeasibleConstraintError when
    even the per-block loss-minimizing vertices violate the bound.

    When the unconstrained optimum violates the loss bound, the multiplier
    is bracketed by doubling from 1 (each solve warm-started from the last
    iterate), then bisected (each solve warm-started from the best feasible
    one) until the slack is active within tolerance. The report's iteration
    count sums every inner solve.
    """
    options = options or SolverOptions()
    n, m, c = ctx.n, ctx.m, ctx.c
    K0 = ctx.base_gram
    V = ctx.cross_v
    lip = max(2.0 / n * float(K0.sum(axis=1).max()), 1e-12)
    W0 = np.full((n, c), 1.0 / c) if init is None else as_weight_matrix(init, n, c).copy()
    G_base = (2.0 / m) * V

    B = None
    b = np.inf
    if constraints is not None:
        B = constraints.loss_matrix
        if B.shape != (n, c):
            raise ValueError(f"loss_matrix shape {B.shape} != ({n}, {c})")
        b = constraints.bound
        if float(B.min(axis=1).sum()) > b * (1.0 + SLACK_REL_TOL):
            raise InfeasibleConstraintError(
                f"loss constraint unsatisfiable: even the minimum-loss vertex costs {B.min(axis=1).sum():.6g} > {b:.6g}"
            )
    slack_tol = SLACK_REL_TOL * b

    def linear_term(lam):
        return G_base if lam == 0.0 else G_base - lam * B

    def solve(lam, W_init) -> _InnerSolve:
        out = _fista(K0, linear_term(lam), W_init, lip, options.max_iters, options.rel_tol)
        slack = np.inf if B is None else b - float(np.sum(B * out.W))
        return replace(out, lam=lam, slack=slack)

    run = solve(0.0, W0)
    iterations = run.iterations
    if B is not None and run.slack < -slack_tol:
        lam_lo, lam_hi = 0.0, 1.0
        for _ in range(200):
            run = solve(lam_hi, run.W)
            iterations += run.iterations
            if run.slack >= -slack_tol:
                break
            lam_lo, lam_hi = lam_hi, 2.0 * lam_hi
        else:
            raise InfeasibleConstraintError("bisection failed to bracket a feasible multiplier")
        best = run
        if best.slack > 0.0:
            for _ in range(100):
                run = solve(0.5 * (lam_lo + lam_hi), best.W)
                iterations += run.iterations
                if run.slack >= -slack_tol:
                    best = run
                    if run.slack <= 0.0:
                        break
                    lam_hi = run.lam
                else:
                    lam_lo = run.lam
                if lam_hi - lam_lo <= 1e-12 * max(1.0, lam_hi):
                    break
        run = best

    def objective(W, KW):
        return float(np.sum(W * KW) / n - 2.0 * np.sum(V * W) / m)

    # a flat block (gradient constant within the block) is first-order
    # indifferent; resolve flat blocks to uniform when that keeps the
    # constraint satisfied and does not raise the objective
    W, KW, slack = run.W, run.KW, run.slack
    value = objective(W, KW)
    grad = (2.0 / n) * KW - linear_term(run.lam)
    flat = (grad.max(axis=1) - grad.min(axis=1)) == 0.0
    if bool(flat.any()):
        W_alt = W.copy()
        W_alt[flat] = 1.0 / c
        alt_slack = np.inf if B is None else b - float(np.sum(B * W_alt))
        if B is None or alt_slack >= -slack_tol:
            alt_value = objective(W_alt, K0 @ W_alt)
            if alt_value <= value:
                W, slack, value = W_alt, alt_slack, alt_value

    weights = LabelWeights(w=W.ravel(), n=n, c=c)
    report = SolverReport(
        objective_value=value,
        iterations=iterations,
        final_rel_change=float(run.rel_change),
        inequality_slack=float(slack),
        dual_lambda=float(run.lam),
        converged=bool(run.converged),
        objective_history=run.history,
    )
    return weights, report
