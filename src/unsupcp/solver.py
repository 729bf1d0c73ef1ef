"""Label-weight QP over a product of per-instance simplices.

Minimizes Phi(w) = (1/n) w^T K w - (2/m) v^T w subject to each calibration
instance's label weights lying on the simplex and an optional scalar loss
constraint B w <= b. The quadratic couples instances only through the shared
base Gram, so iterations run on (n, c) matrices with one GEMM each.

The inequality is part of the feasible set: one FISTA run projects every
step onto the simplices cut by B w <= b, a projection that costs a short
one-dimensional search over row projections. The cut's multiplier at the
last projection is the reported Lagrange multiplier lambda.

The run stops on a certificate, the Frank-Wolfe duality gap on the cut set
(Jaggi 2013), which bounds Phi(w) - Phi* and costs O(nc) per iteration from
the cached K0 w. The products are memory-bound, so they run on a float32
copy of K0 while the gap tolerance sits above float32's reach, and move to
float64 for good once float32 rounding stalls progress; the certificate is
always evaluated in float64, in the spirit of mixed-precision refinement
(Carson & Higham 2018).
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
FLOAT32_GAP_FLOOR = 1e-6  # relative gap tolerances below this run float64 products from the start
STALL_REL = 1e-12  # float64 relative change in Phi below which roundoff has stalled the solve
POWER_STEPS = 30  # power-iteration steps behind the gradient step
POWER_MARGIN = 1.01  # headroom over the power-iteration estimate of lambda_max


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


def _project_rows(V: np.ndarray) -> np.ndarray:
    """Project each row of V onto the probability simplex (sort-threshold)."""
    n, c = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    ks = np.arange(1, c + 1, dtype=np.float64)
    # the test holds on a prefix; rho = length of that prefix (>= 1 always)
    rho = np.count_nonzero(U * ks > css, axis=1)
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


def build_loss_constraints(model: ProbModel, instances: np.ndarray, loss_bound_value: float) -> ConstraintSet:
    """Per-pair cross-entropy losses with right-hand side n * loss bound."""
    P = predict_proba_matrix(model, instances)
    return ConstraintSet(loss_matrix=-np.log(P), bound=instances.shape[0] * loss_bound_value)


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule of the weight QP.

    ``rel_tol`` is the relative duality-gap tolerance: the solve is
    converged once its Frank-Wolfe gap certifies Phi(w) - Phi* <= rel_tol
    max(1, |Phi|). Tolerances below FLOAT32_GAP_FLOOR run every product in
    float64; above it the products start in float32. ``max_iters`` caps the
    solve's iterations.
    """

    max_iters: int = 20000
    rel_tol: float = 1e-4


@dataclass(frozen=True)
class SolverReport:
    """Diagnostics of one solve, whose weights are its last iterate.

    ``objective_value`` is the un-rooted quadratic form Phi(w). ``gap`` is
    the Frank-Wolfe duality gap at w on the loss-cut set, evaluated with a
    float64 K0 w and the last projection's multiplier; it bounds Phi(w) -
    Phi* from above, and ``converged`` is exactly gap <= rel_tol max(1,
    |Phi|). ``step`` is the gradient step 1/L. ``switch_iteration`` is the
    iteration at which the products moved from float32 to float64, 0 when
    they never did. The history holds the starting value and one value per
    iteration (see ``_fista`` for its monotonicity). ``inequality_slack``
    is b - B w, +inf when unconstrained; it never drops below -1e-8 b.
    ``dual_lambda`` is the loss constraint's multiplier at the last
    projection, 0 when the cut was slack there.
    """

    objective_value: float
    iterations: int
    inequality_slack: float
    dual_lambda: float
    converged: bool
    objective_history: np.ndarray
    gap: float = math.inf
    step: float = math.nan
    switch_iteration: int = 0


@dataclass(frozen=True)
class _InnerSolve:
    """One FISTA solve: the iterate W with its float64 K0 @ W, the iteration
    count, the objective history, the loss constraint's multiplier at the
    last projection and the iteration of the float64 switch (0 when none)."""

    W: np.ndarray
    KW: np.ndarray
    iterations: int
    history: np.ndarray
    multiplier: float
    switch_iteration: int


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


def _power_lip(K: np.ndarray) -> float:
    """Step constant L for the gradient (2/n) K W - G: POWER_MARGIN times
    2/n the Rayleigh quotient after POWER_STEPS steps of power iteration on
    K, started at the all-ones vector (close to a nonnegative Gram's Perron
    vector). The quotient approaches lambda_max from below; a plain
    projected-gradient step 1/L stays non-increasing for any L above half
    the true constant, so a residual underestimate costs no monotonicity."""
    n = K.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n), dtype=K.dtype)
    for _ in range(POWER_STEPS):
        Kv = K @ v  # K has a unit diagonal and v > 0, so Kv never vanishes
        lam = float(v @ Kv)
        v = Kv / np.linalg.norm(Kv)
    return POWER_MARGIN * 2.0 / n * lam


def _value_and_gap(W, KW, G, cut, lam):
    """(Phi, gap, gradient) at W from its K0 @ W, in O(nc).

    The gap is the cut-set Frank-Wolfe gap under weak duality with the cut's
    multiplier lam >= 0: <grad, W> - (sum_i min_y (grad + lam B)_iy - lam b),
    an upper bound on Phi(W) - Phi* (Jaggi 2013).
    """
    inv_n = 1.0 / W.shape[0]
    q = inv_n * float(np.vdot(KW, W))
    s = float(np.vdot(G, W))
    grad = (2.0 * inv_n) * KW - G
    if lam > 0.0:
        lower = float((grad + lam * cut.loss_matrix).min(axis=1).sum()) - lam * cut.bound
    else:
        lower = float(grad.min(axis=1).sum())
    return q - s, 2.0 * q - s - lower, grad


def _fista(K0, G, W0, lip, max_iters, rel_tol, cut=None, K32=None) -> _InnerSolve:
    """Accelerated projected gradient on h(W) = (1/n)<W, K0 W> - <G, W>.

    Feasible set is the product of per-row simplices, cut by the loss
    constraint when ``cut`` is given (see ``_project_cut``). Each iteration
    costs one (n, n) @ (n, c) product for the new iterate; gradients at the
    momentum point follow by linearity, and the gap from the same product.
    Each multiplier search starts from the last accepted one's mu.

    Products run on ``K32``, a float32 copy of K0, when given; iterates,
    gradients and sums stay float64. The switch to float64 products is one
    way and happens when float32 rounding stalls progress: a restart's plain
    step fails to lower h, or the float32 gap certifies (or the change
    stalls) while the float64 gap at the same iterate does not. The solve
    stops when the gap certifies in float64, when a float64 step changes h
    by less than STALL_REL relative (roundoff), or after ``max_iters``
    iterations; the returned K0 @ W is float64 in every case.

    Momentum restarts on a function increase by redoing the step as plain
    projected gradient from the previous iterate, which the descent lemma
    makes non-increasing. The history (one value per iteration) is therefore
    monotone within each precision: in float32 a step is kept only if it
    does not raise h, and a float64 plain step can rise only by roundoff or
    by the cut's 1e-8 b slack band. Either switch re-evaluates the current
    iterate in float64 and takes a plain step from it, so the first float64
    value is at most that iterate's float64 value, which differs from its
    recorded float32 value by the product's float32 rounding (about 1e-7
    relative): across a switch the history is monotone to that rounding.
    """
    step = 1.0 / lip
    K = K0 if K32 is None else K32

    def evaluate(W, mu):
        # K0 is symmetric: (W^T K0)^T runs about twice as fast as K0 W on thin W
        KW = (W.T @ K0).T if K is K0 else (K32 @ W.astype(np.float32)).astype(np.float64)
        return (KW, *_value_and_gap(W, KW, G, cut, mu / step))

    X, mu = _project_cut(W0, cut)
    KX, f, gap, gX = evaluate(X, mu)
    hist = np.empty(max_iters + 1)
    hist[0] = f
    Xp, gXp, t = X, gX, 1.0
    rel, iters, switch = math.inf, 0, 0
    while True:
        certified = gap <= rel_tol * max(1.0, abs(f))
        if K is not K0 and (certified or rel < STALL_REL):
            # a float32 certificate or stall is checked with float64 products,
            # which stay on unless they certify
            K = K0
            KX, f, gap, gX = evaluate(X, mu)
            certified = gap <= rel_tol * max(1.0, abs(f))
            if not certified:
                switch, rel = iters + 1, math.inf
                Xp, gXp, t = X, gX, 1.0
        if certified or rel < STALL_REL or iters == max_iters:
            break
        iters += 1
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        Y = X + beta * (X - Xp)
        Z, mu_z = _project_cut(Y - step * (gX + beta * (gX - gXp)), cut, mu)
        KZ, fz, gap_z, gZ = evaluate(Z, mu_z)
        if fz > f:
            Z, mu_z = _project_cut(X - step * gX, cut, mu)
            KZ, fz, gap_z, gZ = evaluate(Z, mu_z)
            if fz > f and K is not K0:
                # float32 rounding stalls progress: redo the step in float64
                K, switch = K0, iters
                KX, f, gap, gX = evaluate(X, mu)
                Z, mu_z = _project_cut(X - step * gX, cut, mu)
                KZ, fz, gap_z, gZ = evaluate(Z, mu_z)
            t_next = 1.0
        rel = abs(f - fz) / max(1.0, abs(fz))
        Xp, gXp = X, gX
        X, KX, f, gap, gX, mu = Z, KZ, fz, gap_z, gZ, mu_z
        t = t_next
        hist[iters] = f
    if K is not K0:
        KX = (X.T @ K0).T
    return _InnerSolve(W=X, KW=KX, iterations=iters, history=hist[: iters + 1], multiplier=mu / step,
                       switch_iteration=switch)


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
    loss constraint; ``options.max_iters`` caps the whole solve. Its step
    comes from power iteration (``_power_lip``). At ``options.rel_tol`` >=
    FLOAT32_GAP_FLOOR its products start on a float32 copy of K0 that lives
    only during the solve. The reported gap, objective and ``converged``
    are evaluated at the returned weights with a float64 K0 @ W.
    """
    options = options or SolverOptions()
    n, m, c = ctx.n, ctx.m, ctx.c
    K0 = ctx.base_gram
    V = ctx.cross_v
    W0 = np.full((n, c), 1.0 / c) if init is None else as_weight_matrix(init, n, c).copy()
    G = (2.0 / m) * V

    B, b = (None, np.inf) if constraints is None else (constraints.loss_matrix, constraints.bound)
    if B is not None and B.shape != (n, c):
        raise ValueError(f"loss_matrix shape {B.shape} != ({n}, {c})")

    K32 = K0.astype(np.float32) if options.rel_tol >= FLOAT32_GAP_FLOOR else None
    lip = _power_lip(K0 if K32 is None else K32)
    run = _fista(K0, G, W0, lip, options.max_iters, options.rel_tol, constraints, K32)

    W, lam = run.W, run.multiplier
    value, gap, _ = _value_and_gap(W, run.KW, G, constraints, lam)
    slack = np.inf if B is None else b - float(np.sum(B * W))

    weights = LabelWeights(w=W.ravel(), n=n, c=c)
    report = SolverReport(
        objective_value=value,
        iterations=run.iterations,
        inequality_slack=float(slack),
        dual_lambda=float(lam),
        converged=bool(gap <= options.rel_tol * max(1.0, abs(value))),
        objective_history=run.history,
        gap=gap,
        step=1.0 / lip,
        switch_iteration=run.switch_iteration,
    )
    return weights, report
