"""Label-weight QP over a product of per-instance simplices.

Minimizes Phi(w) = (1/n) w^T K w - (2/m) v^T w subject to each calibration
instance's label weights lying on the simplex and an optional scalar loss
constraint B w <= b. The quadratic couples instances only through the shared
base Gram, so iterations run on (n, c) matrices with one GEMM each.

The inequality is part of the feasible set: one FISTA run projects every
step onto the simplices cut by B w <= b, a projection that costs a short
one-dimensional search over row projections. The cut's multiplier at the
last projection is the reported Lagrange multiplier lambda.

The step is 1/L, with L from the largest eigenvalue of K0, whose
eigenvector is the near-constant Perron vector.
For n >= METRIC_MIN_N, when lambda_1 / lambda_2 >= METRIC_RATIO, every
step is taken in the metric M = L_2 I + (L_1 - L_2) v v^T instead, the
rank-one-corrected prox of Becker & Fadili (NeurIPS 2012): the Perron
direction keeps the step 1/L_1 while every other direction steps 1/L_2.
The rank-one term is dualized into c variables whose c x c linear system
comes from the last projection's row supports, so a step still costs one
row projection. A plain metric step that fails to lower the objective
drops the metric for good.

The run stops on a certificate, the Frank-Wolfe duality gap on the cut set
(Jaggi 2013), which bounds Phi(w) - Phi* and costs O(nc) per iteration from
the cached K0 w. The products are memory-bound, so while the gap tolerance
sits above float32's reach the run has two phases: a float32 phase on a
float32 copy of K0 until it certifies, stalls in float32 rounding or is
capped, then a float64 phase from its iterate. The reported certificate is
always the float64 phase's, in the spirit of mixed-precision refinement
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
METRIC_MIN_N = 1000  # smallest n at which the step may run in the Perron metric (below, call overhead leads)
METRIC_RATIO = 2.0  # smallest lambda_1 / lambda_2 at which it does
LAMBDA2_MARGIN = 1.05  # headroom over the deflated power-iteration estimate of lambda_2


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
    float64; at or above it a float32 phase runs first. ``max_iters`` caps the
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
    first iteration of the float64 phase that follows a float32 one, 0 when
    that phase took no step or no float32 phase ran. The history holds the
    starting value and one value per iteration (see ``_fista`` for its
    monotonicity within each phase). ``inequality_slack`` is b - B w, +inf
    when unconstrained; it never drops below -1e-8 b. ``dual_lambda`` is
    the loss constraint's multiplier at the last projection, 0 when the cut
    was slack there. ``restarts`` counts the momentum restarts over both
    phases, each after a step with nonzero momentum raised Phi.
    ``perron_ratio`` is the estimate of lambda_1 / lambda_2 of K0: NaN
    below METRIC_MIN_N, where lambda_2 is not estimated (or for a rank-one
    K0), and below METRIC_RATIO the value at which its estimate stopped
    (see ``_power_lip``), which overstates the ratio. ``metric_iteration``
    is the iteration at which the Perron metric was dropped: 0 when it
    stayed on to the end, -1 when it never ran.
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
    restarts: int = 0
    perron_ratio: float = math.nan
    metric_iteration: int = -1


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


def _power_lip(K: np.ndarray, deflate: bool = False):
    """Estimates (lambda_1, v, lambda_2) of a nonnegative PSD Gram K.

    lambda_1 is the Rayleigh quotient after POWER_STEPS steps of power
    iteration on K, started at the all-ones vector (close to a nonnegative
    Gram's Perron vector), and v the unit vector of the last step. The
    quotient approaches lambda_1 from below; a plain projected-gradient step
    1/L stays non-increasing for any L above half the true constant, so a
    residual underestimate costs no monotonicity.

    lambda_2 is NaN unless ``deflate``. Then it is the Rayleigh quotient of
    up to POWER_STEPS steps of power iteration kept orthogonal to v, from a
    fixed pseudo-random start. The top eigenvalue of K compressed to v's
    complement is at least lambda_2 (interlacing), and the quotient rises
    towards it, so the iteration stops as soon as lambda_1 < METRIC_RATIO
    times the quotient: the Perron metric is then off whatever the rest.
    """
    n = K.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n), dtype=K.dtype)
    for _ in range(POWER_STEPS):
        Kv = K @ v  # K has a unit diagonal and v > 0, so Kv never vanishes
        lam = float(v @ Kv)
        v = Kv / np.linalg.norm(Kv)
    lam2 = math.nan
    if deflate:
        u = np.random.default_rng(0).standard_normal(n).astype(K.dtype)
        for _ in range(POWER_STEPS):
            u -= (v @ u) * v
            u /= np.linalg.norm(u)
            Ku = K @ u
            lam2 = float(u @ Ku)
            if lam < METRIC_RATIO * lam2:
                break
            u = Ku
    return lam, v, lam2


class _MetricStep:
    """The projected step in the metric M = I / step + beta v v^T.

    M acts on every column of an (n, c) matrix, and v is a unit n-vector.
    A call returns the minimizer W of <g, W> + 1/2 <W - Y, M (W - Y)> over
    the row simplices cut by the loss constraint, with its cut multiplier
    mu as ``_project_cut`` scales it. With beta = 0 that is
    ``_project_cut(Y - step g, cut, mu)``, bit for bit.

    With beta > 0 the rank-one term is dualized (Becker & Fadili 2012): W =
    ``_project_cut(Y - step (g + v y^T), cut, mu)`` for the y in R^c that
    solves y = beta v^T (W - Y). On a fixed support each row's projection
    is affine in y, so y solves one c x c linear system,
    (I + beta step A) y = beta a, with A = sum_i v_i^2 P_i (P_i the
    Jacobian of row i's projection on its support) and a = v^T (W - Y) at
    y = 0 under that affine model. The supports are predicted from the
    last projection, and the rows shifted by the warm-start multiplier's
    mu B as the cut shifts them. A depends only on those supports and is
    reused while they do not change. Each call costs one row projection
    (more only while the cut's multiplier search runs); a wrong prediction
    gives a point of the cut set, but not the exact minimizer.
    """

    def __init__(self, step, cut, v=None, beta=0.0):
        self.step, self.cut, self.v, self.beta = step, cut, v, beta
        self.support = None  # (n, c) 0/1 support of the last projection
        self._key = self._inv = self._counts = None  # the system's support, inverse and row counts

    def dual(self, V, Y, mu):
        """y from the affine model of every row's projection of V - mu B on
        ``self.support``; V = Y - step g."""
        S = self.support
        if not np.array_equal(S, self._key):
            w2 = self.v * self.v
            self._counts = S.sum(axis=1)
            A = np.diag(w2 @ S) - (S * (w2 / self._counts)[:, None]).T @ S
            self._inv = np.linalg.inv(np.eye(S.shape[1]) + (self.beta * self.step) * A)
            self._key = S
        Z = V - mu * self.cut.loss_matrix if mu > 0.0 else V
        theta = ((Z * S).sum(axis=1) - 1.0) / self._counts
        a = self.v @ (S * (Z - theta[:, None]) - Y)
        return self._inv @ (self.beta * a)

    def __call__(self, Y, g, mu):
        V = Y - self.step * g
        if self.beta == 0.0:
            return _project_cut(V, self.cut, mu)
        y = self.dual(V, Y, mu)
        W, mu = _project_cut(V - np.outer(self.step * self.v, y), self.cut, mu)
        self.support = (W > 0.0).astype(np.float64)
        return W, mu


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


def _fista(K0, G, W0, max_iters, rel_tol, cut=None, K32=None):
    """Accelerated projected gradient on h(W) = (1/n)<W, K0 W> - <G, W>.
    Returns the last iterate W and its SolverReport.

    Feasible set is the product of per-row simplices, cut by the loss
    constraint when ``cut`` is given (see ``_project_cut``). Each iteration
    costs one (n, n) @ (n, c) product for the new iterate; gradients at the
    momentum point follow by linearity, and the gap from the same product.
    Each multiplier search starts from the last accepted one's mu.

    The step is 1/L, with L = POWER_MARGIN 2/n lambda_1 from power
    iteration (``_power_lip``). At n >= METRIC_MIN_N that also estimates
    lambda_2, and when lambda_1 / lambda_2 >= METRIC_RATIO the steps run in
    the Perron metric M = L_2 I + (L - L_2) v v^T instead, with v the Perron
    vector and L_2 = LAMBDA2_MARGIN 2/n lambda_2 (see ``_MetricStep``): M
    still bounds the Hessian (2/n) K0, but its Perron direction no longer
    sets the step in every other one. The cut's multiplier is then mu L_2
    rather than mu L.

    With ``K32``, a float32 copy of K0, the solve runs a float32 phase whose
    products (power iteration too) run on K32, then a float64 phase on K0;
    without it, only the float64 phase. Iterates, gradients and sums stay
    float64. Each phase evaluates its starting iterate with its own
    products, restarts the momentum, and iterates until the gap certifies,
    a step changes h by less than STALL_REL relative, or the solve reaches
    ``max_iters`` iterations in all. The reported objective, gap and
    ``converged`` are the float64 phase's, at the returned W.

    A step that raises h runs a two-rung fallback ladder, each rung followed
    by a plain step from the previous iterate, until one does not raise h:
    1. a momentum restart, only when the momentum was nonzero (otherwise the
       plain step is the step that failed); ``restarts`` counts these;
    2. the Perron metric is dropped for good (lambda_2 underestimated, or a
       wrong support prediction) and the step is 1/L again; its iteration
       is ``metric_iteration``, 0 when the metric stayed on and -1 when it
       never ran.
    A float32 step that still raises h ends the float32 phase untaken
    (float32 rounding stalls progress); the float64 phase keeps its step
    whatever its value. The momentum restarts from the next step whenever
    the ladder runs.

    The history is the first phase's starting value, then one value per
    iteration in the products that took it. It is monotone within each
    phase by the descent lemma: a float32 step, or any step while the
    metric is on, is kept only if it does not raise h, and a float64 plain
    step rises only by roundoff or the cut's 1e-8 b slack band. Across the
    phases it is monotone to float32 rounding (about 1e-7 relative): the
    float64 phase steps from the last iterate's float64 value, which is not
    recorded.
    """
    n = K0.shape[0]
    phases = (K0,) if K32 is None else (K32, K0)
    lam1, v, lam2 = _power_lip(phases[0], deflate=n >= METRIC_MIN_N)
    lip = POWER_MARGIN * 2.0 / n * lam1
    step = 1.0 / lip
    ratio = lam1 / lam2 if lam2 > 0.0 else math.nan  # NaN below the n gate (or for a rank-one K0)
    if ratio >= METRIC_RATIO:
        lip2 = LAMBDA2_MARGIN * 2.0 / n * lam2
        prox, dropped = _MetricStep(1.0 / lip2, cut, v.astype(np.float64), lip - lip2), 0
    else:
        prox, dropped = _MetricStep(step, cut), -1

    def evaluate(W, mu):
        # in the current phase's K; K0 is symmetric: (W^T K0)^T runs about twice as fast as K0 W on thin W
        KW = (W.T @ K0).T if K is K0 else (K32 @ W.astype(np.float32)).astype(np.float64)
        return _value_and_gap(W, KW, G, cut, mu / prox.step)

    def plain():
        # the step from X with no momentum, in the current metric
        Z, mu_z = prox(X, gX, mu)
        return (Z, mu_z) + evaluate(Z, mu_z)

    X, mu = _project_cut(W0, cut)
    prox.support = (X > 0.0).astype(np.float64)
    hist, iters, restarts = [], 0, 0
    for K in phases:
        start = iters
        f, gap, gX = evaluate(X, mu)
        if not hist:
            hist.append(f)
        Xp, gXp, t, rel = X, gX, 1.0, math.inf
        while not (gap <= rel_tol * max(1.0, abs(f)) or rel < STALL_REL or iters == max_iters):
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            Y = X + beta * (X - Xp)
            Z, mu_z = prox(Y, gX + beta * (gX - gXp), mu)
            fz, gap_z, gZ = evaluate(Z, mu_z)
            if fz > f:
                t_next = 1.0
                if beta > 0.0:
                    restarts += 1
                    Z, mu_z, fz, gap_z, gZ = plain()
                if fz > f and prox.beta > 0.0:
                    # the metric overshoots: drop it for good, rescaling X's multiplier to the step 1/L
                    mu *= step / prox.step
                    prox, dropped = _MetricStep(step, cut), iters + 1
                    Z, mu_z, fz, gap_z, gZ = plain()
                if fz > f and K is not K0:
                    break  # float32 rounding stalls progress: float64 products take this step
            iters += 1
            rel = abs(f - fz) / max(1.0, abs(fz))
            Xp, gXp = X, gX
            X, f, gap, gX, mu = Z, fz, gap_z, gZ, mu_z
            t = t_next
            hist.append(f)
    slack = math.inf if cut is None else cut.bound - float(np.sum(cut.loss_matrix * X))
    return X, SolverReport(
        objective_value=f,
        iterations=iters,
        inequality_slack=slack,
        dual_lambda=mu / prox.step,
        converged=bool(gap <= rel_tol * max(1.0, abs(f))),
        objective_history=np.array(hist),
        gap=gap,
        step=step,
        switch_iteration=start + 1 if K32 is not None and iters > start else 0,
        restarts=restarts,
        perron_ratio=ratio,
        metric_iteration=dropped,
    )


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

    One FISTA solve (``_fista``) whose every step projects onto the
    simplices cut by the loss constraint; ``options.max_iters`` caps the
    whole solve. At ``options.rel_tol`` >= FLOAT32_GAP_FLOOR it runs a
    float32 phase, on a float32 copy of K0 that lives only during the solve,
    before its float64 phase; below, only the float64 phase. The reported
    gap, objective and ``converged`` are evaluated at the returned weights
    with a float64 K0 @ W, and the gap's multiplier is the last projection's
    mu times the Euclidean step constant it ran at (L_2 in the metric).
    """
    options = options or SolverOptions()
    n, c = ctx.n, ctx.c
    W0 = np.full((n, c), 1.0 / c) if init is None else as_weight_matrix(init, n, c).copy()
    if constraints is not None and constraints.loss_matrix.shape != (n, c):
        raise ValueError(f"loss_matrix shape {constraints.loss_matrix.shape} != ({n}, {c})")
    K0 = ctx.base_gram
    K32 = K0.astype(np.float32) if options.rel_tol >= FLOAT32_GAP_FLOOR else None
    W, report = _fista(K0, (2.0 / ctx.m) * ctx.cross_v, W0, options.max_iters, options.rel_tol, constraints, K32)
    return LabelWeights(w=W.ravel(), n=n, c=c), report
