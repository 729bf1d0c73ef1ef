"""Label-weight QP over a product of per-instance simplices.

Minimizes Phi(W) = (1/n) <W, K0 W> - (2/m) <V, W> over (n, c) label weights
W (V the context's ``cross_v``) with every row on the simplex, subject to an
optional scalar loss constraint <B, W> <= b. The quadratic couples instances
only through the shared base Gram K0, so each iteration takes one GEMM.

The inequality is part of the feasible set: one FISTA run projects every
step onto the simplices cut by B w <= b, a projection that costs a short
one-dimensional search over row projections. The cut's multiplier at the
last projection is the reported Lagrange multiplier lambda.

The step is 1/L, with L from the largest eigenvalue of K0, whose
eigenvector is the near-constant Perron vector. But K0's spectrum falls in
shelves: past lambda_1 come about c - 1 cluster eigenvalues, then a bulk
far below them. One block-Krylov run from [1, W0] (W0 the start weights,
or where those are uniform the rows one-hot at the labels the linear term
favours) estimates the leading eigenpairs and their residuals, and for n >=
METRIC_MIN_N every step is taken in the rank-r metric M = L_{r+1} I +
sum_{k<=r} (L_k - L_{r+1}) v_k v_k^T instead, with r read from the run's
certified Ritz pairs (Becker & Fadili, NeurIPS 2012; the rank-r form in
Becker, Fadili & Ochs, SIAM J. Optim. 29(4), 2019): each of the top r
directions steps 1/L_k, and the rest 1/L_{r+1}. The rank-r term is
dualized into r c variables whose (rc) x (rc) system comes from the row
supports and is updated by the rows whose support changed, and a step
refines its support with a few row projections. A metric step that
fails to lower the objective drops the metric for good.

The run stops on a certificate, the Frank-Wolfe duality gap on the cut set
(Jaggi 2013), which bounds Phi(w) - Phi* and costs O(nc) per iteration from
the cached K0 w. K0 is the context's float32 ``Gram``, and the QP makes no
copy of it. The products are memory-bound, so while the gap tolerance sits
above float32's reach the run has two phases: a float32 phase of float32
GEMMs (``Gram.product``) until it certifies, stalls in float32 rounding or
is capped, then a float64 phase from its iterate whose products are
float64-accumulated (``Gram.product64``), exact in K0 up to float64
rounding. The reported certificate is always the float64 phase's, in the
spirit of mixed-precision refinement (Carson & Higham 2018).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .classifier import ProbModel, predict_labels, predict_proba_matrix
from .errors import InfeasibleConstraintError
from .kernel import Gram, KernelContext, as_weight_matrix

BLOCK_SUM_TOL = 1e-9
SLACK_REL_TOL = 1e-8
CUT_RESOLUTION = 1e6  # largest mu * max(B) at which V - mu B resolves weights to BLOCK_SUM_TOL
CUT_STEPS = 100  # projections per multiplier search
FLOAT32_GAP_FLOOR = 1e-6  # relative gap tolerances below this run float64 products from the start
STALL_REL = 1e-12  # float64 relative change in Phi below which roundoff has stalled the solve
KRYLOV_DIM = 48  # basis vectors of the block-Krylov run behind the metric's constants
STEP_KRYLOV_DIM = 16  # basis vectors of the run where only the step constant is read (n < METRIC_MIN_N)
POWER_MARGIN = 1.01  # headroom over the Ritz value of lambda_max
METRIC_MIN_N = 1000  # smallest n at which the step may run in the rank-r metric (below, call overhead leads)
RITZ_MARGIN = 1.05  # headroom over the Ritz values of lambda_2 .. lambda_{r+1}
RITZ_REL_RES = 0.05  # largest residual, relative to its value, of a Ritz pair the metric reads
METRIC_MAX_RANK = 12  # most Ritz directions the metric steps at their own constants
METRIC_MAX_SIZE = 120  # most unknowns r c of the metric step's linear system (r >= 1 at any c)
METRIC_MIN_GAIN = 2.0  # least theta_2 / theta_{r+1} at which a rank r > 1 pays for its larger system
SUPPORT_REFINEMENTS = 20  # most projections per metric step
SYSTEM_ROWS = 256  # rows per chunk when the metric step's system is built or updated
EPS32, EPS64 = float(np.finfo(np.float32).eps), float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class LabelWeights:
    """Per-instance label distributions as an (n, c) matrix, read-only.

    ``matrix[i, y-1]`` is instance i's weight on label y. Every row is a
    point of the probability simplex (checked at construction).
    """

    matrix: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.matrix, dtype=np.float64)
        if W.ndim != 2 or W.size == 0:
            raise ValueError(f"weights must be a non-empty (n, c) matrix, got shape {W.shape}")
        if not np.isfinite(W).all() or W.min() < 0:
            raise ValueError("weights must be finite and nonnegative")
        worst = float(np.abs(W.sum(axis=1) - 1.0).max())
        if worst > BLOCK_SUM_TOL:
            raise ValueError(f"block sums deviate from 1 by {worst:.2e}")
        W = W.copy()
        W.flags.writeable = False
        object.__setattr__(self, "matrix", W)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def c(self) -> int:
        return self.matrix.shape[1]


def supervised_weights(labels: np.ndarray, num_classes: int) -> LabelWeights:
    """One-hot weights at the true labels (the supervised reduction)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty vector")
    if labels.min() < 1 or labels.max() > num_classes:
        raise ValueError(f"labels must lie in 1..{num_classes}")
    W = np.zeros((labels.size, num_classes))
    W[np.arange(labels.size), labels - 1] = 1.0
    return LabelWeights(W)


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
    """Per-pair cross-entropy losses with right-hand side n * loss bound.

    Raises InfeasibleConstraintError when no weights on the row simplices
    meet the bound: the smallest loss they reach is sum_i min_y B_iy, and
    the cut search accepts nothing above b (1 + SLACK_REL_TOL).
    """
    P = predict_proba_matrix(model, instances)
    cut = ConstraintSet(loss_matrix=-np.log(P), bound=instances.shape[0] * loss_bound_value)
    floor = float(cut.loss_matrix.min(axis=1).sum())
    if floor > cut.bound * (1.0 + SLACK_REL_TOL):
        raise InfeasibleConstraintError(
            f"loss constraint unsatisfiable: the smallest reachable loss {floor:.6g} exceeds {cut.bound:.6g}"
        )
    return cut


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule of the weight QP.

    ``rel_tol`` is the relative duality-gap tolerance: the solve is
    converged once its Frank-Wolfe gap certifies Phi(w) - Phi* <= rel_tol
    max(1, |Phi|). Tolerances below FLOAT32_GAP_FLOOR run every product in
    float64; at or above it a float32 phase runs first. ``max_iters`` caps the
    solve's iterations. Construction checks both: ``max_iters`` must be an
    integer >= 1 and ``rel_tol`` positive and finite, since a NaN or
    negative tolerance never certifies and runs until stalled, and a cap
    of 0 returns the start point unconverged.
    """

    max_iters: int = 20000
    rel_tol: float = 1e-4

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")


@dataclass(frozen=True)
class SolverReport:
    """Diagnostics of one solve, whose weights are its last iterate.

    ``objective_value`` is the un-rooted quadratic form Phi(w). ``gap`` is
    the Frank-Wolfe duality gap at w on the loss-cut set, evaluated with a
    float64-accumulated K0 w and the last projection's multiplier; it
    bounds Phi(w) - Phi* from above, and ``converged`` is exactly gap <=
    rel_tol max(1, |Phi|). ``step`` is the gradient step 1/L.
    ``switch_iteration`` is the first iteration of the float64 phase that
    follows a float32 one, 0 when that phase took no step or no float32
    phase ran. The history holds the
    starting value and one value per iteration (see ``_fista`` for its
    monotonicity within each phase). ``inequality_slack`` is b - B w, +inf
    when unconstrained; it never drops below -1e-8 b. ``dual_lambda`` is
    the loss constraint's multiplier at the last projection, 0 when the cut
    was slack there. ``restarts`` counts the momentum restarts over both
    phases, each after a step with nonzero momentum raised Phi.
    ``ritz_values`` are the Ritz values of K0 that the step reads,
    descending, at every n (see ``_ritz_pairs`` and ``_fista``): theta_1
    sets the step, and theta_2 .. theta_{r+1} the metric's constants. ``metric_rank`` is the
    rank r of the metric the solve started in, 0 when it never ran (n below
    METRIC_MIN_N, or a spectrum with no drop past lambda_1, as on a
    rank-one K0). ``metric_iteration`` is the iteration at which the metric
    was dropped: 0 when it stayed on to the end, -1 when it never ran.
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
    ritz_values: tuple[float, ...] = ()
    metric_rank: int = 0
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


def _orthonormal(F: np.ndarray, floor: float) -> np.ndarray:
    """An orthonormal basis of F's columns: its left singular vectors whose
    singular values exceed ``floor`` (the rest are rounding, and dropped)."""
    U, sv, _ = np.linalg.svd(F, full_matrices=False)
    return U[:, sv > floor]


def _ritz_pairs(product, eps: float, W0: np.ndarray, dim: int = KRYLOV_DIM):
    """Leading eigenpairs of a nonnegative PSD n x n Gram K from one
    block-Krylov run; returns (theta, rho, V).

    The run starts from the block [1, W0], W0 the (n, c) start weights: 1
    is close to a nonnegative Gram's Perron vector, and W0's columns
    approximate the cluster indicators whose span holds the next
    eigenvectors (rows on the simplex sum to 1, so one-hot rows give a
    block of rank c, and a start block of rank w fills a basis of ``dim``
    vectors in ceil(dim / w) products). Each block step takes one
    ``product`` with K (a float64 block to float64 K times it, with rounding
    of relative size ``eps``). Its remainder, orthogonalized against the basis twice, gives
    the next block, less every direction of norm at most sqrt(n) eps times
    the product's largest column (rounding). The run stops once the basis
    holds ``dim`` vectors (n at most), or when a block deflates to
    nothing (an invariant subspace). One ``np.linalg.eigh`` of the small
    block-tridiagonal T gives every Ritz pair, and the block relation
    K Q = Q T + F E^T gives each pair's residual ||K x - theta x|| from the
    last remainder F, with no further product. By interlacing each Ritz
    value sits at or below its eigenvalue, and a pair with residual rho
    has an eigenvalue within rho of its value (Golub & Van Loan 10.1, 10.3).

    ``theta`` and ``rho`` hold the Ritz values (descending) and residuals of
    the leading pairs through the last of an unbroken run whose residuals
    are at most RITZ_REL_RES of their values, at most r + 1 for
    r = min(METRIC_MAX_RANK, max(1, METRIC_MAX_SIZE // c)), so the metric
    step's state and system stay small. They hold the top pair always, and
    the second whenever its value is past the products' rounding, sqrt(n)
    eps theta_1, whatever its residual: it is a lower bound on lambda_2, as
    the Perron metric's estimate was, and an underestimate is caught by the
    fallback ladder. ``V`` (n, len(theta) - 1) holds the unit Ritz vectors
    of all but the last.
    """
    n = W0.shape[0]
    F = np.concatenate([np.ones((n, 1)), W0], axis=1)
    block = _orthonormal(F, math.sqrt(n) * EPS64 * np.linalg.norm(F, axis=0).max())
    Q = np.empty((n, min(n, dim + F.shape[1])))
    T = np.zeros((Q.shape[1], Q.shape[1]))  # its lower triangle is the block-tridiagonal
    k = 0
    while True:
        j, k = k, k + block.shape[1]
        Q[:, j:k] = block
        F = product(block)
        floor = math.sqrt(n) * eps * np.linalg.norm(F, axis=0).max()
        for _ in range(2):
            h = Q[:, :k].T @ F
            F -= Q[:, :k] @ h
            T[:k, j:k] += h
        if k >= min(dim, n):
            break
        block = _orthonormal(F, floor)[:, : Q.shape[1] - k]
        if block.shape[1] == 0:
            break
        T[k : k + block.shape[1], j:k] = block.T @ F
    theta, S = np.linalg.eigh(T[:k, :k])
    theta, S = theta[::-1], S[:, ::-1]
    last = S[j:k]
    rho = np.sqrt(np.maximum(np.sum(last * ((F.T @ F) @ last), axis=0), 0.0))
    above = theta > math.sqrt(n) * eps * theta[0]  # past the products' rounding
    certified = np.append((rho <= RITZ_REL_RES * theta) & above, False)
    rank = min(METRIC_MAX_RANK, max(1, METRIC_MAX_SIZE // W0.shape[1]))
    # argmin: the first pair not certified; the second value counts whenever it is past the rounding
    count = min(max(1 + int(above[1:2].any()), int(np.argmin(certified))), rank + 1)
    return theta[:count], rho[:count], Q[:, :k] @ S[:, : count - 1]


def _rows_differing(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The indices of the rows in which the (n, c) arrays S and T differ."""
    return np.unique(np.flatnonzero(S != T) // S.shape[1])


class _MetricStep:
    """The projected step in the metric M = I / step + V diag(beta) V^T.

    M acts on every column of an (n, c) matrix; V is (n, r) with orthonormal
    columns and beta (r,) is positive. A call returns the minimizer W of
    <g, W> + 1/2 <W - Y, M (W - Y)> over the row simplices cut by the loss
    constraint, with its cut multiplier mu as ``_project_cut`` scales it.
    With no V (r = 0) that is ``_project_cut(Y - step g, cut, mu)``, bit
    for bit.

    With r > 0 the rank-r term is dualized (Becker & Fadili 2012; Becker,
    Fadili & Ochs 2019): W = ``_project_cut(Y - step (g + V y), cut, mu)``
    for the (r, c) y that solves y = diag(beta) V^T (W - Y). On a fixed
    support each row's projection is affine in y, so y solves one (rc) x
    (rc) symmetric positive definite system, (diag(1/beta) (x) I + step A)
    y = a, with A = sum_i (V_i V_i^T) (x) P_i (V_i row i of V, P_i the
    Jacobian of row i's projection on its support, zero on a vertex) and
    a = V^T (W - Y) at y = 0 under that affine model. While the cut binds,
    its multiplier mu is solved for with y, from the cut's equation as one
    more row and column of the system. The step refines the
    support: it solves on the last projection's support, projects, and
    repeats on the new support until a full step's projection keeps its
    support or SUPPORT_REFINEMENTS projections have run. This is Newton's
    method on the concave dual D(y) of the step's QP, whose inner
    minimizer is the projection at y; a step that lowers D is halved and
    projected again. A depends only on the supports, so it is kept and
    updated by the rows whose support changed, which are few per step;
    rows on a vertex add nothing. Any support gives a point of the cut
    set, but the exact minimizer only when the refinement ends on a kept
    support.
    """

    def __init__(self, step, cut, V=None, beta=None):
        self.step, self.cut, self.V, self.beta = step, cut, None, np.zeros(0)
        if V is not None:
            keep = np.asarray(beta, dtype=np.float64) > 0.0  # a direction with beta = 0 steps 1/step already
            if keep.any():
                self.V, self.beta = V[:, keep], np.asarray(beta, dtype=np.float64)[keep]
        self.support = None  # (n, c) bool support that A is built on
        self.A = None

    @property
    def rank(self) -> int:
        return self.beta.size

    def _accumulate(self, V, support, weight):
        """A += sum_i weight_i (V_i V_i^T) (x) P_i over the rows of ``V`` and
        ``support``. Rows on a vertex (P_i = 0) are skipped, and the rest
        are taken SYSTEM_ROWS at a time, so no (n, rc) array is made."""
        keep = support.sum(axis=1) > 1
        V, support, weight = V[keep], support[keep], weight[keep]
        r, c = V.shape[1], support.shape[1]
        blocks, idx = self.A.reshape(r, c, r, c), np.arange(c)
        for lo in range(0, weight.size, SYSTEM_ROWS):
            S, Vc, w = support[lo : lo + SYSTEM_ROWS], V[lo : lo + SYSTEM_ROWS], weight[lo : lo + SYSTEM_ROWS]
            U = (Vc[:, :, None] * S[:, None, :]).reshape(w.size, r * c)  # row i: V_i (x) s_i
            # the diagonal blocks of (V_i V_i^T) (x) diag(s_i), then the rank-one (V_i (x) s_i)(...)^T / |s_i|
            blocks[:, idx, :, idx] += ((U * w[:, None]).T @ Vc).reshape(r, c, r).transpose(1, 0, 2)
            self.A -= (U * (w / S.sum(axis=1))[:, None]).T @ U

    def set_support(self, support):
        """Move A to ``support`` ((n, c) bool), by the rows whose support changed."""
        if self.V is None:
            return
        if self.A is None:
            r, c = self.rank, support.shape[1]
            self.A = np.zeros((r * c, r * c))
            self._accumulate(self.V, support, np.ones(support.shape[0]))
        else:
            rows = _rows_differing(support, self.support)
            self._accumulate(self.V[np.concatenate([rows, rows])], np.concatenate([support[rows], self.support[rows]]),
                             np.repeat([1.0, -1.0], rows.size))
        self.support, self.mask = support, support.astype(np.float64)
        self.inv_counts = 1.0 / (self.mask @ np.ones(support.shape[1]))

    def dual(self, Z, Y, mu):
        """(y, mu) from the affine model of every row's projection of
        Z - step V y - mu B on ``self.support``; Z = Y - step g. With
        mu = 0 (the cut slack at the last projection) mu is held at 0; else
        it is solved for too, with the cut's equation aimed at the middle of
        its slack band, and held at 0 again if it comes out nonpositive."""
        mask = self.mask

        def affine(X, total):
            # rowwise P_i x_i + s_i total / |s_i|: the projection of x_i onto its support's plane
            return mask * (X - ((np.einsum("ij,ij->i", X, mask) - total) * self.inv_counts)[:, None])

        W = affine(Z, 1.0)
        a = (self.V.T @ (W - Y)).ravel()
        system = self.step * self.A
        system[np.diag_indices_from(system)] += np.repeat(1.0 / self.beta, Y.shape[1])
        if mu > 0.0:
            B, b = self.cut.loss_matrix, self.cut.bound
            PB = affine(B, 0.0)
            h = (self.V.T @ PB).ravel()
            bordered = np.block([[system, h[:, None]], [h[None, :], np.full((1, 1), np.vdot(B, PB) / self.step)]])
            rhs = np.append(a, (np.vdot(B, W) - b * (1.0 + 0.5 * SLACK_REL_TOL)) / self.step)
            x = np.linalg.solve(bordered, rhs)
            if x[-1] > 0.0:
                return x[:-1].reshape(-1, Y.shape[1]), float(x[-1])
        return np.linalg.solve(system, a).reshape(-1, Y.shape[1]), 0.0

    def _dual_value(self, W, Y, g, y):
        """The concave dual of the step's QP at y, whose inner minimizer W
        is the projection at y."""
        D = W - Y
        return float(np.vdot(g, W) + 0.5 / self.step * np.vdot(D, D) + np.vdot(y, self.V.T @ D)
                     - 0.5 * np.sum(y * y / self.beta[:, None]))

    def _project(self, Z, mu):
        """``_project_cut(Z, cut, mu)``, exact to rounding, read off the
        model's supports where they hold: a row whose entries stay above its
        support's threshold on the support, and at or below it off the
        support, keeps that support, so its projection is affine, and only
        the other rows are sorted, by one ``_project_rows`` call as a whole
        projection takes. A cut that binds goes to ``_project_cut``."""
        if mu == 0.0:
            shifted = Z - ((np.einsum("ij,ij->i", Z, self.mask) - 1.0) * self.inv_counts)[:, None]
            W = np.maximum(shifted, 0.0)
            rows = _rows_differing(shifted > 0.0, self.support)
            W[rows] = _project_rows(Z[rows])
            if self.cut is None or float(np.vdot(self.cut.loss_matrix, W)) <= self.cut.bound * (1.0 + SLACK_REL_TOL):
                return W, 0.0
        return _project_cut(Z, self.cut, mu)

    def __call__(self, Y, g, mu):
        Z = Y - self.step * g
        if self.V is None:
            return _project_cut(Z, self.cut, mu)
        y, value, t = np.zeros((self.rank, Y.shape[1])), -math.inf, 1.0
        target, mu_target = self.dual(Z, Y, mu)
        for _ in range(SUPPORT_REFINEMENTS):
            y_t = y + t * (target - y)
            W_t, mu_t = self._project(Z - self.step * (self.V @ y_t), mu_target if t == 1.0 else mu)
            value_t = self._dual_value(W_t, Y, g, y_t)
            if value_t < value:
                t *= 0.5  # a damped Newton step on the concave dual: halved until the dual does not fall
                continue
            y, W, mu, value = y_t, W_t, mu_t, value_t
            support = W > 0.0
            if t == 1.0 and mu == mu_target and np.array_equal(support, self.support):
                break  # (y, mu) solve the model of their own projection's support: W is the step
            self.set_support(support)
            (target, mu_target), t = self.dual(Z, Y, mu), 1.0
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


def _fista(gram: Gram, G, W0, max_iters, rel_tol, cut=None):
    """Accelerated projected gradient on h(W) = (1/n)<W, K0 W> - <G, W>.
    Returns the last iterate W and its SolverReport.

    Feasible set is the product of per-row simplices, cut by the loss
    constraint when ``cut`` is given (see ``_project_cut``). Each iteration
    costs one (n, n) @ (n, c) product for the new iterate; gradients at the
    momentum point follow by linearity, and the gap from the same product.
    Each multiplier search starts from the last accepted one's mu.

    The step is 1/L, with L = L_1 = POWER_MARGIN 2/n theta_1 from one
    block-Krylov run (``_ritz_pairs``) started at the projected W0 (where
    every row of it is the same, as uniform blocks under a slack cut are, at
    the rows one-hot at argmax_y G_iy: the Frank-Wolfe vertex of such a
    start, whose K0 W0 has equal columns), which also gives the next
    certified Ritz values theta_2 .. theta_{r+1} and the Ritz vectors V of
    the top r; L_k = RITZ_MARGIN 2/n theta_k for k >= 2.
    The run builds KRYLOV_DIM basis vectors, or STEP_KRYLOV_DIM below
    METRIC_MIN_N, where only theta_1 is read. A rank r > 1 is kept only
    when theta_{r+1} sits METRIC_MIN_GAIN below theta_2; on a flatter
    spectrum past theta_2 (many classes in one cluster) the larger system
    costs more than its larger steps save, and r = 1, the Perron metric.
    At n >= METRIC_MIN_N, whenever L_1 > L_{r+1} > 0, the steps run in the
    rank-r metric M = L_{r+1} I + V diag(L_k - L_{r+1}) V^T instead (see
    ``_MetricStep``; directions with L_k = L_{r+1} drop out of V): M bounds
    the Hessian (2/n) K0 when the pairs are exact, and no top direction
    sets the step in the bulk. The cut's multiplier is then mu L_{r+1}
    rather than mu L.

    K0 is ``gram``, float32. At ``rel_tol`` >= FLOAT32_GAP_FLOOR the solve
    runs a float32 phase whose products (the Krylov run too) are float32
    GEMMs (``Gram.product``), then a float64 phase whose products are
    float64-accumulated (``Gram.product64``); below it, only the float64
    phase, Krylov run included. Iterates, gradients and sums stay float64.
    Each phase evaluates its starting iterate with its own products,
    restarts the momentum, and iterates until the gap certifies, a step
    changes h by less than STALL_REL relative, or the solve reaches
    ``max_iters`` iterations in all. The reported objective, gap and
    ``converged`` are the float64 phase's, at the returned W.

    A step that raises h runs a two-rung fallback ladder, each rung followed
    by a plain step from the previous iterate, until one does not raise h:
    1. a momentum restart, only when the momentum was nonzero (otherwise the
       plain step is the step that failed); ``restarts`` counts these;
    2. the metric is dropped for good (a Ritz value underestimated, or a
       step whose support refinement ran out) and the step is 1/L again;
       its iteration is ``metric_iteration``, 0 when the metric stayed on
       and -1 when it never ran.
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
    n = gram.n
    phases = ((gram.product, EPS32), (gram.product64, EPS64))  # (products, their rounding)
    if rel_tol < FLOAT32_GAP_FLOOR:
        phases = phases[1:]
    X, mu = _project_cut(W0, cut)
    # rows all equal span 1 alone, which would fill the basis one vector a product
    start = X if np.ptp(X, axis=0).any() else np.eye(X.shape[1])[np.argmax(G, axis=1)]
    theta, _, V = _ritz_pairs(*phases[0], start, KRYLOV_DIM if n >= METRIC_MIN_N else STEP_KRYLOV_DIM)
    if theta.size > 2 and theta[1] < METRIC_MIN_GAIN * theta[-1]:
        theta, V = theta[:2], V[:, :1]
    lips = (2.0 / n) * theta * np.where(np.arange(theta.size) == 0, POWER_MARGIN, RITZ_MARGIN)
    step = 1.0 / lips[0]
    if n >= METRIC_MIN_N and lips[0] > lips[-1] > 0.0:
        prox, dropped = _MetricStep(1.0 / lips[-1], cut, V, lips[:-1] - lips[-1]), 0
    else:
        prox, dropped = _MetricStep(step, cut), -1
    rank = prox.rank

    def evaluate(W, mu):
        # in the current phase's products
        return _value_and_gap(W, product(W), G, cut, mu / prox.step)

    def plain():
        # the step from X with no momentum, in the current metric
        Z, mu_z = prox(X, gX, mu)
        return (Z, mu_z) + evaluate(Z, mu_z)

    prox.set_support(X > 0.0)
    hist, iters, restarts = [], 0, 0
    for product, eps in phases:
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
                if fz > f and prox.rank:
                    # the metric overshoots: drop it for good, rescaling X's multiplier to the step 1/L
                    mu *= step / prox.step
                    prox, dropped = _MetricStep(step, cut), iters + 1
                    Z, mu_z, fz, gap_z, gZ = plain()
                if fz > f and eps == EPS32:
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
        switch_iteration=start + 1 if len(phases) > 1 and iters > start else 0,
        restarts=restarts,
        ritz_values=tuple(theta.tolist()),
        metric_rank=rank,
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

    One FISTA solve (``_fista``) on the context's float32 K0, of which no
    copy is made, whose every step projects onto the simplices cut by the
    loss constraint; ``options.max_iters`` caps the whole solve. At
    ``options.rel_tol`` >= FLOAT32_GAP_FLOOR it runs a float32 phase of
    float32 GEMMs before its float64 phase; below, only the float64 phase.
    The float64 phase's products, and so the reported gap, objective and
    ``converged``, are float64-accumulated products of K0
    (``Gram.product64``) at the returned weights, and the gap's multiplier
    is the last projection's mu times the Euclidean step constant it ran at
    (L_{r+1} in the metric).
    """
    options = options or SolverOptions()
    n, c = ctx.n, ctx.c
    W0 = np.full((n, c), 1.0 / c) if init is None else as_weight_matrix(init, n, c).copy()
    if constraints is not None and constraints.loss_matrix.shape != (n, c):
        raise ValueError(f"loss_matrix shape {constraints.loss_matrix.shape} != ({n}, {c})")
    W, report = _fista(ctx.gram, (2.0 / ctx.m) * ctx.cross_v, W0, options.max_iters, options.rel_tol, constraints)
    return LabelWeights(W), report
