"""Separable Gaussian kernels on (instance, label) pairs.

The kernel is K((x,y),(x',y')) = exp(-||x-x'||^2 / (2 sigma^2)) * 1{y = y'},
bounded by 1. Ordering pairs as (i, y) -> i*c + (y-1) makes the full
(n*c) x (n*c) Gram matrix block-diagonal after grouping by label, and every
label block equals the single n x n calibration Gram. The context therefore
stores that one block plus the label-collapsed cross statistics against the
training sample; the full matrix is never materialized.

Kernel-ridge fits (bandwidth selection and the bound's ridge path) run
conjugate gradients preconditioned by a greedy pivoted Cholesky factor of
the Gram they solve against: at most n // 16 of its rows, read in place,
give a Nystrom preconditioner for any ridge (Diaz, Epperly, Frangella,
Tropp & Webber, arXiv:2304.12465). Where the factor cannot pay for itself,
plain CG runs. Bandwidth selection stops a candidate's solve as soon as the
CG error bracket on its statistic shows that it cannot win, and builds a
candidate's factor only after one plain step has not settled it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import EmptyInputError, InterpolationError
from .quantile import conformal_quantile_weighted

BASE_BANDWIDTH_SCALES = tuple(10.0 ** (-1.0 + t / 3.0) for t in range(10))
CG_JITTER_SCALE = 1e-10
SELECTION_RIDGE = 3.0
CG_MAX_ITERS = 1500  # iteration cap of the bandwidth-selection and bound fits
PRUNE_MARGIN = 1e-9  # relative margin by which a pruned candidate's lower end beats the best upper end
PRECOND_RANK_DIVISOR = 16  # a CG preconditioner's factor has rank at most n // 16
PRECOND_STOP = 1e-3  # its factor stops once the residual diagonal is <= this times the smallest shift
GRAM_BLOCK_ENTRIES = 2**17  # entries per row block while a Gram is exponentiated
# exponents below this give subnormal kernel values, which are set to 0
_EXP_FLOOR = float(np.log(np.finfo(np.float64).tiny))


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth of the separable Gaussian kernel."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def bandwidth_grid(num_features: int, scales=None) -> list[KernelSpec]:
    """Candidate bandwidths sigma0 * sqrt(d/2) over a decade-spanning grid."""
    if num_features < 1:
        raise ValueError(f"num_features must be >= 1, got {num_features}")
    scales = BASE_BANDWIDTH_SCALES if scales is None else tuple(scales)
    root = math.sqrt(num_features / 2.0)
    return [KernelSpec(sigma=s * root) for s in sorted(scales)]


def _sq_dists(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at 0. Holds the result
    and one product buffer of the same shape, nothing more."""
    n1 = np.sum(X1 * X1, axis=1)
    n2 = np.sum(X2 * X2, axis=1)
    D2 = np.add.outer(n1, n2)
    prod = X1 @ X2.T
    prod *= 2.0
    D2 -= prod
    del prod
    return np.maximum(D2, 0.0, out=D2)


def _gram_from_sq_dists(D2: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(D2 / (-2 sigma^2)) without subnormal entries, into ``out`` (which
    may be D2 itself) or a new array.

    An entry whose exponent lies below log(tiny) would come out subnormal:
    it is set to exactly 0, and exp never sees it, since subnormal results
    take exp's slow path and make every later product with the Gram slow
    too. Every other entry keeps the bits of the plain formula. The work
    runs over row blocks small enough to stay in cache.
    """
    K = np.empty_like(D2) if out is None else out
    scale = -2.0 * sigma**2
    step = max(1, GRAM_BLOCK_ENTRIES // max(1, D2.shape[1]))
    for i in range(0, D2.shape[0], step):
        rows = np.divide(D2[i:i + step], scale, out=K[i:i + step])
        if rows.size and rows.min() < _EXP_FLOOR:
            low = rows < _EXP_FLOOR
            np.maximum(rows, _EXP_FLOOR, out=rows)
            np.exp(rows, out=rows)
            rows[low] = 0.0
        else:
            np.exp(rows, out=rows)
    return K


def gaussian_gram(X1: np.ndarray, X2: np.ndarray, sigma: float) -> np.ndarray:
    """Feature-space Gaussian Gram matrix between two point sets, built in
    place over its squared distances."""
    D2 = _sq_dists(np.asarray(X1, np.float64), np.asarray(X2, np.float64))
    return _gram_from_sq_dists(D2, sigma, out=D2)


@dataclass(frozen=True)
class KernelContext:
    """Everything the weight solver, the gap bound and the RKHS probes need.

    ``base_gram`` is the n x n calibration Gram K0 (each label block of the
    full pair kernel). ``cross_v``[i, y-1] collapses the cross Gram against
    training pairs with label y, so the objective's linear term v is its
    row-major flattening. ``train_self`` is the training sample's own mean
    kernel, the constant completing the squared-MMD objective. The raw
    samples are kept for ``rkhs_probe``, which recomputes kernel values.
    """

    spec: KernelSpec
    base_gram: np.ndarray
    cross_v: np.ndarray
    train_self: float
    n: int
    m: int
    c: int
    cal_instances: np.ndarray
    train_instances: np.ndarray
    train_labels: np.ndarray


def build_context(cal_instances: np.ndarray, train: Dataset, spec: KernelSpec) -> KernelContext:
    """Assemble the kernel context from calibration features and a labeled
    training sample."""
    cal_instances = np.asarray(cal_instances, dtype=np.float64)
    if cal_instances.ndim != 2 or cal_instances.shape[0] == 0:
        raise EmptyInputError("calibration instances must be a non-empty (n, d) matrix")
    if train.labels is None:
        raise ValueError("training dataset must be labeled")
    if len(train) == 0:
        raise EmptyInputError("training dataset is empty")
    if train.num_features != cal_instances.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: calibration {cal_instances.shape[1]}, training {train.num_features}"
        )
    n, m, c = cal_instances.shape[0], len(train), train.num_classes
    # one Gram at a time, each freed before the next is built: the cross Gram
    # collapses to V, the same-label training blocks to train_self, then K0
    onehot = np.zeros((m, c))
    onehot[np.arange(m), train.labels - 1] = 1.0
    V = gaussian_gram(cal_instances, train.instances, spec.sigma) @ onehot
    # the pair kernel vanishes across labels, so the training sample's mean
    # kernel needs only its same-label Gram blocks
    blocks = (train.instances[train.labels == y] for y in np.flatnonzero(np.bincount(train.labels)))
    train_self = sum(float(np.sum(gaussian_gram(T, T, spec.sigma))) for T in blocks) / (m * m)
    K0 = gaussian_gram(cal_instances, cal_instances, spec.sigma)
    return KernelContext(
        spec=spec,
        base_gram=K0,
        cross_v=V,
        train_self=train_self,
        n=n,
        m=m,
        c=c,
        cal_instances=cal_instances,
        train_instances=np.asarray(train.instances, dtype=np.float64),
        train_labels=np.asarray(train.labels, dtype=np.int64),
    )


def as_weight_matrix(w, n: int, c: int) -> np.ndarray:
    """View label weights (LabelWeights, flat pair-major vector or (n, c)
    matrix) as an (n, c) matrix, checking the shape."""
    W = np.asarray(getattr(w, "w", w), dtype=np.float64)
    if W.ndim == 1:
        if W.size != n * c:
            raise ValueError(f"weight vector length {W.size} != n*c = {n * c}")
        W = W.reshape(n, c)
    elif W.shape != (n, c):
        raise ValueError(f"weight matrix shape {W.shape} != ({n}, {c})")
    return W


def mmd_objective(w, ctx: KernelContext) -> float:
    """Root of the clamped squared MMD between the weighted calibration
    embedding and the training sample embedding."""
    W = as_weight_matrix(w, ctx.n, ctx.c)
    quad = float(np.sum(W * (W.T @ ctx.base_gram).T))  # K0 is symmetric; this form is the faster GEMM
    cross = float(np.sum(W * ctx.cross_v))
    sq = quad / ctx.n**2 - 2.0 * cross / (ctx.n * ctx.m) + ctx.train_self
    return math.sqrt(max(sq, 0.0))


@dataclass(frozen=True)
class InterpolationResult:
    """Kernel-ridge fit of targets u: coefficients (shaped like u), largest
    column residual of the jittered solve, iteration count, whether every
    column met the CG tolerance within the cap, and the rank of the
    preconditioner's factor (0 when plain CG ran). An unconverged fit holds
    the last iterate."""

    gamma: np.ndarray
    residual: float
    iterations: int
    converged: bool
    rank: int = 0


def _pivoted_cholesky(K: np.ndarray, mu: float):
    """Greedy pivoted partial Cholesky factor F, of shape (r, n), with
    K ~ F^T F for a symmetric PSD K.

    Each step pivots on the largest diagonal entry of the residual
    K - F^T F (the first such index on ties, so the factor is deterministic)
    and reads that one row of K, which is contiguous. It stops once no
    residual diagonal entry exceeds 1e-3 mu, or at rank n // 16, so the
    factor takes at most n^2 / 2 bytes. Returns the factor (a view of its
    buffer) and the residual trace.
    """
    n = K.shape[0]
    cap = n // PRECOND_RANK_DIVISOR
    F = np.empty((cap, n))
    d = K.diagonal().astype(np.float64)  # the residual diagonal, up to roundoff below 0
    r = 0
    while r < cap:
        p = int(d.argmax())
        if not d[p] > PRECOND_STOP * mu:
            break
        row = np.subtract(K[p], F[:r, p] @ F[:r], out=F[r])
        row /= math.sqrt(d[p])
        d -= row * row
        d[p] = 0.0
        r += 1
    return F[:r], float(np.maximum(d, 0.0).sum())


def _nystrom_preconditioner(K: np.ndarray, shifts: np.ndarray, width: int):
    """Approximate inverse of K + s I for every shift s of ``shifts``, from
    one pivoted Cholesky factor F of K built at the smallest shift.

    It acts on an (n, k width) block whose j-th run of ``width`` columns
    carries shift ``shifts[j]``, and maps each column x of shift s to
    (x - F^T (s I + F F^T)^-1 F x) / s, the exact inverse of F^T F + s I by
    Woodbury (Frangella, Tropp & Udell, arXiv:2110.02820). Only the (r, n)
    factor and k (r, r) inverses are stored. Returns (preconditioner,
    rank), or (None, 0) where the factor cannot pay for itself: a
    rank-capped factor that still leaves over 3/4 of K's trace. A flat
    spectrum leaves 15/16 at rank n / 16, and deflating it saves no CG
    steps; such near-diagonal Grams (small sigma) are the ones plain CG
    already solves in a few steps.
    """
    F, residual_trace = _pivoted_cholesky(K, float(shifts.min()))
    rank = F.shape[0]
    if rank == 0 or (rank == K.shape[0] // PRECOND_RANK_DIVISOR and residual_trace > 0.75 * K.trace()):
        return None, 0
    inverses = np.linalg.inv(F @ F.T + shifts[:, None, None] * np.eye(rank))  # (k, r, r), symmetric
    mu = shifts.repeat(width)[:, None]

    def apply(R):
        T = (R.T @ F.T).reshape(len(shifts), width, rank) @ inverses
        Z = T.reshape(-1, rank) @ F
        np.subtract(R.T, Z, out=Z)
        Z /= mu
        return Z.T

    return apply, rank


def _cg_columns(matvec, B: np.ndarray, tol: float, max_iters: int, precond=None, X0=None, R0=None, stop=None):
    """Preconditioned conjugate gradients on an SPD operator A, every column
    of B at once.

    ``B`` is one (n, c) block of targets or a (k, n, c) stack of k blocks;
    ``matvec`` and ``precond`` act on the (n, k c) matrix of all columns,
    block after block, so each column may carry its own shift. ``precond``
    applies an SPD approximation of A^-1; None runs plain CG, bit for bit
    the unpreconditioned recurrence. ``X0``, shaped like ``B``, starts the
    run from that iterate, whose residual B - A X0 is ``R0`` when given and
    costs one product otherwise; None starts from 0. Each column stops on
    its residual r (b - A x by the recurrence) once ||r|| <= tol ||b||,
    whatever the preconditioner, and then freezes (its alpha and beta are
    forced to 0) so slow columns can keep iterating without disturbing
    finished ones. A non-finite residual stops the iteration; its column
    counts as not converged.

    ``stop(X, R)``, when given, sees the iterate X after every step, with
    its recurrence residual R, both (n, k c). If it returns True while a
    column is still running, it is asked again on the true residual
    B - A X (one product), so recurrence drift cannot stop the run, and the
    run stops if it holds there too.

    Returns the solutions and their recurrence residuals, both (k, n, c),
    and per block the iterations its slowest column ran and whether all its
    columns converged within ``max_iters``. A 2-d ``B`` is one block (k = 1).
    """
    k, n, c = B.shape if B.ndim == 3 else (1, *B.shape)

    def columns(Y):  # (k, n, c) or (n, c) -> (n, k c), a view where the layout allows
        return Y.reshape(k, n, c).transpose(1, 0, 2).reshape(n, k * c)

    B = columns(B)
    if X0 is None:
        X, R = np.zeros_like(B), B.copy()
    else:
        X = columns(X0).copy()
        R = B - matvec(X) if R0 is None else columns(R0).copy()
    Z = R if precond is None else precond(R)
    P = Z.copy()
    rr = (R * R).sum(axis=0)
    rz = rr if precond is None else (R * Z).sum(axis=0)
    thresh = tol * np.maximum(np.sqrt((B * B).sum(axis=0)), 1e-300)
    active = ~(np.sqrt(rr) <= thresh)  # a NaN residual is not converged
    steps = np.zeros(k * c, dtype=np.int64)
    iters = 0
    while bool(active.any()) and iters < max_iters and bool(np.isfinite(rr).all()):
        AP = matvec(P)
        pAp = (P * AP).sum(axis=0)
        safe = np.where(pAp <= 0.0, 1.0, pAp)
        alpha = np.where(active & (pAp > 0.0), rz / safe, 0.0)
        X += alpha * P
        R -= alpha * AP
        Z = R if precond is None else precond(R)
        rr = (R * R).sum(axis=0)
        rz_new = rr if precond is None else (R * Z).sum(axis=0)
        beta = np.where(active, rz_new / np.where(rz == 0.0, 1.0, rz), 0.0)
        P *= beta
        P += Z
        rz = rz_new
        steps += active
        active = ~(np.sqrt(rr) <= thresh)
        iters += 1
        if stop is not None and stop(X, R) and bool(active.any()) and stop(X, B - matvec(X)):
            break
    X = X.reshape(n, k, c).transpose(1, 0, 2)
    R = R.reshape(n, k, c).transpose(1, 0, 2)
    return X, R, steps.reshape(k, c).max(axis=1), ~active.reshape(k, c).any(axis=1)


def ridge_path(K: np.ndarray, u: np.ndarray, ridges, tol: float = 1e-8,
               max_iters: int = CG_MAX_ITERS) -> list[InterpolationResult]:
    """Solve (K + (jitter + ridge) I) gamma = u at every ridge of ``ridges``
    in one preconditioned CG run.

    ``u`` is one target vector or an (n, c) block of them; the block form
    fits every label column against the shared base Gram at once, since the
    pair kernel is block diagonal with identical blocks. The jitter is 1e-10
    times the mean kernel diagonal. A zero ridge asks for plain
    interpolation; a positive one solves the penalized system, whose
    statistic u^T gamma equals min_f ||f||^2 + ||f(Z) - u||^2 / ridge.

    The targets of every ridge are stacked into one (n, k c) block, each
    column with its own shift, and solved at one product with K per
    iteration, preconditioned by one pivoted Cholesky factor of K built at
    the smallest ridge (plain CG where that factor cannot pay for itself).
    Returns one InterpolationResult per ridge, in the given order, with the
    iterations of its slowest column and the factor's rank. A ridge whose
    solve misses the tolerance within the cap (default CG_MAX_ITERS) reads
    ``converged`` False with its own residual; the other ridges are
    unaffected.
    """
    K = np.asarray(K, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    ridges = np.asarray(ridges, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be square, got shape {K.shape}")
    if u.ndim not in (1, 2) or u.shape[0] != K.shape[0]:
        raise ValueError(f"u shape {u.shape} does not match K of size {K.shape[0]}")
    if ridges.ndim != 1 or ridges.size == 0:
        raise ValueError(f"ridges must be a non-empty sequence, got {ridges!r}")
    if not (ridges >= 0).all():
        raise ValueError(f"ridge must be nonnegative, got {ridges}")
    t = K.shape[0]
    if t == 0:
        raise EmptyInputError("empty system")
    shifts = CG_JITTER_SCALE * float(K.trace() / t) + ridges
    U = u if u.ndim == 2 else u[:, None]
    mu = np.repeat(shifts, U.shape[1])
    precond, rank = _nystrom_preconditioner(K, shifts, U.shape[1])
    stack = U[None].repeat(ridges.size, axis=0)
    # K is symmetric: the product is taken as (P^T K)^T, which BLAS runs about
    # twice as fast as K P on thin P
    X, R, iters, converged = _cg_columns(lambda P: (P.T @ K).T + mu * P, stack, tol, max_iters, precond)
    res = np.sqrt((R * R).sum(axis=1))
    return [
        InterpolationResult(
            gamma=X[j] if u.ndim == 2 else X[j, :, 0],
            residual=float(res[j].max()),
            iterations=int(iters[j]),
            converged=bool(converged[j]),
            rank=rank,
        )
        for j in range(ridges.size)
    ]


def select_kernel(candidates, cal_instances, score_matrix, naive_weights, alpha: float,
                  ridge: float = SELECTION_RIDGE):
    """Pick the bandwidth whose kernel fits the naive coverage indicator
    with the smallest penalized squared RKHS norm.

    The indicator u marks pairs at or below the naive weighted threshold.
    Each candidate is scored by u^T gamma with (K + ridge I) gamma = u, the
    value of min_f ||f||^2 + ||f(Z) - u||^2 / ridge. The ridge matters: u
    carries score randomization, so exact interpolants of it have norms that
    grow without bound as the kernel smooths, and the raw interpolation
    statistic would always hand the argmin to the spikiest candidate. The
    penalized statistic trades fit against norm instead, so rough kernels pay
    for their large norms and overly smooth ones pay for their residuals.
    The ridge must be positive and finite: at 0 the smooth candidates'
    solves run to the CG cap.

    Candidates are visited from the largest sigma down, each Gram built into
    one shared buffer. Every CG iterate x, with residual r = u - A x and
    A = K + s I (s the jittered ridge), brackets the statistic:
    u^T A^-1 u = u^T x + r^T x + r^T A^-1 r, with 0 <= r^T A^-1 r <=
    ||r||^2 / s (Strakos & Tichy, ETNA 13, 2002). A candidate is pruned,
    its statistic NaN, once its lower end exceeds (1 + PRUNE_MARGIN) times
    the smallest upper end of the candidates solved so far, a decision CG
    confirms on the true residual; a pruned candidate cannot be the argmin.
    Each candidate takes one plain CG step first. Only then does it build
    the pivoted Cholesky factor of its Gram (see ``ridge_path``) to
    continue, preconditioned, from that iterate, so one pruned or solved in
    its plain step builds none. The diagnostics record per candidate the
    factor's rank (0 where none was used), CG steps, residual, whether it was
    ``pruned``, and the ``lower`` and ``upper`` ends of its bracket at its
    last iterate. Candidates whose solve fails to converge are skipped;
    equal statistics break toward the smaller sigma. Returns (KernelSpec,
    diagnostics dict).
    """
    candidates = sorted(candidates, key=lambda s: s.sigma)
    if not candidates:
        raise EmptyInputError("no kernel candidates")
    if not 0 < ridge < math.inf:
        raise ValueError(f"ridge must be positive and finite, got {ridge}")
    cal_instances = np.asarray(cal_instances, dtype=np.float64)
    W = as_weight_matrix(naive_weights, score_matrix.n, score_matrix.c)
    q0 = conformal_quantile_weighted(score_matrix.values, W, alpha)
    U = (score_matrix.values <= q0).astype(np.float64)
    D2 = _sq_dists(cal_instances, cal_instances)
    K0 = np.empty_like(D2)  # every candidate's Gram is built into this one buffer
    count = len(candidates)
    stats, residuals, lower, upper = (np.full(count, np.nan) for _ in range(4))
    iteration_counts = np.zeros(count, dtype=np.int64)
    ranks = np.zeros(count, dtype=np.int64)
    pruned = np.zeros(count, dtype=bool)
    best_upper = math.inf  # smallest upper end among the candidates solved so far
    for j in reversed(range(count)):
        _gram_from_sq_dists(D2, candidates[j].sigma, out=K0)
        shift = CG_JITTER_SCALE * float(K0.trace() / K0.shape[0]) + ridge
        limit = (1.0 + PRUNE_MARGIN) * best_upper

        def matvec(P):
            return (P.T @ K0).T + shift * P

        def beaten(X, R):
            lower[j] = float(np.vdot(U + R, X))
            upper[j] = lower[j] + float(np.vdot(R, R)) / shift
            return lower[j] > limit

        X, R, steps, done = _cg_columns(matvec, U, 1e-8, min(1, CG_MAX_ITERS), stop=beaten)
        if not (done[0] or lower[j] > limit) and steps[0] < CG_MAX_ITERS:
            precond, ranks[j] = _nystrom_preconditioner(K0, np.array([shift]), U.shape[1])
            X, R, more, done = _cg_columns(matvec, U, 1e-8, CG_MAX_ITERS - steps[0], precond, X, R, beaten)
            steps += more
            del precond  # the factor is freed before the next candidate's is built
        iteration_counts[j] = steps[0]
        residuals[j] = math.sqrt((R * R).sum(axis=1).max())
        if done[0]:
            stats[j] = max(float(np.sum(U * X[0])), 0.0)
            best_upper = min(best_upper, upper[j])
        else:
            pruned[j] = lower[j] > limit
    if np.isnan(stats).all():
        raise InterpolationError("all kernel candidates failed to interpolate", residual=float(np.nanmin(residuals)))
    best = int(np.nanargmin(stats))
    diagnostics = {
        "q_hat0": q0,
        "ridge": ridge,
        "sigmas": np.array([s.sigma for s in candidates]),
        "statistics": stats,
        "residuals": residuals,
        "iterations": iteration_counts,
        "ranks": ranks,
        "pruned": pruned,
        "lower": lower,
        "upper": upper,
        "selected_index": best,
    }
    return candidates[best], diagnostics


def rkhs_probe(w, ctx: KernelContext, coeff_cal: np.ndarray, coeff_train: np.ndarray) -> float:
    """Evaluate one normalized RKHS probe against the embedding difference.

    The probe is f = sum of kernel sections at the calibration pairs (one
    coefficient per (instance, label)) and at the training pairs. Its value
    is |weighted calibration mean of f - training mean of f| / ||f||, zero
    when f vanishes. Kernel values are recomputed from raw instances, so the
    route shares nothing with ``mmd_objective`` beyond the kernel itself.
    """
    W = as_weight_matrix(w, ctx.n, ctx.c)
    Gcal = np.asarray(coeff_cal, dtype=np.float64)
    gtr = np.asarray(coeff_train, dtype=np.float64)
    if Gcal.shape != (ctx.n, ctx.c) or gtr.shape != (ctx.m,):
        raise ValueError("probe coefficient shapes must be (n, c) and (m,)")
    sigma = ctx.spec.sigma
    Kcc = gaussian_gram(ctx.cal_instances, ctx.cal_instances, sigma)
    Kct = gaussian_gram(ctx.cal_instances, ctx.train_instances, sigma)
    Ktt = gaussian_gram(ctx.train_instances, ctx.train_instances, sigma)
    onehot = np.zeros((ctx.m, ctx.c))
    onehot[np.arange(ctx.m), ctx.train_labels - 1] = 1.0
    scaled = gtr[:, None] * onehot
    F_cal = Kcc @ Gcal + Kct @ scaled
    rows = np.arange(ctx.m)
    F_tr = (Kct.T @ Gcal)[rows, ctx.train_labels - 1] + (Ktt @ scaled)[rows, ctx.train_labels - 1]
    norm_sq = float(np.sum(Gcal * F_cal) + gtr @ F_tr)
    if norm_sq <= 0.0:
        return 0.0
    numer = float(np.sum(W * F_cal) / ctx.n - np.sum(F_tr) / ctx.m)
    return abs(numer) / math.sqrt(norm_sq)


def witness_probe(w, ctx: KernelContext) -> float:
    """Probe at the exact dual witness (the normalized embedding difference);
    equals the MMD objective up to roundoff."""
    W = as_weight_matrix(w, ctx.n, ctx.c)
    return rkhs_probe(w, ctx, W / ctx.n, np.full(ctx.m, -1.0 / ctx.m))


def dual_witness_check(w, ctx: KernelContext, probe_count: int = 16, seed: int = 0) -> dict:
    """Random unit-norm RKHS probes; each lower-bounds the MMD objective.

    Returns the objective, the best random probe value, and all probe
    values. Cauchy-Schwarz makes objective >= every probe, with equality
    approached only by probes aligned with the witness.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    rng = np.random.default_rng(seed)
    probes = np.empty(probe_count)
    for k in range(probe_count):
        probes[k] = rkhs_probe(w, ctx, rng.standard_normal((ctx.n, ctx.c)), rng.standard_normal(ctx.m))
    return {
        "objective": mmd_objective(w, ctx),
        "best_probe": float(probes.max()),
        "probes": probes,
    }
