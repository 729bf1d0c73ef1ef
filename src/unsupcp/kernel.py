"""Separable Gaussian kernels on (instance, label) pairs.

The kernel is K((x,y),(x',y')) = exp(-||x-x'||^2 / (2 sigma^2)) * 1{y = y'},
bounded by 1. Ordering pairs as (i, y) -> i*c + (y-1) makes the full
(n*c) x (n*c) Gram matrix block-diagonal after grouping by label, and every
label block equals the single n x n calibration Gram. The context therefore
stores that one block plus the label-collapsed cross statistics against the
training sample; the full matrix is never materialized.
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
    quad = float(np.sum(W * (ctx.base_gram @ W)))
    cross = float(np.sum(W * ctx.cross_v))
    sq = quad / ctx.n**2 - 2.0 * cross / (ctx.n * ctx.m) + ctx.train_self
    return math.sqrt(max(sq, 0.0))


@dataclass(frozen=True)
class InterpolationResult:
    """Min-norm kernel interpolation of targets u: coefficients (shaped like
    u), squared RKHS norm u^T gamma, largest column residual of the jittered
    solve, iteration count."""

    gamma: np.ndarray
    min_norm_sq: float
    residual: float
    iterations: int


def _cg_columns(matvec, B: np.ndarray, tol: float, max_iters: int, shifts=(0.0,)):
    """Conjugate gradients on an SPD operator A, all columns of B at once,
    for (A + s I) X = B at every s of ``shifts`` in one Krylov space.

    ``shifts[0]`` is 0: that seed system, A itself, is plain CG at one
    ``matvec`` per step. Its converged columns freeze (their alpha and beta
    are forced to 0) so slow columns can keep iterating without disturbing
    finished ones. Every further shift, nonnegative, rides on the seed's
    residuals (multi-shift CG, Jegerlehner 1996, hep-lat/9612014): its
    residual is zeta_s r, so it costs vector updates but no product, and,
    better conditioned, it meets its test |zeta_s| ||r|| <= tol ||b|| no
    later than the seed. A rider keeps refining while its column's seed
    iterates; its iteration count and residual are those at which it first
    met the test. A non-finite residual stops the iteration; its column
    counts as not converged.

    Returns the solutions (a leading shift axis), the residual norms
    (shift, column), the iterations per shift and whether each shift
    converged within ``max_iters``.
    """
    extra = np.asarray(shifts, dtype=np.float64)[1:, None]  # (rider, 1) against per-column scalars
    X = np.zeros_like(B)
    R = B.copy()
    P = R.copy()
    rs = np.sum(R * R, axis=0)
    thresh = tol * np.maximum(np.sqrt(np.sum(B * B, axis=0)), 1e-300)
    root = np.sqrt(rs)
    active = ~(root <= thresh)  # a NaN residual is not converged
    if len(extra):
        X_s = np.zeros(extra.shape[:1] + B.shape)
        P_s = np.repeat(P[None], len(extra), axis=0)
        zeta = np.ones((len(extra), B.shape[1]))
        ratio = np.ones_like(zeta)  # zeta_k / zeta_(k-1)
        alpha_old, beta_old = np.ones_like(rs), np.zeros_like(rs)
        res_s = [zeta * root]
    iters = 0
    while bool(active.any()) and iters < max_iters and bool(np.isfinite(rs).all()):
        AP = matvec(P)
        pAp = np.sum(P * AP, axis=0)
        safe = np.where(pAp <= 0.0, 1.0, pAp)
        alpha = np.where(active & (pAp > 0.0), rs / safe, 0.0)
        X += alpha * P
        if len(extra):
            ratio = 1.0 / (1.0 + extra * alpha + (alpha * beta_old / alpha_old) * (1.0 - ratio))
            zeta = zeta * ratio
            X_s += (alpha * ratio)[:, None, :] * P_s
        R -= alpha * AP
        rs_new = np.sum(R * R, axis=0)
        beta = np.where(active, rs_new / np.where(rs == 0.0, 1.0, rs), 0.0)
        P = R + beta * P
        rs = rs_new
        root = np.sqrt(rs)
        active = ~(root <= thresh)
        iters += 1
        if len(extra):
            P_s = zeta[:, None, :] * R + (beta * ratio * ratio)[:, None, :] * P_s
            alpha_old, beta_old = np.maximum(alpha, 1e-300), beta  # a frozen column's alpha is 0
            res_s.append(zeta * root)
    X = X[None]
    res = root[None]
    counts = np.array([iters])
    converged = np.array([not active.any()])
    if len(extra):
        hist = np.array(res_s)  # (step, rider, column)
        met = hist <= thresh
        first = met.argmax(axis=0)
        ok = met.any(axis=0)
        at_first = np.take_along_axis(hist, first[None], axis=0)[0]
        X = np.concatenate([X, X_s])
        res = np.concatenate([res, np.where(ok, at_first, hist[-1])])
        counts = np.concatenate([counts, np.where(ok.all(axis=1), first.max(axis=1), iters)])
        converged = np.concatenate([converged, ok.all(axis=1)])
    return X, res, counts, converged


def ridge_path(K: np.ndarray, u: np.ndarray, ridges, tol: float = 1e-8, max_iters: int | None = None) -> list:
    """``min_norm_interpolation`` at every ridge of ``ridges`` from one
    multi-shift CG run, at one product with K per iteration.

    The smallest ridge is the seed system; the larger ones share its Krylov
    space and converge no later. Returns one entry per ridge, in the given
    order: an InterpolationResult, or for a ridge whose solve did not
    converge within the cap, the InterpolationError (carrying its residual)
    that ``min_norm_interpolation`` would raise. The other ridges are
    unaffected by a failure.
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
    order = np.argsort(ridges, kind="stable")
    base = float(ridges[order[0]])
    shift = CG_JITTER_SCALE * float(np.mean(np.diag(K))) + base
    if max_iters is None:
        max_iters = 10 * t + 100
    U = u if u.ndim == 2 else u[:, None]
    X, res, iters, converged = _cg_columns(lambda P: K @ P + shift * P, U, tol, max_iters, ridges[order] - base)
    fits = [None] * ridges.size
    for j, k in enumerate(order):
        residual = float(res[j].max())
        if not converged[j]:
            fits[k] = InterpolationError(f"CG did not converge in {int(iters[j])} iterations", residual=residual)
            continue
        fits[k] = InterpolationResult(
            gamma=X[j] if u.ndim == 2 else X[j, :, 0],
            min_norm_sq=max(float(np.sum(U * X[j])), 0.0),
            residual=residual,
            iterations=int(iters[j]),
        )
    return fits


def min_norm_interpolation(K: np.ndarray, u: np.ndarray, tol: float = 1e-8, max_iters: int | None = None,
                           ridge: float = 0.0) -> InterpolationResult:
    """Solve (K + (jitter + ridge) I) gamma = u by conjugate gradients.

    ``u`` is one target vector or an (n, c) block of them; the block form
    fits every label column against the shared base Gram at once, since the
    pair kernel is block diagonal with identical blocks. The jitter is 1e-10
    times the mean kernel diagonal. ``ridge`` zero asks for plain
    interpolation; a positive value solves the penalized system, whose
    statistic u^T gamma equals min_f ||f||^2 + ||f(Z) - u||^2 / ridge.

    Non-convergence at the iteration cap (default 10 n + 100) raises
    InterpolationError carrying the largest column residual. The reported
    min_norm_sq = u^T gamma (summed over columns) is clamped at 0; it is
    nonnegative in exact arithmetic for PSD K.
    """
    (fit,) = ridge_path(K, u, (ridge,), tol, max_iters)
    if isinstance(fit, InterpolationError):
        raise fit
    return fit


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

    Candidates whose solve fails to converge are skipped; equal statistics
    break toward the smaller sigma. Returns (KernelSpec, diagnostics dict).
    """
    candidates = sorted(candidates, key=lambda s: s.sigma)
    if not candidates:
        raise EmptyInputError("no kernel candidates")
    if not ridge >= 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    cal_instances = np.asarray(cal_instances, dtype=np.float64)
    W = as_weight_matrix(naive_weights, score_matrix.n, score_matrix.c)
    q0 = conformal_quantile_weighted(score_matrix.values, W, alpha)
    U = (score_matrix.values <= q0).astype(np.float64)
    D2 = _sq_dists(cal_instances, cal_instances)
    K0 = np.empty_like(D2)  # every candidate's Gram is built into this one buffer
    stats = np.full(len(candidates), np.nan)
    residuals = np.full(len(candidates), np.nan)
    iteration_counts = np.zeros(len(candidates), dtype=np.int64)
    for j, spec in enumerate(candidates):
        _gram_from_sq_dists(D2, spec.sigma, out=K0)
        try:
            fit = min_norm_interpolation(K0, U, tol=1e-8, max_iters=CG_MAX_ITERS, ridge=ridge)
        except InterpolationError as exc:
            iteration_counts[j] = CG_MAX_ITERS
            residuals[j] = exc.residual
            continue
        iteration_counts[j] = fit.iterations
        residuals[j] = fit.residual
        stats[j] = fit.min_norm_sq
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
