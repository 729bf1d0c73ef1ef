"""Separable Gaussian kernels on (instance, label) pairs.

The kernel is K((x,y),(x',y')) = exp(-||x-x'||^2 / (2 sigma^2)) * 1{y = y'},
bounded by 1. Every per-pair array (scores, label weights, indicators, cross
statistics) is an (n, c) matrix with pair (i, y) at [i, y-1]. Grouped by
label, the full (n c) x (n c) pair Gram is block-diagonal, and every label
block equals the single n x n calibration Gram. The context, which
the weight QP's MMD objective and the coverage-gap bound read, therefore
stores that one block plus the label-collapsed cross statistics against the
training sample; the full matrix is never materialized, and the raw samples
are not kept. A bandwidth sigma is a plain float; ``bandwidth_grid`` alone
checks a grid of them.

Squared distances and Gaussian Grams are built one row block of
GRAM_BLOCK_ENTRIES entries at a time, while the block is in cache: a GEMM
into the block, then the distances, and for a Gram the bandwidth scale and
exp, in the Gram's dtype. No temporary of the result's size is made, and
entries that would be subnormal in that dtype are exactly 0.

A calibration's one lasting n x n array is float32. Its squared distances
are built once, each row block in float64 and rounded once into it;
bandwidth selection exponentiates them in float32 into one more float32
buffer, candidate after candidate, and the context build overwrites them in
place with K0, each row block exponentiated in float64 and rounded once.
The QP, the MMD objective and the bound all read that K0 through one
``Gram``. Entrywise, |K - K~| <= GRAM32_REL_ERR K~ + GRAM32_ABS_ERR between
the Gram K of the float64 distances and that float32 Gram K~. Products that
must be exact in K~ (the residuals behind selection's decisions, the QP's
float64 phase, the MMD objective and the bound's fits) are
float64-accumulated (``Gram.product64``), so no float64 copy of K~ is made;
the others are float32 GEMMs (``Gram.product``). The context's cross
statistics against the training sample stay float64 and are reduced one row
block of their Gram at a time, so no n x m or m x m array is made. The MMD
objective's quadratic term therefore carries K~'s rounding while its cross
terms do not: where the three cancel, near an MMD of 0, it is exact only to
about the square root of that rounding (see ``mmd_objective``).

Kernel-ridge fits (bandwidth selection and the bound's ridge path) run one
block conjugate-gradient recurrence on (n, c) targets, preconditioned by a
greedy pivoted Cholesky factor of the Gram they solve against: at most
n // 16 of its rows, read in place, give a Nystrom preconditioner for any
ridge (Diaz, Epperly, Frangella, Tropp & Webber, arXiv:2304.12465). Where
the factor cannot pay for itself, plain CG runs. ``ridge_path`` returns the
(n, k c) block it solved for k ridges, with per-ridge diagnostics.
Bandwidth selection solves the likely winner first, the candidate nearest
sigma = sqrt(d/2), then stops every other candidate's solve as soon as the
CG error bracket on its statistic shows that it cannot win, and builds a
candidate's factor only after one plain step has not settled it. On a
float32 Gram, CG products are float32 GEMMs and the factor is float32;
selection takes the residuals behind its decisions with ``Gram.product64``,
so what pruning certifies is the float32 Gram's statistic, which differs
from the float64 Gram's by float32 rounding and exp error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import EmptyInputError, InterpolationError

BASE_BANDWIDTH_SCALES = tuple(10.0 ** (-1.0 + t / 3.0) for t in range(10))
CG_JITTER_SCALE = 1e-10
SELECTION_RIDGE = 3.0
CG_MAX_ITERS = 1500  # iteration cap of the bandwidth-selection and bound fits
PRUNE_MARGIN = 1e-9  # relative margin by which a pruned candidate's lower end beats the best upper end
PRECOND_RANK_DIVISOR = 16  # a CG preconditioner's factor has rank at most n // 16
PRECOND_STOP = 1e-3  # its factor stops once the residual diagonal is <= this times the smallest shift
GRAM_BLOCK_ENTRIES = 2**17  # entries per row block while squared distances or a Gram are built
SELECTION_CG_TOL = 1e-6  # relative CG residual of bandwidth selection, which float32 products can certify
# exponents below these would give subnormal kernel values in float64 or float32, so their entries are set to 0.
# The float32 floor is 1e-4 above log(float32 tiny), rounded to float32: the smallest kept entry is then about
# 800 float32 ulps above tiny, far beyond the few ulps by which numpy's float32 exp can miss
_EXP_FLOOR = float(np.log(np.finfo(np.float64).tiny))
_EXP_FLOOR32 = float(np.float32(math.log(float(np.finfo(np.float32).tiny)) + 1e-4))
_TINY32, _MAX32 = float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)
_SQRT_TINY32 = math.sqrt(_TINY32)
# Entrywise |K - K~| <= GRAM32_REL_ERR K~ + GRAM32_ABS_ERR between the exact Gram K of the float64 squared
# distances D (below float32's max) and the calibration's float32 Gram K~ (``_context_gram``). With u = 2^-24:
# rounding D to float32 moves a kept exponent x by at most u |x| < 88u (|x| < 88 above the float32 floor), or by
# at most u absolute where D is below float32 tiny (2 sigma^2 >= tiny); the float64 quotient and exp add under
# 2^-51 relative, and rounding the result to float32 u: 89u. 2u more covers the second-order terms, bounding by
# K~ rather than K, and the rounding of a float64-accumulated product (n 2^-53 <= u for n <= 2^29). An entry
# zeroed at the floor has K < exp(_EXP_FLOOR32 + 88u) < 2 float32 tiny.
GRAM32_REL_ERR = 91 * 2.0**-24
GRAM32_ABS_ERR = 2.0 * _TINY32


def _exp_scale(sigma: float) -> float:
    """-2 sigma^2, the divisor of every exponent, for a positive sigma with
    2 sigma^2 in float32's normal range (ValueError otherwise): the
    calibration's Gram divides float32 distances by it rounded to float32,
    which must then be normal and within u relative of it, as GRAM32_REL_ERR
    assumes. Out of that range it would round to -0 (a NaN diagonal),
    a subnormal or -inf."""
    if not (sigma > 0 and _TINY32 <= 2.0 * sigma * sigma <= _MAX32):
        raise ValueError(f"sigma must be positive with 2 sigma^2 in [{_TINY32:.3g}, {_MAX32:.3g}], got {sigma}")
    return -2.0 * sigma**2


def bandwidth_grid(num_features: int, scales=None) -> list[float]:
    """Candidate bandwidths s * sqrt(d/2), ascending, over the scales s
    (default BASE_BANDWIDTH_SCALES, a decade-spanning grid). The scales
    must be non-empty, distinct, finite and positive, and every sigma must
    pass ``_exp_scale``; this is the one place a grid is checked."""
    if num_features < 1:
        raise ValueError(f"num_features must be >= 1, got {num_features}")
    scales = BASE_BANDWIDTH_SCALES if scales is None else tuple(scales)
    if not (scales and all(math.isfinite(v) and v > 0 for v in scales) and len(set(scales)) == len(scales)):
        raise ValueError(f"bandwidth_scales must be non-empty, distinct, finite and positive, got {scales}")
    root = math.sqrt(num_features / 2.0)
    sigmas = [s * root for s in sorted(scales)]
    for sigma in sigmas:
        _exp_scale(sigma)
    return sigmas


def _row_blocks(shape):
    """Row slices of a (rows, cols) array of about GRAM_BLOCK_ENTRIES
    entries each, so one block stays in cache. No block is a single row
    unless the array is one: numpy takes a one-row product through GEMV,
    whose bits can differ from GEMM's by an ulp."""
    rows, step = shape[0], max(2, GRAM_BLOCK_ENTRIES // max(1, shape[1]))
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()  # the last row joins the block before it
    return [slice(i, j) for i, j in zip(starts, starts[1:] + [rows])]


def _float64_row_blocks(A: np.ndarray):
    """Yield (rows, block) for each row block of the float32 A, of a quarter
    of GRAM_BLOCK_ENTRIES, with ``block`` that block upcast into one float64
    scratch array shared by every block, so no float64 copy of A is made."""
    blocks = _row_blocks((A.shape[0], 4 * A.shape[1]))
    scratch = np.empty((max((b.stop - b.start for b in blocks), default=0), A.shape[1]))
    for rows in blocks:
        block = scratch[:rows.stop - rows.start]
        block[...] = A[rows]
        yield rows, block


def _sq_dist_blocks(X1: np.ndarray, X2: np.ndarray):
    """Yield (rows, block) over row blocks of the squared distances between
    the rows of X1 and X2, each built in one buffer that every block
    reuses, so a block must be read before the next is asked for. That
    buffer and the one block of norm sums hold GRAM_BLOCK_ENTRIES together.

    Each entry is (|x1|^2 + |x2|^2) - 2 <x1, x2>, clipped at 0, in that
    order, so it keeps the bits of the single-GEMM formula wherever BLAS
    computes a row block of the product as it computes the full product.
    """
    n1 = np.sum(X1 * X1, axis=1)
    n2 = np.sum(X2 * X2, axis=1)
    blocks = _row_blocks((X1.shape[0], 2 * X2.shape[0]))
    norms = np.empty((max((b.stop - b.start for b in blocks), default=0), X2.shape[0]))
    buffer = np.empty_like(norms)
    for rows in blocks:
        D = buffer[:rows.stop - rows.start]
        np.matmul(X1[rows], X2.T, out=D)
        D *= 2.0
        np.subtract(np.add(n1[rows, None], n2, out=norms[:D.shape[0]]), D, out=D)
        np.maximum(D, 0.0, out=D)
        yield rows, D


def pairwise_sq_dists(X1, X2) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of X1 and X2,
    clipped at 0, as a float32 array: each row block is computed in float64
    (see ``_sq_dist_blocks``) and rounded once into it. No float64 array of
    the result's size is made."""
    X1, X2 = np.asarray(X1, np.float64), np.asarray(X2, np.float64)
    D2 = np.empty((X1.shape[0], X2.shape[0]), np.float32)
    for rows, block in _sq_dist_blocks(X1, X2):
        D2[rows] = block
    return D2


def _exp_block(D: np.ndarray, scale: float, out: np.ndarray, floor: float | None = None) -> None:
    """exp(D / scale) into ``out`` (which may be D itself), in ``out``'s
    dtype, with every entry whose exponent lies below ``floor`` set to
    exactly 0; the floor defaults to that of ``out``'s dtype (``_EXP_FLOOR``
    or ``_EXP_FLOOR32``). The quotient is taken in D's dtype (for a float32
    D, with ``scale`` rounded to float32) and rounded once into ``out``.

    Such an entry would come out subnormal, and subnormal values make exp
    and every later product with the Gram slow. On a block that holds one,
    its exponent is clamped at the floor before exp (exp of the floor is
    normal, so exp never makes a subnormal) and its result is zeroed by a
    0/1 mask after; every other entry keeps the bits of the plain formula.
    A quotient beyond the dtype's range is -inf, which the clamp takes too.
    A block without one takes plain exp, which is about twice as fast as
    the masked pass.
    """
    if floor is None:
        floor = _EXP_FLOOR if out.dtype == np.float64 else _EXP_FLOOR32
    with np.errstate(over="ignore"):  # an overflowing quotient is -inf, below the floor
        np.divide(D, scale, out=out)
    if out.size and out.min() < floor:
        keep = out >= floor
        np.maximum(out, floor, out=out)
        np.exp(out, out=out)
        np.multiply(out, keep, out=out)
    else:
        np.exp(out, out=out)


def _gram_from_sq_dists(D2: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    """exp(D2 / (-2 sigma^2)) without subnormal entries, into ``out`` (which
    may be D2 itself), one row block at a time, in ``out``'s dtype; sigma
    is checked by ``_exp_scale``. Returns ``out``.

    This is the exp half of ``gaussian_gram``, for squared distances that
    are already built. Each block takes plain exp, or the masked pass of
    ``_exp_block`` when it holds an entry below the floor. On the float32
    distances of ``pairwise_sq_dists`` it builds selection's float32 Grams,
    in float32 throughout, with every entry 0 or normal.
    """
    scale = _exp_scale(sigma)
    for rows in _row_blocks(D2.shape):
        _exp_block(D2[rows], scale, out[rows])
    return out


def _context_gram(D2: np.ndarray, sigma: float) -> np.ndarray:
    """The calibration's float32 Gram K0, over its float32 squared
    distances D2 in place. Each row block, of a quarter of
    GRAM_BLOCK_ENTRIES, is upcast into one float64 scratch block,
    exponentiated there in float64 (with float32's floor, so no entry comes
    out subnormal in float32) and rounded once back into D2: of the float32
    pipeline's roundings only those of the distance and of the result
    remain, and no float32 exp is taken."""
    scale = _exp_scale(sigma)
    for rows, block in _float64_row_blocks(D2):
        _exp_block(block, scale, block, _EXP_FLOOR32)
        D2[rows] = block
    return D2


def _gram_row_blocks(X1: np.ndarray, X2: np.ndarray, sigma: float):
    """Yield (rows, block) over row blocks of the Gaussian Gram between X1
    and X2, each with the bits of ``gaussian_gram(X1[rows], X2, sigma)`` and
    built in one buffer that every block reuses, so the full Gram is never
    made."""
    scale = _exp_scale(sigma)
    for rows, block in _sq_dist_blocks(X1, X2):
        _exp_block(block, scale, block)
        yield rows, block


def gaussian_gram(X1: np.ndarray, X2: np.ndarray, sigma: float) -> np.ndarray:
    """Feature-space Gaussian Gram matrix between two point sets, in
    float64, built in one pass per row block (``_gram_row_blocks``):
    product, squared distances, then exp. sigma is checked by
    ``_exp_scale``. No temporary of the result's size is made."""
    X1, X2 = np.asarray(X1, np.float64), np.asarray(X2, np.float64)
    K = np.empty((X1.shape[0], X2.shape[0]))
    for rows, block in _gram_row_blocks(X1, X2, sigma):
        K[rows] = block
    return K


@dataclass(frozen=True)
class Gram:
    """A symmetric n x n Gram K and the products its readers take with it.

    ``values`` holds K: a float32 array as it is, with no copy, and any
    other read as float64. It must be square. Each product is (K + shift I)
    P for a vector or matrix P, with ``shift`` a scalar or one value per
    column of P; a scalar 0 adds nothing.
    """

    values: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.values)
        K = K if K.dtype == np.float32 else K.astype(np.float64, copy=False)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError(f"K must be square, got shape {K.shape}")
        object.__setattr__(self, "values", K)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def product(self, P: np.ndarray, shift=0.0) -> np.ndarray:
        """The product as a GEMM in K's dtype: float32 for a float32 K, on
        the float64 P rounded to it. It is taken as (P^T K)^T, so for a K
        that is not exactly symmetric it is (K^T + shift I) P. The result is
        a C-ordered float64 array."""
        K = self.values
        KP = (P.T.astype(K.dtype, copy=False) @ K).T.astype(np.float64, order="C")
        if isinstance(shift, np.ndarray) or shift:
            KP += shift * P
        return KP

    def product64(self, P: np.ndarray, shift=0.0) -> np.ndarray:
        """The product in float64 arithmetic, exact in a float32 K, whose
        entries float64 holds exactly: one row block of K, of a quarter of
        GRAM_BLOCK_ENTRIES, is upcast at a time into one scratch block, so
        no float64 copy of K is made."""
        out = np.empty((self.n,) + P.shape[1:])
        for rows, block in _float64_row_blocks(self.values):
            np.matmul(block, P, out=out[rows])
            if isinstance(shift, np.ndarray) or shift:
                out[rows] += shift * P[rows]
        return out

    def shift(self, ridge):
        """``ridge`` (a scalar or an array) plus the CG jitter, CG_JITTER_SCALE
        times the mean diagonal of K."""
        return CG_JITTER_SCALE * float(self.values.trace(dtype=np.float64) / self.n) + ridge

    def _upper_abs_products(self, A: np.ndarray):
        """Upper bounds of K^T A and K^T 1, entrywise, for a float32 K with
        entries in [0, 1] and a nonnegative float64 (n, k) A, from one
        float32 GEMM (``product``) of K with [A, 1].

        With u = 2^-24 and tiny float32's smallest normal (which covers
        underflow and flush to zero): rounding A to float32 gives A' with
        A <= A' / (1 - u) + tiny, so K^T A <= K^T A' / (1 - u) + n tiny. The
        GEMM's n-term sums y of nonnegative products, in any order, give
        K^T A' <= (y + 3 n tiny) / (1 - gamma_n), gamma_j = j u / (1 - j u)
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        Sec. 3.5), the 3 n tiny covering underflow in its n products. As
        (1 - gamma_n)(1 - u) >= 1 - gamma_{n+1}, each exact entry is at most
        (y + 4 n tiny) / (1 - gamma_{n+1}). An overflowing A or y gives inf."""
        n = self.n
        gamma = (n + 1) * 2.0**-24 / (1.0 - (n + 1) * 2.0**-24)
        Y = self.product(np.hstack([A, np.ones((n, 1))]))
        Y += 4.0 * n * _TINY32
        Y /= 1.0 - gamma
        return Y[:, :-1], Y[:, -1]

    def fit_terms(self, G: np.ndarray, U: np.ndarray):
        """Per column g of the (n, k) G and u of U: the squared RKHS norm
        g^T K g and the summed error sum_i |u - K g|_i of the fit g to u,
        each widened so that it holds for the exact Gram K of which this
        float32 K~ is the rounding. Returns both as length-k arrays.

        With |K - K~| <= eps K~ + tau entrywise (GRAM32_REL_ERR and
        GRAM32_ABS_ERR), |(K - K~) g| <= eps K~|g| + tau ||g||_1 and
        |g^T (K - K~) g| <= eps |g|^T K~ |g| + tau ||g||_1^2 for any g. The
        values in K~ come from one float64-accumulated product
        (``product64``); the widening terms take |g|^T K~ |g| = |g| . K~^T|g|
        and sum(K~ |g|) = |g| . K~^T 1 from upper bounds
        (``_upper_abs_products``), which need K~^T only, so they hold whether
        or not K~ is exactly symmetric."""
        A = np.abs(G)
        F = self.product64(G)
        S, colsum = self._upper_abs_products(A)
        l1 = A.sum(axis=0)  # ||g||_1 of each column
        norm_sq = (G * F).sum(axis=0) + GRAM32_REL_ERR * (A * S).sum(axis=0) + GRAM32_ABS_ERR * l1 * l1
        approx = np.abs(U - F).sum(axis=0) + GRAM32_REL_ERR * (colsum @ A) + GRAM32_ABS_ERR * self.n * l1
        return norm_sq, approx


@dataclass(frozen=True)
class KernelContext:
    """What the MMD objective of the weight QP and the coverage-gap bound read.

    ``gram`` is the n x n calibration Gram K0 (each label block of the full
    pair kernel), in float32: the calibration's one n x n array, within
    GRAM32_REL_ERR relative (plus GRAM32_ABS_ERR) of the exact Gram.
    ``cross_v``[i, y-1] collapses the cross Gram against training pairs with
    label y: it is the objective's (n, c) linear term, laid out like the
    weights. ``train_self`` is the training sample's own mean kernel, the
    constant completing the squared-MMD objective. ``n`` and ``m`` count
    the calibration and training samples, ``c`` the labels; ``sigma`` is
    the bandwidth.
    """

    sigma: float
    gram: Gram
    cross_v: np.ndarray
    train_self: float
    m: int

    @property
    def n(self) -> int:
        return self.gram.n

    @property
    def c(self) -> int:
        return self.cross_v.shape[1]


def _calibration_sq_dists(cal_instances: np.ndarray, sq_dists) -> np.ndarray:
    """The calibration's float32 (n, n) squared distances: ``sq_dists`` as
    handed in, checked, or built here when it is None."""
    if sq_dists is None:
        return pairwise_sq_dists(cal_instances, cal_instances)
    n = cal_instances.shape[0]
    if not (isinstance(sq_dists, np.ndarray) and sq_dists.dtype == np.float32 and sq_dists.shape == (n, n)):
        raise ValueError(f"sq_dists must be a float32 ({n}, {n}) array, got {getattr(sq_dists, 'shape', sq_dists)!r}")
    return sq_dists


def build_context(cal_instances: np.ndarray, train: Dataset, sigma: float, *,
                  sq_dists: np.ndarray | None = None) -> KernelContext:
    """Assemble the kernel context from calibration features and a labeled
    training sample, at the bandwidth ``sigma`` (checked by ``_exp_scale``).

    ``sq_dists``, when given, holds the calibration's float32 pairwise
    squared distances (``pairwise_sq_dists(cal_instances, cal_instances)``);
    K0 is exponentiated over it in place (``_context_gram``: float64 row
    blocks, rounded once to float32) and becomes the context's ``gram``, so
    the caller must not read it as distances afterwards. Without it, the
    distances are built here, with the same bits. Beyond that one float32
    n x n array, only row blocks are held.
    """
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
    for sample, X in (("calibration", cal_instances), ("training", train.instances)):
        if not np.isfinite(X).all():
            raise ValueError(f"{sample} instances must be finite")
    n, m, c = cal_instances.shape[0], len(train), train.num_classes
    # the cross Gram collapses to V and the same-label training Grams to
    # train_self one row block at a time, so neither is ever whole; then K0
    onehot = np.zeros((m, c))
    onehot[np.arange(m), train.labels - 1] = 1.0
    V = np.empty((n, c))
    for rows, block in _gram_row_blocks(cal_instances, train.instances, sigma):
        np.matmul(block, onehot, out=V[rows])
    del block  # the block buffer is freed before the next one is made
    # the pair kernel vanishes across labels, so the training sample's mean
    # kernel needs only its same-label Gram blocks
    train_self = 0.0
    for y in np.flatnonzero(np.bincount(train.labels)):
        T = train.instances[train.labels == y]
        train_self += sum(float(np.sum(block)) for _, block in _gram_row_blocks(T, T, sigma))
    train_self /= m * m
    D2 = _calibration_sq_dists(cal_instances, sq_dists)
    K0 = _context_gram(D2, sigma)
    return KernelContext(sigma=sigma, gram=Gram(K0), cross_v=V, train_self=train_self, m=m)


def as_weight_matrix(w, n: int, c: int) -> np.ndarray:
    """Label weights (LabelWeights or an (n, c) matrix) as an (n, c)
    float64 matrix, checking the shape."""
    W = np.asarray(getattr(w, "matrix", w), dtype=np.float64)
    if W.shape != (n, c):
        raise ValueError(f"weight matrix shape {W.shape} != ({n}, {c})")
    return W


def mmd_objective(w, ctx: KernelContext) -> float:
    """Root of the clamped squared MMD between the weighted calibration
    embedding and the training sample embedding, exact in the float32 K0
    up to float64 rounding.

    Against the Gram K of the float64 distances, only the quadratic term
    moves: by at most d = (GRAM32_REL_ERR |W|^T K0 |W| + GRAM32_ABS_ERR
    ||W||_1^2) / n^2, summed over labels, so the squared MMD moves by at
    most d and the MMD by at most min(sqrt(d), d / MMD). A calibration's
    float32 K0 is the only Gram it has, and recomputing float64 blocks of
    it here would build the distances a second time."""
    W = as_weight_matrix(w, ctx.n, ctx.c)
    quad = float(np.sum(W * ctx.gram.product64(W)))
    cross = float(np.sum(W * ctx.cross_v))
    sq = quad / ctx.n**2 - 2.0 * cross / (ctx.n * ctx.m) + ctx.train_self
    return math.sqrt(max(sq, 0.0))


def _pivoted_cholesky(K: np.ndarray, mu: float):
    """Greedy pivoted partial Cholesky factor F, of shape (r, n), with
    K ~ F^T F for a symmetric PSD K.

    Each step pivots on the largest diagonal entry of the residual
    K - F^T F (the first such index on ties, so the factor is deterministic)
    and reads that one row of K, which is contiguous. It stops once no
    residual diagonal entry exceeds 1e-3 mu, or at rank n // 16. The factor
    is held and built in K's dtype, so it takes at most n^2 / 2 bytes, or
    n^2 / 4 for a float32 K. Returns the factor (a view of its buffer) and
    the residual trace.
    """
    n = K.shape[0]
    cap = n // PRECOND_RANK_DIVISOR
    F = np.empty((cap, n), K.dtype)
    d = K.diagonal().astype(np.float64)  # the residual diagonal, up to roundoff below 0
    r = 0
    while r < cap:
        p = int(d.argmax())
        if not d[p] > PRECOND_STOP * mu:
            break
        row = np.subtract(K[p], F[:r, p] @ F[:r], out=F[r])
        row /= math.sqrt(d[p])
        if row.dtype == np.float32:  # products of smaller entries would be subnormal, which GEMV runs slowly
            row[np.abs(row) < _SQRT_TINY32] = 0.0
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
    factor, in K's dtype, and k float64 (r, r) inverses are stored; the
    products with the factor run in its dtype. Returns (preconditioner,
    rank), or (None, 0) where the factor cannot pay for itself: a
    rank-capped factor that still leaves over 3/4 of K's trace. A flat
    spectrum leaves 15/16 at rank n / 16, and deflating it saves no CG
    steps; such near-diagonal Grams (small sigma) are the ones plain CG
    already solves in a few steps.
    """
    F, residual_trace = _pivoted_cholesky(K, float(shifts.min()))
    rank = F.shape[0]
    if rank == 0 or (rank == K.shape[0] // PRECOND_RANK_DIVISOR and residual_trace > 0.75 * K.trace(dtype=np.float64)):
        return None, 0
    inverses = np.linalg.inv(F @ F.T + shifts[:, None, None] * np.eye(rank))  # (k, r, r), symmetric
    mu = shifts.repeat(width)[:, None]

    def apply(R):
        T = (R.T.astype(F.dtype, copy=False) @ F.T).reshape(len(shifts), width, rank) @ inverses
        Z = (T.reshape(-1, rank).astype(F.dtype, copy=False) @ F).astype(np.float64, copy=False)
        np.subtract(R.T, Z, out=Z)
        Z /= mu
        return Z.T

    return apply, rank


def _residual(gram: Gram, shift, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """B - (K + shift I) X by ``gram.product64``, written over the product."""
    AX = gram.product64(X, shift)
    return np.subtract(B, AX, out=AX)


def _cg_columns(gram: Gram, shift, B: np.ndarray, tol: float, max_iters: int, precond=None, X0=None, R0=None,
                stop=None):
    """Preconditioned conjugate gradients on A = K + shift I, every column
    of the (n, k) block B at once, with products ``gram.product``.

    ``shift`` is a scalar or one value per column. ``precond`` applies an
    SPD approximation of A^-1 to (n, k) blocks; None runs plain CG, bit for
    bit the unpreconditioned recurrence. ``X0``, shaped like ``B``, starts
    the run from that iterate, with ``R0`` its residual B - A X0; None
    starts from 0. Each column stops on its residual r (b - A x by the
    recurrence) once ||r|| <= tol ||b||, whatever the preconditioner, and
    then freezes (its alpha and beta are forced to 0) so slow columns can
    keep iterating without disturbing finished ones. A non-finite residual
    stops the iteration; its column counts as not converged. ``stop(X, R)``,
    when given, sees the iterate X and its recurrence residual R after
    every step that leaves a column running, and True ends the run.

    Returns the solutions and their recurrence residuals, both (n, k), and
    per column the steps it ran and whether it converged within
    ``max_iters``.
    """
    X, R = (np.zeros_like(B), B.copy()) if X0 is None else (X0.copy(), R0.copy())
    Z = R if precond is None else precond(R)
    P = Z.copy()
    rr = (R * R).sum(axis=0)
    rz = rr if precond is None else (R * Z).sum(axis=0)
    thresh = tol * np.maximum(np.sqrt((B * B).sum(axis=0)), 1e-300)
    active = ~(np.sqrt(rr) <= thresh)  # a NaN residual is not converged
    steps = np.zeros(B.shape[1], dtype=np.int64)
    iters = 0
    while bool(active.any()) and iters < max_iters and bool(np.isfinite(rr).all()):
        AP = gram.product(P, shift)
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
        if stop is not None and bool(active.any()) and stop(X, R):
            break
    return X, R, steps, ~active


def ridge_path(gram: Gram, u: np.ndarray, ridges, tol: float = 1e-8, max_iters: int = CG_MAX_ITERS):
    """Solve (K + (jitter + ridge) I) G = u, with K the ``gram`` and u an
    (n, c) block of targets, at every ridge of ``ridges`` in one
    preconditioned CG run.

    Every label column is fit against the shared Gram K at once, since the
    pair kernel is block diagonal with identical blocks. The jitter is 1e-10
    times the mean kernel diagonal (``Gram.shift``). Every ridge must be
    finite and nonnegative, and u finite. A zero ridge asks for plain
    interpolation; a positive one solves the penalized system, whose
    statistic sum(u * G) equals min_f ||f||^2 + ||f(Z) - u||^2 / ridge.

    The k ridges' copies of u are placed side by side in one (n, k c) block,
    each column with its own shift, and solved at one product with K per
    iteration, preconditioned by one pivoted Cholesky factor of K built at
    the smallest ridge (plain CG where that factor cannot pay for itself).
    Returns (G, path): G is that solved block, the fit at the j-th ridge in
    its columns j c to (j + 1) c, and ``path`` holds per ridge, in the given
    order, the ``iterations`` of its slowest column, its largest column
    ``residuals`` and whether it ``converged``, plus the factor's ``rank``
    (0 when plain CG ran). A ridge whose solve misses the tolerance within
    the cap (default CG_MAX_ITERS) reads ``converged`` False, with its last
    iterate in G; the other ridges are unaffected.

    On a float32 K the products are float32 GEMMs and the factor is
    float32, while the CG recurrence stays in float64, so the tolerance
    holds on the recurrence residual of the float32 products.
    """
    U = np.asarray(u, dtype=np.float64)
    ridges = np.asarray(ridges, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != gram.n or not np.isfinite(U).all():
        raise ValueError(f"the target u must be a finite ({gram.n}, c) matrix, got shape {U.shape}")
    if ridges.ndim != 1 or ridges.size == 0 or not ((ridges >= 0) & (ridges < math.inf)).all():
        raise ValueError(f"ridges must be a non-empty sequence of nonnegative finite values, got {ridges!r}")
    if gram.n == 0:
        raise EmptyInputError("empty system")
    shifts = gram.shift(ridges)
    k, c = ridges.size, U.shape[1]
    precond, rank = _nystrom_preconditioner(gram.values, shifts, c)
    G, R, steps, converged = _cg_columns(gram, np.repeat(shifts, c), np.tile(U, k), tol, max_iters, precond)
    path = {
        "iterations": steps.reshape(k, c).max(axis=1),
        "residuals": np.sqrt((R * R).sum(axis=0)).reshape(k, c).max(axis=1),
        "converged": converged.reshape(k, c).all(axis=1),
        "rank": rank,
    }
    return G, path


def select_kernel(candidates, cal_instances, u, ridge: float = SELECTION_RIDGE, *,
                  sq_dists: np.ndarray | None = None):
    """Pick the bandwidth whose kernel fits the inclusion indicator u with
    the smallest penalized squared RKHS norm.

    ``u`` is a finite (n, c) target, n the rows of ``cal_instances``: the
    calibration hands in the pairs at or below the naive weighted threshold.
    Each candidate is scored by u^T gamma with (K + ridge I) gamma = u, the
    value of min_f ||f||^2 + ||f(Z) - u||^2 / ridge. The ridge matters: u
    carries score randomization, so exact interpolants of it have norms that
    grow without bound as the kernel smooths, and the raw interpolation
    statistic would always hand the argmin to the spikiest candidate. The
    penalized statistic trades fit against norm instead, so rough kernels pay
    for their large norms and overly smooth ones pay for their residuals.
    The ridge must be positive and finite: at 0 the smooth candidates'
    solves run to the CG cap.

    Candidates are visited outward from the likely winner: first the one
    nearest sqrt(d/2) in log sigma (the base scale of ``bandwidth_grid``),
    then the rest by their distance from it in the ascending list, ties to
    the larger sigma. Each Gram is exponentiated in float32, from the
    calibration's float32 squared distances, into one shared buffer. The
    order sets only how much work is done, not the selection: a candidate
    that is not pruned runs the same CG in any order.

    Every CG iterate x, with residual r = u - A x and A = K + s I (s the
    jittered ridge), brackets the statistic:
    u^T A^-1 u = u^T x + r^T x + r^T A^-1 r, with 0 <= r^T A^-1 r <=
    ||r||^2 / s (Strakos & Tichy, ETNA 13, 2002). A candidate is pruned,
    its statistic NaN, once its lower end exceeds (1 + PRUNE_MARGIN) times
    the smallest upper end of the candidates solved so far, a decision
    taken on the recurrence residual and confirmed on the true residual
    before it stops the solve; a pruned candidate cannot be the argmin.
    CG runs its products as float32 GEMMs on float64 vectors and stops at
    a relative residual of SELECTION_CG_TOL, but the true residuals, of the
    pruning confirmations and of each solved candidate's last iterate, come
    from float64 products with the float32 Gram (``Gram.product64``). So the
    brackets, a solved candidate's statistic (the lower end of its bracket,
    within ||r||^2 / s of the solve) and the pruning all certify the float32
    Gram's statistic up to float64 rounding; it differs from the float64
    Gram's by float32 rounding and exp error, far below the gaps between
    candidates that decide the argmin.

    Each candidate takes one plain CG step first. Only then does it build
    the pivoted Cholesky factor of its Gram (see ``ridge_path``) to
    continue, preconditioned, from that iterate, so one pruned or solved in
    its plain step builds none. The diagnostics record, by ascending sigma,
    each candidate's factor rank (0 where none was used), CG steps, whether
    it was ``pruned``, the ``lower`` and ``upper`` ends of its bracket at its
    last iterate, and the largest column norm of the residual that bracket
    came from (u's, of x = 0, where it has none). Candidates whose solve
    fails to converge are skipped; equal statistics break toward the smaller
    sigma. Every sigma is checked before any Gram is built. ``sq_dists``,
    when given, holds the calibration's float32 pairwise squared distances
    (``pairwise_sq_dists``), which are read and left as they are; without
    it they are built here. Returns (sigma, diagnostics dict).
    """
    candidates = sorted(candidates)
    if not candidates:
        raise EmptyInputError("no kernel candidates")
    for sigma in candidates:
        _exp_scale(sigma)
    if not 0 < ridge < math.inf:
        raise ValueError(f"ridge must be positive and finite, got {ridge}")
    cal_instances = np.asarray(cal_instances, dtype=np.float64)
    U = np.asarray(u, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != cal_instances.shape[0] or not np.isfinite(U).all():
        raise ValueError(f"u must be a finite ({cal_instances.shape[0]}, c) matrix, got shape {U.shape}")
    D2 = _calibration_sq_dists(cal_instances, sq_dists)
    K0 = np.empty(D2.shape, np.float32)  # every candidate's float32 Gram is built into this one buffer
    count = len(candidates)
    stats, lower, upper = (np.full(count, np.nan) for _ in range(3))
    residuals = np.full(count, math.sqrt((U * U).sum(axis=0).max()))  # x = 0's, until a bracket is taken
    iteration_counts = np.zeros(count, dtype=np.int64)
    ranks = np.zeros(count, dtype=np.int64)
    pruned = np.zeros(count, dtype=bool)
    best_upper = math.inf  # smallest upper end among the candidates solved so far
    # the likely winner first, the candidate nearest sqrt(d/2) in log sigma (the grid's base scale), then
    # outward by grid distance, ties to the larger sigma: once the winner is solved the rest are pruned
    root = math.sqrt(cal_instances.shape[1] / 2.0)
    start = min(range(count), key=lambda j: (abs(math.log(candidates[j] / root)), -j))
    for j in sorted(range(count), key=lambda j: (abs(j - start), -j)):
        gram = Gram(_gram_from_sq_dists(D2, candidates[j], out=K0))
        shift = gram.shift(ridge)
        limit = (1.0 + PRUNE_MARGIN) * best_upper

        def beaten(X, R):
            residuals[j] = math.sqrt((R * R).sum(axis=0).max())
            lower[j] = float(np.vdot(U + R, X))
            upper[j] = lower[j] + float(np.vdot(R, R)) / shift
            return lower[j] > limit

        def confirmed_beaten(X, R):  # a recurrence bracket's prune holds only if the true residual's confirms it
            return beaten(X, R) and beaten(X, _residual(gram, shift, U, X))

        X, R, steps, done = _cg_columns(gram, shift, U, SELECTION_CG_TOL, min(1, CG_MAX_ITERS), stop=confirmed_beaten)
        steps, done = int(steps.max()), bool(done.all())
        if not (done or lower[j] > limit) and steps < CG_MAX_ITERS:
            precond, ranks[j] = _nystrom_preconditioner(K0, np.array([shift]), U.shape[1])
            X, R, more, done = _cg_columns(gram, shift, U, SELECTION_CG_TOL, CG_MAX_ITERS - steps, precond, X, R,
                                           confirmed_beaten)
            steps, done = steps + int(more.max()), bool(done.all())
            del precond  # the factor is freed before the next candidate's is built
        if done:  # a solved candidate's bracket, and so its statistic, comes from its true residual
            R = _residual(gram, shift, U, X)
            beaten(X, R)
            stats[j] = max(lower[j], 0.0)
            best_upper = min(best_upper, upper[j])
        else:
            pruned[j] = lower[j] > limit
        iteration_counts[j] = steps
    if np.isnan(stats).all():
        raise InterpolationError("all kernel candidates failed to interpolate", residual=float(np.nanmin(residuals)))
    best = int(np.nanargmin(stats))
    diagnostics = {
        "ridge": ridge,
        "sigmas": np.array(candidates),
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

