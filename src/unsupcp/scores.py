"""Conformity scores and the calibration score matrix.

Two score kinds: "adaptive" (cumulative mass of classes scored strictly above
the candidate, plus a uniform share of the candidate's own mass) and
"probability" (one minus the candidate's probability). Lower is better for
both. The score matrix evaluates every (instance, label) pair and adds a tiny
additive tie-break noise so all entries are pairwise distinct.
"""

import math
from dataclasses import dataclass

import numpy as np

from .classifier import ProbModel, predict_proba_matrix
from .errors import EmptyInputError

SCORE_KINDS = ("adaptive", "probability")
DEFAULT_NOISE_SCALE = 1e-9


@dataclass(frozen=True)
class ScoreMatrix:
    """Scores for all (instance, label) pairs.

    ``values[i, y-1]`` is the score of pair (X_i, y), the (n, c) layout of
    the label weights (``LabelWeights.matrix``) and of every other per-pair
    array of the kernel and solver modules.
    """

    values: np.ndarray
    kind: str
    noise_epsilon: float
    seed: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"values must be (n, c), got shape {v.shape}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]


def _raw_scores(P: np.ndarray, kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "probability":
        return 1.0 - P
    # adaptive: above-mass per pair, then a uniform share of own mass
    above = ((P[:, :, None] > P[:, None, :]) * P[:, :, None]).sum(axis=1)
    U = rng.uniform(0.0, 1.0, size=P.shape)
    return above + U * P


def build_score_matrix(
    model: ProbModel,
    instances: np.ndarray,
    kind: str,
    seed: int,
    noise_epsilon: float | None = None,
) -> ScoreMatrix:
    """Score every (instance, label) pair and tie-break with additive noise.

    ``noise_epsilon`` defaults to 1e-9 times the raw score range (at least
    1e-9). With a positive epsilon the resulting entries are checked to be
    pairwise distinct; epsilon of exactly 0 skips both noise and check, which
    is appropriate for test-instance scoring where ties are harmless.
    """
    instances = np.asarray(instances, dtype=np.float64)
    if instances.shape[0] == 0:
        raise EmptyInputError("no instances to score")
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}, expected one of {SCORE_KINDS}")
    rng = np.random.default_rng(seed)
    P = predict_proba_matrix(model, instances)
    values = _raw_scores(P, kind, rng)
    if noise_epsilon is None:
        spread = float(values.max() - values.min())
        noise_epsilon = DEFAULT_NOISE_SCALE * max(spread, 1.0)
    if not 0 <= noise_epsilon < math.inf:
        raise ValueError(f"noise_epsilon must be nonnegative and finite, got {noise_epsilon}")
    if noise_epsilon > 0:
        values = values + rng.uniform(0.0, noise_epsilon, size=values.shape)
        if bool((np.diff(np.sort(values, axis=None)) == 0.0).any()):
            raise ValueError("tie-break noise failed to separate scores; increase noise_epsilon")
    return ScoreMatrix(values=values, kind=kind, noise_epsilon=float(noise_epsilon), seed=seed)
