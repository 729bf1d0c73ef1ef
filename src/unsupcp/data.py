"""Datasets, CSV loading, seeded partitioning, and the synthetic generator.

Labels are 1-based integers in {1, ..., c} everywhere in the public API,
matching the CSV on-disk format. Calibration labels survive a split but are
moved to a separate field so the unsupervised pipeline cannot pick them up by
accident; evaluation code reads them explicitly.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, EmptyInputError, SplitSizeError


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with optional labels.

    Parameters
    ----------
    instances : np.ndarray
        Shape (N, d) float matrix, one row per sample.
    labels : np.ndarray | None
        Length-N int vector with values in {1, ..., num_classes}, or None
        for unlabeled data.
    num_classes : int
        Number of classes c >= 2 the labels range over.
    hidden_labels : np.ndarray | None
        Labels retained for evaluation only (set on calibration splits).
    """

    instances: np.ndarray
    labels: np.ndarray | None
    num_classes: int
    hidden_labels: np.ndarray | None = None

    def __post_init__(self):
        inst = np.asarray(self.instances, dtype=np.float64)
        if inst.ndim != 2:
            raise ValueError(f"instances must be 2-D, got shape {inst.shape}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        object.__setattr__(self, "instances", _frozen(inst))
        for field in ("labels", "hidden_labels"):
            lab = getattr(self, field)
            if lab is None:
                continue
            lab = np.asarray(lab, dtype=np.int64)
            if lab.shape != (inst.shape[0],):
                raise ValueError(f"{field} length {lab.shape} does not match {inst.shape[0]} instances")
            if lab.size and (lab.min() < 1 or lab.max() > self.num_classes):
                raise ValueError(f"{field} values must lie in 1..{self.num_classes}")
            object.__setattr__(self, field, _frozen(lab))

    def __len__(self) -> int:
        return self.instances.shape[0]

    @property
    def num_features(self) -> int:
        return self.instances.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Sizes and seed for a train/calibration/test partition."""

    train_size: int
    cal_size: int
    test_size: int
    seed: int

    def __post_init__(self):
        for name in ("train_size", "cal_size", "test_size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class SyntheticConfig:
    """Spherical Gaussian mixture: one mean per class, shared scale.

    ``cov_scale`` is the per-coordinate standard deviation; the class-y
    density is N(class_means[y-1], cov_scale**2 * I).
    """

    class_means: np.ndarray
    cov_scale: float
    priors: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] < 2:
            raise ValueError("class_means must be a (c, d) matrix with c >= 2")
        if not np.isfinite(means).all():
            raise ValueError("class_means must be finite")
        if not 0 < self.cov_scale < math.inf:
            raise ValueError(f"cov_scale must be positive and finite, got {self.cov_scale}")
        priors = np.asarray(self.priors, dtype=np.float64)
        if priors.shape != (means.shape[0],):
            raise ValueError("priors length must equal number of classes")
        if not ((priors >= 0).all() and abs(priors.sum() - 1.0) <= 1e-9):
            raise ValueError("priors must be nonnegative and sum to 1")
        object.__setattr__(self, "class_means", _frozen(means))
        object.__setattr__(self, "priors", _frozen(priors))

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def num_features(self) -> int:
        return self.class_means.shape[1]


def generate_synthetic(config: SyntheticConfig, count: int, seed: int) -> Dataset:
    """Draw `count` labeled samples from the mixture, as a fully labeled
    Dataset; (config, count, seed) fixes every value."""
    if count < 1:
        raise EmptyInputError("count must be >= 1")
    rng = np.random.default_rng(seed)
    c = config.num_classes
    labels = rng.choice(c, size=count, p=config.priors) + 1
    noise = rng.standard_normal((count, config.num_features))
    X = config.class_means[labels - 1] + config.cov_scale * noise
    return Dataset(instances=X, labels=labels, num_classes=c)


def split_dataset(dataset: Dataset, spec: SplitSpec):
    """Partition into (train, cal, test) by a seeded permutation.

    Calibration labels are moved to ``hidden_labels``; train and test keep
    theirs. Sizes must not exceed the available samples.
    """
    total = spec.train_size + spec.cal_size + spec.test_size
    if total > len(dataset):
        raise SplitSizeError(
            f"requested {total} samples ({spec.train_size}+{spec.cal_size}+{spec.test_size}) "
            f"but dataset has {len(dataset)}"
        )
    perm = np.random.default_rng(spec.seed).permutation(len(dataset))
    idx_train = perm[: spec.train_size]
    idx_cal = perm[spec.train_size : spec.train_size + spec.cal_size]
    idx_test = perm[spec.train_size + spec.cal_size : total]
    lab = dataset.labels

    def take(idx, hide):
        sub = None if lab is None else lab[idx]
        if hide:
            return Dataset(dataset.instances[idx], None, dataset.num_classes, hidden_labels=sub)
        return Dataset(dataset.instances[idx], sub, dataset.num_classes)

    return take(idx_train, False), take(idx_cal, True), take(idx_test, False)


def _parse_header(fields: list[str]):
    """Return (num_features, declared_c or None, has_label)."""
    if not fields or all(not f.strip() for f in fields):
        raise CsvParseError("empty header", line=1)
    label_at = None
    declared = None
    for j, name in enumerate(fields):
        name = name.strip()
        if name == "label" or name.startswith("label:"):
            if label_at is not None:
                raise CsvParseError("multiple label columns", line=1)
            label_at = j
            if name.startswith("label:"):
                try:
                    declared = int(name.split(":", 1)[1])
                except ValueError:
                    raise CsvParseError(f"bad class count in header field {name!r}", line=1) from None
                if declared < 2:
                    raise CsvParseError(f"declared class count must be >= 2, got {declared}", line=1)
    if label_at is not None and label_at != len(fields) - 1:
        raise CsvParseError("label column must be last", line=1)
    d = len(fields) - (1 if label_at is not None else 0)
    if d < 1:
        raise CsvParseError("no feature columns", line=1)
    return d, declared, label_at is not None


def load_csv_dataset(path: str, labeled: bool) -> Dataset:
    """Load a UTF-8 CSV with header ``f1,...,fd[,label[:c]]``.

    With ``labeled=True`` the label column is required and parsed; the class
    count is the declared ``:c`` when present, else the max observed label.
    With ``labeled=False`` label values are not stored; the class count comes
    from the header declaration, falling back to the max observed label when
    the column exists.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: empty file") from None
        d, declared, has_label = _parse_header(header)
        if labeled and not has_label:
            raise CsvParseError("labeled load requires a label column", line=1)
        rows = []
        labs = []
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != d + (1 if has_label else 0):
                raise CsvParseError(f"expected {d + (1 if has_label else 0)} fields, got {len(fields)}", line=lineno)
            try:
                rows.append([float(v) for v in fields[:d]])
            except ValueError:
                raise CsvParseError(f"non-numeric feature value in {fields[:d]!r}", line=lineno) from None
            if not all(map(math.isfinite, rows[-1])):
                raise CsvParseError(f"non-finite feature value in {fields[:d]!r}", line=lineno)
            if has_label:
                try:
                    labs.append(int(fields[d]))
                except ValueError:
                    raise CsvParseError(f"non-integer label {fields[d]!r}", line=lineno) from None
                if labs[-1] < 1:
                    raise CsvParseError(f"label must be >= 1, got {labs[-1]}", line=lineno)
                if declared is not None and labs[-1] > declared:
                    raise CsvParseError(f"label {labs[-1]} outside declared 1..{declared}", line=lineno)
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    X = np.asarray(rows, dtype=np.float64)
    if has_label:
        c = declared if declared is not None else max(max(labs), 2)
    elif declared is not None:
        c = declared
    else:
        raise CsvParseError("cannot infer class count: no label column and no declaration", line=1)
    if labeled:
        return Dataset(instances=X, labels=np.asarray(labs), num_classes=c)
    return Dataset(instances=X, labels=None, num_classes=c)
