"""Monte Carlo harness: seeded trials, method pipelines, result emission.

A trial draws (or partitions) data, fits the classifier on the training
split minus a held-out validation slice, scores calibration and test
instances, then runs each requested method:

- supervised: threshold from true-label calibration scores,
- naive: threshold with one-hot weights at the classifier's predictions,
- unsupervised: bandwidth selection, kernel context against m training
  samples redrawn from the classifier's own training data, the constrained
  weight QP, then the weighted threshold. Calibration labels stay hidden
  from this path; the evaluator reads them only for diagnostics.

(config, seed) fixes every emitted number except wall-clock columns.
"""

import csv
import json
import math
import numbers
import os
import platform
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import coverage_diagnostic_E, coverage_gap_bound
from .classifier import ProbModel, estimate_loss_bound, predict_labels, train_logistic
from .data import Dataset, SplitSpec, SyntheticConfig, generate_synthetic, load_csv_dataset, split_dataset
from .errors import EmptyInputError, SplitSizeError
from .kernel import (
    SELECTION_RIDGE,
    KernelSpec,
    bandwidth_grid,
    build_context,
    mmd_objective,
    pairwise_sq_dists,
    select_kernel,
)
from .quantile import conformal_quantile_supervised, conformal_quantile_weighted, evaluate, prediction_mask
from .scores import SCORE_KINDS, ScoreMatrix, build_score_matrix
from .solver import (
    LabelWeights,
    SolverOptions,
    SolverReport,
    build_loss_constraints,
    naive_weights,
    solve_label_weights,
)

METHODS = ("supervised", "unsupervised", "naive")
VALIDATION_FRACTION = 0.2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TRACEBACK_TAIL = 6  # traceback entries a failure keeps: the last five frames and the error line


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializable to/from JSON.

    ``dataset`` is either {"type": "synthetic", "class_means": [[...]],
    "cov_scale": s, "priors": [...]} or {"type": "csv", "path": "..."}.
    ``cal_sizes`` sweeps the calibration size n; ``m`` is the number of
    training samples redrawn for the kernel context (None means m = n).
    """

    dataset: dict
    train_size: int
    cal_sizes: tuple
    test_size: int
    alpha: float
    trials: int
    seed: int
    score: str = "adaptive"
    methods: tuple = METHODS
    m: int | None = None
    bandwidth_scales: tuple | None = None
    selection_ridge: float = SELECTION_RIDGE
    noise_epsilon: float | None = None
    l2: float = 1e-3
    classifier_max_iters: int = 500
    solver_max_iters: int = 20000
    solver_rel_tol: float = 1e-4
    delta: float = 0.1

    def __post_init__(self):
        for name in ("train_size", "test_size", "trials", "seed", "classifier_max_iters", "solver_max_iters"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.m is not None:
            object.__setattr__(self, "m", _count("m", self.m))
        object.__setattr__(self, "cal_sizes", tuple(_count("cal_sizes", v) for v in self.cal_sizes))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.bandwidth_scales is not None:
            object.__setattr__(self, "bandwidth_scales", tuple(float(v) for v in self.bandwidth_scales))
        if not isinstance(self.dataset, dict) or self.dataset.get("type") not in ("synthetic", "csv"):
            raise ValueError("dataset must be a dict with type 'synthetic' or 'csv'")
        synthetic = _synthetic_config(self.dataset) if self.dataset["type"] == "synthetic" else None
        if synthetic is None and not isinstance(self.dataset.get("path"), str):
            raise ValueError("a csv dataset needs a string 'path'")
        if not self.cal_sizes or min(self.cal_sizes) < 1 or len(set(self.cal_sizes)) < len(self.cal_sizes):
            raise ValueError(f"cal_sizes must be non-empty distinct positive ints, got {self.cal_sizes}")
        if not self.trials >= 1:
            raise ValueError("trials must be >= 1")
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.score not in SCORE_KINDS:
            raise ValueError(f"score must be one of {SCORE_KINDS}")
        unknown = set(self.methods) - set(METHODS)
        if not self.methods or unknown or len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must be a non-empty subset of {METHODS} without repeats, got {self.methods}")
        if not (self.test_size >= 1 and self.train_size >= 2):
            raise ValueError("test_size must be >= 1 and train_size >= 2")
        if not 0 < self.selection_ridge < math.inf:
            raise ValueError(f"selection_ridge must be positive and finite, got {self.selection_ridge}")
        if self.m is not None and not self.m >= 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        scales = self.bandwidth_scales
        if scales is not None and not (scales and all(math.isfinite(v) and v > 0 for v in scales)
                                       and len(set(scales)) == len(scales)):
            raise ValueError(f"bandwidth_scales must be non-empty, distinct, finite and positive, got {scales}")
        if synthetic is not None:
            bandwidth_grid(synthetic.num_features, self.bandwidth_scales)  # every sigma must pass KernelSpec
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be nonnegative and finite, got {self.l2}")
        if self.noise_epsilon is not None and not 0 <= self.noise_epsilon < math.inf:
            raise ValueError(f"noise_epsilon must be nonnegative and finite, got {self.noise_epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not self.classifier_max_iters >= 1:
            raise ValueError(f"classifier_max_iters must be >= 1, got {self.classifier_max_iters}")
        if not self.solver_max_iters >= 1:
            raise ValueError(f"solver_max_iters must be >= 1, got {self.solver_max_iters}")
        if not 0 < self.solver_rel_tol < math.inf:
            raise ValueError(f"solver_rel_tol must be positive and finite, got {self.solver_rel_tol}")
        fit_size = self.train_size - _val_count(self.train_size)
        if "unsupervised" in self.methods:
            for n in self.cal_sizes:
                m = self.m if self.m is not None else n
                if m > fit_size:
                    raise ValueError(
                        f"m = {m} exceeds the {fit_size} training samples left after the validation holdout"
                    )

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return ExperimentConfig(**d)

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["cal_sizes"] = list(self.cal_sizes)
        d["methods"] = list(self.methods)
        if self.bandwidth_scales is not None:
            d["bandwidth_scales"] = list(self.bandwidth_scales)
        return d


def _count(name: str, v) -> int:
    """A config count as an int. An integral float such as 2000.0 passes; a
    bool, a fractional value or a non-number raises, naming the field."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"{name} must be an integer, got {v!r}")


def _val_count(train_size: int) -> int:
    return max(1, int(round(VALIDATION_FRACTION * train_size)))


@dataclass(frozen=True)
class MethodResult:
    method: str
    coverage: float
    mean_size: float
    q_hat: float
    wall_seconds: float
    sigma: float | None = None
    mmd: float | None = None
    solver_objective: float | None = None
    solver_iterations: int | None = None
    solver_slack: float | None = None
    solver_converged: bool | None = None
    solver_gap: float | None = None
    e_diag: float | None = None
    kernel_bound: float | None = None


# trials.csv columns, in order; "trial" is TrialRecord.trial_index, the
# other names are TrialRecord or MethodResult fields
TRIAL_COLUMNS = (
    "cal_size",
    "trial",
    "method",
    "coverage",
    "mean_size",
    "q_hat",
    "sigma",
    "mmd",
    "solver_objective",
    "solver_iterations",
    "solver_slack",
    "solver_converged",
    "solver_gap",
    "e_diag",
    "kernel_bound",
    "classifier_error",
    "loss_bound",
    "wall_seconds",
)

# summary.json aggregate fields, in order, with their JSON types
AGGREGATE_COLUMNS = {
    "cal_size": "integer",
    "method": "string",
    "trials": "integer",
    "coverage_mean": "number",
    "coverage_q25": "number",
    "coverage_q75": "number",
    "size_mean": "number",
    "size_q25": "number",
    "size_q75": "number",
    "mean_abs_gap": "number",
    "gap_q25": "number",
    "gap_q75": "number",
}
# gapcurve.csv columns: the (cal_size, method) key and the gap statistics
GAPCURVE_COLUMNS = ("cal_size", "method") + tuple(k for k in AGGREGATE_COLUMNS if "gap" in k)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's rows, one MethodResult per method that ran through, and
    one ``failures`` dict per method that raised: its ``method``, ``error``
    line and ``traceback`` tail (see ``_failure``)."""

    cal_size: int
    trial_index: int
    classifier_error: float
    loss_bound: float
    results: tuple = field(default_factory=tuple)
    failures: tuple = field(default_factory=tuple)

    def rows(self) -> list[dict]:
        trial = {
            "cal_size": self.cal_size,
            "trial": self.trial_index,
            "classifier_error": self.classifier_error,
            "loss_bound": self.loss_bound,
        }
        return [{k: trial[k] if k in trial else getattr(r, k) for k in TRIAL_COLUMNS} for r in self.results]


def _trial_seeds(cfg: ExperimentConfig, cal_size: int, trial_index: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(cal_size, trial_index))
    return ss.generate_state(5, dtype=np.uint64)


def _synthetic_config(spec: dict) -> SyntheticConfig:
    missing = {"class_means", "cov_scale", "priors"} - set(spec)
    if missing:
        raise ValueError(f"synthetic dataset is missing {sorted(missing)}")
    return SyntheticConfig(
        class_means=np.asarray(spec["class_means"], dtype=np.float64),
        cov_scale=float(spec["cov_scale"]),
        priors=np.asarray(spec["priors"], dtype=np.float64),
    )


def _get_dataset(cfg: ExperimentConfig, total: int, data_seed: int) -> Dataset:
    spec = cfg.dataset
    if spec["type"] == "synthetic":
        return generate_synthetic(_synthetic_config(spec), total, data_seed)
    return load_csv_dataset(spec["path"], labeled=True)


@dataclass(frozen=True)
class CalibrationResult:
    """Everything one unsupervised calibration produced.

    ``selection`` is the diagnostics dict of ``select_kernel`` (statistic
    NaN for a bandwidth that was pruned or whose fit did not converge);
    ``mmd`` the final discrepancy ``mmd_objective`` of the weights;
    ``kernel_bound`` and ``bound_path`` the pair ``coverage_gap_bound`` returns.
    The kernel context is not kept, so a result does not hold the n x n Gram.
    """

    q_hat: float
    weights: LabelWeights
    report: SolverReport
    spec: KernelSpec
    selection: dict
    mmd: float
    kernel_bound: float
    bound_path: dict


def calibrate_unsupervised(
    model: ProbModel,
    cal_instances: np.ndarray,
    train: Dataset,
    cal_scores: ScoreMatrix,
    alpha: float,
    loss_bound: float,
    *,
    bandwidth_scales=None,
    selection_ridge: float = SELECTION_RIDGE,
    solver_options: SolverOptions | None = None,
    delta: float = 0.1,
) -> CalibrationResult:
    """Threshold unlabeled calibration scores without calibration labels.

    Starts from one-hot weights at the classifier's predictions and the
    constraint that the mean cross-entropy stays below ``loss_bound`` (an
    unsatisfiable one raises InfeasibleConstraintError before any Gram is
    built), selects the bandwidth that best fits the naive indicator
    u0 = 1{score <= q0} (q0 the naive weighted quantile), builds the kernel
    context against the labeled ``train`` sample, solves the weight QP under
    that constraint, and takes the weighted conformal quantile.
    ``coverage_gap_bound`` certifies the final inclusion indicator
    u = 1{score <= q_hat}, union-corrected over the bandwidth candidates;
    its ridges do not depend on ``selection_ridge``. ``selection_ridge``
    must be positive and finite: at 0 the smooth candidates' selection
    solves run to the CG cap.
    """
    if not 0 < selection_ridge < math.inf:
        raise ValueError(f"selection_ridge must be positive and finite, got {selection_ridge}")
    cal_instances = np.asarray(cal_instances, dtype=np.float64)
    if not np.isfinite(cal_instances).all():
        raise ValueError("calibration instances must be finite")
    naive_w = naive_weights(model, cal_instances)
    constraints = build_loss_constraints(model, cal_instances, loss_bound)
    grid = bandwidth_grid(cal_instances.shape[1], bandwidth_scales)
    q0 = conformal_quantile_weighted(cal_scores.values, naive_w.matrix, alpha)
    u0 = cal_scores.values <= q0
    # the calibration's float32 squared distances are built once, read by
    # selection, then overwritten by K0 in the context build: the QP and the
    # bound read that one float32 n x n array
    D2 = pairwise_sq_dists(cal_instances, cal_instances)
    spec, selection = select_kernel(grid, cal_instances, u0, ridge=selection_ridge, sq_dists=D2)
    ctx = build_context(cal_instances, train, spec, sq_dists=D2)
    weights, report = solve_label_weights(ctx, constraints, solver_options, init=naive_w)
    q_hat = conformal_quantile_weighted(cal_scores.values, weights.matrix, alpha)
    mmd = mmd_objective(weights, ctx)
    kernel_bound, bound_path = coverage_gap_bound(ctx, cal_scores.values <= q_hat, delta, len(grid))
    return CalibrationResult(
        q_hat=q_hat,
        weights=weights,
        report=report,
        spec=spec,
        selection=selection,
        mmd=mmd,
        kernel_bound=kernel_bound,
        bound_path=bound_path,
    )


def run_trial(cfg: ExperimentConfig, trial_index: int, cal_size: int | None = None,
              data: Dataset | None = None) -> TrialRecord:
    """One seeded trial at one calibration size. Deterministic in
    (config, seed, trial_index, cal_size).

    ``data`` is the labeled dataset the trial partitions, as
    ``run_experiment`` passes a CSV dataset it loaded once; None draws it
    from the trial seed (synthetic) or loads it from the config's path (CSV).
    An exception in one method's block goes to the record's ``failures`` and
    the other methods still run; one raised before any method runs (split,
    fit, scores) propagates.
    """
    n = int(cal_size if cal_size is not None else cfg.cal_sizes[0])
    seeds = _trial_seeds(cfg, n, trial_index)
    total = cfg.train_size + n + cfg.test_size
    ds = data if data is not None else _get_dataset(cfg, total, int(seeds[0]))
    train, cal, test = split_dataset(ds, SplitSpec(cfg.train_size, n, cfg.test_size, int(seeds[1])))
    vc = _val_count(cfg.train_size)
    fit = Dataset(train.instances[:-vc], train.labels[:-vc], train.num_classes)
    val = Dataset(train.instances[-vc:], train.labels[-vc:], train.num_classes)
    model = train_logistic(fit, l2=cfg.l2, max_iters=cfg.classifier_max_iters)
    loss_bound = estimate_loss_bound(model, val)
    classifier_error = float(np.mean(predict_labels(model, test.instances) != test.labels))
    cal_scores = build_score_matrix(model, cal.instances, cfg.score, int(seeds[2]), cfg.noise_epsilon)
    test_scores = build_score_matrix(model, test.instances, cfg.score, int(seeds[3]), 0.0)

    results, failures = [], []
    for method in cfg.methods:
        t0 = time.perf_counter()
        extra = {}
        try:
            if method == "supervised":
                if cal.hidden_labels is None:
                    raise ValueError("supervised method requires calibration labels")
                true_scores = cal_scores.values[np.arange(len(cal)), cal.hidden_labels - 1]
                q_hat = conformal_quantile_supervised(true_scores, cfg.alpha)
            elif method == "naive":
                w = naive_weights(model, cal.instances)
                q_hat = conformal_quantile_weighted(cal_scores.values, w.matrix, cfg.alpha)
                if cal.hidden_labels is not None:
                    extra["e_diag"] = coverage_diagnostic_E(w.matrix, cal_scores.values, q_hat, cal.hidden_labels)
            else:
                m = cfg.m if cfg.m is not None else n
                idx = np.random.default_rng(int(seeds[4])).choice(len(fit), size=m, replace=False)
                out = calibrate_unsupervised(
                    model,
                    cal.instances,
                    Dataset(fit.instances[idx], fit.labels[idx], fit.num_classes),
                    cal_scores,
                    cfg.alpha,
                    loss_bound.value,
                    bandwidth_scales=cfg.bandwidth_scales,
                    selection_ridge=cfg.selection_ridge,
                    solver_options=SolverOptions(max_iters=cfg.solver_max_iters, rel_tol=cfg.solver_rel_tol),
                    delta=cfg.delta,
                )
                q_hat = out.q_hat
                extra = {
                    "sigma": out.spec.sigma,
                    "mmd": out.mmd,
                    "solver_objective": out.report.objective_value,
                    "solver_iterations": out.report.iterations,
                    "solver_slack": out.report.inequality_slack,
                    "solver_converged": out.report.converged,
                    "solver_gap": out.report.gap,
                    "kernel_bound": out.kernel_bound,
                }
                if cal.hidden_labels is not None:
                    extra["e_diag"] = coverage_diagnostic_E(out.weights.matrix, cal_scores.values, q_hat,
                                                            cal.hidden_labels)
            rep = evaluate(prediction_mask(test_scores.values, q_hat), test.labels)
        except Exception as exc:
            # the trial keeps the other methods' rows; a failure before this loop loses the whole trial
            failures.append({"method": method, **_failure(exc)})
            continue
        results.append(
            MethodResult(
                method=method,
                coverage=rep.coverage,
                mean_size=rep.mean_size,
                q_hat=q_hat,
                wall_seconds=time.perf_counter() - t0,
                **extra,
            )
        )
    return TrialRecord(
        cal_size=n,
        trial_index=trial_index,
        classifier_error=classifier_error,
        loss_bound=loss_bound.value,
        results=tuple(results),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class ExperimentResults:
    config: ExperimentConfig
    records: tuple
    failures: tuple
    environment: dict


def _environment() -> dict:
    from . import __version__

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": "numpy",
        "package_version": __version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _failure(exc: Exception) -> dict:
    """The exception's ``error`` line and the last TRACEBACK_TAIL entries of
    its ``traceback``."""
    tail = "".join(traceback.format_exception(exc)[-TRACEBACK_TAIL:])
    return {"error": f"{type(exc).__name__}: {exc}", "traceback": tail}


def _trial_task(cfg: ExperimentConfig, n: int, t: int, data: Dataset | None):
    """(cal_size, trial, record, failures): the record (None when the trial
    raised before any method ran) and its failure dicts."""
    try:
        record = run_trial(cfg, t, n, data)
        return (n, t, record, record.failures)
    except Exception as exc:  # pragma: no cover - exercised via failure path test
        return (n, t, None, (_failure(exc),))


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResults:
    """Run the full (cal_size x trial) grid, optionally in worker processes.

    Trial outcomes are deterministic per (cal_size, trial) regardless of
    scheduling; records come back sorted. Exceptions become failure entries
    instead of aborting the run: one raised inside a method's block names
    its ``method`` and the trial keeps its other methods' rows, one raised
    before any method ran loses the trial's record. A CSV dataset is loaded
    once, before any trial runs (so one that does not load raises, as does
    a bandwidth grid outside KernelSpec's range at its feature count, or a
    file too small for the largest calibration size), and every trial
    partitions that copy; synthetic data is drawn per trial.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    data = load_csv_dataset(cfg.dataset["path"], labeled=True) if cfg.dataset["type"] == "csv" else None
    need = cfg.train_size + max(cfg.cal_sizes) + cfg.test_size
    if data is not None and len(data) < need:
        raise SplitSizeError(f"the largest trial needs {need} samples but {cfg.dataset['path']} has {len(data)}")
    if data is not None and "unsupervised" in cfg.methods:
        bandwidth_grid(data.num_features, cfg.bandwidth_scales)  # as __post_init__ checks a synthetic config's grid
    grid = [(n, t) for n in cfg.cal_sizes for t in range(cfg.trials)]
    outcomes = []
    if workers == 1:
        for n, t in grid:
            outcomes.append(_trial_task(cfg, n, t, data))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_task, [cfg] * len(grid), [g[0] for g in grid], [g[1] for g in grid],
                                     [data] * len(grid)))
    outcomes.sort(key=lambda o: (o[0], o[1]))
    records = tuple(o[2] for o in outcomes if o[2] is not None)
    failures = tuple({"cal_size": o[0], "trial": o[1], **f} for o in outcomes for f in o[3])
    return ExperimentResults(config=cfg, records=records, failures=failures, environment=_environment())


def _mean_quartiles(x: np.ndarray) -> tuple:
    """Mean and quartiles, bit for bit as np.percentile interpolates them; its
    np.unique call imports numpy.ma (tens of ms) in every fresh process."""
    s = np.sort(x)
    pos = (s.size - 1) * np.array([0.25, 0.75])
    i = pos.astype(np.intp)
    lo, hi, t = s[i], s[np.minimum(i + 1, s.size - 1)], pos - i
    q = np.where(t >= 0.5, hi - (hi - lo) * (1.0 - t), lo + (hi - lo) * t)
    return float(np.mean(x)), float(q[0]), float(q[1])


def aggregate(records, alpha: float) -> list[dict]:
    """Mean and quartile summaries per (cal_size, method), keyed by
    AGGREGATE_COLUMNS."""
    groups = {}
    for rec in records:
        for row in rec.rows():
            groups.setdefault((row["cal_size"], row["method"]), []).append(row)
    out = []
    for cal_size, method in sorted(groups):
        rows = groups[cal_size, method]
        cov = np.array([r["coverage"] for r in rows])
        size = np.array([r["mean_size"] for r in rows])
        gaps = np.abs(cov - (1.0 - alpha))
        values = (int(cal_size), method, int(cov.size), *_mean_quartiles(cov), *_mean_quartiles(size),
                  *_mean_quartiles(gaps))
        out.append(dict(zip(AGGREGATE_COLUMNS, values, strict=True)))
    return out


RESULTS_SCHEMA = {
    "type": "object",
    "required": ["config", "environment", "aggregates", "failures"],
    "properties": {
        "config": {"type": "object"},
        "environment": {
            "type": "object",
            "required": ["python", "numpy", "backend", "package_version", "cpu_count", "blas_threads"],
            "properties": {
                "python": {"type": "string"},
                "numpy": {"type": "string"},
                "backend": {"type": "string"},
                "package_version": {"type": "string"},
                "cpu_count": {"type": ["integer", "null"]},
                "blas_threads": {
                    "type": "object",
                    "required": list(BLAS_THREAD_VARS),
                    "properties": {v: {"type": ["string", "null"]} for v in BLAS_THREAD_VARS},
                },
            },
        },
        "aggregates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": list(AGGREGATE_COLUMNS),
                "properties": {k: {"type": t} for k, t in AGGREGATE_COLUMNS.items()},
            },
        },
        "failures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["cal_size", "trial", "error"],
                "properties": {"error": {"type": "string"}, "traceback": {"type": "string"},
                               "method": {"type": "string"}},
            },
        },
    },
}


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_results(results: ExperimentResults, out_dir: str) -> dict:
    """Write summary.json (config, environment, aggregates, failures),
    trials.csv (one row per trial per method), and gapcurve.csv (mean
    absolute gap per calibration size). Floats in CSV use shortest
    round-trip formatting so re-parsing reproduces them bit for bit.
    Returns the paths written, keyed "summary", "trials" and "gapcurve"."""
    if not results.records and not results.failures:
        raise EmptyInputError("no records to emit")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "summary": os.path.join(out_dir, "summary.json"),
        "trials": os.path.join(out_dir, "trials.csv"),
        "gapcurve": os.path.join(out_dir, "gapcurve.csv"),
    }
    aggs = aggregate(results.records, results.config.alpha)
    payload = {
        "config": results.config.to_dict(),
        "environment": results.environment,
        "aggregates": aggs,
        "failures": list(results.failures),
    }
    with open(paths["summary"], "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    with open(paths["trials"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_COLUMNS)
        for rec in results.records:
            for row in rec.rows():
                writer.writerow([_csv_cell(row[k]) for k in TRIAL_COLUMNS])
    with open(paths["gapcurve"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GAPCURVE_COLUMNS)
        for a in aggs:
            writer.writerow([_csv_cell(a[k]) for k in GAPCURVE_COLUMNS])
    return paths
