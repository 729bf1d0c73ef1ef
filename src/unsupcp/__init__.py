"""Split conformal classification with unsupervised calibration.

Calibration-set labels are replaced by per-instance label weights chosen to
minimize a kernel two-sample discrepancy against a labeled training sample,
under a loss constraint. The weighted conformal quantile then thresholds
scores exactly as in the supervised procedure; one-hot weights at the true
labels recover it bit for bit.
"""

from .bounds import coverage_diagnostic_E, coverage_gap_bound, excess_gap_kernel
from .classifier import (
    LossBound,
    ProbModel,
    ce_objective_grad,
    estimate_loss_bound,
    predict_labels,
    predict_proba_matrix,
    train_logistic,
)
from .data import (
    Dataset,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    load_csv_dataset,
    split_dataset,
)
from .harness import (
    CalibrationResult,
    ExperimentConfig,
    ExperimentResults,
    MethodResult,
    TrialRecord,
    aggregate,
    calibrate_unsupervised,
    emit_results,
    run_experiment,
    run_trial,
)
from .kernel import (
    Gram,
    KernelContext,
    bandwidth_grid,
    build_context,
    gaussian_gram,
    mmd_objective,
    ridge_path,
    select_kernel,
)
from .quantile import (
    CoverageReport,
    conformal_level,
    conformal_quantile_supervised,
    conformal_quantile_weighted,
    evaluate,
    prediction_mask,
    weighted_quantile,
)
from .scores import ScoreMatrix, build_score_matrix
from .solver import (
    ConstraintSet,
    LabelWeights,
    SolverOptions,
    SolverReport,
    build_loss_constraints,
    naive_weights,
    solve_label_weights,
    supervised_weights,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "ConstraintSet",
    "CoverageReport",
    "Dataset",
    "ExperimentConfig",
    "ExperimentResults",
    "Gram",
    "KernelContext",
    "LabelWeights",
    "LossBound",
    "MethodResult",
    "ProbModel",
    "ScoreMatrix",
    "SolverOptions",
    "SolverReport",
    "SplitSpec",
    "SyntheticConfig",
    "TrialRecord",
    "aggregate",
    "bandwidth_grid",
    "build_context",
    "build_loss_constraints",
    "build_score_matrix",
    "calibrate_unsupervised",
    "ce_objective_grad",
    "conformal_level",
    "conformal_quantile_supervised",
    "conformal_quantile_weighted",
    "coverage_diagnostic_E",
    "coverage_gap_bound",
    "emit_results",
    "estimate_loss_bound",
    "evaluate",
    "excess_gap_kernel",
    "gaussian_gram",
    "generate_synthetic",
    "load_csv_dataset",
    "mmd_objective",
    "naive_weights",
    "prediction_mask",
    "predict_labels",
    "predict_proba_matrix",
    "ridge_path",
    "run_experiment",
    "run_trial",
    "select_kernel",
    "solve_label_weights",
    "split_dataset",
    "supervised_weights",
    "train_logistic",
    "weighted_quantile",
]
