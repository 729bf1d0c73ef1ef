"""In-memory spans around the layer functions the harness calls.

The tracer replaces names in the ``unsupcp.harness`` namespace with timing
wrappers, so the package itself is not edited. Each span records its name,
start, end, parent span and the trial it belongs to, plus a few counts read
from the value the wrapped function returned. Spans stay in memory and are
reduced to per-layer metrics when the run ends.
"""

import statistics
import time
from dataclasses import dataclass

# the names unsupcp.harness calls its layers by, plus its own entry points
TRACED = (
    "generate_synthetic", "split_dataset",                          # data
    "train_logistic",                                               # classifier
    "build_score_matrix",                                           # scores
    "naive_weights", "solve_label_weights",                         # solver
    "select_kernel", "build_context", "mmd_objective",              # kernel
    "conformal_quantile_weighted", "evaluate",                      # quantile
    "run_trial", "run_experiment", "emit_results",                  # harness
)

# how close the stage spans must come to the untraced calib_s_p50 before the
# trace is said to account for the calibration
SPAN_COVER_TOL = 0.05


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trial: tuple | None
    info: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(name: str, out) -> dict:
    """Counts read from a wrapped call's return value."""
    if name == "build_score_matrix":
        return {"cells": int(out.n * out.c)}
    if name == "select_kernel":
        stats = out[1]["statistics"]
        return {
            "cg_iters": int(sum(int(v) for v in out[1]["iterations"])),
            "candidates": len(stats),
            "ok": sum(1 for v in stats if v == v),  # NaN marks an unconverged candidate
        }
    if name == "build_context":
        return {"n": int(out.n), "m": int(out.m)}
    if name == "solve_label_weights":
        report = out[1]
        return {"iters": int(report.iterations), "converged": bool(report.converged),
                "lambda_active": report.dual_lambda > 0.0}
    return {}


class Tracer:
    """Collects spans; ``install`` wraps the harness names, ``restore`` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: dict = {}
        self.batch = None

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if name == "run_trial":  # the harness calls run_trial(cfg, trial_index, cal_size)
                trial = (self.batch, args[2], args[1])
            else:
                trial = self.spans[parent].trial if parent is not None else None
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, trial, {})
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = _counts(name, out)
            return out

        return traced

    def install(self, harness):
        for name in TRACED:
            fn = getattr(harness, name)
            self._saved[name] = fn
            setattr(harness, name, self._wrap(name, fn))

    def restore(self, harness):
        for name, fn in self._saved.items():
            setattr(harness, name, fn)
        self._saved.clear()


def _unsupervised_stages(children: list[Span]) -> dict[str, Span]:
    """The direct children of one trial that belong to the unsupervised
    method, by name: from the naive start point before selection to the
    evaluation after the weight solve. Each name occurs once there."""
    names = [s.name for s in children]
    if "select_kernel" not in names:
        return {}
    i = names.index("select_kernel")
    start = i - 1 if i > 0 and names[i - 1] == "naive_weights" else i
    end = names.index("evaluate", i)
    return {s.name: s for s in children[start:end + 1]}


def layer_metrics(tracer: Tracer, records_by_trial: dict, count_trials: int) -> tuple[dict, float]:
    """Reduce the spans to per-layer metrics; also returns the median over
    trials of the unsupervised method's stage spans, summed.

    Times are medians over the traced trials, except the harness figures,
    which are per trial over the whole traced pass. Counts come from the
    first ``count_trials`` trials only, so they repeat exactly at a fixed
    seed whatever the run length.

    ``records_by_trial`` maps a span's trial id to its TrialRecord.
    """
    spans = tracer.spans
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    trial_idx = [i for i, s in enumerate(spans) if s.name == "run_trial"]

    per = {k: [] for k in ("data", "fit", "scores", "quantile", "select", "context", "mmd", "qp", "ridge", "cover")}
    counts = dict.fromkeys(("cells", "select_iters", "select_cands", "select_ok", "select_bytes", "context_bytes",
                            "qp_iters", "gemm_bytes", "qp_conv", "qp_lam"), 0)
    qp_s_total = qp_iters_total = 0
    for k, ti in enumerate(trial_idx):
        kids = children.get(ti, [])

        def total(*names):
            return sum(s.seconds for s in kids if s.name in names)

        per["data"].append(total("generate_synthetic", "split_dataset"))
        per["fit"].append(total("train_logistic"))
        per["scores"].append(total("build_score_matrix"))
        per["quantile"].append(total("conformal_quantile_weighted", "evaluate"))
        stages = _unsupervised_stages(kids)
        select, context, qp = stages["select_kernel"], stages["build_context"], stages["solve_label_weights"]
        per["select"].append(select.seconds)
        per["context"].append(context.seconds)
        per["qp"].append(qp.seconds)
        per["mmd"].append(stages["mmd_objective"].seconds)
        covered = sum(s.seconds for s in stages.values())
        wall = next(r.wall_seconds for r in records_by_trial[spans[ti].trial].results if r.method == "unsupervised")
        per["ridge"].append(wall - covered)
        per["cover"].append(covered)
        qp_s_total += qp.seconds
        qp_iters_total += qp.info["iters"]
        if k >= count_trials:
            continue
        n, m = context.info["n"], context.info["m"]
        counts["cells"] += sum(s.info["cells"] for s in kids if s.name == "build_score_matrix")
        counts["select_iters"] += select.info["cg_iters"]
        counts["select_cands"] += select.info["candidates"]
        counts["select_ok"] += select.info["ok"]
        counts["select_bytes"] += select.info["cg_iters"] * 8 * n * n
        counts["context_bytes"] += 8 * (n * n + n * m + m * m)
        counts["qp_iters"] += qp.info["iters"]
        counts["gemm_bytes"] += qp.info["iters"] * 8 * n * n
        counts["qp_conv"] += qp.info["converged"]
        counts["qp_lam"] += qp.info["lambda_active"]

    runs = [i for i, s in enumerate(spans) if s.name == "run_experiment"]
    harness_self = sum(spans[i].seconds - sum(c.seconds for c in children.get(i, []) if c.name == "run_trial")
                       for i in runs)
    counted = min(count_trials, len(trial_idx))
    return {
        "data.s": statistics.median(per["data"]),
        "classifier.fit_s": statistics.median(per["fit"]),
        "scores.s": statistics.median(per["scores"]),
        "scores.cells": counts["cells"] / counted,
        "kernel.select_s": statistics.median(per["select"]),
        "kernel.select_cg_iters": counts["select_iters"] / counted,
        "kernel.select_ok_ratio": counts["select_ok"] / counts["select_cands"],
        "kernel.select_matvec_bytes": counts["select_bytes"] / counted,
        "kernel.context_s": statistics.median(per["context"]),
        "kernel.context_bytes": counts["context_bytes"] / counted,
        "kernel.mmd_s": statistics.median(per["mmd"]),
        "solver.qp_s": statistics.median(per["qp"]),
        "solver.qp_iters": counts["qp_iters"] / counted,
        "solver.s_per_iter": qp_s_total / qp_iters_total,
        "solver.gemm_bytes": counts["gemm_bytes"] / counted,
        "solver.converged_ratio": counts["qp_conv"] / counted,
        "solver.lambda_active_ratio": counts["qp_lam"] / counted,
        "bounds.ridge_s": statistics.median(per["ridge"]),
        "quantile.s": statistics.median(per["quantile"]),
        "harness.self_s": harness_self / len(trial_idx),
        "harness.emit_s": statistics.median(s.seconds for s in spans if s.name == "emit_results"),
    }, statistics.median(per["cover"])
