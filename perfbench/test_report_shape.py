"""Shape checks of the benchmark's own output; no timing is checked.

    python3 -m pytest perfbench

Runs the cheap ``grid-small`` workload for one second, untraced and traced,
and checks that every named metric is reported with its unit and sample
count, that the last line follows the result-line format, and that the metric
lists agree with BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = ("setup_s", "setup_wall_s", "trials_per_s", "calib_s_p50", "calib_s_p90", "peak_rss_mb", "fail_frac",
              "coverage", "cov_gap", "set_size", "mmd", "ref_s", "trials_per_ref", "calib_p50_ref")
PER_LAYER = (
    "data.s", "classifier.fit_s", "scores.s", "scores.cells",
    "kernel.select_s", "kernel.select_cg_iters", "kernel.select_ok_ratio", "kernel.select_matvec_bytes",
    "kernel.context_s", "kernel.context_bytes", "kernel.mmd_s",
    "solver.qp_s", "solver.qp_iters", "solver.s_per_iter", "solver.gemm_bytes", "solver.converged_ratio",
    "solver.lambda_active_ratio", "bounds.ridge_s", "quantile.s", "harness.self_s", "harness.emit_s",
)
ENVIRONMENT = ("seed", "threads", "nproc", "cpu_model", "blas", "blas_version", "python", "numpy", "git_commit")


def _run(cwd: Path, trace: int, seed: int = 3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "grid-small", "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def outputs():
    """(full report, result line) of an untraced and a traced run, by trace flag."""
    out = {}
    for trace in (0, 1):
        proc = _run(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[trace] = json.loads(lines[-2]), json.loads(lines[-1])
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_report_names_every_metric_with_unit_and_samples(outputs, trace):
    report, _ = outputs[trace]
    assert set(report["end_to_end"]) == set(END_TO_END)
    for name, metric in report["end_to_end"].items():
        assert set(metric) == {"value", "unit", "samples"}, name
        assert isinstance(metric["unit"], str) and metric["unit"], name
        assert isinstance(metric["samples"], int) and metric["samples"] >= 1, name
    assert report["end_to_end"]["calib_s_p90"]["samples"] >= 100
    assert set(ENVIRONMENT) <= set(report["environment"])
    assert report["environment"]["seed"] == 3
    assert set(report["environment"]["threads"].values()) == {"1"}
    if trace:
        assert set(report["per_layer"]) == set(PER_LAYER)
        assert isinstance(report["tracing_overhead_s"], float)
        assert set(report["span_cover"]) == {"stage_spans_s", "calib_s_p50", "ratio", "within"}
    else:
        assert "per_layer" not in report


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_follows_result_format(outputs, spec, trace):
    report, line = outputs[trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == report["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], float)


def test_spec_lists_only_reported_metrics(spec):
    assert [w["name"] for w in spec["workloads"]] == ["trial-c3-n2000", "calib-c10-n3000", "grid-small"]
    assert {m["name"] for m in spec["end_to_end"]} <= set(END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} <= set(PER_LAYER) | {"tracing_overhead_s"}


def test_counts_and_quality_repeat_at_a_fixed_seed(outputs):
    first, _ = outputs[1]
    second = json.loads(_run(ROOT, 1).stdout.strip().splitlines()[-2])
    for name in ("coverage", "cov_gap", "set_size", "mmd"):
        assert first["end_to_end"][name]["value"] == second["end_to_end"][name]["value"], name
    for name in ("scores.cells", "kernel.select_cg_iters", "solver.qp_iters", "kernel.context_bytes"):
        assert first["per_layer"][name] == second["per_layer"][name], name


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
