"""One workload in one fresh process: set up, measure, check, report.

Run by ``perfbench/run.py``; not meant to be called by hand. With
``--role setup`` the process only sets up (imports, validates the workload's
config, runs one small untimed warm-up trial) and prints its set-up time,
as measured and as scaled by the set-up reference (see ``SETUP_REF_S``).
With ``--role measure`` it sets up the same way, then runs the workload's
trials through ``harness.run_experiment(cfg, workers=1)`` and
``harness.emit_results`` until ``--seconds`` have passed, checks every
output, and prints one JSON report.
"""

import os
import time

SETUP_START = time.perf_counter()

# one BLAS / OpenMP thread, fixed before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import SPAN_COVER_TOL, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, batch_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = Path(__file__).resolve().parent / ".out"
SLACK_REL_TOL = 1e-8
REF_BYTES = 4e8  # matrix bytes one reference timing streams
WARMUP_N = 100  # calibration size of the untimed warm-up trial that ends set-up
WARMUP_SEED = 0  # the same warm-up inputs in every run, so set-up time does not follow --seed
# Set-up is interpreter work and small-array numpy calls. The set-up reference
# is the same kind of work and does not come from the package; a set-up time
# is scaled by SETUP_REF_S over the reference's time in the same process.
# SETUP_REF_S is close to the reference's median on the 2-vCPU machine the
# bounds were set on, so that scaled times stay near wall times there.
SETUP_REF_S = 0.1
SETUP_REF_SOURCE = "\n".join(f"def f{i}(x, y=({i}, 'a{i}')):\n    return [x * {i} + j for j in range(y[0] % 7)] + list(y)\n"
                             for i in range(800))


def _import_package():
    if not (SRC / "unsupcp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import jsonschema
    import numpy as np

    from unsupcp import harness

    return np, harness, jsonschema


def _environment(np, seed: int) -> dict:
    env = {
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_version": None,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"], env["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    if (ROOT / ".git").exists():
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, timeout=30, check=False)
        if proc.returncode == 0:
            env["git_commit"] = proc.stdout.strip()
    return env


def check_batch(results, paths, schema, jsonschema) -> tuple[int, int, list[str]]:
    """Output checks of one run_experiment batch.

    Returns (trials attempted, trials failed, problems). A trial fails when
    it raised, or when an unsupervised row is unconverged, has a non-finite
    threshold, a coverage outside [0, 1] or a loss-constraint slack below
    -1e-8 of its bound. An emitted summary.json that does not validate
    against the package's schema fails every trial of the batch.
    """
    cfg = results.config
    attempted = len(cfg.cal_sizes) * cfg.trials
    problems = [f"trial {f['trial']} (n={f['cal_size']}) raised: {f['error']}" for f in results.failures]
    bad = {(f["cal_size"], f["trial"]) for f in results.failures}
    for rec in results.records:
        for row in rec.rows():
            if row["method"] != "unsupervised":
                continue
            why = []
            if row["solver_converged"] is not True:
                why.append("solver not converged")
            if not math.isfinite(row["q_hat"]):
                why.append(f"q_hat {row['q_hat']}")
            if not 0.0 <= row["coverage"] <= 1.0:
                why.append(f"coverage {row['coverage']}")
            if row["solver_slack"] < -SLACK_REL_TOL * (rec.cal_size * rec.loss_bound):
                why.append(f"slack {row['solver_slack']}")
            if why:
                bad.add((rec.cal_size, rec.trial_index))
                problems.append(f"trial {rec.trial_index} (n={rec.cal_size}): {', '.join(why)}")
    try:
        with open(paths["summary"], encoding="utf-8") as fh:
            jsonschema.validate(json.load(fh), schema)
    except (OSError, ValueError, jsonschema.ValidationError) as exc:
        problems.append(f"summary.json invalid: {exc}")
        return attempted, attempted, problems
    return attempted, len(bad), problems


def setup_reference(np) -> float:
    """Seconds for a fixed compile and a fixed loop of small numpy calls."""
    x = np.linspace(0.0, 1.0, 300)
    t0 = time.perf_counter()
    compile(SETUP_REF_SOURCE, "<setup-reference>", "exec")
    for _ in range(6000):
        np.exp(-0.5 * x).sum()
    return time.perf_counter() - t0


class Reference:
    """The solver's matrix product shape, (n, n) times (n, c), on fixed
    inputs that do not come from the package, timed between batches.

    The machine is shared and its speed drifts by tens of percent over
    seconds to minutes; dividing a batch's times by the reference times
    taken around it cancels that drift, while a change in the package moves
    the quotient as it moves the raw time. The matrix is allocated per
    timing and dropped afterwards, between batches, so it stays below the
    workload's own peak RSS.
    """

    def __init__(self, np, n: int, c: int):
        self.np, self.n = np, n
        self.x = np.full((n, c), 0.5)
        self.reps = max(8, math.ceil(REF_BYTES / (8 * n * n)))
        self.samples: list[float] = []

    def measure(self):
        matrix = self.np.full((self.n, self.n), 1e-3)
        t0 = time.perf_counter()
        for _ in range(self.reps):
            matrix @ self.x
        self.samples.append(time.perf_counter() - t0)


class Runner:
    """Runs batches of one workload and keeps what the report needs."""

    def __init__(self, harness, jsonschema, workload, config, seed: int, out_dir: Path, reference: Reference):
        self.harness, self.jsonschema = harness, jsonschema
        self.workload, self.config, self.seed, self.out_dir = workload, config, seed, out_dir
        self.reference = reference
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def batch(self, index: int):
        """One run_experiment + emit_results; returns (results, wall seconds).

        The harness functions are looked up on the module at call time, so
        a traced pass sees its wrappers."""
        cfg = replace(self.config, seed=batch_seed(self.seed, index))
        t0 = time.perf_counter()
        results = self.harness.run_experiment(cfg, workers=1)
        paths = self.harness.emit_results(results, str(self.out_dir))
        wall = time.perf_counter() - t0
        attempted, failed, problems = check_batch(results, paths, self.harness.RESULTS_SCHEMA, self.jsonschema)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        return results, wall

    def timed(self, seconds: float):
        """Batches until the workload's minimum trial count has run and the
        next batch would end more than half a batch past ``seconds``, so a
        run overshoots its length by half a batch at most. The reference is
        timed before the first batch and after every batch. Returns (results
        list, batch walls)."""
        out, walls = [], []
        trials = 0
        start = time.perf_counter()
        self.reference.measure()
        while trials < self.workload.min_trials or (
                time.perf_counter() - start + 0.5 * statistics.fmean(walls) < seconds):
            results, wall = self.batch(len(out))
            self.reference.measure()
            out.append(results)
            walls.append(wall)
            trials += len(results.config.cal_sizes) * results.config.trials
        return out, walls


def _unsupervised_rows(batches, limit=None) -> list[dict]:
    rows = [row for res in batches for rec in res.records for row in rec.rows() if row["method"] == "unsupervised"]
    return rows if limit is None else rows[:limit]


def end_to_end(batches, walls, min_trials: int, alpha: float, ref_samples: list[float]) -> dict:
    """The user-facing metrics of a timed pass, each with unit and sample count.

    Quality figures (coverage, cov_gap, set_size, mmd) use the first ``min_trials``
    trials only, so they are fixed by the seed whatever the run length.
    ``*_ref`` figures divide each batch's times by the mean of the
    reference times taken just before and just after it."""
    rows = _unsupervised_rows(batches)
    fixed = _unsupervised_rows(batches, min_trials)
    calib = [r["wall_seconds"] for r in rows]
    trials = sum(len(res.records) for res in batches)
    refs = [(a + b) / 2.0 for a, b in zip(ref_samples, ref_samples[1:])]
    calib_ref = [row["wall_seconds"] / ref for res, ref in zip(batches, refs)
                 for row in _unsupervised_rows([res])]
    metrics = {
        "trials_per_s": {"value": trials / sum(walls), "unit": "1/s", "samples": trials},
        "calib_s_p50": {"value": statistics.median(calib), "unit": "s", "samples": len(calib)},
        "ref_s": {"value": statistics.median(ref_samples), "unit": "s", "samples": len(ref_samples)},
        "trials_per_ref": {"value": trials / sum(w / ref for w, ref in zip(walls, refs)), "unit": "1/ref",
                           "samples": trials},
        "calib_p50_ref": {"value": statistics.median(calib_ref), "unit": "ref", "samples": len(calib_ref)},
        "coverage": {"value": statistics.fmean(r["coverage"] for r in fixed), "unit": "1", "samples": len(fixed)},
        "cov_gap": {"value": statistics.fmean(abs(r["coverage"] - (1.0 - alpha)) for r in fixed),
                    "unit": "1", "samples": len(fixed)},
        "set_size": {"value": statistics.fmean(r["mean_size"] for r in fixed), "unit": "labels",
                     "samples": len(fixed)},
        "mmd": {"value": statistics.fmean(r["mmd"] for r in fixed), "unit": "1", "samples": len(fixed)},
    }
    if len(calib) >= 100:
        metrics["calib_s_p90"] = {"value": statistics.quantiles(calib, n=10)[-1], "unit": "s",
                                  "samples": len(calib)}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    np, harness, jsonschema = _import_package()
    config = harness.ExperimentConfig.from_dict(dict(workload.config, seed=0))
    warm_cfg = replace(config, cal_sizes=(WARMUP_N,), trials=1, seed=WARMUP_SEED)
    warm = harness.run_experiment(warm_cfg, workers=1)
    if warm.failures:
        raise SystemExit(f"perfbench: warm-up trial failed: {warm.failures}")
    if args.role == "setup":
        wall = time.perf_counter() - SETUP_START
        print(json.dumps({"wall_s": wall, "scaled_s": wall * SETUP_REF_S / setup_reference(np)}))
        return 0

    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    reference = Reference(np, config.cal_sizes[0], len(config.dataset["class_means"]))
    runner = Runner(harness, jsonschema, workload, config, args.seed, out_dir, reference)
    try:
        report = _measure(runner, args.trace, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report["environment"] = _environment(np, args.seed)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


def _measure(runner: Runner, trace: int, seconds: float) -> dict:
    """The timed pass; with ``trace`` it gets half the time and its batches
    are then replayed with spans on, the wall-time difference being the
    tracing overhead."""
    min_trials = runner.workload.min_trials
    batches, walls = runner.timed(seconds / 2.0 if trace else seconds)
    metrics = end_to_end(batches, walls, min_trials, runner.config.alpha, runner.reference.samples)
    report = {"workload": runner.workload.name, "end_to_end": metrics}
    if trace:
        tracer = Tracer()
        tracer.install(runner.harness)
        traced_walls, traced_records = [], {}
        try:
            for index in range(len(batches)):
                tracer.batch = index
                results, wall = runner.batch(index)
                traced_walls.append(wall)
                for rec in results.records:
                    traced_records[(index, rec.cal_size, rec.trial_index)] = rec
        finally:
            tracer.restore(runner.harness)
        report["per_layer"], covered = layer_metrics(tracer, traced_records, min_trials)
        report["tracing_overhead_s"] = sum(traced_walls) - sum(walls)
        report["spans"] = len(tracer.spans)
        p50 = metrics["calib_s_p50"]["value"]
        report["span_cover"] = {"stage_spans_s": covered, "calib_s_p50": p50, "ratio": covered / p50,
                                "within": abs(covered / p50 - 1.0) <= SPAN_COVER_TOL}
    report.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems[:20])
    return report


if __name__ == "__main__":
    sys.exit(main())
