"""Calibration-pipeline benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes, one after another: set-up probes,
one process that sets up again and measures, then more set-up probes, so
that set-up time and peak RSS belong to that workload alone. Every process
pins the BLAS and OpenMP thread variables to 1 before numpy is imported and
drives the package only through ``harness.run_experiment(cfg, workers=1)`` and
``harness.emit_results``.

Without ``--workload`` every workload runs and all end-to-end metrics are
printed by name and unit. With ``--trace 1`` the measuring process also
replays its batches with spans around the harness's layer calls and prints
the per-layer metrics, the tracing overhead, and whether the stage spans
account for the calibration time.

The last line of standard output is one JSON object. For a single workload
it holds ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. The full report, with sample
counts and the environment, is the line before it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 20  # set-up-only processes, half before and half after the measuring one
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150
# glibc serves arrays below a threshold that moves up to 32 MiB from its heap,
# and whether a freed (2000, 2000) array stays resident then hangs on the heap's
# layout: peak RSS of the same trials jumped by 30 MB either way between runs.
# A fixed threshold maps every array of 4 MiB and more and unmaps it when
# freed, so ru_maxrss is the peak of live arrays. It makes the n=2000 trials
# a few percent slower, from the page faults.
MMAP_THRESHOLD = str(4 * 2**20)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child(workload: str, seed: int, seconds: float, trace: int, role: str, timeout: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", MALLOC_MMAP_THRESHOLD_=MMAP_THRESHOLD)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {role} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up probes around the measuring process; returns the full report.

    Every probe times its own set-up and then the set-up reference.
    ``setup_s`` is the median over processes of the set-up time scaled by
    the reference's nominal over its measured time, so that it does not
    follow the speed of a shared machine; ``setup_wall_s`` is the median of
    the wall times."""
    def probes():
        return [_child(name, seed, seconds, trace, "setup", SETUP_TIMEOUT_S) for _ in range(SETUP_PROBES // 2)]

    setups = probes()
    report = _child(name, seed, seconds, trace, "measure", MEASURE_TIMEOUT_S)
    setups += probes()
    metrics = report["end_to_end"]
    metrics["setup_s"] = {"value": statistics.median(s["scaled_s"] for s in setups),
                          "unit": "s", "samples": len(setups)}
    metrics["setup_wall_s"] = {"value": statistics.median(s["wall_s"] for s in setups), "unit": "s",
                               "samples": len(setups)}
    metrics["peak_rss_mb"] = {"value": report.pop("peak_rss_mb"), "unit": "MB", "samples": 1}
    metrics["fail_frac"] = {"value": report["failed"] / report["attempted"], "unit": "1",
                            "samples": report["attempted"]}
    report.update(seed=seed, seconds=seconds, trace=trace)
    return report


def _print_report(report: dict, spec: dict) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}  "
          f"attempted={report['attempted']}  failed={report['failed']}")
    for name, m in sorted(report["end_to_end"].items()):
        print(f"  {name:<16} {m['value']:>14.6g} {m['unit']:<7} (n={m['samples']})")
    for problem in report["problems"]:
        print(f"  check failed: {problem}")
    if "per_layer" not in report:
        return
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in report["per_layer"].items():
        print(f"  {name:<28} {value:>14.6g} {units.get(name, '')}")
    cover = report["span_cover"]
    print(f"  tracing_overhead_s           {report['tracing_overhead_s']:>14.6g} s")
    print(f"  stage spans {cover['stage_spans_s']:.4g} s vs untraced calib_s_p50 {cover['calib_s_p50']:.4g} s: "
          f"ratio {cover['ratio']:.3f}, {'within' if cover['within'] else 'NOT within'} tolerance "
          f"(self time hides {max(0.0, 1.0 - cover['ratio']):.1%})")


def _contract_line(report: dict, spec: dict, trace: int) -> dict:
    if trace:
        values = report["per_layer"] | {"tracing_overhead_s": report["tracing_overhead_s"]}
        listed = spec["per_layer"]
    else:
        values = {name: m["value"] for name, m in report["end_to_end"].items()}
        listed = spec["end_to_end"]
    return {"correct": report["failed"] == 0 and not report["problems"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        reports = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        _print_report(report, spec)
    if args.workload:
        print(json.dumps(reports[0]))
        print(json.dumps(_contract_line(reports[0], spec, args.trace)))
    else:
        print(json.dumps({r["workload"]: r for r in reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
