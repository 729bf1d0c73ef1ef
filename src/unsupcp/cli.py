"""Command line entry point.

``unsupcp run --config cfg.json [--seed N] [--workers K] [--out DIR]``
runs the configured experiment and writes summary.json, trials.csv, and
gapcurve.csv under the output directory. Exit codes: 0 on success, 2 when
some trials failed but results were still emitted, 1 on config or I/O
errors. ``--workers`` defaults to 1 (trials run in this process).
"""

import argparse
import sys
from dataclasses import replace

from .harness import ExperimentConfig, emit_results, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unsupcp", description="conformal classification experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the experiment config JSON")
    run_p.add_argument("--seed", type=int, default=None, help="override the config's base seed")
    run_p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    run_p.add_argument("--out", default="results", help="output directory (default ./results)")
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig.from_json(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        results = run_experiment(cfg, workers=args.workers)
        paths = emit_results(results, args.out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    done = len(results.records)
    failed = len({(f["cal_size"], f["trial"]) for f in results.failures})  # trials, not failing methods
    print(f"completed {done} trials ({failed} failed); wrote {', '.join(sorted(paths.values()))}")
    if failed:
        for f in results.failures[:10]:
            where = f" method={f['method']}" if "method" in f else ""
            print(f"  failed n={f['cal_size']} trial={f['trial']}{where}: {f['error']}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
