"""Seed-to-seed steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 101 102 ... [--workload NAME ...] [--out FILE] [--compare FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, and
records for every end-to-end metric of BENCHMARK.json the median over seeds,
the spread (distance between the first and third quartile from
``statistics.quantiles(values, n=4)``, as a share of the median) and the
metric's bound. Writes the seeds, every run's values and the spreads to
``--out`` (default: print only), so a later claim can be re-checked on
other seeds. With ``--compare`` an earlier output is the first set: each
median may be worse than the earlier one by at most the metric's bound.
Exits 2 when a spread exceeds its bound or a compared median worsened by
more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None, help="an earlier --out file")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds")

    earlier = json.loads(args.compare.read_text(encoding="utf-8"))["workloads"] if args.compare else {}
    result = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            report, line = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "correct": line["correct"], "attempted": line["attempted"],
                         "failed": line["failed"],
                         "values": {k: m["value"] for k, m in report["end_to_end"].items()}})
            print(f"{name} seed={seed} correct={line['correct']} attempted={line['attempted']}", flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["values"][m["name"]] for r in runs]
            s = spread(values)
            metrics[m["name"]] = {"median": statistics.median(values), "spread": s, "bound": m["bound"],
                                  "below_third_of_bound": s < m["bound"] / 3}
            steady &= s <= m["bound"]
            line = f"  {m['name']:<14} median {statistics.median(values):.6g}  spread {s:.4f}  bound {m['bound']}"
            if name in earlier:
                before = earlier[name]["metrics"][m["name"]]["median"]
                change = statistics.median(values) / before - 1.0
                worse = -change if m["better"] == "higher" else change
                metrics[m["name"]]["change_vs_compare"] = change
                steady &= worse <= m["bound"]
                line += f"  change {change:+.4f} vs {before:.6g}"
            print(line, flush=True)
        result["workloads"][name] = {"metrics": metrics, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
