"""Time bandwidth selection alone on the two benchmark shapes.

    python3 benchmarks/bench_select.py --label NAME [--src DIR] [--out BENCH_select.json] [--repeats 5]

For each shape (c=3, d=2, n=2000 and c=10, d=10, n=3000) and seed (1, 7)
it builds one unsupervised calibration's selection inputs with the input
builder of bench_qp.py (logistic fit, calibration points) plus adaptive
scores from ``build_score_matrix`` and, as ``calibrate_unsupervised`` does,
the naive inclusion indicator u0 = 1{score <= q0}, q0 the weighted quantile
at the naive weights; then it runs ``select_kernel`` on u0 over the default
bandwidth grid on the calibration's squared distances, built once. It
records the selected sigma, per candidate (by ascending sigma) the CG steps,
the preconditioner's rank (0 where no factor was used) and whether it was
pruned, the total steps, the winner's steps, the number of factors, and the
median seconds of ``--repeats`` runs. ``peak_bytes`` is the tracemalloc peak
of one more ``select_kernel`` call that builds the distances itself, so it
counts every array selection holds; ``peak_ratio`` divides it by the 8 n^2
bytes of one (n, n) float64 array. The median of a fixed float64
(3000, 3000) @ (3000, 10) GEMM is recorded too, so machines of different
speed compare through select_s / ref_gemm_s. The run is appended to
``--out``; ``--src`` times another checkout's package.
"""
import argparse
import importlib
import json
import os
import sys
import tracemalloc
from pathlib import Path

from bench_qp import SHAPES, calibration_inputs, median_seconds  # sets the BLAS threads before numpy
import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7)
ALPHA = 0.1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out", default=str(ROOT / "BENCH_select.json"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    u = importlib.import_module("unsupcp")
    kernel = importlib.import_module("unsupcp.kernel")
    ref = median_seconds(lambda a=np.ones((3000, 3000)), b=np.ones((3000, 10)): a @ b, 20)
    rows = []  # one per shape and seed
    for shape, (c, d, n, train_size, spread) in SHAPES.items():
        for seed in SEEDS:
            model, cal, _, _ = calibration_inputs(u, c, d, n, train_size, spread, seed)
            scores = u.build_score_matrix(model, cal, "adaptive", seed)
            naive = u.naive_weights(model, cal).matrix
            u0 = scores.values <= u.conformal_quantile_weighted(scores.values, naive, ALPHA)
            grid = u.bandwidth_grid(d)
            D2 = kernel.pairwise_sq_dists(cal, cal)

            def select():
                return u.select_kernel(grid, cal, u0, sq_dists=D2)

            spec, diag = select()
            select_s = median_seconds(select, args.repeats)
            del D2
            tracemalloc.start()
            u.select_kernel(grid, cal, u0)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rows.append({
                "shape": shape, "seed": seed, "n": n, "sigma": spec.sigma,
                "iterations": diag["iterations"].tolist(), "ranks": diag["ranks"].tolist(),
                "pruned": diag["pruned"].tolist(), "total_iterations": int(diag["iterations"].sum()),
                "winner_iterations": int(diag["iterations"][diag["selected_index"]]),
                "factors": int(np.count_nonzero(diag["ranks"])),
                "select_s": round(select_s, 4), "peak_bytes": peak, "peak_ratio": round(peak / (8 * n * n), 4)})
            print(json.dumps(rows[-1]), flush=True)
    out = Path(args.out)  # older runs are kept, so parent and change sit side by side
    record = json.loads(out.read_text()) if out.exists() else {"runs": []}
    record["runs"].append({"label": args.label, "ref_gemm_s": round(ref, 6), "python": sys.version.split()[0],
                           "numpy": np.__version__, "nproc": os.cpu_count(), "results": rows})
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
