"""Time the label-weight QP alone on the two benchmark shapes.

    python3 benchmarks/bench_qp.py --label NAME [--src DIR] [--out BENCH_qp.json] [--repeats 3]

For each shape (c=3, d=2, n=2000 and c=10, d=10, n=3000) and seed (1, 7, 8)
it builds one unsupervised calibration's QP (logistic fit, loss constraint,
naive start, context against m = n training points at sigma = sqrt(d/2), the
bandwidth selection picks on both shapes). One counted solve records
iterations, (n, n) @ (n, c) products, row projections, restarts, the rank of
the step's metric (0 when it never ran), the iteration that dropped it (-1
never ran, 0 stayed on) and the Ritz values it read; then
``--repeats`` solves give the median QP seconds. ``peak_ratio`` is the
QP's memory peak over the 8 n^2 bytes of one (n, n) float64 array: the
bytes of the context's Gram, which the solve reads throughout, plus the
tracemalloc peak of one more solve. The median of a fixed
float32 (3000, 3000) @ (3000, 10) GEMM is recorded too, so machines of
different speed compare through qp_s / ref_gemm_s. The run is appended to
``--out``; ``--src`` times another checkout's package, which must take sigma
as a float, hold the context's Gram as ``ctx.gram`` and report the metric's
``metric_rank`` and ``ritz_values`` (time older checkouts with their own copy
of this script).
"""
import argparse
import importlib
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))  # before numpy
import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# shape: (c, d, n, training points, class-mean spread), as in perfbench's trial-c3-n2000 and calib-c10-n3000
SHAPES = {"c3-d2-n2000": (3, 2, 2000, 2700, 1.45), "c10-d10-n3000": (10, 10, 3000, 3900, 2.2)}
SEEDS = (1, 7, 8)


def calibration_inputs(u, c, d, n, train_size, spread, seed):
    """One unsupervised calibration's inputs: the logistic fit, the n
    calibration points, the m = n training sample and the loss bound."""
    # the acceptance-grid mixture (three classes on a circle) or the criterion-10 shape (class means spread * I)
    angles = 2.0 * math.pi * np.arange(3) / 3.0
    means = spread * (np.stack([np.cos(angles), np.sin(angles)], axis=1) if c == 3 else np.eye(c, d))
    ds = u.generate_synthetic(u.SyntheticConfig(means, 1.0, np.full(c, 1.0 / c)), train_size + n, seed)
    X, y, fit = ds.instances, ds.labels, train_size - train_size // 5
    model = u.train_logistic(u.Dataset(X[:fit], y[:fit], c))
    bound = u.estimate_loss_bound(model, u.Dataset(X[fit:train_size], y[fit:train_size], c))
    idx = np.random.default_rng(seed).choice(fit, size=n, replace=False)
    return model, X[train_size:], u.Dataset(X[idx], y[idx], c), bound.value


def qp_inputs(u, c, d, n, train_size, spread, seed):
    model, cal, train, bound = calibration_inputs(u, c, d, n, train_size, spread, seed)
    ctx = u.build_context(cal, train, math.sqrt(d / 2.0))
    return ctx, u.build_loss_constraints(model, cal, bound), u.naive_weights(model, cal)


def median_seconds(call, repeats):
    seconds = []
    for _ in range(repeats):
        t = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - t)
    return statistics.median(seconds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out", default=str(ROOT / "BENCH_qp.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    u = importlib.import_module("unsupcp")
    solver = importlib.import_module("unsupcp.solver")
    ref = median_seconds(lambda a=np.ones((3000, 3000), np.float32), b=np.ones((3000, 10), np.float32): a @ b, 20)
    counts = {}

    def counted(name, inner):
        return lambda *xs: counts.__setitem__(name, counts.get(name, 0) + 1) or inner(*xs)

    rows = []  # one per shape and seed
    for shape, (c, d, n, train_size, spread) in SHAPES.items():
        for seed in SEEDS:
            ctx, cut, init = qp_inputs(u, c, d, n, train_size, spread, seed)
            saved = solver._project_rows, solver._value_and_gap
            counts.clear()
            solver._project_rows, solver._value_and_gap = (counted(k, f) for k, f in zip(("proj", "gap"), saved))
            _, report = u.solve_label_weights(ctx, cut, None, init)
            solver._project_rows, solver._value_and_gap = saved
            qp_s = median_seconds(lambda: u.solve_label_weights(ctx, cut, None, init), args.repeats)
            tracemalloc.start()
            u.solve_label_weights(ctx, cut, None, init)
            peak = ctx.gram.values.nbytes + tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rows.append({  # one (n, n) @ (n, c) product per gap evaluation, besides the Krylov run's
                "shape": shape, "seed": seed, "iterations": report.iterations, "products": counts["gap"],
                "projections": counts["proj"], "restarts": report.restarts, "metric_rank": report.metric_rank,
                "metric_iteration": report.metric_iteration, "ritz_values": [round(t, 2) for t in report.ritz_values],
                "converged": report.converged,
                "objective": report.objective_value, "qp_s": round(qp_s, 4), "peak_ratio": round(peak / (8 * n * n), 4)})
            print(json.dumps(rows[-1]), flush=True)
    out = Path(args.out)  # older runs are kept, so parent and change sit side by side
    record = json.loads(out.read_text()) if out.exists() else {"runs": []}
    record["runs"].append({"label": args.label, "ref_gemm_s": round(ref, 6), "python": sys.version.split()[0],
                           "numpy": np.__version__, "nproc": os.cpu_count(), "results": rows})
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
