"""Time the calibration's Gram arithmetic alone on the two benchmark shapes.

    python3 benchmarks/bench_gram.py --label NAME [--src DIR] [--out BENCH_gram.json] [--repeats 5]

For each shape (c=3, d=2, n=2000 and c=10, d=10, n=3000) and seed (1, 7)
it draws n calibration and n training points and times, best of
``--repeats``: the calibration's squared distances (what bandwidth
selection reads), the float64 ``gaussian_gram`` of the calibration points
(``k0_s``, kept to compare with older runs; the calibration does not call
it) and their n x n cross Gram at sigma = sqrt(d/2) (the bandwidth
selection picks on both shapes), and the exp pass at every candidate sigma of the
bandwidth grid: into a float64 Gram from the distances in float64
(``exp_s``, as the cross Gram's row blocks) and into a float32 one from the
calibration's distances as built (``exp32_s``, what bandwidth selection
builds for each candidate). ``context_gram_s`` times the context's K0
as the calibration builds it: ``kernel._context_gram`` at sigma = sqrt(d/2)
on a fresh copy of the float32 distances (it works in place; the copy is
not timed), float64 exp rounded once to float32. The best
of 20 runs of a fixed float64 (3000, 10) @ (10, 3000) GEMM is recorded
too, so machines of different speed compare through seconds / ref_gemm_s.
The run is appended to ``--out``; ``--src`` times another checkout's package.
"""
import argparse
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))  # before numpy
import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# shape: (c, d, n, class-mean spread), as in perfbench's trial-c3-n2000 and calib-c10-n3000
SHAPES = {"c3-d2-n2000": (3, 2, 2000, 1.45), "c10-d10-n3000": (10, 10, 3000, 2.2)}
SEEDS = (1, 7)


def points(u, c, d, n, spread, seed):
    # the acceptance-grid mixture (three classes on a circle) or the criterion-10 shape (class means spread * I)
    angles = 2.0 * math.pi * np.arange(3) / 3.0
    means = spread * (np.stack([np.cos(angles), np.sin(angles)], axis=1) if c == 3 else np.eye(c, d))
    X = u.generate_synthetic(u.SyntheticConfig(means, 1.0, np.full(c, 1.0 / c)), 2 * n, seed).instances
    return X[:n], X[n:]


def best_seconds(call, repeats, setup=None):
    seconds = []
    for _ in range(repeats):
        if setup is not None:
            setup()  # untimed
        t = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - t)
    return round(min(seconds), 6)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--out", default=str(ROOT / "BENCH_gram.json"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    u = importlib.import_module("unsupcp")
    kernel = importlib.import_module("unsupcp.kernel")
    # the distance builder is kernel.pairwise_sq_dists, or the private _sq_dists of checkouts before it
    sq_dists = getattr(kernel, "pairwise_sq_dists", None) or kernel._sq_dists
    a, b = np.ones((3000, 10)), np.ones((10, 3000))
    ref = best_seconds(lambda: a @ b, 20)
    rows = []  # one per shape and seed
    for shape, (c, d, n, spread) in SHAPES.items():
        for seed in SEEDS:
            X, T = points(u, c, d, n, spread, seed)
            sigma = math.sqrt(d / 2.0)
            D2 = sq_dists(X, X)
            D64, K, K32, D32 = D2.astype(np.float64), np.empty(D2.shape), np.empty(D2.shape, np.float32), np.empty_like(D2)
            rows.append({
                "shape": shape, "seed": seed,
                "sq_dists_s": best_seconds(lambda: sq_dists(X, X), args.repeats),
                "k0_s": best_seconds(lambda: u.gaussian_gram(X, X, sigma), args.repeats),
                "cross_s": best_seconds(lambda: u.gaussian_gram(X, T, sigma), args.repeats),
                "context_gram_s": best_seconds(lambda: kernel._context_gram(D32, sigma), args.repeats,
                                               setup=lambda: np.copyto(D32, D2)),
                "exp_s": {f"{s.sigma:.4g}": best_seconds(lambda s=s: kernel._gram_from_sq_dists(D64, s.sigma, out=K),
                                                         args.repeats)
                          for s in u.bandwidth_grid(d)},
                "exp32_s": {f"{s.sigma:.4g}": best_seconds(lambda s=s: kernel._gram_from_sq_dists(D2, s.sigma, out=K32),
                                                           args.repeats)
                            for s in u.bandwidth_grid(d)}})
            del D2, D64, K, K32, D32
            print(json.dumps(rows[-1]), flush=True)
    out = Path(args.out)  # older runs are kept, so parent and change sit side by side
    record = json.loads(out.read_text()) if out.exists() else {"runs": []}
    record["runs"].append({"label": args.label, "ref_gemm_s": ref, "python": sys.version.split()[0],
                           "numpy": np.__version__, "nproc": os.cpu_count(), "results": rows})
    out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
