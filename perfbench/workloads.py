"""The benchmark's workloads: one ExperimentConfig each, plus run settings.

Configs are plain dicts, so the launcher can read this file without importing
numpy or the package; the workload process turns them into
``ExperimentConfig``s. The config ``seed`` is replaced per batch from the
benchmark seed, so the inputs follow ``--seed`` alone.
"""

import math
from dataclasses import dataclass

ROOT3 = math.sqrt(3) / 2

# the acceptance-grid mixture: three unit-variance classes on a circle of radius 1.45
MIXTURE = {
    "type": "synthetic",
    "class_means": [[1.45 * 1.0, 1.45 * 0.0], [1.45 * -0.5, 1.45 * ROOT3], [1.45 * -0.5, 1.45 * -ROOT3]],
    "cov_scale": 1.0,
    "priors": [1 / 3, 1 / 3, 1 / 3],
}

# the criterion-10 shape: ten classes in ten dimensions, means 2.2 * I
C10 = {
    "type": "synthetic",
    "class_means": [[2.2 if i == j else 0.0 for j in range(10)] for i in range(10)],
    "cov_scale": 1.0,
    "priors": [1 / 10] * 10,
}


@dataclass(frozen=True)
class Workload:
    """``config`` holds ExperimentConfig fields except the seed.

    ``min_trials`` trials run in every timed pass even past the deadline;
    quality figures and counts come from exactly those trials, so they
    repeat at a fixed seed. Why each workload exists is said in
    BENCHMARK.json.
    """

    name: str
    config: dict
    min_trials: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trial-c3-n2000",
            config={"dataset": MIXTURE, "train_size": 2700, "cal_sizes": [2000], "test_size": 2000,
                    "alpha": 0.1, "trials": 1},
            min_trials=4,
        ),
        Workload(
            name="calib-c10-n3000",
            config={"dataset": C10, "train_size": 3900, "cal_sizes": [3000], "test_size": 2000,
                    "alpha": 0.1, "trials": 1, "methods": ["unsupervised"]},
            min_trials=2,
        ),
        Workload(
            name="grid-small",
            config={"dataset": MIXTURE, "train_size": 2700, "cal_sizes": [100], "test_size": 2000,
                    "alpha": 0.1, "trials": 25},
            min_trials=100,
        ),
    )
}


def batch_seed(seed: int, index: int) -> int:
    """Config seed of batch ``index`` of a run at ``seed``."""
    return (seed * 1_000_003 + index + 1) % 2**31
