"""Experiment config, trial determinism, aggregation, emission, CLI."""

import csv
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from unsupcp import bounds, harness
from unsupcp import kernel as kernel_mod
from unsupcp.classifier import estimate_loss_bound, train_logistic
from unsupcp.cli import main
from unsupcp.data import Dataset, SplitSpec, SyntheticConfig, generate_synthetic, load_csv_dataset, split_dataset
from unsupcp.errors import EmptyInputError, SplitSizeError
from unsupcp.harness import (
    METHODS,
    RESULTS_SCHEMA,
    TRIAL_COLUMNS,
    ExperimentConfig,
    ExperimentResults,
    MethodResult,
    TrialRecord,
    _mean_quartiles,
    _trial_seeds,
    _val_count,
    aggregate,
    calibrate_unsupervised,
    emit_results,
    run_experiment,
    run_trial,
)
from unsupcp.kernel import ridge_path, select_kernel
from unsupcp.scores import build_score_matrix
from unsupcp.solver import SolverOptions, build_loss_constraints

TINY_DATASET = {
    "type": "synthetic",
    "class_means": [[-1.2, 0.0], [1.2, 0.0]],
    "cov_scale": 1.0,
    "priors": [0.5, 0.5],
}


# counts that are not integers, each rejected with an error naming its field
NON_INTEGER_COUNTS = [
    dict(cal_sizes=(20.7,)),
    dict(m=10.5),
    dict(trials=1.5),
    dict(trials=True),
    dict(train_size=60.5),
    dict(test_size=15.5),
    dict(seed=7.5),
    dict(classifier_max_iters=500.5),
    dict(solver_max_iters=10.5),
]


# values that would fail every trial or quietly degrade the run, each
# rejected with an error naming its field
OUT_OF_RANGE_VALUES = [
    dict(seed=-1),
    dict(classifier_max_iters=0),
    dict(classifier_max_iters=-3),
    dict(selection_ridge=math.inf),
    dict(noise_epsilon=math.inf),
    dict(l2=math.inf),
    dict(solver_rel_tol=math.inf),
]


def _tiny_config(**overrides):
    base = dict(
        dataset=TINY_DATASET,
        train_size=60,
        cal_sizes=(12,),
        test_size=15,
        alpha=0.1,
        trials=2,
        seed=7,
        solver_max_iters=4000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_results():
    return run_experiment(_tiny_config(), workers=1)


def _two_blob_csv(path, seed, count=30, centre=2.0):
    """Write a labeled 2-class CSV of ``count`` points, the classes centred
    at -centre and centre; returns the path as a string."""
    rows = ["f1,f2,label:2"]
    rng = np.random.default_rng(seed)
    for i in range(count):
        y = 1 + i % 2
        x = rng.normal(loc=(-centre if y == 1 else centre), scale=0.8, size=2)
        rows.append(f"{float(x[0])!r},{float(x[1])!r},{y}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def _failing_split(cal_size):
    """``split_dataset`` that raises for one calibration size: a trial that
    fails before any method runs, which a valid config cannot bring about
    since ``run_experiment`` checks a CSV's size."""

    def split(dataset, spec):
        if spec.cal_size == cal_size:
            raise SplitSizeError(f"no split at n = {cal_size}")
        return split_dataset(dataset, spec)

    return split


def _csv_config(tmp_path):
    """A CSV run of 2 calibration sizes x 3 trials with every method."""
    path = _two_blob_csv(tmp_path / "blobs.csv", 2, count=120, centre=0.5)
    return ExperimentConfig(dataset={"type": "csv", "path": path}, train_size=60, cal_sizes=(6, 8), test_size=20,
                            alpha=0.2, trials=3, seed=5)


def _rows_without_timing(records):
    rows = [row for rec in records for row in rec.rows()]
    for row in rows:
        row.pop("wall_seconds")
    return rows


class TestExperimentConfig:
    def test_round_trip_through_dict(self):
        cfg = _tiny_config(bandwidth_scales=(0.5, 1.0), m=10)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_through_json(self, tmp_path):
        cfg = _tiny_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json(str(path)) == cfg

    def test_unknown_keys_rejected(self):
        d = _tiny_config().to_dict()
        d["caffeine"] = 1
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(trials=0),
            dict(cal_sizes=()),
            dict(cal_sizes=(0,)),
            dict(methods=()),
            dict(methods=("bogus",)),
            dict(score="softmax"),
            dict(dataset={"type": "parquet"}),
            dict(dataset="synthetic"),
            dict(test_size=0),
            dict(train_size=1),
            dict(selection_ridge=-1.0),
            dict(delta=1.5),
            dict(delta=0.0),
            dict(m=0),
            dict(solver_max_iters=0),
            dict(solver_rel_tol=0.0),
            dict(solver_rel_tol=-1e-7),
            dict(bandwidth_scales=()),
            dict(bandwidth_scales=(1.0, 0.0)),
            dict(bandwidth_scales=(-0.5,)),
            dict(bandwidth_scales=(float("inf"),)),
            dict(bandwidth_scales=(float("nan"),)),
            dict(l2=-1e-3),
            dict(noise_epsilon=-0.1),
            dict(l2=math.nan),
            dict(selection_ridge=math.nan),
            dict(noise_epsilon=math.nan),
            dict(dataset={**TINY_DATASET, "priors": [0.75, 0.75]}),
            dict(dataset={**TINY_DATASET, "priors": [math.nan, math.nan]}),
            dict(dataset={"type": "synthetic", "class_means": [[0.0], [1.0]]}),
            dict(dataset={"type": "csv"}),
            dict(dataset={"type": "csv", "path": 3}),
            dict(selection_ridge=0.0),
            *NON_INTEGER_COUNTS,
            *OUT_OF_RANGE_VALUES,
            dict(dataset={**TINY_DATASET, "cov_scale": math.inf}),
            dict(dataset={**TINY_DATASET, "class_means": [[-1.2, math.nan], [1.2, 0.0]]}),
            dict(cal_sizes=(12, 12)),  # a repeat would run each of its trials twice
            dict(methods=("naive", "naive")),  # ... or write each of its rows twice
            dict(bandwidth_scales=(1.0, 1.0)),  # ... or count twice in the bound's union over the grid
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            _tiny_config(**overrides)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e20, 1e-23])
    def test_unscalable_bandwidth_rejected_at_construction(self, scale):
        # a synthetic config knows d, so every sigma = scale sqrt(d/2) of its grid is checked before any trial runs
        with pytest.raises(ValueError, match="sigma must be positive"):
            _tiny_config(bandwidth_scales=(1.0, scale))

    @pytest.mark.parametrize("overrides", NON_INTEGER_COUNTS)
    def test_non_integer_count_names_its_field(self, overrides):
        (name,) = overrides
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            _tiny_config(**overrides)

    @pytest.mark.parametrize("overrides", OUT_OF_RANGE_VALUES)
    def test_out_of_range_value_names_its_field(self, overrides):
        ((name, value),) = overrides.items()
        with pytest.raises(ValueError, match=f"{name} must be .*, got {value}"):
            _tiny_config(**overrides)

    def test_integral_float_counts_stored_as_ints(self):
        cfg = _tiny_config(train_size=60.0, cal_sizes=(12.0,), m=10.0, trials=2.0)
        assert (cfg.train_size, cfg.cal_sizes, cfg.m, cfg.trials) == (60, (12,), 10, 2)
        assert all(type(v) is int for v in (cfg.train_size, *cfg.cal_sizes, cfg.m, cfg.trials))
        assert cfg == _tiny_config(m=10)

    def test_m_capped_by_fit_size(self):
        # train 60 keeps 48 after the 20% validation holdout
        with pytest.raises(ValueError, match="exceeds"):
            _tiny_config(m=49)
        _tiny_config(m=48)

    def test_m_unchecked_without_unsupervised(self):
        cfg = _tiny_config(m=500, methods=("supervised", "naive"))
        assert cfg.m == 500

    def test_validation_holdout_count(self):
        assert _val_count(40) == 8
        assert _val_count(3) == 1
        assert _val_count(2) == 1


class TestRunTrial:
    def test_deterministic_given_seed(self):
        cfg = _tiny_config(trials=1)
        a = run_trial(cfg, 0, 12)
        b = run_trial(cfg, 0, 12)
        assert _rows_without_timing([a]) == _rows_without_timing([b])

    def test_trials_differ(self):
        cfg = _tiny_config()
        a = run_trial(cfg, 0, 12)
        b = run_trial(cfg, 1, 12)
        assert a.results[0].q_hat != b.results[0].q_hat

    def test_method_fields(self):
        rec = run_trial(_tiny_config(trials=1), 0, 12)
        by_method = {r.method: r for r in rec.results}
        assert set(by_method) == set(METHODS)
        sup, unsup, naive = by_method["supervised"], by_method["unsupervised"], by_method["naive"]
        assert sup.sigma is None and sup.e_diag is None
        assert naive.e_diag is not None
        assert unsup.sigma is not None and unsup.mmd is not None
        assert unsup.solver_converged
        assert unsup.solver_gap <= _tiny_config().solver_rel_tol * max(1.0, abs(unsup.solver_objective))
        assert sup.solver_gap is None and naive.solver_gap is None
        assert unsup.kernel_bound is not None and unsup.kernel_bound > 0
        assert 0.0 <= unsup.coverage <= 1.0
        for row in rec.rows():
            assert set(row) == set(TRIAL_COLUMNS)


def _direct_calibration(cfg, n, loss_bound=None):
    """Rebuild trial 0's unsupervised inputs by hand and calibrate them.

    ``loss_bound`` maps the naive predictions' mean cross-entropy to the
    bound; None uses the held-out estimate, as the harness does."""
    seeds = _trial_seeds(cfg, n, 0)
    syn = SyntheticConfig(
        class_means=np.asarray(TINY_DATASET["class_means"]),
        cov_scale=TINY_DATASET["cov_scale"],
        priors=np.asarray(TINY_DATASET["priors"]),
    )
    ds = generate_synthetic(syn, cfg.train_size + n + cfg.test_size, int(seeds[0]))
    train, cal, _ = split_dataset(ds, SplitSpec(cfg.train_size, n, cfg.test_size, int(seeds[1])))
    vc = _val_count(cfg.train_size)
    fit = Dataset(train.instances[:-vc], train.labels[:-vc], train.num_classes)
    val = Dataset(train.instances[-vc:], train.labels[-vc:], train.num_classes)
    model = train_logistic(fit, l2=cfg.l2, max_iters=cfg.classifier_max_iters)
    cal_scores = build_score_matrix(model, cal.instances, cfg.score, int(seeds[2]), cfg.noise_epsilon)
    idx = np.random.default_rng(int(seeds[4])).choice(len(fit), size=cfg.m, replace=False)
    if loss_bound is None:
        bound = estimate_loss_bound(model, val).value
    else:
        bound = loss_bound(float(build_loss_constraints(model, cal.instances, 1.0).loss_matrix.min(axis=1).mean()))
    return calibrate_unsupervised(
        model,
        cal.instances,
        Dataset(fit.instances[idx], fit.labels[idx], fit.num_classes),
        cal_scores,
        cfg.alpha,
        bound,
        bandwidth_scales=cfg.bandwidth_scales,
        selection_ridge=cfg.selection_ridge,
        solver_options=SolverOptions(max_iters=cfg.solver_max_iters, rel_tol=cfg.solver_rel_tol),
        delta=cfg.delta,
    )


class TestCalibrateUnsupervised:
    CFG = dict(trials=1, m=10, bandwidth_scales=(0.3, 1.0, 3.0), selection_ridge=1.5, delta=0.2)

    def test_matches_harness_row(self):
        """The harness's unsupervised row reports exactly what a direct call
        on the same trial's inputs returns."""
        cfg = _tiny_config(**self.CFG)
        n = 12
        out = _direct_calibration(cfg, n)
        row = next(r for r in run_trial(cfg, 0, n).results if r.method == "unsupervised")
        assert out.kernel_bound is not None
        assert out.q_hat == row.q_hat
        assert out.spec.sigma == row.sigma
        assert out.mmd == row.mmd
        assert out.report.objective_value == row.solver_objective
        assert out.report.iterations == row.solver_iterations
        assert out.report.inequality_slack == row.solver_slack
        assert out.report.converged == row.solver_converged
        assert out.report.gap == row.solver_gap
        assert out.kernel_bound == row.kernel_bound

    @staticmethod
    def _spied_calibration(monkeypatch, cfg, n):
        """The direct calibration plus the inclusion indicator its bound fits."""
        seen = []

        def spy(gram, u, ridges, **kwargs):
            seen.append(u)
            return ridge_path(gram, u, ridges, **kwargs)

        monkeypatch.setattr(bounds, "ridge_path", spy)
        out = _direct_calibration(cfg, n)
        (u,) = seen
        return out, u

    def test_bound_path_records_each_ridge(self, monkeypatch):
        out, u = self._spied_calibration(monkeypatch, _tiny_config(**self.CFG), 12)
        path = out.bound_path
        assert set(path) == {"ridges", "iterations", "residuals", "rank", "bounds", "zero"}
        np.testing.assert_array_equal(path["ridges"], bounds.BOUND_RIDGES)  # whatever the selection ridge
        assert np.all(path["iterations"] >= 1)
        assert np.all(np.diff(path["iterations"]) <= 0)  # larger ridges converge no later
        assert np.all(path["residuals"] <= 1e-8 * math.sqrt(12))
        assert np.all(np.isfinite(path["bounds"]))
        assert u.shape == (12, 2) and set(np.unique(u)) <= {0.0, 1.0}
        assert path["zero"] == u.sum() / 12
        assert out.kernel_bound == min(float(np.nanmin(path["bounds"])), path["zero"])

    def test_active_loss_constraint(self):
        """A bound just above the naive predictions' mean loss binds: the one
        weight solve lands on it with a positive multiplier."""
        bounds = []

        def just_above_naive(naive_mean):
            bounds.append(naive_mean + 0.01)
            return bounds[-1]

        n = 12
        out = _direct_calibration(_tiny_config(**self.CFG), n, loss_bound=just_above_naive)
        b = n * bounds[0]
        assert out.report.dual_lambda > 0.0
        assert out.report.converged
        assert -1e-8 * b <= out.report.inequality_slack <= 1e-8 * b
        assert math.isfinite(out.q_hat)

    def test_calibration_distances_built_once(self, monkeypatch):
        # selection and the context build share one build of the n x n distances
        builds = []
        blocks = kernel_mod._sq_dist_blocks

        def counted(X1, X2):
            builds.append((X1.shape[0], X2.shape[0], bool(np.array_equal(X1, X2))))
            return blocks(X1, X2)

        monkeypatch.setattr(kernel_mod, "_sq_dist_blocks", counted)
        _direct_calibration(_tiny_config(**self.CFG), 12)  # m = 10, so only the calibration is 12 x 12
        assert builds.count((12, 12, True)) == 1

    @staticmethod
    def _counted_distance_builds(monkeypatch):
        """The row counts of every squared-distance build from here on."""
        builds = []
        blocks = kernel_mod._sq_dist_blocks

        def counted(X1, X2):
            builds.append(X1.shape[0])
            return blocks(X1, X2)

        monkeypatch.setattr(kernel_mod, "_sq_dist_blocks", counted)
        return builds

    @staticmethod
    def _small_inputs():
        """A classifier, its 60-point calibration sample and a 30-point training sample."""
        rng = np.random.default_rng(3)
        labels = 1 + np.arange(90) % 3
        X = rng.standard_normal((90, 2)) + np.array([[2.0, 0.0], [-1.0, 1.7], [-1.0, -1.7]])[labels - 1]
        train = Dataset(X[:30], labels[:30], num_classes=3)
        return train_logistic(train), X[30:], train

    def test_mismatched_scores_fail_before_distances(self, monkeypatch):
        # scores of another calibration sample are caught before any n x n
        # array is built, by an error that names both shapes
        builds = self._counted_distance_builds(monkeypatch)
        model, cal, train = self._small_inputs()
        scores = build_score_matrix(model, cal[:10], "adaptive", 0)
        with pytest.raises(ValueError, match=r"\(10, 3\).*\(60, 3\)"):
            calibrate_unsupervised(model, cal, train, scores, 0.1, 10.0)
        assert builds == []

    def test_nonfinite_features_rejected(self, monkeypatch):
        # a NaN calibration row is named before any work, not read as a
        # non-finite loss; a NaN training row is named by the context build
        model, cal, train = self._small_inputs()
        scores = build_score_matrix(model, cal, "adaptive", 0)
        broken = cal.copy()
        broken[5, 0] = np.nan
        builds = self._counted_distance_builds(monkeypatch)
        with pytest.raises(ValueError, match="calibration instances must be finite"):
            calibrate_unsupervised(model, broken, train, scores, 0.1, 10.0)
        assert builds == []
        rows = train.instances.copy()
        rows[7, 1] = np.inf
        with pytest.raises(ValueError, match="training instances must be finite"):
            calibrate_unsupervised(model, cal, Dataset(rows, train.labels, 3), scores, 0.1, 10.0)

    @pytest.mark.parametrize("ridge", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_selection_ridge_rejected(self, ridge):
        # checked before any work: at a zero ridge the smooth candidates'
        # selection solves run to the CG cap
        with pytest.raises(ValueError, match="selection_ridge"):
            calibrate_unsupervised(None, np.zeros((2, 2)), None, None, 0.1, 1.0, selection_ridge=ridge)

    def test_failed_ridge_reads_nan(self, monkeypatch):
        cfg = _tiny_config(**self.CFG)
        counts = _direct_calibration(cfg, 12).bound_path["iterations"]
        assert counts[0] > counts[1]
        monkeypatch.setattr(bounds, "CG_MAX_ITERS", int(counts[1]))
        out = _direct_calibration(cfg, 12)
        path = out.bound_path
        assert math.isnan(path["bounds"][0]) and path["iterations"][0] == counts[1]
        assert path["residuals"][0] > 1e-8
        assert np.all(np.isfinite(path["bounds"][1:]))
        assert out.kernel_bound == min(float(np.min(path["bounds"][1:])), path["zero"])

    def test_capped_path_keeps_the_zero_function(self, monkeypatch):
        monkeypatch.setattr(bounds, "CG_MAX_ITERS", 0)  # no fit on the path converges
        out, u = self._spied_calibration(monkeypatch, _tiny_config(**self.CFG), 12)
        path = out.bound_path
        assert np.all(np.isnan(path["bounds"])) and np.all(path["iterations"] == 0)
        assert out.kernel_bound == path["zero"] == u.sum() / 12


class TestRunExperiment:
    def test_grid_shape_and_order(self, tiny_results):
        recs = tiny_results.records
        assert [(r.cal_size, r.trial_index) for r in recs] == [(12, 0), (12, 1)]
        assert tiny_results.failures == ()

    def test_single_trial_matches_direct_call(self):
        cfg = _tiny_config(trials=1)
        via_exp = run_experiment(cfg, workers=1).records
        direct = run_trial(cfg, 0, 12)
        assert _rows_without_timing(via_exp) == _rows_without_timing([direct])

    def test_workers_do_not_change_results(self, tiny_results):
        parallel = run_experiment(_tiny_config(), workers=2)
        assert _rows_without_timing(parallel.records) == _rows_without_timing(tiny_results.records)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(_tiny_config(), workers=0)

    def test_csv_workers_do_not_change_results(self, tmp_path):
        cfg = _csv_config(tmp_path)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert len(serial.records) == 6 and serial.failures == parallel.failures == ()
        assert _rows_without_timing(parallel.records) == _rows_without_timing(serial.records)

    def test_csv_loaded_once_per_run(self, tmp_path, monkeypatch):
        loads = []

        def counted(path, labeled):
            loads.append(path)
            return load_csv_dataset(path, labeled)

        monkeypatch.setattr(harness, "load_csv_dataset", counted)
        out = run_experiment(_csv_config(tmp_path), workers=1)
        assert len(out.records) == 6
        assert len(loads) == 1

    def test_unsatisfiable_loss_bound_fails_before_selection(self, tmp_path, monkeypatch):
        # 5 well-separated validation points give a loss bound below the
        # smallest loss any weights reach on two of these calibration sets
        selected = []

        def counted(candidates, cal_instances, *args, **kwargs):
            selected.append(len(cal_instances))
            return select_kernel(candidates, cal_instances, *args, **kwargs)

        monkeypatch.setattr(harness, "select_kernel", counted)
        path = _two_blob_csv(tmp_path / "blobs.csv", 2, count=60)
        cfg = ExperimentConfig(dataset={"type": "csv", "path": path}, train_size=24, cal_sizes=(6, 8), test_size=10,
                               alpha=0.1, trials=3, seed=5)
        out = run_experiment(cfg, workers=1)
        assert [(f["cal_size"], f["trial"]) for f in out.failures] == [(6, 1), (8, 2)]
        assert all(f["error"].startswith("InfeasibleConstraintError") and "unsatisfiable" in f["error"]
                   for f in out.failures)
        assert sorted(selected) == [6, 6, 8, 8]  # once per trial that ran, never for the two that failed
        # the failure is the unsupervised method's alone: those trials keep their supervised and naive rows
        assert [f["method"] for f in out.failures] == ["unsupervised", "unsupervised"]
        assert all(f["traceback"].rstrip().endswith(f["error"]) for f in out.failures)
        kept = {(r.cal_size, r.trial_index): [row["method"] for row in r.rows()] for r in out.records}
        assert kept[6, 1] == kept[8, 2] == ["supervised", "naive"]
        assert kept[6, 0] == ["supervised", "unsupervised", "naive"]
        paths = emit_results(out, str(tmp_path / "out"))
        with open(paths["summary"], encoding="utf-8") as fh:
            jsonschema.validate(json.load(fh), RESULTS_SCHEMA)

    def test_failures_recorded_not_raised(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "split_dataset", _failing_split(8))
        cfg = ExperimentConfig(
            dataset={"type": "csv", "path": _two_blob_csv(tmp_path / "small.csv", 0)},
            train_size=10,
            cal_sizes=(4, 8),
            test_size=5,
            alpha=0.2,
            trials=1,
            seed=3,
            methods=("supervised", "naive"),
        )
        out = run_experiment(cfg, workers=1)
        assert [r.cal_size for r in out.records] == [4]
        assert len(out.failures) == 1
        assert out.failures[0]["cal_size"] == 8
        assert "SplitSizeError" in out.failures[0]["error"]
        assert "method" not in out.failures[0]  # the split runs before any method: the whole trial failed
        tail = out.failures[0]["traceback"]
        assert "split_dataset" in tail and tail.rstrip().endswith(out.failures[0]["error"])


class TestAggregate:
    def _fake_records(self):
        def rec(cal, t, cov):
            return TrialRecord(
                cal_size=cal,
                trial_index=t,
                classifier_error=0.1,
                loss_bound=0.5,
                results=(MethodResult(method="supervised", coverage=cov, mean_size=1.5, q_hat=0.7, wall_seconds=0.0),),
            )

        return [rec(10, 0, 0.8), rec(10, 1, 1.0)]

    def test_mean_and_gap(self):
        (row,) = aggregate(self._fake_records(), alpha=0.1)
        assert row["trials"] == 2
        assert abs(row["coverage_mean"] - 0.9) < 1e-15
        # gaps |0.8 - 0.9| and |1.0 - 0.9| both equal 0.1
        assert abs(row["mean_abs_gap"] - 0.1) < 1e-15
        assert row["size_mean"] == 1.5

    def test_quartiles_match_numpy_percentile(self):
        rng = np.random.default_rng(4)
        for size in range(1, 41):
            x = np.round(rng.uniform(0.0, 1.0, size), int(rng.integers(1, 4)))  # ties included
            want = (float(np.mean(x)), float(np.percentile(x, 25)), float(np.percentile(x, 75)))
            assert _mean_quartiles(x) == want, size

    def test_groups_sorted(self, tiny_results):
        rows = aggregate(tiny_results.records, 0.1)
        assert [r["method"] for r in rows] == sorted(METHODS)
        assert all(r["cal_size"] == 12 for r in rows)


class TestEmitResults:
    def test_summary_matches_schema(self, tiny_results, tmp_path):
        paths = emit_results(tiny_results, str(tmp_path / "out"))
        with open(paths["summary"], encoding="utf-8") as fh:
            payload = json.load(fh)
        jsonschema.validate(payload, RESULTS_SCHEMA)
        assert payload["config"] == tiny_results.config.to_dict()
        env = payload["environment"]
        assert env["cpu_count"] == os.cpu_count()
        assert env["blas_threads"] == {v: os.environ.get(v) for v in harness.BLAS_THREAD_VARS}

    def test_trials_csv_floats_round_trip(self, tiny_results, tmp_path):
        paths = emit_results(tiny_results, str(tmp_path / "out"))
        with open(paths["trials"], encoding="utf-8", newline="") as fh:
            got = list(csv.DictReader(fh))
        want = [row for rec in tiny_results.records for row in rec.rows()]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert float(g["q_hat"]) == w["q_hat"]
            assert float(g["coverage"]) == w["coverage"]
            if w["mmd"] is None:
                assert g["mmd"] == ""
            else:
                assert float(g["mmd"]) == w["mmd"]

    def test_gapcurve_rows(self, tiny_results, tmp_path):
        paths = emit_results(tiny_results, str(tmp_path / "out"))
        with open(paths["gapcurve"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(METHODS)
        aggs = aggregate(tiny_results.records, tiny_results.config.alpha)
        for row, agg in zip(rows, aggs):
            assert float(row["mean_abs_gap"]) == agg["mean_abs_gap"]

    def test_trial_does_not_import_numpy_ma(self, tmp_path):
        """A fresh process that runs one trial and emits it never pays the
        numpy.ma import (np.unique triggers it)."""
        script = f"""
import sys
from unsupcp.harness import ExperimentConfig, ExperimentResults, _environment, emit_results, run_trial
cfg = ExperimentConfig(**{_tiny_config(trials=1).to_dict()!r})
results = ExperimentResults(cfg, (run_trial(cfg, 0, 12),), (), _environment())
emit_results(results, {str(tmp_path / "out")!r})
print("numpy.ma" in sys.modules)
"""
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_nothing_to_emit(self, tiny_results, tmp_path):
        empty = ExperimentResults(
            config=tiny_results.config, records=(), failures=(), environment=tiny_results.environment
        )
        with pytest.raises(EmptyInputError):
            emit_results(empty, str(tmp_path / "out"))


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        cfg = _tiny_config(trials=1, **overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return str(path)

    def test_run_success(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out_dir = str(tmp_path / "results")
        assert main(["run", "--config", cfg_path, "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "summary.json"))
        assert os.path.exists(os.path.join(out_dir, "trials.csv"))
        assert os.path.exists(os.path.join(out_dir, "gapcurve.csv"))
        assert "completed 1 trials" in capsys.readouterr().out

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = self._write_config(tmp_path, methods=("supervised",))
        outs = []
        for seed in (1, 2):
            out_dir = str(tmp_path / f"r{seed}")
            assert main(["run", "--config", cfg_path, "--seed", str(seed), "--out", out_dir]) == 0
            with open(os.path.join(out_dir, "trials.csv"), newline="") as fh:
                outs.append([row["q_hat"] for row in csv.DictReader(fh)])
        assert outs[0] != outs[1]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = _tiny_config().to_dict()
        payload["alpha"] = 2.0
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_nan_l2_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = _tiny_config().to_dict()
        payload["l2"] = math.nan
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "l2" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_zero_selection_ridge_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = _tiny_config().to_dict()
        payload["selection_ridge"] = 0.0
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "selection_ridge" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_fractional_m_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        payload = _tiny_config().to_dict()
        payload["m"] = 10.5
        path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "m must be an integer" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--seed", "-1", "--out", str(out_dir)]) == 1
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_non_finite_csv_cell_exits_one(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("f1,f2,label:2\n" + "0.5,1.0,1\n-0.5,-1.0,2\n" * 20 + "0.1,nan,1\n")
        cfg = dict(dataset={"type": "csv", "path": str(data)}, train_size=10, cal_sizes=[4], test_size=5,
                   alpha=0.2, trials=1, seed=3, methods=["supervised"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "line 42: non-finite" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_unscalable_csv_bandwidth_exits_one(self, tmp_path, capsys, monkeypatch):
        # a CSV config learns d only from its file: the grid is checked there, before any trial runs
        trials = []
        monkeypatch.setattr(harness, "_trial_task", lambda *args: trials.append(args))
        cfg = dict(dataset={"type": "csv", "path": _two_blob_csv(tmp_path / "blobs.csv", 2, count=60)}, train_size=24,
                   cal_sizes=[6], test_size=10, alpha=0.2, trials=2, seed=5, bandwidth_scales=[1e-25])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "sigma must be positive" in capsys.readouterr().err
        assert not os.path.exists(out_dir) and not trials

    def test_partial_failures_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "split_dataset", _failing_split(8))
        cfg = dict(
            dataset={"type": "csv", "path": _two_blob_csv(tmp_path / "small.csv", 1)},
            train_size=10,
            cal_sizes=[4, 8],
            test_size=5,
            alpha=0.2,
            trials=1,
            seed=3,
            methods=["supervised", "naive"],
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg_path), "--out", out_dir]) == 2
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "SplitSizeError" in captured.err
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            assert len(json.load(fh)["failures"]) == 1

    def test_csv_too_small_for_a_calibration_size_exits_one(self, tmp_path, capsys, monkeypatch):
        # 30 + 40 + 10 rows exceed the file's 50: every n = 40 trial would fail to split, so the run stops
        # before any trial, as for any other bad config
        trials = []
        monkeypatch.setattr(harness, "_trial_task", lambda *args: trials.append(args))
        cfg = dict(dataset={"type": "csv", "path": _two_blob_csv(tmp_path / "small.csv", 1, count=50)},
                   train_size=30, cal_sizes=[10, 40], test_size=10, alpha=0.2, trials=2, seed=3,
                   methods=["supervised", "naive"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert "needs 80 samples" in capsys.readouterr().err
        assert not os.path.exists(out_dir) and not trials

    def test_method_failure_names_its_method(self, tmp_path, capsys):
        # the unsatisfiable loss bound of two of these trials fails their unsupervised method alone
        cfg = dict(dataset={"type": "csv", "path": _two_blob_csv(tmp_path / "blobs.csv", 2, count=60)}, train_size=24,
                   cal_sizes=[6, 8], test_size=10, alpha=0.1, trials=3, seed=5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "completed 6 trials (2 failed)" in captured.out
        assert captured.err.count("method=unsupervised: InfeasibleConstraintError") == 2
