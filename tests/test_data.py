"""CSV loading, seeded partitioning, and the synthetic mixture generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import PosteriorOracle
from unsupcp.data import (
    Dataset,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    load_csv_dataset,
    split_dataset,
)
from unsupcp.errors import CsvParseError, EmptyInputError, SplitSizeError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_labeled_three_rows(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n0.0,1.0,1\n2.0,3.0,2\n4.0,5.0,1\n")
        ds = load_csv_dataset(path, labeled=True)
        assert len(ds) == 3
        assert ds.num_features == 2
        assert ds.num_classes == 2
        np.testing.assert_array_equal(ds.labels, [1, 2, 1])
        np.testing.assert_allclose(ds.instances, [[0, 1], [2, 3], [4, 5]])

    def test_unlabeled_takes_declared_class_count(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label:3\n0.0,1.0,1\n2.0,3.0,2\n")
        ds = load_csv_dataset(path, labeled=False)
        assert ds.labels is None
        assert ds.num_classes == 3

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n0.0,1.0,1\n1.0,abc,2\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_csv_dataset(path, labeled=True)
        try:
            load_csv_dataset(path, labeled=True)
        except CsvParseError as exc:
            assert exc.line == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        path = _write(tmp_path, f"f1,f2,label\n0.0,1.0,1\n1.0,{cell},2\n")
        with pytest.raises(CsvParseError, match="line 3: non-finite"):
            load_csv_dataset(path, labeled=True)

    def test_wrong_arity_row(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n0.0,1.0,1\n2.0,2\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_csv_dataset(path, labeled=True)

    def test_label_outside_declared_range(self, tmp_path):
        path = _write(tmp_path, "f1,label:2\n0.0,1\n1.0,3\n")
        with pytest.raises(CsvParseError, match="outside declared"):
            load_csv_dataset(path, labeled=True)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(EmptyInputError):
            load_csv_dataset(path, labeled=True)

    def test_header_only(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n")
        with pytest.raises(EmptyInputError):
            load_csv_dataset(path, labeled=True)

    def test_labeled_load_requires_label_column(self, tmp_path):
        path = _write(tmp_path, "f1,f2\n0.0,1.0\n")
        with pytest.raises(CsvParseError):
            load_csv_dataset(path, labeled=True)

    def test_row_order_preserved(self, tmp_path):
        rows = "\n".join(f"{i}.0,{i}" for i in range(1, 6))
        path = _write(tmp_path, "f1,label:5\n" + rows + "\n")
        ds = load_csv_dataset(path, labeled=True)
        np.testing.assert_array_equal(ds.labels, [1, 2, 3, 4, 5])


class TestSplitDataset:
    def _ten(self):
        rng = np.random.default_rng(0)
        return Dataset(rng.standard_normal((10, 2)), rng.integers(1, 4, 10), num_classes=3)

    def test_deterministic(self):
        ds = self._ten()
        spec = SplitSpec(4, 3, 3, seed=7)
        a = split_dataset(ds, spec)
        b = split_dataset(ds, spec)
        for part_a, part_b in zip(a, b):
            np.testing.assert_array_equal(part_a.instances, part_b.instances)

    def test_sizes_and_disjoint(self):
        ds = self._ten()
        train, cal, test = split_dataset(ds, SplitSpec(4, 3, 3, seed=7))
        assert (len(train), len(cal), len(test)) == (4, 3, 3)
        stacked = np.vstack([train.instances, cal.instances, test.instances])
        # rows of ds are distinct, so no repeats means the index sets are disjoint
        assert np.unique(stacked, axis=0).shape[0] == 10

    def test_oversized_request(self):
        with pytest.raises(SplitSizeError):
            split_dataset(self._ten(), SplitSpec(8, 3, 3, seed=0))

    def test_calibration_labels_hidden(self):
        train, cal, test = split_dataset(self._ten(), SplitSpec(4, 3, 3, seed=7))
        assert cal.labels is None
        assert cal.hidden_labels is not None and cal.hidden_labels.shape == (3,)
        assert train.labels is not None and test.labels is not None

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
    def test_partition_is_pure_in_spec(self, seed, sizes):
        ds = self._ten()
        if sum(sizes) > len(ds):
            return
        spec = SplitSpec(*sizes, seed=seed)
        first = split_dataset(ds, spec)
        second = split_dataset(ds, spec)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.instances, b.instances)


class TestSynthetic:
    def test_symmetric_posterior_at_origin(self):
        cfg = SyntheticConfig(class_means=np.array([[-1.0, 0.0], [1.0, 0.0]]), cov_scale=1.0, priors=np.array([0.5, 0.5]))
        oracle = PosteriorOracle(cfg)
        np.testing.assert_allclose(oracle.posterior_batch(np.zeros((1, 2))), [[0.5, 0.5]], atol=1e-15)

    def test_degenerate_scale_rejected(self):
        with pytest.raises(ValueError, match="cov_scale"):
            SyntheticConfig(class_means=np.eye(2), cov_scale=0.0, priors=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="cov_scale"):
            SyntheticConfig(class_means=np.eye(2), cov_scale=scale, priors=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_means_rejected(self, bad):
        with pytest.raises(ValueError, match="class_means"):
            SyntheticConfig(class_means=np.array([[0.0, bad], [1.0, 0.0]]), cov_scale=1.0, priors=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("priors", [[0.75, 0.75], [-0.5, 1.5], [np.nan, np.nan]])
    def test_bad_priors_rejected(self, priors):
        with pytest.raises(ValueError, match="priors"):
            SyntheticConfig(class_means=np.eye(2), cov_scale=1.0, priors=np.array(priors))

    def test_nonpositive_count_rejected(self):
        cfg = SyntheticConfig(class_means=np.eye(2), cov_scale=1.0, priors=np.array([0.5, 0.5]))
        with pytest.raises(EmptyInputError):
            generate_synthetic(cfg, 0, seed=0)

    def test_label_histogram_matches_priors(self):
        priors = np.array([0.2, 0.3, 0.5])
        cfg = SyntheticConfig(class_means=np.eye(3), cov_scale=1.0, priors=priors)
        ds = generate_synthetic(cfg, 1000, seed=11)
        counts = np.bincount(ds.labels, minlength=4)[1:]
        # 4 sigma binomial band per class
        sigma = np.sqrt(1000 * priors * (1 - priors))
        assert np.all(np.abs(counts - 1000 * priors) < 4 * sigma)

    def test_posterior_rows_normalize(self):
        cfg = SyntheticConfig(class_means=np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]]), cov_scale=0.7, priors=np.array([0.2, 0.3, 0.5]))
        P = PosteriorOracle(cfg).posterior_batch(np.random.default_rng(2).standard_normal((50, 2)))
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert P.min() >= 0.0

    def test_empirical_posterior_matches_oracle(self):
        # P(Y=1 | X in a small box) estimated from 200k draws vs the oracle
        cfg = SyntheticConfig(class_means=np.array([[-1.0, 0.0], [1.0, 0.0]]), cov_scale=1.0, priors=np.array([0.5, 0.5]))
        ds = generate_synthetic(cfg, 200_000, seed=3)
        oracle = PosteriorOracle(cfg)
        center = np.array([0.6, 0.0])
        box = np.all(np.abs(ds.instances - center) < 0.15, axis=1)
        assert box.sum() > 500
        frac = np.mean(ds.labels[box] == 1)
        want = oracle.posterior_batch(center[None, :])[0, 0]
        assert abs(frac - want) < 0.05


class TestDatasetValidation:
    def test_labels_out_of_range(self):
        with pytest.raises(ValueError, match="1..2"):
            Dataset(np.zeros((2, 1)), np.array([1, 3]), num_classes=2)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Dataset(np.zeros((2, 1)), np.array([1]), num_classes=2)

    def test_instances_must_be_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.zeros(3), np.array([1, 1, 2]), num_classes=2)

    def test_arrays_frozen(self):
        ds = Dataset(np.zeros((2, 1)), np.array([1, 2]), num_classes=2)
        with pytest.raises(ValueError):
            ds.instances[0, 0] = 1.0
