"""Adaptive and probability conformity scores, score-matrix assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import aps_score, prob_score
from unsupcp.classifier import ProbModel, predict_proba_matrix
from unsupcp.errors import EmptyInputError
from unsupcp.scores import build_score_matrix


def _simplex(values):
    v = np.asarray(values, dtype=np.float64) + 1e-9
    return v / v.sum()


class TestApsScore:
    def test_top_label_zero_u(self):
        assert aps_score(np.array([0.5, 0.3, 0.2]), 1, 0.0) == 0.0

    def test_middle_label_full_u(self):
        assert abs(aps_score(np.array([0.5, 0.3, 0.2]), 2, 1.0) - 0.8) < 1e-15

    def test_bottom_label_half_u(self):
        assert abs(aps_score(np.array([0.5, 0.3, 0.2]), 3, 0.5) - 0.9) < 1e-15

    def test_u_out_of_range(self):
        with pytest.raises(ValueError, match="u must be"):
            aps_score(np.array([0.5, 0.5]), 1, 1.5)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            aps_score(np.array([0.5, 0.5]), 3, 0.5)

    def test_top_label_full_u_equals_top_mass(self):
        probs = _simplex([0.5, 0.3, 0.2])
        assert abs(aps_score(probs, 1, 1.0) - probs[0]) < 1e-15

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        raw=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        y=st.integers(1, 6),
        u1=st.floats(0.0, 1.0),
        u2=st.floats(0.0, 1.0),
    )
    def test_nondecreasing_in_u(self, raw, y, u1, u2):
        probs = _simplex(raw)
        if y > probs.size:
            return
        lo, hi = sorted((u1, u2))
        assert aps_score(probs, y, lo) <= aps_score(probs, y, hi) + 1e-15


class TestProbScore:
    def test_basic(self):
        assert abs(prob_score(np.array([0.7, 0.3]), 1) - 0.3) < 1e-15

    def test_uniform_four(self):
        assert abs(prob_score(np.full(4, 0.25), 2) - 0.75) < 1e-15

    def test_certain_label(self):
        assert prob_score(np.array([1.0, 0.0]), 1) == 0.0

    def test_ranking_reversal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs = _simplex(rng.uniform(0.05, 1.0, size=5))
            scores = [prob_score(probs, y) for y in range(1, 6)]
            assert int(np.argmin(scores)) == int(np.argmax(probs))


class TestScoreMatrix:
    def _model(self, c=3, d=2, seed=1):
        rng = np.random.default_rng(seed)
        return ProbModel(weights=rng.standard_normal((c, d + 1)), num_classes=c, num_features=d)

    def test_probability_kind_is_one_minus_p(self):
        # the batch path must agree with prob_score pair by pair
        model = self._model()
        X = np.random.default_rng(2).standard_normal((2, 2))
        P = predict_proba_matrix(model, X)
        sm = build_score_matrix(model, X, "probability", seed=0, noise_epsilon=0.0)
        want = np.array([[prob_score(P[i], y + 1) for y in range(3)] for i in range(2)])
        np.testing.assert_array_equal(sm.values, want)

    def test_same_seed_same_matrix(self):
        model = self._model()
        X = np.random.default_rng(3).standard_normal((5, 2))
        a = build_score_matrix(model, X, "adaptive", seed=42)
        b = build_score_matrix(model, X, "adaptive", seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        model = self._model()
        X = np.random.default_rng(3).standard_normal((5, 2))
        a = build_score_matrix(model, X, "adaptive", seed=42)
        b = build_score_matrix(model, X, "adaptive", seed=43)
        assert not np.array_equal(a.values, b.values)

    def test_thousand_entries_distinct(self):
        model = self._model()
        X = np.random.default_rng(4).standard_normal((334, 2))
        sm = build_score_matrix(model, X, "adaptive", seed=0)
        assert sm.values.size == 1002
        assert np.unique(sm.values).size == sm.values.size

    def test_unseparated_ties_rejected(self):
        # a flat model scores every pair 1 - 1/3; noise below the spacing of
        # floats near that value leaves the ties in place
        model = ProbModel(weights=np.zeros((3, 3)), num_classes=3, num_features=2)
        X = np.random.default_rng(6).standard_normal((4, 2))
        with pytest.raises(ValueError, match="separate"):
            build_score_matrix(model, X, "probability", seed=0, noise_epsilon=1e-300)

    def test_noise_stays_below_epsilon(self):
        model = self._model()
        X = np.random.default_rng(5).standard_normal((4, 2))
        eps = 1e-6
        noisy = build_score_matrix(model, X, "probability", seed=9, noise_epsilon=eps)
        clean = build_score_matrix(model, X, "probability", seed=9, noise_epsilon=0.0)
        delta = noisy.values - clean.values
        assert delta.min() >= 0.0 and delta.max() <= eps

    def test_adaptive_matches_pointwise_scorer(self):
        # the batch path must agree with aps_score at the drawn u values
        model = self._model()
        X = np.random.default_rng(6).standard_normal((3, 2))
        P = predict_proba_matrix(model, X)
        rng = np.random.default_rng(7)
        sm = build_score_matrix(model, X, "adaptive", seed=7, noise_epsilon=0.0)
        U = rng.uniform(0.0, 1.0, size=P.shape)
        want = np.array([[aps_score(P[i], y + 1, U[i, y]) for y in range(3)] for i in range(3)])
        np.testing.assert_allclose(sm.values, want, atol=1e-12)

    def test_flat_is_row_major(self):
        model = self._model()
        X = np.random.default_rng(8).standard_normal((4, 2))
        sm = build_score_matrix(model, X, "adaptive", seed=1)
        flat = sm.values.ravel()
        for i in range(4):
            for y in range(3):
                assert flat[i * 3 + y] == sm.values[i, y]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="score kind"):
            build_score_matrix(self._model(), np.zeros((1, 2)), "margin", seed=0)

    def test_empty_instances(self):
        with pytest.raises(EmptyInputError):
            build_score_matrix(self._model(), np.zeros((0, 2)), "adaptive", seed=0)

    def test_negative_epsilon(self):
        with pytest.raises(ValueError, match="noise_epsilon"):
            build_score_matrix(self._model(), np.zeros((1, 2)), "adaptive", seed=0, noise_epsilon=-1e-9)
        with pytest.raises(ValueError, match="noise_epsilon"):
            build_score_matrix(self._model(), np.zeros((1, 2)), "adaptive", seed=0, noise_epsilon=float("nan"))
        with pytest.raises(ValueError, match="noise_epsilon"):
            build_score_matrix(self._model(), np.zeros((1, 2)), "adaptive", seed=0, noise_epsilon=float("inf"))
