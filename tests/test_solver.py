"""Weight structures, simplex projection, and the label-weight QP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_pair_kernel, qp_oracle
from unsupcp import solver
from unsupcp.classifier import ProbModel
from unsupcp.data import Dataset
from unsupcp.errors import InfeasibleConstraintError
from unsupcp.kernel import KernelSpec, build_context
from unsupcp.solver import (
    ConstraintSet,
    LabelWeights,
    SolverOptions,
    _project_cut,
    _project_rows,
    build_loss_constraints,
    naive_weights,
    solve_label_weights,
    supervised_weights,
)

TIGHT = SolverOptions(max_iters=50000, rel_tol=1e-12)


def _context_from_seed(seed, n, m, c, d=2, sigma=1.0):
    rng = np.random.default_rng(seed)
    cal = rng.standard_normal((n, d))
    train = Dataset(rng.standard_normal((m, d)), 1 + rng.integers(0, c, m), num_classes=c)
    return build_context(cal, train, KernelSpec(sigma))


def _tight_constraint_fixture():
    # a bound 1% above the cheapest vertices binds hard: the multiplier ends
    # near 6, far above the first projection's starting guess, so that search
    # doubles its bracket many times before it refines it
    ctx = _context_from_seed(3012, n=3, m=5, c=3)
    B = np.random.default_rng(12).uniform(0.2, 2.5, (3, 3))
    bound = float(B.min(axis=1).sum()) * 1.01 + 0.01
    return ctx, ConstraintSet(loss_matrix=B, bound=bound)


def _point_context():
    # calibration point coincides with the single training point (label 1):
    # K0 = [[1]], v = (1, 0), so Phi(w) = w1^2 + w2^2 - 2 w1
    x0 = np.array([[0.0, 0.0]])
    return build_context(x0, Dataset(x0, np.array([1]), num_classes=2), KernelSpec(1.0))


class TestLabelWeights:
    def test_matrix_view(self):
        lw = LabelWeights(w=np.array([0.2, 0.8, 1.0, 0.0]), n=2, c=2)
        np.testing.assert_array_equal(lw.matrix, [[0.2, 0.8], [1.0, 0.0]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LabelWeights(w=np.array([1.2, -0.2]), n=1, c=2)

    @pytest.mark.parametrize("w", [[np.nan, np.nan], [np.inf, 0.0], [0.5, np.nan]])
    def test_nonfinite_rejected(self, w):
        with pytest.raises(ValueError, match="finite"):
            LabelWeights(w=np.array(w), n=1, c=2)

    def test_block_sum_rejected(self):
        with pytest.raises(ValueError, match="block sums"):
            LabelWeights(w=np.array([0.6, 0.6]), n=1, c=2)

    def test_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            LabelWeights(w=np.ones(3), n=1, c=2)

    def test_frozen_vector(self):
        lw = LabelWeights(w=np.array([0.5, 0.5]), n=1, c=2)
        with pytest.raises(ValueError):
            lw.w[0] = 0.0


class TestSupervisedWeights:
    def test_single_label(self):
        lw = supervised_weights(np.array([2]), 3)
        np.testing.assert_array_equal(lw.w, [0.0, 1.0, 0.0])

    def test_two_labels(self):
        lw = supervised_weights(np.array([1, 3]), 3)
        np.testing.assert_array_equal(lw.matrix, [[1, 0, 0], [0, 0, 1]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            supervised_weights(np.array([], dtype=np.int64), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="1..3"):
            supervised_weights(np.array([4]), 3)


class TestNaiveWeights:
    def test_argmax_one_hot(self):
        model = ProbModel(weights=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), num_classes=2, num_features=2)
        lw = naive_weights(model, np.array([[2.0, 0.0], [-2.0, 0.0], [3.0, 1.0]]))
        np.testing.assert_array_equal(lw.matrix, [[1, 0], [0, 1], [1, 0]])

    def test_tie_takes_smaller_label(self):
        model = ProbModel(weights=np.zeros((3, 3)), num_classes=3, num_features=2)
        lw = naive_weights(model, np.array([[0.4, -1.0]]))
        np.testing.assert_array_equal(lw.matrix, [[1, 0, 0]])


class TestProjectRows:
    def test_outside_vertex(self):
        np.testing.assert_allclose(_project_rows(np.array([[2.0, 0.0]])), [[1.0, 0.0]], atol=1e-15)

    def test_uniform_shift(self):
        np.testing.assert_allclose(_project_rows(np.array([[0.6, 0.6]])), [[0.5, 0.5]], atol=1e-15)

    def test_idempotent(self):
        z = np.array([[0.3, -0.8, 1.9, 0.1]])
        once = _project_rows(z)
        np.testing.assert_allclose(_project_rows(once), once, atol=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6))
    def test_projection_is_closest_simplex_point(self, seed, k):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-4.0, 4.0, k)
        p = _project_rows(z[None, :])[0]
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) < 1e-9
        dist = np.sum((z - p) ** 2)
        for _ in range(20):
            q = rng.dirichlet(np.ones(k))
            assert dist <= np.sum((z - q) ** 2) + 1e-9

    def test_simplex_rows_fixed(self):
        rows = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(_project_rows(rows), rows, atol=1e-12)

    def test_noncontiguous_input(self):
        rng = np.random.default_rng(1)
        V = rng.standard_normal((8, 6))[::2, ::2]
        out = _project_rows(V)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 7))
    def test_rows_land_on_simplex(self, seed, c):
        rng = np.random.default_rng(seed)
        V = rng.uniform(-5.0, 5.0, (4, c))
        out = _project_rows(V)
        assert out.min() >= 0.0
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestProjectCut:
    def test_slack_cut_keeps_plain_projection(self):
        V = np.random.default_rng(2).uniform(-2.0, 2.0, (5, 3))
        cut = ConstraintSet(loss_matrix=np.ones((5, 3)), bound=5.0)
        for c in (None, cut):
            W, mu = _project_cut(V, c)
            np.testing.assert_array_equal(W, _project_rows(V))
            assert mu == 0.0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 4), mu0=st.sampled_from([0.0, 0.01, 3.0, 1e4]))
    def test_projection_is_closest_cut_point(self, seed, c, mu0):
        rng = np.random.default_rng(seed)
        V = rng.uniform(-2.0, 2.0, (3, c))
        B = rng.uniform(0.1, 2.0, (3, c))
        floor = float(B.min(axis=1).sum())
        plain = float(np.sum(B * _project_rows(V)))
        if plain <= floor * (1.0 + 1e-6):
            return
        cut = ConstraintSet(loss_matrix=B, bound=floor + rng.uniform(0.05, 0.95) * (plain - floor))
        W, mu = _project_cut(V, cut, mu0)
        assert mu > 0.0
        np.testing.assert_array_equal(W, _project_rows(V - mu * B))
        assert abs(cut.bound - float(np.sum(B * W))) <= 1e-8 * cut.bound
        dist = np.sum((V - W) ** 2)
        for _ in range(50):
            Q = rng.dirichlet(np.ones(c), size=3)
            if float(np.sum(B * Q)) <= cut.bound:
                assert dist <= np.sum((V - Q) ** 2) + 1e-9

    def test_unreachable_cut_raises(self):
        cut = ConstraintSet(loss_matrix=np.array([[3.0, 2.0]]), bound=1.0)
        with pytest.raises(InfeasibleConstraintError, match="multiplier"):
            _project_cut(np.array([[0.5, 0.5]]), cut)


class TestConstraintSet:
    def test_flat_layout(self):
        cs = ConstraintSet(loss_matrix=np.array([[1.0, 2.0], [3.0, 4.0]]), bound=5.0)
        np.testing.assert_array_equal(cs.loss_matrix.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ConstraintSet(loss_matrix=np.array([[-0.1, 1.0]]), bound=1.0)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            ConstraintSet(loss_matrix=np.ones((1, 2)), bound=0.0)

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, c\)"):
            ConstraintSet(loss_matrix=np.ones(4), bound=1.0)


class TestBuildLossConstraints:
    def test_uniform_model_losses(self):
        model = ProbModel(weights=np.zeros((2, 2)), num_classes=2, num_features=1)
        cs = build_loss_constraints(model, np.array([[0.0], [1.0], [2.0]]), loss_bound_value=0.7)
        np.testing.assert_allclose(cs.loss_matrix, np.log(2.0), atol=1e-12)
        assert cs.bound == 3 * 0.7


class TestSolveLabelWeights:
    def test_single_instance_analytic_optimum(self):
        weights, report = solve_label_weights(_point_context(), options=TIGHT)
        np.testing.assert_allclose(weights.matrix, [[1.0, 0.0]], atol=1e-6)
        assert abs(report.objective_value - (-1.0)) < 1e-9
        assert report.converged
        assert report.inequality_slack == np.inf
        assert report.dual_lambda == 0.0

    def test_history_monotone_nonincreasing(self):
        ctx = _context_from_seed(21, n=5, m=7, c=3)
        _, report = solve_label_weights(ctx, options=TIGHT)
        assert np.all(np.diff(report.objective_history) <= 1e-12)

    def test_init_does_not_change_optimum(self):
        ctx = _context_from_seed(22, n=4, m=6, c=2)
        _, base = solve_label_weights(ctx, options=TIGHT)
        seeded = supervised_weights(np.array([1, 2, 1, 2]), 2)
        _, warm = solve_label_weights(ctx, options=TIGHT, init=seeded)
        assert abs(base.objective_value - warm.objective_value) < 1e-8

    def test_active_constraint_analytic(self):
        # on the simplex the loss 3 w1 + 0.1 w2 <= 1 binds at w1 = 0.9 / 2.9
        constraints = ConstraintSet(loss_matrix=np.array([[3.0, 0.1]]), bound=1.0)
        weights, report = solve_label_weights(_point_context(), constraints=constraints, options=TIGHT)
        np.testing.assert_allclose(weights.matrix[0, 0], 0.9 / 2.9, atol=1e-5)
        assert report.dual_lambda > 0.0
        assert -1e-8 * 1.0 <= report.inequality_slack <= 1e-6

    def test_large_multiplier_matches_oracle(self):
        ctx, constraints = _tight_constraint_fixture()
        _, report = solve_label_weights(ctx, constraints=constraints, options=TIGHT)
        assert report.dual_lambda > 2.0
        b = constraints.bound
        assert -1e-8 * b <= report.inequality_slack <= 0.0
        expect = qp_oracle(dense_pair_kernel(ctx), ctx.cross_v.ravel(), ctx.n, ctx.m, ctx.c,
                           loss_row=constraints.loss_matrix.ravel(), bound=b)
        assert abs(report.objective_value - expect) < 1e-6

    def test_one_fista_run(self, monkeypatch):
        inner = []
        fista = solver._fista

        def counted(*args, **kwargs):
            out = fista(*args, **kwargs)
            inner.append(out.iterations)
            return out

        monkeypatch.setattr(solver, "_fista", counted)
        ctx, constraints = _tight_constraint_fixture()
        _, report = solve_label_weights(ctx, constraints=constraints, options=TIGHT)
        assert report.dual_lambda > 0.0
        assert len(inner) == 1
        assert report.iterations == inner[0]

    @pytest.mark.parametrize("seed", [4, 5, 7])
    def test_tight_bound_lands_on_the_cut(self, seed):
        # a bound 1% above the cheapest vertices puts the optimum on the cut,
        # and the solve must land there to within 1e-8 b
        ctx = _context_from_seed(3000 + seed, n=3, m=5, c=3)
        B = np.random.default_rng(seed).uniform(0.2, 2.5, (3, 3))
        constraints = ConstraintSet(loss_matrix=B, bound=float(B.min(axis=1).sum()) * 1.01 + 0.01)
        _, report = solve_label_weights(ctx, constraints=constraints)
        assert report.dual_lambda > 0.0
        assert abs(report.inequality_slack) <= 1e-8 * constraints.bound

    def test_midway_bound_is_active_at_default_options(self):
        # b halfway between the cheapest vertices and the free optimum's loss,
        # so the free optimum is infeasible and the optimum sits on the cut,
        # which the solve must reach under the default stopping rule
        rng = np.random.default_rng(5)
        n, c = 40, 3
        cal = rng.standard_normal((n, 2))
        train = Dataset(rng.standard_normal((n, 2)), 1 + rng.integers(0, c, n), num_classes=c)
        B = -np.log(rng.dirichlet(np.ones(c), size=n))
        ctx = build_context(cal, train, KernelSpec(1.0))
        free_w, _ = solve_label_weights(ctx)
        free_loss = float(np.sum(B * free_w.matrix))
        bound = 0.5 * (float(B.min(axis=1).sum()) + free_loss)
        weights, report = solve_label_weights(ctx, constraints=ConstraintSet(loss_matrix=B, bound=bound))
        assert report.converged
        assert report.dual_lambda > 0.0
        assert abs(report.inequality_slack) <= 1e-8 * bound
        assert report.inequality_slack == bound - float(np.sum(B * weights.matrix))

    def test_loose_constraint_stays_inactive(self):
        constraints = ConstraintSet(loss_matrix=np.array([[3.0, 0.1]]), bound=10.0)
        weights, report = solve_label_weights(_point_context(), constraints=constraints, options=TIGHT)
        np.testing.assert_allclose(weights.matrix, [[1.0, 0.0]], atol=1e-6)
        assert report.dual_lambda == 0.0
        assert report.inequality_slack > 1.0

    def test_infeasible_constraint_raises(self):
        constraints = ConstraintSet(loss_matrix=np.array([[3.0, 2.0]]), bound=1.0)
        with pytest.raises(InfeasibleConstraintError, match="unsatisfiable"):
            solve_label_weights(_point_context(), constraints=constraints)

    def test_constraint_shape_checked(self):
        constraints = ConstraintSet(loss_matrix=np.ones((2, 2)), bound=4.0)
        with pytest.raises(ValueError, match="loss_matrix"):
            solve_label_weights(_point_context(), constraints=constraints)

    def test_flat_gradient_block_resolves_uniform(self):
        # training labels sit symmetrically around the calibration point, so
        # the block gradient is constant and the minimizer set is the whole
        # simplex; the solver must report the uniform representative
        cal = np.array([[0.0, 0.0]])
        train = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, 2]), num_classes=2)
        ctx = build_context(cal, train, KernelSpec(1.0))
        weights, report = solve_label_weights(ctx, options=TIGHT)
        np.testing.assert_array_equal(weights.matrix, [[0.5, 0.5]])
        assert report.converged

    def test_flat_block_kept_when_uniform_is_worse(self):
        # one-hot init at the optimum [1, 0]: the block gradient 2 K0 w - 2 v
        # is exactly flat there, but uniform weights score -0.5 against -1
        init = supervised_weights(np.array([1]), 2)
        weights, report = solve_label_weights(_point_context(), options=TIGHT, init=init)
        np.testing.assert_array_equal(weights.matrix, [[1.0, 0.0]])
        assert report.objective_value == -1.0
        assert report.objective_history[-1] == -1.0

    def test_matches_enumeration_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 4))
            c = int(rng.integers(2, 4))
            ctx = _context_from_seed(2000 + seed, n=n, m=n + 2, c=c)
            constraints = None
            loss_row = None
            bound = None
            if seed % 2 == 1:
                B = rng.uniform(0.2, 2.5, (n, c))
                free_w, _ = solve_label_weights(ctx, options=TIGHT)
                free_loss = float(np.sum(B * free_w.matrix))
                feas_min = float(B.min(axis=1).sum())
                bound = max(0.5 * (feas_min + free_loss), feas_min * 1.02 + 0.01)
                constraints = ConstraintSet(loss_matrix=B, bound=bound)
                loss_row = B.ravel()
            _, report = solve_label_weights(ctx, constraints=constraints, options=TIGHT)
            expect = qp_oracle(dense_pair_kernel(ctx), ctx.cross_v.ravel(), n, ctx.m, c, loss_row=loss_row, bound=bound)
            assert abs(report.objective_value - expect) < 1e-6, f"seed {seed}"
