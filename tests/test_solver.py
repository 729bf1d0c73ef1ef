"""Weight structures, simplex projection, and the label-weight QP."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_pair_kernel, qp_oracle
from unsupcp import solver
from unsupcp.classifier import ProbModel
from unsupcp.data import Dataset
from unsupcp.errors import InfeasibleConstraintError
from unsupcp.kernel import Gram, build_context
from unsupcp.solver import (
    FLOAT32_GAP_FLOOR,
    LAMBDA2_MARGIN,
    LANCZOS_STEPS,
    METRIC_MIN_N,
    POWER_MARGIN,
    ConstraintSet,
    LabelWeights,
    SolverOptions,
    _fista,
    _lanczos,
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
    return build_context(cal, train, sigma)


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
    return build_context(x0, Dataset(x0, np.array([1]), num_classes=2), 1.0)


class TestLabelWeights:
    def test_matrix_view(self):
        lw = LabelWeights(np.array([[0.2, 0.8], [1.0, 0.0]]))
        np.testing.assert_array_equal(lw.matrix, [[0.2, 0.8], [1.0, 0.0]])
        assert (lw.n, lw.c) == (2, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LabelWeights(np.array([[1.2, -0.2]]))

    @pytest.mark.parametrize("w", [[np.nan, np.nan], [np.inf, 0.0], [0.5, np.nan]])
    def test_nonfinite_rejected(self, w):
        with pytest.raises(ValueError, match="finite"):
            LabelWeights(np.array([w]))

    def test_block_sum_rejected(self):
        with pytest.raises(ValueError, match="block sums"):
            LabelWeights(np.array([[0.6, 0.6]]))

    def test_length_rejected(self):
        # the weights are an (n, c) matrix: a flat vector of any length, or an empty matrix, is not one
        for w in (np.array([0.5, 0.5]), np.ones(3), np.ones((1, 1, 2)) / 2, np.zeros((0, 2))):
            with pytest.raises(ValueError, match=r"\(n, c\) matrix"):
                LabelWeights(w)

    def test_frozen_vector(self):
        lw = LabelWeights(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            lw.matrix[0, 0] = 0.0


class TestSupervisedWeights:
    def test_single_label(self):
        lw = supervised_weights(np.array([2]), 3)
        np.testing.assert_array_equal(lw.matrix, [[0.0, 1.0, 0.0]])

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


def _rows(rng, n, c, scale, tied):
    """Uniform rows on [-scale, scale]; ``tied`` draws them from a grid of
    step 1/2, so most rows hold exactly equal entries."""
    if tied:
        return rng.integers(-2 * int(scale), 2 * int(scale) + 1, (n, c)) / 2.0
    return rng.uniform(-scale, scale, (n, c))


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
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), tied=st.booleans())
    def test_projection_is_closest_simplex_point(self, seed, k, tied):
        rng = np.random.default_rng(seed)
        z = _rows(rng, 1, k, 4.0, tied)[0]
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
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 7), tied=st.booleans())
    def test_rows_land_on_simplex(self, seed, c, tied):
        rng = np.random.default_rng(seed)
        V = _rows(rng, 4, c, 5.0, tied)
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


class TestSolverOptions:
    # a NaN or negative tolerance never certifies, and a cap of 0 returns the start point unconverged
    @pytest.mark.parametrize("name, value", [("rel_tol", np.nan), ("rel_tol", -1.0), ("rel_tol", 0.0),
                                             ("rel_tol", np.inf), ("max_iters", 0), ("max_iters", -3),
                                             ("max_iters", 2.5), ("max_iters", True)])
    def test_bad_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverOptions(**{name: value})


class TestBuildLossConstraints:
    def test_uniform_model_losses(self):
        model = ProbModel(weights=np.zeros((2, 2)), num_classes=2, num_features=1)
        cs = build_loss_constraints(model, np.array([[0.0], [1.0], [2.0]]), loss_bound_value=0.7)
        np.testing.assert_allclose(cs.loss_matrix, np.log(2.0), atol=1e-12)
        assert cs.bound == 3 * 0.7

    def test_unreachable_bound_raises_at_build(self):
        # every pair loses log 2, so no weights reach a total loss below 3 log 2
        model = ProbModel(weights=np.zeros((2, 2)), num_classes=2, num_features=1)
        X = np.zeros((3, 1))
        with pytest.raises(InfeasibleConstraintError, match="unsatisfiable"):
            build_loss_constraints(model, X, loss_bound_value=(1.0 - 1e-6) * np.log(2.0))
        cs = build_loss_constraints(model, X, loss_bound_value=(1.0 - 1e-9) * np.log(2.0))  # within SLACK_REL_TOL
        W, mu = _project_cut(np.full((3, 2), 0.5), cs)  # which the cut search accepts too
        assert mu == 0.0


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
            inner.append(out[1].iterations)
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
        ctx = build_context(cal, train, 1.0)
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
        ctx = build_context(cal, train, 1.0)
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


def _float64_gap(ctx, constraints, W, lam):
    """(Phi, Frank-Wolfe gap) at W through the dense pair kernel, with the
    cut's multiplier lam: the certificate recomputed independently."""
    n, m, c = ctx.n, ctx.m, ctx.c
    w = W.ravel()
    v = ctx.cross_v.ravel()
    Kw = dense_pair_kernel(ctx) @ w
    grad = (2.0 * Kw / n - 2.0 * v / m).reshape(n, c)
    value = float(w @ Kw / n - 2.0 * (v @ w) / m)
    if constraints is None or lam == 0.0:
        lower = float(grad.min(axis=1).sum())
    else:
        lower = float((grad + lam * constraints.loss_matrix).min(axis=1).sum()) - lam * constraints.bound
    return value, float(grad.ravel() @ w) - lower


@pytest.fixture(scope="module")
def oracle_fixtures():
    """Criterion-6-style instances (n <= 5, c <= 3), every other one with a
    loss cut between the cheapest vertices and the free optimum's loss,
    each with its enumerated optimum."""
    rng = np.random.default_rng(606)
    out = []
    for i in range(12):
        n, c = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        m = n + int(rng.integers(1, 4))
        ctx = _context_from_seed(int(rng.integers(2**31)), n, m, c, sigma=float(rng.choice([0.7, 1.0, 2.0])))
        constraints = None
        if i % 2:
            B = rng.uniform(0.2, 2.5, (n, c))
            free_w, _ = solve_label_weights(ctx, options=TIGHT)
            free_loss = float(np.sum(B * free_w.matrix))
            feas_min = float(B.min(axis=1).sum())
            constraints = ConstraintSet(loss_matrix=B, bound=max(0.5 * (feas_min + free_loss), feas_min * 1.05 + 0.05))
        expect = qp_oracle(dense_pair_kernel(ctx), ctx.cross_v.ravel(), n, m, c,
                           loss_row=None if constraints is None else constraints.loss_matrix.ravel(),
                           bound=None if constraints is None else constraints.bound)
        out.append((ctx, constraints, expect))
    return out


def _gaussian_instance(seed, n, c, d=2):
    """A pipeline-shaped QP: Gaussian classes, m = n training points, K0 at
    sigma 1 and the naive one-hot start."""
    rng = np.random.default_rng(seed)
    means = 1.5 * rng.standard_normal((c, d))
    train_labels = 1 + rng.integers(0, c, n)
    cal_labels = 1 + rng.integers(0, c, n)
    train = Dataset(means[train_labels - 1] + rng.standard_normal((n, d)), train_labels, num_classes=c)
    ctx = build_context(means[cal_labels - 1] + rng.standard_normal((n, d)), train, 1.0)
    return ctx, supervised_weights(cal_labels, c)


def _lanczos_of(K):
    """The Lanczos run on K's own products: float32 GEMVs for a float32 K, as
    the float32 phase runs them, and float64 ones otherwise."""
    if K.dtype == np.float32:
        return _lanczos(Gram(K).product, float(np.finfo(np.float32).eps), K.shape[0])
    return _lanczos(lambda q: K @ q, float(np.finfo(np.float64).eps), K.shape[0])


def _lip(K):
    """The solver's step constant: POWER_MARGIN times 2/n lambda_1's estimate."""
    return POWER_MARGIN * 2.0 / K.shape[0] * _lanczos_of(K)[0]


class TestCertificate:
    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-7, 1e-12])
    def test_gap_bounds_suboptimality(self, oracle_fixtures, tol):
        options = SolverOptions(max_iters=50000, rel_tol=tol)
        for k, (ctx, constraints, expect) in enumerate(oracle_fixtures):
            _, report = solve_label_weights(ctx, constraints=constraints, options=options)
            excess = report.objective_value - expect
            assert report.gap >= excess - 1e-12, f"fixture {k}"
            if report.converged:
                assert excess <= tol * max(1.0, abs(report.objective_value)), f"fixture {k}"

    @pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-7, 1e-12])
    def test_converged_is_the_float64_gap(self, oracle_fixtures, tol):
        seen = set()
        for ctx, constraints, _ in oracle_fixtures:
            weights, report = solve_label_weights(ctx, constraints=constraints,
                                                  options=SolverOptions(max_iters=50000, rel_tol=tol))
            value, gap = _float64_gap(ctx, constraints, weights.matrix, report.dual_lambda)
            assert abs(value - report.objective_value) <= 1e-12 * max(1.0, abs(value))
            assert abs(gap - report.gap) <= 1e-12 * max(1.0, abs(value))
            assert report.converged == (report.gap <= tol * max(1.0, abs(report.objective_value)))
            seen.add(report.converged)
        if tol >= 1e-5:
            assert seen == {True}

    def test_power_step_bounds_lambda_max(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, d = int(rng.integers(2, 120)), int(rng.integers(1, 6))
            X = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0)
            D2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
            K = np.exp(-D2 / (2.0 * rng.uniform(0.3, 3.0) ** 2))
            bound = 2.0 * float(np.linalg.eigvalsh(K)[-1]) / n
            assert _lip(K) >= bound
            assert _lip(K.astype(np.float32)) >= bound
            # and within the margin: the estimate is a step, not a loose bound
            assert _lip(K) <= 1.0101 * bound

    def test_reported_step_is_the_power_step(self):
        ctx, init = _gaussian_instance(8, 60, 3)
        _, report = solve_label_weights(ctx, init=init)
        lam_max = float(np.linalg.eigvalsh(ctx.gram.values.astype(np.float64))[-1])
        assert 2.0 * lam_max / ctx.n <= 1.0 / report.step <= 1.0101 * 2.0 * lam_max / ctx.n

    def test_forced_float32_stall_switches_and_certifies(self, monkeypatch):
        # float32 phase products on a float16-rounded K0 are too coarse to
        # certify 1e-5, so the solve must switch to float64 products and
        # certify there
        product = Gram.product

        def float16_product(self, W, shift=0.0):
            return product(Gram(self.values.astype(np.float16).astype(np.float32)), W, shift)

        monkeypatch.setattr(Gram, "product", float16_product)
        ctx, init = _gaussian_instance(3, 200, 3)
        G = (2.0 / ctx.m) * ctx.cross_v
        tol = 1e-5
        W, report = _fista(ctx.gram, G, init.matrix, 20000, tol, None)
        assert report.switch_iteration > 0
        assert report.converged
        # the reported certificate is the float64 one at the returned iterate
        value, gap = _float64_gap(ctx, None, W, 0.0)
        assert abs(report.objective_value - value) <= 1e-12 * max(1.0, abs(value))
        assert abs(report.gap - gap) <= 1e-10 * max(1.0, abs(value))
        assert gap <= tol * max(1.0, abs(value))
        hist = report.objective_history
        assert np.all(np.diff(hist[: report.switch_iteration]) <= 0.0)
        assert np.all(np.diff(hist[report.switch_iteration:]) <= 1e-12 * abs(hist[-1]))

    def test_tolerance_past_float32_reach_switches_and_certifies(self):
        # float32 products cannot certify a 2e-6 gap here; the solve starts in
        # float32 (2e-6 is above the floor) and must finish in float64
        ctx, init = _gaussian_instance(3, 200, 3)
        weights, report = solve_label_weights(ctx, options=SolverOptions(rel_tol=2e-6), init=init)
        assert report.switch_iteration > 0
        assert report.converged
        value, gap = _float64_gap(ctx, None, weights.matrix, 0.0)
        assert gap <= 2e-6 * max(1.0, abs(value))

    def test_solve_capped_in_float32_reports_float64(self):
        # the cap stops the float32 phase; the float64 phase evaluates the
        # last iterate and takes no step, so the report is the float64
        # certificate there while the history holds only float32 values
        ctx, init = _gaussian_instance(4, 200, 3)
        weights, report = solve_label_weights(ctx, options=SolverOptions(max_iters=3), init=init)
        assert (report.iterations, report.converged, report.switch_iteration) == (3, False, 0)
        assert len(report.objective_history) == 4
        value, gap = _float64_gap(ctx, None, weights.matrix, 0.0)
        assert abs(report.objective_value - value) <= 1e-12 * abs(value)
        assert abs(report.gap - gap) <= 1e-12 * gap

    def test_default_options_certify_without_switch(self):
        ctx, init = _gaussian_instance(5, 500, 3)
        weights, report = solve_label_weights(ctx, init=init)
        assert report.converged
        assert report.switch_iteration == 0
        value, gap = _float64_gap(ctx, None, weights.matrix, 0.0)
        assert gap <= 1e-4 * max(1.0, abs(value))

    @pytest.mark.parametrize("tol", [FLOAT32_GAP_FLOOR / 10, FLOAT32_GAP_FLOOR, 1e-4])
    def test_float32_products_only_above_the_floor(self, monkeypatch, tol):
        # float32 products run on the context's own Gram, never on a copy, and only above the floor
        seen = []
        product = Gram.product
        monkeypatch.setattr(Gram, "product", lambda self, W, s=0.0: seen.append(self.values) or product(self, W, s))
        ctx, init = _gaussian_instance(6, 40, 3)
        solve_label_weights(ctx, options=SolverOptions(rel_tol=tol), init=init)
        assert ctx.gram.values.dtype == np.float32
        if tol < FLOAT32_GAP_FLOOR:
            assert seen == []
        else:
            assert seen and all(K is ctx.gram.values for K in seen)


def _metric_value(W, Y, g, v, step, beta):
    """<g, W> + 1/2 <W - Y, M (W - Y)> with M = I / step + beta v v^T on columns."""
    D = W - Y
    return float(np.vdot(g, W) + 0.5 * (np.vdot(D, D) / step + beta * np.sum((v @ D) ** 2)))


def _metric_oracle(Y, g, v, step, beta, cut):
    """Minimum of the metric step's QP by support enumeration: the pair
    matrix is M (x) I_c, fed to qp_oracle as (n / 2) M with m = 2."""
    n, c = Y.shape
    Mp = np.kron(np.eye(n) / step + beta * np.outer(v, v), np.eye(c))
    y = Y.ravel()
    lin = g.ravel() - Mp @ y
    return 0.5 * y @ Mp @ y + qp_oracle(0.5 * n * Mp, -lin, n, 2, c,
                                        loss_row=None if cut is None else cut.loss_matrix.ravel(),
                                        bound=None if cut is None else cut.bound)


def _exact_simplex_step(ms, Y, g):
    """The metric step onto the row simplices with its dual iterated to
    convergence: Newton on the concave dual D(y), each target from
    ``ms.dual`` on the support at y, halved until D does not fall."""
    V = Y - ms.step * g
    vY = ms.v @ Y

    def at(y):
        W = _project_rows(V - np.outer(ms.step * ms.v, y))
        D = W - Y
        return W, float(np.vdot(g + np.outer(ms.v, y), W) + np.vdot(D, D) / (2 * ms.step) - y @ vY - y @ y / (2 * ms.beta))

    y = np.zeros(Y.shape[1])
    W, d = at(y)
    for _ in range(200):
        ms.support = (W > 0.0).astype(np.float64)
        target = ms.dual(V, Y, 0.0)
        if np.abs(target - y).max() <= 1e-10 * (1.0 + np.abs(y).max()):
            return W
        t = 1.0
        while True:
            W_t, d_t = at(y + t * (target - y))
            if d_t >= d or t < 1e-12:
                break
            t *= 0.5
        y, W, d = y + t * (target - y), W_t, d_t
    raise AssertionError("the metric step's dual did not converge")


def _exact_metric_step(step, v, beta, Y, g, cut):
    """(W, lambda): the metric step onto the cut set, by bisection on the
    cut's multiplier lambda around the exact simplex step of g + lambda B."""
    ms = solver._MetricStep(step, None, v, beta)
    W = _exact_simplex_step(ms, Y, g)
    if cut is None or float(np.sum(cut.loss_matrix * W)) <= cut.bound:
        return W, 0.0
    lo, hi = 0.0, 1.0
    while float(np.sum(cut.loss_matrix * _exact_simplex_step(ms, Y, g + hi * cut.loss_matrix))) > cut.bound:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(np.sum(cut.loss_matrix * _exact_simplex_step(ms, Y, g + mid * cut.loss_matrix))) > cut.bound:
            lo = mid
        else:
            hi = mid
    return _exact_simplex_step(ms, Y, g + hi * cut.loss_matrix), hi


def _metric_problem(seed, n, c, with_cut):
    """A random metric step: momentum point Y, gradient g, unit positive v,
    step and beta, and (when ``with_cut``) a cut between the cheapest
    vertices and the free step's loss, or None where the free step sits at
    the cheapest vertices."""
    rng = np.random.default_rng(seed)
    Y = rng.dirichlet(np.ones(c), size=n) + 0.3 * rng.standard_normal((n, c))
    g = rng.standard_normal((n, c))
    v = rng.uniform(0.2, 1.0, n)
    v /= np.linalg.norm(v)
    step, beta = rng.uniform(0.2, 2.0), rng.uniform(0.5, 20.0)
    cut = None
    if with_cut:
        B = rng.uniform(0.1, 2.0, (n, c))
        floor = float(B.min(axis=1).sum())
        free = float(np.sum(B * _exact_metric_step(step, v, beta, Y, g, None)[0]))
        if free > floor * (1.0 + 1e-3):
            cut = ConstraintSet(loss_matrix=B, bound=floor + rng.uniform(0.1, 0.9) * (free - floor))
    return Y, g, v, step, beta, cut, rng


class TestMetricStep:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), c=st.integers(2, 3), with_cut=st.booleans())
    def test_converged_dual_solves_the_metric_qp(self, seed, n, c, with_cut):
        Y, g, v, step, beta, cut, _ = _metric_problem(seed, n, c, with_cut)
        W, lam = _exact_metric_step(step, v, beta, Y, g, cut)
        value = _metric_value(W, Y, g, v, step, beta)
        expect = _metric_oracle(Y, g, v, step, beta, cut)
        # bisection leaves B W within roundoff of b on either side, which moves the value by lambda times that
        over = 0.0 if cut is None else lam * abs(float(np.sum(cut.loss_matrix * W)) - cut.bound)
        assert abs(value - expect) <= over + 1e-9 * max(1.0, abs(expect))
        # given that step's supports, one projection of the solver's step is the same step
        ms = solver._MetricStep(step, cut, v, beta)
        ms.support = (W > 0.0).astype(np.float64)
        W1, mu1 = ms(Y, g, lam * step)
        np.testing.assert_allclose(W1, W, atol=1e-6)
        assert abs(mu1 / step - lam) <= 1e-6 * max(1.0, lam)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), c=st.integers(2, 5), with_cut=st.booleans(),
           mu=st.sampled_from([0.0, 0.05, 2.0]))
    def test_single_projection_lands_in_the_cut_set(self, seed, n, c, with_cut, mu):
        rng = np.random.default_rng(seed)
        Y = rng.uniform(-1.0, 2.0, (n, c))
        g = rng.standard_normal((n, c))
        v = rng.uniform(0.1, 1.0, n)
        v /= np.linalg.norm(v)
        B = rng.uniform(0.1, 2.0, (n, c))
        cut = ConstraintSet(loss_matrix=B, bound=float(B.min(axis=1).sum()) * 1.05 + 0.01) if with_cut else None
        ms = solver._MetricStep(rng.uniform(0.1, 2.0), cut, v, rng.uniform(0.1, 50.0))
        # any prediction, however wrong, still gives a feasible point
        ms.support = (rng.random((n, c)) < 0.5).astype(np.float64)
        ms.support[np.arange(n), rng.integers(0, c, n)] = 1.0
        W, mu_out = ms(Y, g, mu * (cut is not None))
        assert W.min() >= 0.0
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-9)
        if cut is not None:
            assert float(np.sum(B * W)) <= cut.bound * (1.0 + 1e-8)
        np.testing.assert_array_equal(ms.support, W > 0.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), with_cut=st.booleans(), mu=st.sampled_from([0.0, 0.01, 3.0]))
    def test_zero_beta_is_the_plain_step_bit_for_bit(self, seed, with_cut, mu):
        rng = np.random.default_rng(seed)
        Y = rng.uniform(-1.0, 2.0, (5, 3))
        g = rng.standard_normal((5, 3))
        B = rng.uniform(0.1, 2.0, (5, 3))
        cut = ConstraintSet(loss_matrix=B, bound=float(B.min(axis=1).sum()) * 1.1 + 0.01) if with_cut else None
        step = 1.0 / rng.uniform(0.5, 5.0)
        expect, mu_expect = _project_cut(Y - step * g, cut, mu)
        for ms in (solver._MetricStep(step, cut), solver._MetricStep(step, cut, np.full(5, 5 ** -0.5), 0.0)):
            W, mu_out = ms(Y, g, mu)
            np.testing.assert_array_equal(W, expect)
            assert mu_out == mu_expect


def _perron_instance(seed, n=METRIC_MIN_N, c=10, d=10):
    """The criterion-10 shape (class means 2.2 I, sigma 2.2) at n = m: its
    Gram's lambda_1 / lambda_2 is about 4, so the metric runs."""
    rng = np.random.default_rng(seed)
    means = 2.2 * np.eye(c, d)
    train_labels, cal_labels = 1 + rng.integers(0, c, n), 1 + rng.integers(0, c, n)
    train = Dataset(means[train_labels - 1] + rng.standard_normal((n, d)), train_labels, num_classes=c)
    ctx = build_context(means[cal_labels - 1] + rng.standard_normal((n, d)), train, 2.2)
    return ctx, supervised_weights(cal_labels, c), rng


def _gram_gap(ctx, constraints, W, lam):
    """(Phi, Frank-Wolfe gap) at W from a float64 K0 @ W and the cut's
    multiplier lam, for n too large for the dense pair kernel."""
    grad = (2.0 / ctx.n) * (ctx.gram.values @ W) - (2.0 / ctx.m) * ctx.cross_v
    value = float(np.sum(W * (ctx.gram.values @ W)) / ctx.n - 2.0 * np.sum(W * ctx.cross_v) / ctx.m)
    lower = float((grad + lam * constraints.loss_matrix).min(axis=1).sum()) - lam * constraints.bound
    return value, float(np.sum(grad * W)) - lower


class TestPerronMetric:
    def test_active_cut_certifies_with_the_metric_on(self):
        ctx, init, rng = _perron_instance(1)
        B = -np.log(rng.dirichlet(np.ones(ctx.c), size=ctx.n))
        free_w, free = solve_label_weights(ctx, init=init)
        assert free.metric_iteration == 0
        bound = 0.5 * (float(B.min(axis=1).sum()) + float(np.sum(B * free_w.matrix)))
        constraints = ConstraintSet(loss_matrix=B, bound=bound)
        weights, report = solve_label_weights(ctx, constraints=constraints, init=init)
        assert report.perron_ratio > LAMBDA2_MARGIN / POWER_MARGIN
        assert report.metric_iteration == 0
        assert report.converged
        assert report.dual_lambda > 0.0
        assert abs(report.inequality_slack) <= 1e-8 * bound
        value, gap = _gram_gap(ctx, constraints, weights.matrix, report.dual_lambda)
        assert abs(gap - report.gap) <= 1e-10 * max(1.0, abs(value))
        assert gap <= 1e-4 * max(1.0, abs(value))

    def test_metric_solve_matches_the_plain_one_in_fewer_iterations(self, monkeypatch):
        ctx, init, _ = _perron_instance(2)
        _, metric = solve_label_weights(ctx, init=init)
        monkeypatch.setattr(solver, "METRIC_MIN_N", np.inf)
        _, plain = solve_label_weights(ctx, init=init)
        assert (metric.metric_iteration, plain.metric_iteration) == (0, -1)
        assert metric.step == plain.step
        assert metric.converged and plain.converged
        # both certify 1e-4, so their values differ by at most that
        assert abs(metric.objective_value - plain.objective_value) <= 1e-4 * abs(plain.objective_value)
        assert metric.iterations < 0.6 * plain.iterations

    def test_lambda2_underestimate_drops_the_metric_for_good(self, monkeypatch):
        # a fifth of the lambda_2 estimate lets the metric step overshoot; the
        # solve must drop it at the first failed plain step and still certify
        monkeypatch.setattr(solver, "LAMBDA2_MARGIN", 0.2)
        metric_steps = []
        step = solver._MetricStep.__call__
        monkeypatch.setattr(solver._MetricStep, "__call__",
                            lambda prox, *a: metric_steps.append(prox.beta > 0.0) or step(prox, *a))
        ctx, init, _ = _perron_instance(3)
        weights, report = solve_label_weights(ctx, init=init)
        # the first step has no momentum, so it fails as a plain metric step:
        # the metric is dropped at once, with no restart that redoes that step
        assert (report.metric_iteration, report.restarts, report.switch_iteration) == (1, 0, 0)
        assert sum(metric_steps) == 1 and metric_steps[0]
        assert len(metric_steps) == report.iterations + 1
        assert report.converged
        hist = report.objective_history
        cut = report.switch_iteration or hist.size
        assert np.all(np.diff(hist[:cut]) <= 0.0)
        assert np.all(np.diff(hist[cut:]) <= 1e-12 * abs(hist[-1]))

    @pytest.mark.parametrize("n", [METRIC_MIN_N - 1, 40])
    def test_below_the_n_gate_the_metric_stays_off(self, monkeypatch, n):
        seen = []
        lanczos = solver._lanczos

        def spy(*args):
            seen.append(lanczos(*args))
            return seen[-1]

        monkeypatch.setattr(solver, "_lanczos", spy)
        ctx, init, _ = _perron_instance(4, n=n)
        _, report = solve_label_weights(ctx, init=init)
        # one Lanczos run estimates both eigenvalues at every n; only the gate keeps the step 1/L
        assert len(seen) == 1
        assert report.perron_ratio == seen[0][0] / seen[0][2] > LAMBDA2_MARGIN / POWER_MARGIN
        assert report.metric_iteration == -1
        assert report.converged

    def test_grid_mixture_runs_the_metric_in_fewer_iterations(self, monkeypatch):
        # the acceptance-grid mixture at n = METRIC_MIN_N has lambda_1 / lambda_2
        # near 1.6, above the margins' ratio: the metric runs and certifies
        ctx, init = _gaussian_instance(9, METRIC_MIN_N, 3)
        _, metric = solve_label_weights(ctx, init=init)
        monkeypatch.setattr(solver, "METRIC_MIN_N", np.inf)
        _, plain = solve_label_weights(ctx, init=init)
        assert 1.0 < metric.perron_ratio < 2.0
        assert (metric.metric_iteration, plain.metric_iteration) == (0, -1)
        assert metric.converged and plain.converged
        assert metric.iterations < plain.iterations

    def test_flat_spectrum_keeps_the_plain_step(self, monkeypatch):
        # points 1 apart at sigma 0.25 give K0 within 1e-3 of I: L_1 <= L_2,
        # so the metric stays off even with no n gate
        monkeypatch.setattr(solver, "METRIC_MIN_N", 1)
        cal = np.stack([np.arange(60.0), np.zeros(60)], axis=1)
        train = Dataset(np.random.default_rng(0).standard_normal((8, 2)), 1 + np.arange(8) % 3, num_classes=3)
        _, report = solve_label_weights(build_context(cal, train, 0.25))
        assert 1.0 < report.perron_ratio < LAMBDA2_MARGIN / POWER_MARGIN
        assert report.metric_iteration == -1
        assert report.converged


class TestLanczos:
    @pytest.mark.parametrize("c", [3, 10])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ritz_values_bracket_the_top_eigenvalues(self, c, dtype):
        # Gaussian Grams of both benchmark shapes at n = 400
        for seed in (1, 2):
            K = (_gaussian_instance(seed, 400, 3) if c == 3 else _perron_instance(seed, n=400))[0].gram.values
            exact, U = np.linalg.eigh(K.astype(np.float64))
            exact = exact[::-1]
            lam1, v, lam2 = _lanczos_of(K.astype(dtype))
            # interlacing: at or below the exact values, up to the products' rounding
            slack = 10.0 * np.finfo(dtype).eps * exact[0]
            assert lam1 <= exact[0] + slack and lam2 <= exact[1] + slack
            assert lam1 >= 0.9999 * exact[0]
            assert lam2 >= 0.99 * exact[1]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert v.sum() > 0.0
            assert abs(float(v @ U[:, -1])) >= 1.0 - 1e-6  # v is the Perron vector

    def test_lanczos_takes_one_small_eigh(self, monkeypatch):
        # every Ritz pair comes from one eigh of the tridiagonal, at most LANCZOS_STEPS square: never an n x n one
        shapes, eigh = [], np.linalg.eigh

        def spy(T, *args, **kwargs):
            shapes.append(np.shape(T))
            return eigh(T, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        lam1, v, lam2 = _lanczos_of(_gaussian_instance(1, 60, 3)[0].gram.values)
        assert lam1 >= lam2 > 0.0 and v.sum() > 0.0
        solve_label_weights(_gaussian_instance(2, 60, 3)[0])  # one Lanczos run per solve
        assert len(shapes) == 2 and all(k == j <= LANCZOS_STEPS for k, j in shapes)

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_rank_one_and_tiny_grams_keep_the_plain_step(self, monkeypatch, n):
        # n identical points (so a rank-one K0) or n <= 2 points: lambda_2 is
        # 0 or NaN without a warning, and the metric stays off even with no n gate
        monkeypatch.setattr(solver, "METRIC_MIN_N", 1)
        rng = np.random.default_rng(n)
        cal = np.zeros((n, 2)) if n == 50 else rng.standard_normal((n, 2))
        train = Dataset(rng.standard_normal((8, 2)), 1 + np.arange(8) % 3, num_classes=3)
        ctx = build_context(cal, train, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for K in (ctx.gram.values.astype(np.float64), ctx.gram.values):
                lam1, v, lam2 = _lanczos_of(K)
                assert np.isnan(lam2) or lam2 == 0.0
                assert abs(lam1 - np.linalg.eigvalsh(ctx.gram.values.astype(np.float64))[-1]) <= 1e-6 * lam1
                assert v.sum() > 0.0
            _, report = solve_label_weights(ctx)
        assert np.isnan(report.perron_ratio)
        assert report.metric_iteration == -1
        assert report.converged
