import itertools

import numpy as np
import pytest

from baryflow import ot
from baryflow.measures import EmpiricalMeasure, MiniBatch, one_hot, softmax
from conftest import (
    cells_cost,
    dense_assignment_plan,
    dense_line_plan,
    dense_linprog_plan,
    dense_simplex_plan,
    flow_plan_dispatch,
    plain_assignment_plan,
    target_potential_dispatch,
    uniform_exact_dispatch,
    w2_dispatch,
)


def brute_force_uniform(cost: np.ndarray) -> float:
    """Minimum over permutation couplings scaled by 1/n (exact for uniform
    square problems by Birkhoff's theorem)."""
    n = cost.shape[0]
    return min(
        sum(cost[i, p[i]] for i in range(n)) / n
        for p in itertools.permutations(range(n))
    )


class TestJointCost:
    def test_scalar_squared_distance(self):
        c = ot.joint_cost(np.array([[0.0]]), np.array([[3.0]]))
        assert np.allclose(c, [[9.0]])

    def test_label_term(self):
        c = ot.joint_cost(np.array([[0.0]]), np.array([[0.0]]),
                          np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
                          beta=2.0)
        assert np.allclose(c, [[4.0]])

    def test_zero_diagonal_on_self(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        lab = rng.standard_normal((5, 2))
        c = ot.joint_cost(x, x, lab, lab, beta=3.0)
        assert np.allclose(np.diag(c), 0.0, atol=1e-12)

    def test_one_sided_labels_rejected(self):
        with pytest.raises(ValueError):
            ot.joint_cost(np.zeros((2, 1)), np.zeros((2, 1)),
                          labels_x=np.ones((2, 1)), beta=1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ot.joint_cost(np.zeros((1, 1)), np.zeros((1, 1)), beta=-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ot.joint_cost(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_beta_zero_equals_unlabeled(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((4, 2)), rng.standard_normal((6, 2))
        lx, ly = rng.standard_normal((4, 3)), rng.standard_normal((6, 3))
        with_labels = ot.joint_cost(x, y, lx, ly, beta=0.0)
        without = ot.joint_cost(x, y)
        assert np.array_equal(with_labels, without)


class TestSolveExact:
    def test_single_atom(self):
        plan, cost = ot.solve_exact([1.0], [1.0], np.array([[5.0]]))
        assert np.allclose(plan.coupling, [[1.0]])
        assert cost == 5.0

    def test_identity_coupling_zero_cost(self):
        x = np.array([[0.0], [1.0]])
        c = ot.squared_distances(x, x)
        plan, cost = ot.solve_exact([0.5, 0.5], [0.5, 0.5], c)
        assert abs(cost) <= 1e-15
        assert np.allclose(plan.coupling, np.eye(2) / 2)

    def test_monotone_matching(self):
        # X = {0, 2}, Y = {1, 3}: identity matching costs (1+1)/2 = 1,
        # the crossing matching (9+1)/2 = 5
        c = ot.squared_distances(np.array([[0.0], [2.0]]),
                                 np.array([[1.0], [3.0]]))
        plan, cost = ot.solve_exact([0.5, 0.5], [0.5, 0.5], c)
        assert abs(cost - 1.0) <= 1e-12
        assert plan.coupling[0, 0] > 0 and plan.coupling[1, 1] > 0

    def test_matches_brute_force_small_uniform(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            c = rng.random((n, n))
            a = np.full(n, 1.0 / n)
            _, cost = ot.solve_exact(a, a, c)
            assert abs(cost - brute_force_uniform(c)) <= 1e-9

    def test_rectangular_uniform_matches_linprog(self):
        rng = np.random.default_rng(3)
        for n, m in [(6, 3), (4, 8), (9, 3), (96, 128), (4, 6), (6, 9)]:
            c = rng.random((n, m))
            a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
            _, fast = ot.solve_exact(a, b, c)
            slow = cells_cost(ot._linprog_plan(c, a, b), c)
            assert abs(fast - slow) <= 1e-9

    @pytest.mark.parametrize("n, m, weighted, path", [
        (96, 128, False, "_assignment_plan"),  # L = 384 <= 4 * 128
        (7, 11, False, "_simplex_plan"),       # L = 77 > 4 * 11
        (19, 23, False, "_linprog_plan"),      # L = 437 > 4 * 23; 437 entries
        (6, 6, True, "_simplex_plan"),
        (10, 11, True, "_linprog_plan"),       # 110 > SIMPLEX_SIZE_LIMIT
    ])
    def test_path_choice(self, monkeypatch, n, m, weighted, path):
        # coprime uniform sizes must never build the n*m-square assignment
        def fail(*args):
            raise AssertionError(f"{n}x{m} left {path}")
        for name in ("_assignment_plan", "_simplex_plan", "_linprog_plan"):
            if name != path:
                monkeypatch.setattr(ot, name, fail)
        rng = np.random.default_rng(n * m)
        a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        if weighted:
            a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        plan, _ = ot.solve_exact(a, b, rng.random((n, m)))
        assert plan.coupling.shape == (n, m)

    @pytest.mark.parametrize("scale", [1e-8, 1e-6])
    def test_lp_path_is_scale_free(self, scale):
        # 121 entries take HiGHS, whose tolerances are absolute; the
        # transportation simplex is the reference at any scale
        rng = np.random.default_rng(11)
        x, y = rng.standard_normal((11, 2)), rng.standard_normal((11, 2))
        a, b = rng.dirichlet(np.ones(11)), rng.dirichlet(np.ones(11))
        c = scale * ot.squared_distances(x, y)
        _, cost = ot.solve_exact(a, b, c)
        reference = cells_cost(ot._simplex_plan(c, a, b), c)
        assert abs(cost - reference) <= 1e-9 * reference

    def test_general_marginals_2x2_closed_form(self):
        # with marginals (a, 1-a), (b, 1-b) the plan has one free entry
        # g in [max(0, a+b-1), min(a, b)] and the cost is linear in g
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.uniform(0.1, 0.9, size=2)
            c = rng.random((2, 2))
            slope = c[0, 0] - c[0, 1] - c[1, 0] + c[1, 1]
            g = max(0.0, a + b - 1.0) if slope > 0 else min(a, b)
            best = (g * c[0, 0] + (a - g) * c[0, 1] + (b - g) * c[1, 0]
                    + (1 - a - b + g) * c[1, 1])
            _, cost = ot.solve_exact([a, 1 - a], [b, 1 - b], c)
            assert abs(cost - best) <= 1e-9

    def test_infeasible_marginals(self):
        with pytest.raises(ValueError):
            ot.solve_exact([0.6, 0.6], [0.5, 0.5], np.zeros((2, 2)))

    def test_plan_feasibility(self):
        rng = np.random.default_rng(5)
        c = rng.random((7, 5))
        a = rng.dirichlet(np.ones(7))
        b = rng.dirichlet(np.ones(5))
        plan, _ = ot.solve_exact(a, b, c)
        assert np.max(np.abs(plan.coupling.sum(axis=1) - a)) <= 1e-8
        assert np.max(np.abs(plan.coupling.sum(axis=0) - b)) <= 1e-8


class TestSolveLine:
    def test_cost_on_the_plan_cells(self):
        # weights 0.5/0.5 against 0.25/0.75: sorted, the point 0 sends 0.25
        # to 1 and 0.25 to 3, and the point 2 sends 0.5 to 3
        plan, cost = ot.solve_line([0.5, 0.5], [0.75, 0.25], [2.0, 0.0],
                                   [[3.0], [1.0]])
        np.testing.assert_array_equal(plan.coupling, [[0.5, 0.0], [0.25, 0.25]])
        assert cost == 0.5 * 1.0 + 0.25 * 9.0 + 0.25 * 1.0

    @pytest.mark.parametrize("x, y, match", [
        (np.zeros((2, 2)), np.zeros(2), "points must be 1-D"),
        (np.zeros(2), np.zeros((2, 1, 1)), "points must be 1-D"),
        (np.zeros(3), np.zeros(2), "marginal sizes"),
        (np.zeros((2, 1)), np.zeros(3), "marginal sizes"),
        (np.array([0.0, np.nan]), np.zeros(2), "non-finite"),
        (np.zeros(2), np.array([[np.inf], [0.0]]), "non-finite"),
    ], ids=["x-2d", "y-3d", "x-missized", "y-missized", "x-nan", "y-inf"])
    def test_points_checked(self, x, y, match):
        with pytest.raises(ValueError, match=match):
            ot.solve_line([0.5, 0.5], [0.5, 0.5], x, y)


def planar_cost(n, m, far, seed):
    """Squared distances between n and m 2-D normal points: particles about
    the origin and targets about (5, 0) when ``far``, both about (4, 3)
    with spread 1.5 otherwise."""
    rng = np.random.default_rng(seed)
    if far:
        x = rng.standard_normal((n, 2))
        y = np.array([5.0, 0.0]) + rng.standard_normal((m, 2))
    else:
        x = np.array([4.0, 3.0]) + 1.5 * rng.standard_normal((n, 2))
        y = np.array([4.0, 3.0]) + 1.5 * rng.standard_normal((m, 2))
    return ot.squared_distances(x, y)


class TestWarmAssignment:
    """Where both sides are expanded, the lcm assignment is solved on a
    Sinkhorn-reduced cost; it must give the plan of the plain cost."""

    @pytest.mark.parametrize("far", [True, False])
    @pytest.mark.parametrize("n, m", [(48, 32), (96, 64), (96, 128),
                                      (192, 256)])
    def test_matches_plain_assignment_and_lp(self, n, m, far):
        c = planar_cost(n, m, far, seed=n + m)
        a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        # HiGHS sees C / max C, so one LP plan serves every scale
        lp_cells = ot._linprog_plan(c, a, b)
        for scale in (1e-8, 1.0, 1e8):
            cs = scale * c
            plan, cost = ot.solve_exact(a, b, cs)
            assert np.array_equal(plan.coupling, plain_assignment_plan(cs))
            reference = cells_cost(lp_cells, cs)
            assert abs(cost - reference) <= 1e-9 * reference

    @pytest.mark.parametrize("n, m, priced", [
        (96, 128, True), (48, 32, True), (128, 64, False), (64, 64, False)])
    def test_prices_only_when_both_sides_expand(self, monkeypatch, n, m,
                                                priced):
        calls = []
        sinkhorn = ot._sinkhorn_potentials
        monkeypatch.setattr(ot, "_sinkhorn_potentials", lambda *args, **kw:
                            calls.append(1) or sinkhorn(*args, **kw))
        ot._assignment_plan(planar_cost(n, m, True, seed=0))
        assert len(calls) == (ot._WARM_LEVELS if priced else 0)


class TestSolveEntropic:
    def test_close_to_exact_at_small_eps(self):
        c = ot.squared_distances(np.array([[0.0], [2.0]]),
                                 np.array([[1.0], [3.0]]))
        _, exact = ot.solve_exact([0.5, 0.5], [0.5, 0.5], c)
        _, ent = ot.solve_entropic([0.5, 0.5], [0.5, 0.5], c,
                                   epsilon=1e-3 * float(np.median(c)))
        assert abs(ent - exact) <= 0.02 * exact

    def test_single_atom_any_eps(self):
        for eps in (1e-3, 1.0, 1e3):
            plan, cost = ot.solve_entropic([1.0], [1.0], np.array([[5.0]]),
                                           epsilon=eps)
            assert np.allclose(plan.coupling, [[1.0]])
            assert abs(cost - 5.0) <= 1e-9

    def test_large_eps_independent_coupling(self):
        rng = np.random.default_rng(6)
        c = rng.random((3, 4))
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(4))
        plan, _ = ot.solve_entropic(a, b, c, epsilon=1e3)
        assert np.max(np.abs(plan.coupling - np.outer(a, b))) <= 1e-3

    def test_marginals_within_tol(self):
        rng = np.random.default_rng(7)
        c = rng.random((6, 6))
        a = rng.dirichlet(np.ones(6))
        b = rng.dirichlet(np.ones(6))
        plan, _ = ot.solve_entropic(a, b, c, epsilon=0.05, tol=1e-9)
        assert np.max(np.abs(plan.coupling.sum(axis=1) - a)) <= 1e-9
        assert np.max(np.abs(plan.coupling.sum(axis=0) - b)) <= 1e-9
        assert np.all(np.isfinite(plan.coupling))

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            ot.solve_entropic([1.0], [1.0], np.array([[1.0]]), epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_rejects_non_finite_eps(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            ot.solve_entropic([1.0], [1.0], np.array([[1.0]]), epsilon=epsilon)

    # below one iteration the "plan" would be exp(-C / eps), far off the
    # marginals, with its feasibility tolerance widened to match
    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            ot.solve_entropic([0.5, 0.5], [0.3, 0.7],
                              np.array([[0.0, 1.0], [1.0, 0.0]]),
                              epsilon=0.1, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [-1e-9, np.nan, np.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            ot.solve_entropic([1.0], [1.0], np.array([[1.0]]), epsilon=1.0,
                              tol=tol)

    def test_massless_problem_gives_zero_plan(self):
        plan, cost = ot.solve_entropic([0.0, 0.0], [0.0, 0.0, 0.0],
                                       np.ones((2, 3)), epsilon=1.0)
        assert not plan.coupling.any() and cost == 0.0

    def test_zero_tol_accepted(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan, _ = ot.solve_entropic([0.5, 0.5], [0.3, 0.7], c, epsilon=0.1,
                                    max_iter=50, tol=0.0)
        assert np.max(np.abs(plan.coupling.sum(axis=0) - [0.3, 0.7])) <= 1e-12


@pytest.mark.parametrize("shape", [(0, 0), (2, 0)])
@pytest.mark.parametrize("solve", [
    ot.solve_exact, lambda a, b, c: ot.solve_entropic(a, b, c, epsilon=1.0),
    lambda a, b, c: ot.solve_line(a, b, np.zeros(c.shape[0]),
                                  np.zeros(c.shape[1])),
    lambda a, b, c: ot.solve_points(np.zeros((c.shape[0], 2)),
                                    np.zeros((c.shape[1], 2)))],
    ids=["exact", "entropic", "line", "points"])
def test_empty_problem_rejected(solve, shape):
    n, m = shape
    with pytest.raises(ValueError, match="empty transport problem"):
        solve(np.full(n, 1.0 / max(n, 1)), np.full(m, 1.0 / max(m, 1)),
              np.zeros(shape))


class TestSolveAuto:
    # 501 x 500 entries exceed EXACT_SIZE_LIMIT and take the entropic branch
    @pytest.mark.parametrize("shape", [(4, 3), (501, 500)],
                             ids=["exact", "entropic"])
    @pytest.mark.parametrize("bad", [np.nan, -1.0], ids=["nan", "negative"])
    def test_rejects_bad_cost(self, shape, bad):
        c = np.ones(shape)
        c[1, 2] = bad
        a, b = np.full(shape[0], 1 / shape[0]), np.full(shape[1], 1 / shape[1])
        with pytest.raises(ValueError, match="cost matrix contains"):
            ot.solve_auto(a, b, c)

    def test_checks_cost_once(self, monkeypatch):
        calls = []
        check = ot._check_cost
        monkeypatch.setattr(ot, "_check_cost",
                            lambda C: calls.append(1) or check(C))
        c = np.random.default_rng(12).random((4, 3))
        plan, cost = ot.solve_auto(np.full(4, 0.25), np.full(3, 1 / 3), c)
        assert len(calls) == 1
        ref, ref_cost = ot.solve_exact(np.full(4, 0.25), np.full(3, 1 / 3), c)
        assert np.array_equal(plan.coupling, ref.coupling) and cost == ref_cost


def _measure(n, d, seed, weighted=False):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n)) if weighted else None
    return EmpiricalMeasure(rng.normal(size=(n, d)), weights)


def _batch(n, d, seed, n_classes=None):
    rng = np.random.default_rng(seed)
    labels = (None if n_classes is None
              else one_hot(rng.integers(n_classes, size=n), n_classes))
    return MiniBatch(rng.normal(size=(n, d)), labels)


def _soft(n, n_classes, seed):
    return softmax(np.random.default_rng(seed).normal(size=(n, n_classes)))


def _flow_case(n, m, d, solver, beta=0.0, x_classes=None, batch_classes=None):
    """solve_points against the flow's dispatch for one batch, with soft
    labels on the particles and one-hot labels on the batch when given a
    class count."""
    x = _measure(n, d, 1).points
    soft = None if x_classes is None else _soft(n, x_classes, 2)
    batch = _batch(m, d, 3, batch_classes)
    return (ot.solve_points(x, batch.points, solver=solver, labels_x=soft,
                            labels_y=batch.labels, beta=beta),
            flow_plan_dispatch(x, soft, batch, beta, solver))


def _weighted_case(n, m, d, reference):
    """solve_points with "auto" and explicit weights against a dispatch on
    two weighted measures."""
    p, q = _measure(n, d, 4, weighted=True), _measure(m, d, 5, weighted=True)
    return (ot.solve_points(p.points, q.points, p.weights, q.weights),
            reference(p, q))


def _uniform_exact_case(n, m):
    x, y = _measure(n, 2, 6).points, _measure(m, 2, 7).points
    return (ot.solve_points(x, y, solver="exact"), uniform_exact_dispatch(x, y))


def _auto_entropic_case(monkeypatch):
    # past the size switch, solve_auto takes Sinkhorn; a small limit keeps
    # the problem small
    monkeypatch.setattr(ot, "EXACT_SIZE_LIMIT", 10)
    p, q = _measure(6, 2, 8), _measure(5, 2, 9)
    return ot.solve_points(p.points, q.points), w2_dispatch(p, q)


class TestSolvePoints:
    """``solve_points`` gives, bit for bit, the plan and cost of the
    dispatch each call site made for itself before it took their place."""

    @pytest.mark.parametrize("case", [
        pytest.param(lambda mp: _flow_case(16, 8, 1, "exact"),
                     id="line-exact"),
        pytest.param(lambda mp: _weighted_case(12, 9, 1,
                                               target_potential_dispatch),
                     id="line-auto-weighted"),
        pytest.param(lambda mp: _flow_case(16, 8, 1, "entropic"),
                     id="line-entropic-builds-cost"),
        pytest.param(lambda mp: _flow_case(16, 8, 1, "exact", x_classes=3),
                     id="line-beta-zero-one-sided-labels"),
        pytest.param(lambda mp: _flow_case(16, 8, 2, "exact"),
                     id="assign-exact"),
        pytest.param(lambda mp: _uniform_exact_case(8, 8),
                     id="assign-exact-square"),
        pytest.param(lambda mp: _uniform_exact_case(6, 4), id="lcm-exact"),
        pytest.param(lambda mp: _uniform_exact_case(7, 5),
                     id="simplex-exact"),
        pytest.param(lambda mp: _uniform_exact_case(12, 11), id="lp-exact"),
        pytest.param(lambda mp: _flow_case(16, 8, 2, "entropic"),
                     id="entropic"),
        pytest.param(lambda mp: _weighted_case(10, 9, 2,
                                               target_potential_dispatch),
                     id="auto-weighted-simplex"),
        pytest.param(lambda mp: _weighted_case(12, 11, 2, w2_dispatch),
                     id="auto-weighted-lp"),
        pytest.param(_auto_entropic_case, id="auto-entropic"),
        pytest.param(lambda mp: _flow_case(16, 8, 2, "exact", beta=0.5,
                                           x_classes=3, batch_classes=3),
                     id="labels-exact"),
        pytest.param(lambda mp: _flow_case(16, 8, 1, "exact", beta=0.5,
                                           x_classes=3, batch_classes=3),
                     id="labels-exact-on-line-builds-cost"),
        pytest.param(lambda mp: _flow_case(16, 8, 2, "entropic", beta=0.5,
                                           x_classes=3, batch_classes=3),
                     id="labels-entropic"),
    ])
    def test_matches_call_site_dispatch(self, monkeypatch, case):
        (plan, cost), (ref, ref_cost) = case(monkeypatch)
        assert np.float64(cost).tobytes() == np.float64(ref_cost).tobytes()
        for name in ("row_marginal", "col_marginal", "matrix", "rows",
                     "cols", "mass"):
            got, want = getattr(plan, name), getattr(ref, name)
            assert (got is None) == (want is None), name
            if got is not None:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("solver", ["exact", "auto"])
    def test_line_forms_no_cost(self, monkeypatch, solver):
        def no_cost(*args, **kwargs):
            raise AssertionError("a cost was built for points on a line")
        monkeypatch.setattr(ot, "joint_cost", no_cost)
        x, y = _measure(16, 1, 1).points, _measure(8, 1, 2).points
        plan, _ = ot.solve_points(x, y, solver=solver)
        assert plan.matrix is None

    @pytest.mark.parametrize("solver", ["lp", "sinkhorn", "Exact", None])
    def test_bad_solver(self, solver):
        x = _measure(4, 2, 1).points
        with pytest.raises(ValueError, match="solver must be one of"):
            ot.solve_points(x, x, solver=solver)

    @pytest.mark.parametrize("x", [np.zeros(4), np.zeros((4, 1, 1))],
                             ids=["1-d", "3-d"])
    def test_points_must_be_2d(self, x):
        with pytest.raises(ValueError, match="points must be 2-D"):
            ot.solve_points(x, np.zeros((3, 1)))


class TestBarycentricMap:
    def test_identity_plan_returns_targets(self):
        y = np.array([[1.0, 0.0], [0.0, 2.0]])
        plan = ot.TransportPlan([0.5, 0.5], [0.5, 0.5], matrix=np.eye(2) / 2)
        assert np.allclose(ot.barycentric_map(plan, y), y)

    def test_permutation_plan(self):
        plan = ot.TransportPlan([0.5, 0.5], [0.5, 0.5], rows=[0, 1],
                                cols=[1, 0], mass=[0.5, 0.5])
        y = np.array([[1.0], [3.0]])
        assert np.allclose(ot.barycentric_map(plan, y), [[3.0], [1.0]])

    def test_normalized_average(self):
        plan = ot.TransportPlan([0.5, 0.5], [0.5, 0.5],
                                matrix=np.full((2, 2), 0.25))
        y = np.array([[0.0], [4.0]])
        assert np.allclose(ot.barycentric_map(plan, y), [[2.0], [2.0]])

    def test_repeated_cells_summed(self):
        # the lcm assignment lists a cell once per matched pair of copies
        plan = ot.TransportPlan([0.5, 0.5], [0.25, 0.75], rows=[0, 0, 1, 1],
                                cols=[1, 1, 0, 1], mass=[0.25] * 4)
        np.testing.assert_array_equal(plan.coupling,
                                      [[0.0, 0.5], [0.25, 0.25]])
        y = np.array([[0.0], [4.0]])
        assert np.allclose(ot.barycentric_map(plan, y), [[4.0], [2.0]])

    def test_zero_row_rejected(self):
        for plan in (ot.TransportPlan([0.0, 1.0], [0.5, 0.5],
                                      matrix=[[0.0, 0.0], [0.5, 0.5]]),
                     ot.TransportPlan([0.0, 1.0], [0.5, 0.5], rows=[1, 1],
                                      cols=[0, 1], mass=[0.5, 0.5])):
            with pytest.raises(ValueError, match="zero row marginal"):
                ot.barycentric_map(plan, np.zeros((2, 1)))


class TestCellPlans:
    """Every exact path holds its plan as cells; summed into a matrix they
    give the plan of the path's dense builder in ``conftest``."""

    @pytest.mark.parametrize("n, m, weighted, path", [
        (6, 3, False, "assign"),      # L = max(n, m)
        (96, 128, False, "lcm"),      # L = 384, both sides expanded
        (7, 11, False, "simplex"),    # L = 77 > 4 * 11
        (6, 6, True, "simplex"),
        (19, 23, False, "lp"),        # 437 entries
        (10, 11, True, "lp"),         # 110 > SIMPLEX_SIZE_LIMIT
    ])
    def test_coupling_matches_dense_builder(self, n, m, weighted, path):
        rng = np.random.default_rng(n * m)
        a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        if weighted:
            a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        c = planar_cost(n, m, far=True, seed=n + m)
        plan, cost = ot.solve_exact(a, b, c)
        reference = {"assign": lambda: dense_assignment_plan(c),
                     "lcm": lambda: dense_assignment_plan(c),
                     "simplex": lambda: dense_simplex_plan(c, a, b),
                     "lp": lambda: dense_linprog_plan(c, a, b)}[path]()
        assert plan.matrix is None
        assert np.array_equal(plan.coupling, reference)
        assert cost == pytest.approx(float((reference * c).sum()), rel=1e-12)

    def test_line_coupling_matches_dense_builder(self):
        rng = np.random.default_rng(13)
        x, y = rng.standard_normal(40), rng.standard_normal(25) + 1.0
        a, b = rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(25))
        plan, _ = ot.solve_line(a, b, x, y)
        assert plan.matrix is None and plan.mass.shape[0] <= 40 + 25 - 1
        assert np.array_equal(plan.coupling, dense_line_plan(a, b, x, y))

    def test_entropic_plan_is_dense(self):
        c = planar_cost(6, 4, far=False, seed=0)
        plan, _ = ot.solve_entropic(np.full(6, 1 / 6), np.full(4, 0.25), c,
                                    epsilon=1.0)
        assert plan.rows is None and plan.coupling is plan.matrix


class TestW2Empirical:
    def test_zero_on_identical(self):
        m = EmpiricalMeasure(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert ot.w2_empirical(m, m) <= 1e-12

    def test_single_atom_translation(self):
        a = EmpiricalMeasure(np.array([[0.0]]))
        b = EmpiricalMeasure(np.array([[4.0]]))
        assert abs(ot.w2_empirical(a, b) - 4.0) <= 1e-12

    def test_sorted_matching_1d(self):
        a = EmpiricalMeasure(np.array([[0.0], [2.0]]))
        b = EmpiricalMeasure(np.array([[1.0], [3.0]]))
        assert abs(ot.w2_empirical(a, b) - 1.0) <= 1e-12

    def test_quantile_coupling_property(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) + rng.uniform(-2, 2)
            expected = np.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2))
            got = ot.w2_empirical(EmpiricalMeasure(x), EmpiricalMeasure(y))
            assert abs(got - expected) <= 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a = EmpiricalMeasure(rng.standard_normal((6, 2)))
        b = EmpiricalMeasure(rng.standard_normal((4, 2)))
        assert abs(ot.w2_empirical(a, b) - ot.w2_empirical(b, a)) <= 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            ms = [EmpiricalMeasure(rng.standard_normal((int(rng.integers(2, 8)), 2)))
                  for _ in range(3)]
            dab = ot.w2_empirical(ms[0], ms[1])
            dbc = ot.w2_empirical(ms[1], ms[2])
            dac = ot.w2_empirical(ms[0], ms[2])
            assert dac <= dab + dbc + 1e-7

    def test_labeled_beta_zero_matches_unlabeled(self):
        rng = np.random.default_rng(11)
        pts_a, pts_b = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        la = EmpiricalMeasure.from_hard_labels(pts_a, np.zeros(5, int), 2)
        lb = EmpiricalMeasure.from_hard_labels(pts_b, np.ones(5, int), 2)
        assert abs(
            ot.w2_empirical(la, lb)
            - ot.w2_empirical(EmpiricalMeasure(pts_a), EmpiricalMeasure(pts_b))
        ) <= 1e-12


class TestTransportPlanValidation:
    def test_rejects_marginal_mismatch(self):
        with pytest.raises(ValueError, match="row sums"):
            ot.TransportPlan([0.7, 0.3], [0.5, 0.5], matrix=np.eye(2) / 2)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            ot.TransportPlan([0.5, 0.5], [0.6, 0.4],
                             matrix=[[0.6, -0.1], [0.0, 0.5]])

    def test_rejects_misshaped_matrix(self):
        with pytest.raises(ValueError, match="shape"):
            ot.TransportPlan([0.5, 0.5], [1.0], matrix=np.eye(2) / 2)

    @pytest.mark.parametrize("cells, match", [
        (([0, 2], [0, 1], [0.5, 0.5]), "out of the plan's range"),
        (([0, 1], [-1, 1], [0.5, 0.5]), "out of the plan's range"),
        (([0, 1], [0, 1], [0.5]), "one length"),
        (([0, 1, 1], [0, 0], [0.5, 0.6, -0.1]), "one length"),
        (([0, 1, 1], [0, 1, 0], [0.5, 0.6, -0.1]), "negative"),
        (([0, 1], [0, 1], [0.7, 0.3]), "row sums"),
        (([0, 1], [0, 0], [0.5, 0.5]), "column sums"),
        (([0.0, 1.0], [0, 1], [0.5, 0.5]), "integers"),
    ], ids=["row-out-of-range", "col-negative", "short-mass", "short-cols",
            "negative-mass", "row-marginal", "col-marginal", "float-index"])
    def test_rejects_bad_cells(self, cells, match):
        rows, cols, mass = cells
        with pytest.raises(ValueError, match=match):
            ot.TransportPlan([0.5, 0.5], [0.5, 0.5], rows=rows, cols=cols,
                             mass=mass)

    @pytest.mark.parametrize("forms", [
        {}, {"matrix": np.eye(2) / 2, "rows": [0, 1], "cols": [0, 1],
             "mass": [0.5, 0.5]}], ids=["neither", "both"])
    def test_one_form_required(self, forms):
        with pytest.raises(ValueError, match="either a matrix or cells"):
            ot.TransportPlan([0.5, 0.5], [0.5, 0.5], **forms)

    def test_cells_frozen(self):
        plan, _ = ot.solve_line([0.5, 0.5], [0.5, 0.5], [0.0, 1.0], [2.0, 3.0])
        for arr in (plan.rows, plan.cols, plan.mass, plan.coupling):
            assert not arr.flags.writeable
