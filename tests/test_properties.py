"""Property tests: the exact transport paths (1-D sorted, assignment,
transportation simplex, LP) against independent oracles, plan invariants of
both solvers, the price and map of a fixed plan, held as cells or as a
matrix, against its dense coupling, the scaling-domain Sinkhorn against its
log-domain reference, the CSV round trip of labeled measures, finite flows at extreme input scales, the Bures
values, maps and gradients on Cholesky factors, one pair at a time and
batched, against their covariance forms, and the numpy logsumexp and label
entropy against their scipy forms.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from baryflow import ot
from baryflow.datasets import load_csv, save_csv
from baryflow.flow_empirical import EmpiricalFlowConfig, EmpiricalSampler, run_flow
from baryflow.flow_gmm import GmmFlowConfig, run_gmm_flow
from baryflow.functionals import entropy_potential
from baryflow.gaussian import (
    LabeledGMM,
    _bures_kernel,
    _whiten,
    bures_w2_grad,
    bures_w2_sq,
    mw2_cost_matrix,
    mw2_fixed_plan_value_grad,
    mw2_sq,
)
from baryflow.measures import (
    BarycentricCoordinates,
    EmpiricalMeasure,
    logsumexp,
    softmax,
)
from conftest import (
    bures_w2_sq_cov,
    cells_cost,
    cells_coupling,
    dense_line_plan,
    plain_assignment_plan,
)

SETTINGS = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)

costs = st.floats(0.0, 10.0, allow_subnormal=False)
coords = st.floats(-10.0, 10.0, allow_subnormal=False)


def cost_matrix(n, m):
    return hnp.arrays(float, (n, m), elements=costs)


@st.composite
def square_problem(draw):
    n = draw(st.integers(1, 6))
    return draw(cost_matrix(n, n))


@st.composite
def assignment_problem(draw, both_expand=False):
    """A cost matrix whose uniform marginals take the assignment path:
    lcm(n, m) <= LCM_RATIO_LIMIT * max(n, m); with ``both_expand`` also
    lcm(n, m) > max(n, m), so both sides are expanded."""
    def sizes(s):
        L = math.lcm(*s)
        return (L <= ot.LCM_RATIO_LIMIT * max(s)
                and (L > max(s) or not both_expand))
    n, m = draw(st.tuples(st.integers(1, 12), st.integers(1, 12))
                .filter(sizes))
    return draw(cost_matrix(n, m))


@st.composite
def weighted_problem(draw):
    """A cost matrix with positive marginals of mass one each."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mass = st.floats(0.05, 1.0)
    a = draw(hnp.arrays(float, n, elements=mass))
    b = draw(hnp.arrays(float, m, elements=mass))
    return a / a.sum(), b / b.sum(), draw(cost_matrix(n, m))


@st.composite
def degenerate_problem(draw):
    """Marginals of mass one from small integer counts, zeros included, so
    partial sums of the two sides often meet; integer costs, so ties are
    common."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = draw(hnp.arrays(float, n, elements=st.integers(0, 3)))
    b = draw(hnp.arrays(float, m, elements=st.integers(0, 3)))
    a[0] += 1.0
    b[-1] += 1.0
    c = draw(hnp.arrays(float, (n, m), elements=st.integers(0, 2)))
    return a / a.sum(), b / b.sum(), c


# a few shared values, so supports hold duplicated points; every entry is
# drawn on its own (no fill value), so most supports have distinct points too
line_points = st.one_of(coords, st.sampled_from([0.0, 2.5]))
line_weights = st.one_of(st.floats(1e-3, 1.0), st.just(0.0))


def line_support(n):
    """n points on a line, as (n,) or (n, 1)."""
    points = hnp.arrays(float, n, elements=line_points, fill=st.nothing())
    return st.tuples(points, st.booleans()).map(
        lambda p: p[0][:, None] if p[1] else p[0])


def line_marginal(n):
    """Nonnegative weights of mass one, zeros included."""
    def normalize(w):
        w = w.copy()
        if w.sum() == 0.0:
            w[0] = 1.0
        return w / w.sum()
    return hnp.arrays(float, n, elements=line_weights,
                      fill=st.nothing()).map(normalize)


@st.composite
def line_problem(draw, max_size=8):
    """Weighted 1-D supports and their squared Euclidean cost."""
    n, m = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    x, y = draw(line_support(n)), draw(line_support(m))
    c = ot.joint_cost(np.reshape(x, (n, 1)), np.reshape(y, (m, 1)))
    return draw(line_marginal(n)), draw(line_marginal(m)), x, y, c


def uniform(n):
    return np.full(n, 1.0 / n)


def assert_plan_invariants(plan, cost, a, b, c):
    g = plan.coupling
    assert g.min() >= 0.0
    assert np.max(np.abs(g.sum(axis=1) - a)) <= plan.marginal_tol
    assert np.max(np.abs(g.sum(axis=0) - b)) <= plan.marginal_tol
    assert cost == pytest.approx(float((g * c).sum()), rel=1e-12, abs=1e-15)


def assert_optimal_against_linprog(plan, cost, a, b, c):
    """A feasible plan cannot cost less than the optimum, so optimality is
    one-sided: no dearer than HiGHS. HiGHS itself may stop above the
    optimum by its tolerances (1e-7 of the largest cost)."""
    assert_plan_invariants(plan, cost, a, b, c)
    assert cost <= cells_cost(ot._linprog_plan(c, a, b), c) + 1e-9


class TestExactOracles:
    @SETTINGS
    @given(square_problem())
    def test_uniform_square_matches_permutation_brute_force(self, c):
        n = c.shape[0]
        rows = np.arange(n)
        best = min(c[rows, list(p)].sum()
                   for p in itertools.permutations(range(n))) / n
        _, cost = ot.solve_exact(uniform(n), uniform(n), c)
        assert cost == pytest.approx(best, abs=1e-9)

    @SETTINGS
    @given(assignment_problem())
    # HiGHS stops 2e-8 above the optimum 0 here, within its tolerance
    @example(np.array([[2.0, 0.0], [0.0, 2.0 ** -23], [0.0, 0.0]]))
    def test_assignment_path_matches_linprog(self, c):
        n, m = c.shape
        a, b = uniform(n), uniform(m)
        assert_optimal_against_linprog(*ot.solve_exact(a, b, c), a, b, c)

    @SETTINGS
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        hnp.arrays(float, n, elements=coords),
        hnp.arrays(float, n, elements=coords))))
    def test_1d_equal_size_matches_sorted_matching(self, xy):
        x, y = xy
        n = x.shape[0]
        _, cost = ot.solve_exact(uniform(n), uniform(n),
                                 ot.joint_cost(x[:, None], y[:, None]))
        sorted_cost = float(np.mean((np.sort(x) - np.sort(y)) ** 2))
        assert cost == pytest.approx(sorted_cost, rel=1e-9, abs=1e-9)


class TestWarmAssignment:
    """The Sinkhorn prices of the lcm assignment path change no optimal
    cost, and a cost they cannot price is solved plain."""

    @SETTINGS
    @given(assignment_problem(both_expand=True))
    def test_matches_plain_assignment(self, c):
        # plans may differ only where another plan costs the same
        warm, plain = ot._assignment_plan(c), plain_assignment_plan(c)
        gap = cells_cost(warm, c) - float((plain * c).sum())
        assert abs(gap) <= 1e-12 * max(1.0, c.max())

    @SETTINGS
    @given(assignment_problem(both_expand=True), st.randoms())
    def test_median_zero_solves_plain(self, c, rnd):
        # more than half of the entries are zero, so median(C) is 0
        c = c.copy()
        zeros = rnd.sample(range(c.size), c.size // 2 + 1)
        c.flat[zeros] = 0.0
        a, b = uniform(c.shape[0]), uniform(c.shape[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot, "_sinkhorn_potentials", lambda *args, **kw:
                       pytest.fail("a cost of median 0 was priced"))
            plan, cost = ot.solve_exact(a, b, c)
        assert np.array_equal(plan.coupling, plain_assignment_plan(c))
        assert_optimal_against_linprog(plan, cost, a, b, c)

    @SETTINGS
    @given(assignment_problem(both_expand=True),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_prices_solve_plain(self, c, bad):
        a, b = uniform(c.shape[0]), uniform(c.shape[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot, "_sinkhorn_potentials",
                       lambda Cv, a, b, f, g, *args, **kw: (f + bad, g))
            plan, cost = ot.solve_exact(a, b, c)
        assert np.array_equal(plan.coupling, plain_assignment_plan(c))
        assert_optimal_against_linprog(plan, cost, a, b, c)


def simplex_solve(a, b, c):
    """``ot._simplex_plan`` as a validated plan and its cost."""
    rows, cols, mass = cells = ot._simplex_plan(c, a, b)
    return (ot.TransportPlan(a, b, rows=rows, cols=cols, mass=mass),
            cells_cost(cells, c))


@st.composite
def dirichlet_problem(draw):
    """Dirichlet weights on a k x m problem, 1 <= k, m <= 10, with the drawn
    weights zeroed (one of each side is kept); costs uniform on [0, 10] or,
    for ties, the integers 0 to 2."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def weights(size):
        w = rng.dirichlet(np.ones(size))
        zero = draw(hnp.arrays(bool, size))
        zero[rng.integers(size)] = False
        w[zero] = 0.0
        return w / w.sum()

    tied = draw(st.booleans())
    c = (rng.integers(0, 3, (n, m)).astype(float) if tied
         else rng.uniform(0.0, 10.0, (n, m)))
    return weights(n), weights(m), c


def assert_spanning_tree(cells, n, m):
    """n + m - 1 cells of the row-column graph that close no cycle."""
    assert len(cells) == n + m - 1
    root = list(range(n + m))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i, j in cells:
        ri, rj = find(i), find(n + j)
        assert ri != rj
        root[ri] = rj


class TestSimplexPath:
    """``ot._simplex_plan``, the transportation simplex for small problems."""

    @SETTINGS
    @given(weighted_problem())
    def test_matches_linprog(self, problem):
        a, b, c = problem
        assert_optimal_against_linprog(*simplex_solve(a, b, c), a, b, c)

    @SETTINGS
    @given(degenerate_problem())
    def test_degenerate_matches_linprog(self, problem):
        a, b, c = problem
        assert_optimal_against_linprog(*simplex_solve(a, b, c), a, b, c)

    @SETTINGS
    @given(square_problem())
    def test_uniform_square_matches_permutation_brute_force(self, c):
        # the least-cost start of a uniform square problem is maximally
        # degenerate: n cells carry 1/n and the other n - 1 carry zero mass
        n = c.shape[0]
        rows = np.arange(n)
        best = min(c[rows, list(p)].sum()
                   for p in itertools.permutations(range(n))) / n
        plan, cost = simplex_solve(uniform(n), uniform(n), c)
        assert_plan_invariants(plan, cost, uniform(n), uniform(n), c)
        assert cost == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("a, b, c", [
        ([0.5, 0.5], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]),
        ([0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [[0.0, 1.0, 2.0], [3.0, 1.0, 0.0],
                                            [1.0, 1.0, 1.0]]),
        ([0.25, 0.75], [0.5, 0.25, 0.25], np.ones((2, 3))),
    ], ids=["equal-partial-sums", "zero-weights", "tied-costs"])
    def test_degenerate_cases(self, a, b, c):
        a, b, c = np.array(a), np.array(b), np.array(c)
        assert_optimal_against_linprog(*simplex_solve(a, b, c), a, b, c)

    @SETTINGS
    @given(dirichlet_problem())
    def test_least_cost_start_is_spanning_tree(self, problem):
        a, b, c = problem
        mass = ot._least_cost_start(c, a, b)
        assert_spanning_tree(mass, *c.shape)
        start = np.zeros(c.shape)
        for cell, t in mass.items():
            start[cell] = t
        assert start.min() >= 0.0
        assert np.abs(start.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(start.sum(axis=0) - b).max() <= 1e-12

    @SETTINGS
    @given(dirichlet_problem())
    def test_dirichlet_matches_linprog(self, problem):
        a, b, c = problem
        assert_optimal_against_linprog(*simplex_solve(a, b, c), a, b, c)

    @SETTINGS
    @given(dirichlet_problem(), st.floats(-1e-8, 1e-8))
    # every column fills before the rows empty: the last open column must
    # not close while two rows are open
    @example((np.array([0.5, 0.5]), np.array([0.5, 0.5]),
              np.array([[0.0, 1.0], [1.0, 0.0]])), -1e-8)
    def test_mass_mismatch(self, problem, delta):
        # the mismatch stays in the marginals, and moves the optimum by at
        # most that mass at the largest cost
        a, b, c = problem
        scaled = b * (1.0 + delta)
        assert_spanning_tree(ot._least_cost_start(c, a, scaled), *c.shape)
        g = cells_coupling(ot._simplex_plan(c, a, scaled), c.shape)
        assert g.min() >= 0.0
        bound = abs(delta) + 1e-15
        assert np.abs(g.sum(axis=1) - a).max() <= bound
        assert np.abs(g.sum(axis=0) - scaled).max() <= bound
        reference = cells_cost(ot._linprog_plan(c, a, b), c)
        assert float((g * c).sum()) <= reference + 1e-9 + 2 * bound * c.max()


class TestLinePath:
    """``solve_line``: the sorted north-west-corner plan between 1-D points."""

    @SETTINGS
    @given(line_problem())
    def test_matches_linprog(self, problem):
        a, b, x, y, c = problem
        _, cost = ot.solve_line(a, b, x, y)
        reference = cells_cost(ot._linprog_plan(c, a, b), c)
        assert cost == pytest.approx(reference, abs=1e-9)

    @SETTINGS
    @given(line_problem())
    def test_plan_invariants(self, problem):
        a, b, x, y, c = problem
        plan, cost = ot.solve_line(a, b, x, y)
        assert_plan_invariants(plan, cost, a, b, c)

    @SETTINGS
    @given(line_problem())
    def test_coupling_matches_dense_builder(self, problem):
        a, b, x, y, _ = problem
        plan, _ = ot.solve_line(a, b, x, y)
        assert np.array_equal(plan.coupling, dense_line_plan(
            a, b, np.reshape(x, -1), np.reshape(y, -1)))

    @SETTINGS
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        line_support(n), line_support(n))))
    def test_uniform_square_matches_permutation_brute_force(self, xy):
        x, y = xy
        n = x.shape[0]
        c = ot.joint_cost(np.reshape(x, (n, 1)), np.reshape(y, (n, 1)))
        rows = np.arange(n)
        best = min(c[rows, list(p)].sum()
                   for p in itertools.permutations(range(n))) / n
        _, cost = ot.solve_line(uniform(n), uniform(n), x, y)
        assert cost == pytest.approx(best, abs=1e-9)

    @SETTINGS
    @given(weighted_problem(), st.integers(2, 3), st.booleans(), st.data())
    def test_rejects_points_off_a_line(self, problem, d, x_side, data):
        a, b, _ = problem
        x = data.draw(line_support(a.shape[0]))
        y = data.draw(line_support(b.shape[0]))
        off = data.draw(hnp.arrays(
            float, ((a if x_side else b).shape[0], d), elements=coords))
        x, y = (off, y) if x_side else (x, off)
        with pytest.raises(ValueError, match="points must be 1-D"):
            ot.solve_line(a, b, x, y)


@st.composite
def priced_plan(draw):
    """A plan between n and m points of dimension d, the points moved by
    ``offset`` in every coordinate, with soft labels on the rows, one-hot
    labels on the columns and a label weight beta (0 included).

    The plan is exact, held as its cells (weighted marginals), or entropic
    and dense, stopped after one to three Sinkhorn iterations at its
    epsilon, so its column sums miss its column marginal. Returns (plan, x,
    y, labels_x, labels_y, beta, offset).
    """
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    d, k = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    x = draw(hnp.arrays(float, (n, d), elements=coords))
    y = draw(hnp.arrays(float, (m, d), elements=coords))
    lx = softmax(draw(hnp.arrays(float, (n, k), elements=coords)))
    ly = np.eye(k)[draw(hnp.arrays(int, m, elements=st.integers(0, k - 1)))]
    beta = draw(st.sampled_from([0.0, 0.5, 4.0]))
    a = draw(line_marginal(n))
    b = draw(line_marginal(m))
    c = ot.joint_cost(x, y, lx, ly, beta)
    iters = draw(st.integers(0, 3))
    if iters == 0:
        plan, _ = ot.solve_exact(a, b, c)
    else:
        plan, _ = ot.solve_entropic(a, b, c, epsilon=1.0, max_iter=iters,
                                    tol=0.0)
    offset = draw(st.sampled_from([0.0, 1e3]))
    return plan, x + offset, y + offset, lx, ly, beta, offset


class TestMomentCost:
    """``ot.plan_cost`` prices a fixed plan, and ``ot.barycentric_map`` maps
    it, as the dense coupling does, in either form of the plan."""

    @SETTINGS
    @given(priced_plan())
    def test_matches_dense_cost(self, problem):
        plan, x, y, lx, ly, beta, offset = problem
        g = plan.coupling
        price = ot.plan_cost(plan, x, y) + beta * ot.plan_cost(plan, lx, ly)
        # x - offset is exact here, so the reference is the dense cost at
        # the same points, moved back where squared_distances cancels little
        xs, ys = x - offset, y - offset
        reference = float((g * ot.joint_cost(xs, ys, lx, ly, beta)).sum())
        # both prices round by about 1e-16 of the terms they add up, of the
        # size of the plan's second moments, whose sum is at least half the
        # value; they agree within 1e-12 relative to that size
        size = float(g.sum(axis=1) @ ((xs * xs).sum(axis=1)
                                      + beta * (lx * lx).sum(axis=1))
                     + g.sum(axis=0) @ ((ys * ys).sum(axis=1)
                                        + beta * (ly * ly).sum(axis=1)))
        assert abs(price - reference) <= 1e-12 * max(reference, size)

    @SETTINGS
    @given(priced_plan())
    def test_map_matches_dense_map(self, problem):
        plan, _, y, _, ly, _, _ = problem
        g = plan.coupling
        r = g.sum(axis=1)
        for target in (y, ly):
            if not np.all(r > 0):
                with pytest.raises(ValueError, match="zero row marginal"):
                    ot.barycentric_map(plan, target)
                continue
            reference = (g @ target) / r[:, None]
            mapped = ot.barycentric_map(plan, target)
            assert np.all(np.abs(mapped - reference)
                          <= 1e-12 * np.abs(target).max())


class TestPlanInvariants:
    @SETTINGS
    @given(weighted_problem())
    def test_exact(self, problem):
        a, b, c = problem
        plan, cost = ot.solve_exact(a, b, c)
        assert_plan_invariants(plan, cost, a, b, c)

    @SETTINGS
    @given(assignment_problem())
    def test_exact_assignment(self, c):
        a, b = uniform(c.shape[0]), uniform(c.shape[1])
        plan, cost = ot.solve_exact(a, b, c)
        assert_plan_invariants(plan, cost, a, b, c)

    @SETTINGS
    @given(weighted_problem(), st.floats(0.05, 2.0))
    def test_entropic(self, problem, epsilon):
        a, b, c = problem
        plan, cost = ot.solve_entropic(a, b, c, epsilon=epsilon, max_iter=500)
        assert_plan_invariants(plan, cost, a, b, c)


def log_domain_entropic(a, b, c, epsilon, max_iter=10_000, tol=1e-9):
    """Reference for ``ot.solve_entropic``: log-domain Sinkhorn with the same
    epsilon levels, update order and stopping rule, each update a logsumexp
    over the dense cost. Zero masses are clamped to 1e-300. Returns
    (coupling, cost)."""
    loga = np.log(np.maximum(a, 1e-300))
    logb = np.log(np.maximum(b, 1e-300))
    f, g = np.zeros(len(a)), np.zeros(len(b))
    levels = []
    e = float(np.median(c))
    while e > 2.0 * epsilon:
        levels.append((e, 30, 0.0))
        e /= 2.0
    for eps, iters, stop in levels + [(epsilon, max_iter, tol)]:
        keps = -c / eps
        for it in range(iters):
            g = eps * (logb - logsumexp(keps + f[:, None] / eps, axis=0))
            f = eps * (loga - logsumexp(keps + g[None, :] / eps, axis=1))
            if stop > 0 and (it % 5 == 4 or it == iters - 1):
                plan = np.exp(keps + (f[:, None] + g[None, :]) / eps)
                if np.max(np.abs(plan.sum(axis=0) - b)) <= stop:
                    break
    plan = np.exp((-c + f[:, None] + g[None, :]) / epsilon)
    return plan, float((plan * c).sum())


def assert_matches_log_domain(plan, cost, ref_plan, ref_cost):
    top = ref_plan.max()
    assert np.max(np.abs(plan.coupling - ref_plan)) <= 1e-12 * top
    assert abs(cost - ref_cost) <= 1e-12 * abs(ref_cost)


class TestEntropicOracle:
    """The scaling-domain Sinkhorn of ``ot.solve_entropic`` against the
    log-domain reference, on two 6 x 5 problems per case."""

    @pytest.mark.parametrize("weights", ["uniform", "positive", "zeros"])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("eps_factor", [1e-3, 1e-2, 1e-1, 1.0])
    def test_matches_log_domain(self, eps_factor, scale, weights):
        rng = np.random.default_rng(0)
        for _ in range(2):
            x = scale * rng.standard_normal((6, 2))
            y = scale * (rng.standard_normal((5, 2)) + 1.0)
            a, b, tol = uniform(6), uniform(5), 1e-9
            if weights != "uniform":
                a, b = rng.uniform(0.05, 1.0, 6), rng.uniform(0.05, 1.0, 5)
            if weights == "zeros":
                # the reference's zero-mass rows enter its first update with
                # f = 0, so its iterates differ from a solve on the support
                # until both reach the fixed point: compare converged plans
                a[[1, 4]], b[2], tol = 0.0, 0.0, 1e-13
            a, b = a / a.sum(), b / b.sum()
            c = ot.squared_distances(x, y)
            eps = eps_factor * float(np.median(c))
            plan, cost = ot.solve_entropic(a, b, c, eps, tol=tol)
            assert_matches_log_domain(
                plan, cost, *log_domain_entropic(a, b, c, eps, tol=tol))
            if weights == "zeros":
                assert not plan.coupling[[1, 4]].any()
                assert not plan.coupling[:, 2].any()

    # max_iter 7 stops unconverged, where the plan depends on every iterate
    @pytest.mark.parametrize("max_iter", [7, 10_000])
    def test_absorbing_at_every_check_matches_log_domain(self, monkeypatch,
                                                         max_iter):
        # a bound of 1 folds the scalings into (f, g) at every check
        monkeypatch.setattr(ot, "_SCALING_BOUND", 1.0)
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0.05, 1.0, 6), rng.uniform(0.05, 1.0, 5)
        a, b = a / a.sum(), b / b.sum()
        c = ot.squared_distances(rng.standard_normal((6, 2)),
                                 rng.standard_normal((5, 2)) + 1.0)
        eps = 0.01 * float(np.median(c))
        plan, cost = ot.solve_entropic(a, b, c, eps, max_iter=max_iter)
        assert_matches_log_domain(
            plan, cost, *log_domain_entropic(a, b, c, eps, max_iter=max_iter))

    def test_underflowed_kernel_row_takes_log_domain_fallback(self,
                                                              monkeypatch):
        # at the first epsilon level, median(C), the outlier's kernel row
        # exp(-C / eps) underflows to zero, so its scaling is inf
        x = np.append(np.linspace(0.0, 1.0, 10), 50.0)[:, None]
        y = np.linspace(0.0, 1.0, 8)[:, None]
        a = np.append(np.full(10, (1.0 - 1e-3) / 10), 1e-3)
        b = uniform(8)
        c = ot.squared_distances(x, y)
        eps = 0.1 * float(np.median(c))
        calls = []
        fallback = ot._sinkhorn_log
        monkeypatch.setattr(ot, "_sinkhorn_log",
                            lambda *args: calls.append(1) or fallback(*args))
        plan, _ = ot.solve_entropic(a, b, c, eps)
        assert len(calls) == 1
        # the cost is not compared: the outlier's cost of ~2500 per unit mass
        # turns one ulp of its potential into a 1e-11 relative cost change
        ref, _ = log_domain_entropic(a, b, c, eps)
        assert np.max(np.abs(plan.coupling - ref)) <= 1e-12 * ref.max()


def _is_int(s):
    try:
        int(s)
        return True
    except ValueError:
        return False


# categorical names, often with the characters CSV quotes or a reader could
# strip; load_csv reads a label column of integers as class ids
class_names = st.text(st.one_of(
    st.sampled_from(' ,"'), st.characters(blacklist_categories=("Cs", "Cc"))),
    max_size=6).filter(lambda s: not _is_int(s))


@st.composite
def named_measure(draw):
    names = draw(st.lists(class_names, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    points = draw(hnp.arrays(float, (n, d), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    labels = draw(hnp.arrays(int, n, elements=st.integers(0, len(names) - 1)))
    return (EmpiricalMeasure.from_hard_labels(points, labels, len(names)),
            tuple(names))


class TestCsvRoundTrip:
    @SETTINGS
    @given(named_measure())
    def test_class_names_round_trip_byte_identical(self, tmp_path_factory,
                                                   named):
        measure, names = named
        tmp = tmp_path_factory.mktemp("csv")
        p1, p2 = tmp / "a.csv", tmp / "b.csv"
        save_csv(measure, p1, names)
        loaded, loaded_names = load_csv(p1, label_column="label")
        save_csv(loaded, p2, loaded_names)
        assert p1.read_bytes() == p2.read_bytes()
        assert ([loaded_names[c] for c in loaded.hard_labels()]
                == [names[c] for c in measure.hard_labels()])


SCALES = [1e-6, 1.0, 1e6]
HALF = BarycentricCoordinates.uniform(2)
# a few small flows per case: the point is the scale, not the data
FLOW_SETTINGS = settings(derandomize=True, database=None, max_examples=2,
                         deadline=None)
unit_coords = st.floats(-3.0, 3.0, allow_subnormal=False)


def assert_finite_run(final, trace):
    assert np.all(np.isfinite(final))
    assert np.all(np.isfinite([dataclasses.astuple(r) for r in trace]))


@st.composite
def empirical_inputs(draw, d, labeled):
    """Two 12-point clouds in [-3, 3]^d, the second shifted by 4; labeled
    with two classes when asked."""
    out = []
    for shift in (0.0, 4.0):
        x = draw(hnp.arrays(float, (12, d), elements=unit_coords)) + shift
        if labeled:
            out.append(EmpiricalMeasure.from_hard_labels(
                x, np.arange(12) % 2, 2))
        else:
            out.append(EmpiricalMeasure(x))
    return out


@st.composite
def gmm_inputs(draw, d, labeled):
    """Two mixtures of two components, means in [-3, 3]^d shifted by 4 for
    the second, Cholesky factors diagonal in [0.5, 2]."""
    out = []
    for shift in (0.0, 4.0):
        means, chols = zip(*((
            draw(hnp.arrays(float, d, elements=unit_coords)) + shift,
            np.diag(draw(hnp.arrays(float, d, elements=st.floats(0.5, 2.0)))))
            for _ in range(2)))
        out.append(LabeledGMM([0.5, 0.5], means, chols,
                              nu=np.eye(2) if labeled else None))
    return out


class TestFlowScaling:
    """Inputs scaled by 1e-6 or 1e6 give finite final states and traces."""

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("label_weight", [0.0, 1.0])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("solver", ["exact", "entropic"])
    @FLOW_SETTINGS
    @given(st.data())
    def test_empirical_flow_finite(self, solver, d, label_weight, scale, data):
        measures = data.draw(empirical_inputs(d, labeled=label_weight > 0))
        inputs = [EmpiricalSampler(EmpiricalMeasure(
            scale * m.points, label_logits=m.label_logits)) for m in measures]
        cfg = EmpiricalFlowConfig(8, 8, 4, HALF, label_weight=label_weight,
                                  solver=solver)
        final, trace = run_flow(inputs, cfg)
        assert_finite_run(final.points, trace)
        if label_weight > 0:
            assert np.all(np.isfinite(final.label_logits))

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("label_weight", [0.0, 1.0])
    @pytest.mark.parametrize("d", [1, 2])
    @FLOW_SETTINGS
    @given(st.data())
    def test_gmm_flow_finite(self, d, label_weight, scale, data):
        mixtures = data.draw(gmm_inputs(d, labeled=label_weight > 0))
        inputs = [LabeledGMM(q.weights, scale * q.means, scale * q.chols, q.nu)
                  for q in mixtures]
        cfg = GmmFlowConfig(2, 4, HALF, label_weight=label_weight,
                            mc_samples=16, init_samples=64)
        final, trace = run_gmm_flow(inputs, cfg)
        assert_finite_run(np.concatenate([final.means.ravel(),
                                          final.chols.ravel()]), trace)


@st.composite
def gaussian(draw, d, scale):
    """A Gaussian (mu, chol) with covariance eigenvalues in [1, 1e3] in a
    random basis, means in [-3, 3]^d, both scaled by ``scale``."""
    basis, _ = np.linalg.qr(draw(hnp.arrays(float, (d, d), elements=unit_coords)))
    eig = draw(hnp.arrays(float, d, elements=st.floats(1.0, 1e3)))
    cov = (basis * eig) @ basis.T
    return (scale * draw(hnp.arrays(float, d, elements=unit_coords)),
            scale * np.linalg.cholesky((cov + cov.T) / 2.0))


@st.composite
def gaussian_pair(draw, min_dim=1):
    d = draw(st.integers(min_dim, 6))
    scale = draw(st.sampled_from(SCALES))
    return draw(gaussian(d, scale)), draw(gaussian(d, scale))


@st.composite
def gaussian_stacks(draw, min_dim=1, sizes=None):
    """Two mixtures of k != m Gaussians (1 to 4 each, or ``sizes``) in one
    dimension d from min_dim to 5, with uniform weights, all at one scale
    2^-20, 1 or 2^20."""
    d = draw(st.integers(min_dim, 5))
    scale = draw(st.sampled_from([2.0 ** -20, 1.0, 2.0 ** 20]))
    if sizes is None:
        k = draw(st.integers(1, 4))
        sizes = k, draw(st.integers(1, 4).filter(lambda m: m != k))
    k, m = sizes

    def stack(n):
        means, chols = zip(*(draw(gaussian(d, scale)) for _ in range(n)))
        return LabeledGMM(np.full(n, 1.0 / n), means, chols)
    return stack(k), stack(m)


def pairs(p, q):
    """Each component pair (i, j) of two mixtures, with its means and
    covariances."""
    for i, j in itertools.product(range(p.n_components), range(q.n_components)):
        l1, l2 = p.chols[i], q.chols[j]
        yield i, j, p.means[i], l1, l1 @ l1.T, q.means[j], l2 @ l2.T


@st.composite
def cell_plan(draw, k, m):
    """A k x m plan of 1 to 2km cells, repeats allowed, with masses in
    [0, 1]; its marginals are its row and column sums."""
    n = draw(st.integers(1, 2 * k * m))
    rows = draw(hnp.arrays(np.intp, n, elements=st.integers(0, k - 1)))
    cols = draw(hnp.arrays(np.intp, n, elements=st.integers(0, m - 1)))
    mass = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
    return ot.TransportPlan(np.bincount(rows, mass, k),
                            np.bincount(cols, mass, m),
                            rows=rows, cols=cols, mass=mass)


def with_labels(g, nu):
    return LabeledGMM(g.weights, g.means, g.chols, nu=nu)


def eigh_transport_map(s1, s2):
    """S1^{-1/2} (S1^{1/2} S2 S1^{1/2})^{1/2} S1^{-1/2} by eigendecompositions."""
    w, q = np.linalg.eigh(s1)
    half, inv_half = (q * np.sqrt(w)) @ q.T, (q / np.sqrt(w)) @ q.T
    w, q = np.linalg.eigh(half @ s2 @ half)
    return inv_half @ ((q * np.sqrt(np.maximum(w, 0.0))) @ q.T) @ inv_half


class TestBuresKernel:
    """The Bures values, maps and gradients on Cholesky factors, one pair at
    a time and batched over two stacks, against the covariance forms, at
    condition numbers up to 1e3 and scales 1e-6 to 1e6."""

    @SETTINGS
    @given(gaussian_pair())
    def test_value_matches_covariance_form(self, pair):
        (mu1, l1), (mu2, l2) = pair
        cov1, cov2 = l1 @ l1.T, l2 @ l2.T
        size = (((mu1 - mu2) ** 2).sum() + np.trace(cov1)
                + np.trace(cov2))
        reference = bures_w2_sq_cov(mu1, cov1, mu2, cov2)
        assert abs(bures_w2_sq(mu1, l1, mu2, l2) - reference) <= 1e-12 * size

    @SETTINGS
    @given(gaussian_pair())
    def test_grad_matches_eigh_map(self, pair):
        (mu1, l1), (mu2, l2) = pair
        dmu, dl = bures_w2_grad(mu1, l1, mu2, l2)
        dsigma = np.eye(len(mu1)) - eigh_transport_map(l1 @ l1.T, l2 @ l2.T)
        reference = np.tril((dsigma + dsigma.T) @ l1)
        assert np.array_equal(dmu, 2.0 * (mu1 - mu2))
        # the map's terms set the scale: the gradient itself may cancel to 0
        size = max(np.abs(reference).max(), 2.0 * np.abs(l1).max())
        assert np.abs(dl - reference).max() <= 1e-10 * size

    @SETTINGS
    @given(gaussian_pair(min_dim=2), st.data())
    def test_relatively_singular_factor_raises(self, pair, data):
        (mu1, l1), g2 = pair
        chol = l1.copy()
        j = data.draw(st.integers(0, len(mu1) - 1))
        # sigma_min <= |L_jj| and sigma_max >= every other |L_ii|: a ratio
        # of at most 1e-7
        chol[j, j] = 1e-7 * np.delete(np.diag(chol), j).max()
        with pytest.raises(np.linalg.LinAlgError):
            bures_w2_grad(mu1, chol, *g2)

    @SETTINGS
    @given(gaussian_stacks())
    def test_cost_matrix_matches_covariance_form(self, stacks):
        p, q = stacks
        cost = mw2_cost_matrix(p, q)
        assert cost.shape == (p.n_components, q.n_components)
        for i, j, mu1, l1, cov1, mu2, cov2 in pairs(p, q):
            size = ((mu1 - mu2) ** 2).sum() + np.trace(cov1) + np.trace(cov2)
            reference = bures_w2_sq_cov(mu1, cov1, mu2, cov2)
            assert abs(cost[i, j] - reference) <= 1e-12 * size

    @SETTINGS
    @given(gaussian_stacks())
    def test_maps_match_eigh_map(self, stacks):
        p, q = stacks
        _, tmaps = _bures_kernel(p.means[:, None], p.chols[:, None], q.means,
                                 q.chols, maps=True)
        for i, j, _, _, cov1, _, cov2 in pairs(p, q):
            reference = eigh_transport_map(cov1, cov2)
            assert (np.abs(tmaps[i, j] - reference).max()
                    <= 1e-10 * np.abs(reference).max())

    @staticmethod
    def assert_fixed_plan_grad_matches_pair_loop(p, q, plan, beta=0.0):
        """``mw2_fixed_plan_value_grad`` on the plan's cells against a loop
        over the pairs of its dense coupling, with eigh maps."""
        k, d = p.n_components, p.dim
        omega = plan.coupling
        value, gm, gl, gn = mw2_fixed_plan_value_grad(p, q, plan, beta)
        ref_value, ref_mu, ref_l = 0.0, np.zeros((k, d)), np.zeros((k, d, d))
        ref_nu = None if beta == 0 else np.zeros(p.nu.shape)
        size = 0.0
        for i, j, mu1, l1, cov1, mu2, cov2 in pairs(p, q):
            w = omega[i, j]
            ref_value += w * bures_w2_sq_cov(mu1, cov1, mu2, cov2)
            ref_mu[i] += w * 2.0 * (mu1 - mu2)
            dsigma = np.eye(d) - eigh_transport_map(cov1, cov2)
            ref_l[i] += w * np.tril((dsigma + dsigma.T) @ l1)
            size += w * (((mu1 - mu2) ** 2).sum() + np.trace(cov1)
                         + np.trace(cov2))
            if beta > 0:
                diff = p.nu[i] - q.nu[j]
                ref_value += w * beta * (diff ** 2).sum()
                ref_nu[i] += w * 2.0 * beta * diff
                size += w * beta * (p.nu[i] ** 2 + q.nu[j] ** 2).sum()
        assert abs(value - ref_value) <= 1e-12 * size
        mu_size = 2.0 * omega.sum() * max(np.abs(p.means).max(),
                                          np.abs(q.means).max())
        assert np.abs(gm - ref_mu).max() <= 1e-12 * mu_size
        # the map's terms set the scale: the gradient itself may cancel to 0
        l_size = max(np.abs(ref_l).max(),
                     2.0 * omega.sum() * np.abs(p.chols).max())
        assert np.abs(gl - ref_l).max() <= 1e-10 * l_size
        if ref_nu is None:
            assert gn is None
        else:
            # label vectors lie on the simplex: entries at most 1
            assert np.abs(gn - ref_nu).max() <= 1e-12 * 2.0 * beta * omega.sum()

    @SETTINGS
    @given(gaussian_stacks(), st.booleans(), st.data())
    def test_fixed_plan_grad_matches_pair_loop(self, stacks, labeled, data):
        p, q = stacks
        k, m = p.n_components, q.n_components
        plan = data.draw(cell_plan(k, m))
        beta = 0.0
        if labeled:
            def labels(n):  # n label vectors on the simplex of 3 classes
                v = data.draw(hnp.arrays(float, (n, 3),
                                         elements=st.floats(0.01, 1.0)))
                return v / v.sum(axis=1, keepdims=True)
            p, q = with_labels(p, labels(k)), with_labels(q, labels(m))
            beta = data.draw(st.floats(0.1, 10.0))
        self.assert_fixed_plan_grad_matches_pair_loop(p, q, plan, beta)

    @SETTINGS
    @given(gaussian_stacks(sizes=(3, 2)))
    def test_fixed_plan_grad_sums_repeated_cells(self, stacks):
        # the lcm assignment matches 6 copies; a label cost above 1.5 times
        # every Bures cost sends both copies of p's component 1 to q's
        # component 1, so that cell repeats
        p, q = stacks
        p, q = with_labels(p, np.eye(2)[[0, 1, 0]]), with_labels(q, np.eye(2))
        beta = 1.0 + 2.0 * mw2_cost_matrix(p, q).max()
        plan, _ = ot.solve_exact(p.weights, q.weights,
                                 mw2_cost_matrix(p, q, beta))
        assert np.sum((plan.rows == 1) & (plan.cols == 1)) == 2
        self.assert_fixed_plan_grad_matches_pair_loop(p, q, plan, beta)

    def test_fixed_plan_grad_needs_cells_of_its_sizes(self):
        p = LabeledGMM([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[2.0]]])
        q = LabeledGMM([1.0], [[0.5]], [[[1.5]]])
        entropic, _ = ot.solve_entropic(p.weights, p.weights,
                                        mw2_cost_matrix(p, p), 0.5)
        with pytest.raises(ValueError, match="entropic one has no cells"):
            mw2_fixed_plan_value_grad(p, p, entropic)
        flipped, _ = ot.solve_exact(q.weights, p.weights, mw2_cost_matrix(q, p))
        with pytest.raises(ValueError, match="plan sizes"):
            mw2_fixed_plan_value_grad(p, q, flipped)

    @SETTINGS
    @given(gaussian_stacks(min_dim=2), st.data())
    def test_relatively_singular_factor_in_stack_raises(self, stacks, data):
        p, q = stacks
        chols = p.chols.copy()
        i = data.draw(st.integers(0, p.n_components - 1))
        j = data.draw(st.integers(0, p.dim - 1))
        # as in test_relatively_singular_factor_raises, on one factor of the
        # stack
        chols[i, j, j] = 1e-7 * np.delete(np.diag(chols[i]), j).max()
        state = LabeledGMM(p.weights, p.means, chols)
        with pytest.raises(np.linalg.LinAlgError):
            mw2_fixed_plan_value_grad(state, q, mw2_sq(state, q)[1])


@st.composite
def whiten_problem(draw):
    """1 to 4 Gaussians in d <= 5 with factor condition numbers up to 1e3
    (covariance eigenvalues in [1, 1e6]) and 1 to 8 points, all at one scale
    from 1e-6 to 1e6."""
    k, d, n = (draw(st.integers(1, top)) for top in (4, 5, 8))
    scale = draw(st.sampled_from(SCALES))
    basis, _ = np.linalg.qr(draw(hnp.arrays(float, (k, d, d),
                                            elements=unit_coords)))
    eig = draw(hnp.arrays(float, (k, 1, d), elements=st.floats(1.0, 1e6)))
    covs = (basis * eig) @ basis.transpose(0, 2, 1)
    chols = scale * np.linalg.cholesky((covs + covs.transpose(0, 2, 1)) / 2.0)
    means = scale * draw(hnp.arrays(float, (k, d), elements=unit_coords))
    z = scale * draw(hnp.arrays(float, (n, d), elements=unit_coords))
    return means, chols, z


class TestWhitenOracle:
    """gaussian._whiten, which multiplies by the factor inverses, against a
    solve per component."""

    @SETTINGS
    @given(whiten_problem())
    def test_contiguous_equals_transposed(self, problem):
        means, chols, z = problem
        got = _whiten(means, chols, np.ascontiguousarray(z.T))
        for x, y in zip(got, _whiten(means, chols, z.T)):
            assert np.array_equal(x, y)

    @SETTINGS
    @given(whiten_problem())
    def test_matches_per_component_solve(self, problem):
        means, chols, z = problem
        u, lp, inv = _whiten(means, chols, z.T)
        ref = np.stack([np.linalg.solve(chol, (z - mu).T)
                        for mu, chol in zip(means, chols)])
        size = np.abs(ref).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(u - ref) <= 1e-12 * size)
        assert np.abs(inv @ chols - np.eye(means.shape[1])).max() <= 1e-12
        # log N(z; mu, LL^T) = c - log|L| - |u|^2 / 2, relative to its terms
        const = -0.5 * means.shape[1] * np.log(2.0 * np.pi)
        logdet = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        sq = 0.5 * (ref * ref).sum(axis=1).T
        ref_lp = const - logdet - sq
        assert np.all(np.abs(lp - ref_lp)
                      <= 1e-12 * (abs(const) + np.abs(logdet) + sq))


# finite values and -inf entries
log_values = st.one_of(st.floats(-1e3, 1e3, allow_subnormal=False),
                       st.just(-np.inf))
log_arrays = hnp.array_shapes(min_dims=2, max_dims=2, max_side=6).flatmap(
    lambda shape: hnp.arrays(float, shape, elements=log_values))


class TestLogsumexp:
    """measures.logsumexp against scipy.special.logsumexp, and the label
    entropy's 0 log 0 = 0 against scipy.special.xlogy."""

    @SETTINGS
    @given(log_arrays, st.sampled_from([0, 1]))
    def test_matches_scipy(self, x, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(x, axis=axis)
        np.testing.assert_allclose(
            got, scipy.special.logsumexp(x, axis=axis), rtol=0, atol=1e-12)

    @SETTINGS
    @given(log_arrays.map(lambda x: np.where(np.isinf(x), -5.0, x)),
           st.sampled_from([0, 1]))
    def test_finite_equals_max_shift_formula(self, x, axis):
        # the Sinkhorn updates relied on this exact sequence of operations
        mx = x.max(axis=axis)
        ref = mx + np.log(np.exp(x - np.expand_dims(mx, axis)).sum(axis=axis))
        assert np.array_equal(logsumexp(x, axis=axis), ref)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_all_neg_inf_slice(self, axis):
        x = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(x if axis == 1 else x.T, axis=axis)
        assert np.array_equal(got, [-np.inf, 0.0])

    def test_entropy_saturated_logits_bitwise(self):
        logits = np.array([[0.0, -1e3, 0.0], [5.0, -800.0, -900.0],
                           [0.0, -750.0, 1.0], [2.0, 2.0, -1e4],
                           [-3.0, 0.5, -2e3]])
        y = softmax(logits)
        assert np.count_nonzero(y == 0) == 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = entropy_potential(logits)
        assert value == float(-scipy.special.xlogy(y, y).sum() / len(y))
        assert np.all(np.isfinite(grad))

    # a -1e3 logit saturates: its softmax entry underflows to an exact zero
    @SETTINGS
    @given(hnp.arrays(float, (4, 3), elements=st.one_of(
        st.floats(-10.0, 10.0), st.just(-1e3))))
    def test_entropy_matches_xlogy(self, logits):
        y = softmax(logits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _ = entropy_potential(logits)
        # numpy's vectorized log may differ from libm's in the last bit
        assert value == pytest.approx(
            float(-scipy.special.xlogy(y, y).sum() / len(y)), rel=1e-14, abs=0.0)
