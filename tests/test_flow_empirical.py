from dataclasses import replace

import numpy as np
import pytest

from baryflow import flow_empirical as fe
from baryflow import ot
from baryflow.flow_empirical import (
    EmpiricalFlowConfig,
    EmpiricalSampler,
    FullBatchSampler,
    GaussianSampler,
    GmmSampler,
    fixed_point_baseline,
    flow_step,
    run_flow,
)
from baryflow.functionals import (
    FunctionalSpec,
    entropy_potential,
    hinge_repulsion,
    target_potential,
)
from baryflow.gaussian import LabeledGMM
from baryflow.measures import (
    BarycentricCoordinates,
    EmpiricalMeasure,
    MiniBatch,
    one_hot,
    softmax,
)
from conftest import dense_recost_flow_step

UNIT = BarycentricCoordinates.uniform(1)
HALF = BarycentricCoordinates.uniform(2)


class TestConfigValidation:
    def test_step_size_range(self):
        with pytest.raises(ValueError):
            EmpiricalFlowConfig(8, 8, 1, UNIT, step_size=0.0)
        with pytest.raises(ValueError):
            EmpiricalFlowConfig(8, 8, 1, UNIT, step_size=1.5)

    def test_bad_solver(self):
        with pytest.raises(ValueError):
            EmpiricalFlowConfig(8, 8, 1, UNIT, solver="magic")

    @pytest.mark.parametrize("label_weight", [np.nan, np.inf, -1.0])
    def test_label_weight_finite_and_nonnegative(self, label_weight):
        # NaN > 0 is false, so a NaN weight would switch the label cost off
        with pytest.raises(ValueError, match="label_weight must be finite"):
            EmpiricalFlowConfig(8, 8, 1, UNIT, label_weight=label_weight)

    def test_internal_energy_rejected(self):
        # the empirical flow has no internal energy; it must not be ignored
        with pytest.raises(ValueError, match="internal_weight"):
            EmpiricalFlowConfig(8, 8, 1, UNIT,
                                functional=FunctionalSpec(internal_weight=0.1))


class TestFlowStep:
    def test_fixed_point_batch_equals_particles(self):
        # plan between identical clouds is the identity matching, so the
        # barycentric map returns the particles and the gradient vanishes
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((8, 2))
        cfg = EmpiricalFlowConfig(8, 8, 1, UNIT, step_size=0.7)
        new, record = flow_step(EmpiricalMeasure(pts), [MiniBatch(pts)], cfg, 1)
        assert np.allclose(new.points, pts, atol=1e-12)
        assert record.iter == 1

    def test_full_step_jumps_to_batch(self):
        cfg = EmpiricalFlowConfig(1, 1, 1, UNIT, step_size=1.0)
        measure = EmpiricalMeasure(np.array([[0.0]]))
        new, _ = flow_step(measure, [MiniBatch(np.array([[4.0]]))], cfg, 1)
        assert np.allclose(new.points, [[4.0]])

    def test_two_input_convex_combination(self):
        cfg = EmpiricalFlowConfig(1, 1, 1, HALF, step_size=1.0)
        measure = EmpiricalMeasure(np.array([[0.0]]))
        new, _ = flow_step(measure, [MiniBatch(np.array([[0.0]])),
                                     MiniBatch(np.array([[4.0]]))], cfg, 1)
        assert np.allclose(new.points, [[2.0]])

    def test_wrong_batch_count(self):
        cfg = EmpiricalFlowConfig(1, 1, 1, HALF)
        measure = EmpiricalMeasure(np.array([[0.0]]))
        with pytest.raises(ValueError):
            flow_step(measure, [MiniBatch(np.array([[0.0]]))], cfg, 1)

    def test_labeled_flow_requires_labeled_batches(self):
        cfg = EmpiricalFlowConfig(2, 2, 1, UNIT, label_weight=1.0)
        measure = EmpiricalMeasure(np.zeros((2, 1)), label_logits=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            flow_step(measure, [MiniBatch(np.zeros((2, 1)))], cfg, 1)

    def test_batches_all_labeled_or_none(self):
        # a step's batches obey the rule of the flow's inputs
        cfg = EmpiricalFlowConfig(2, 2, 1, HALF)
        batches = [MiniBatch(np.zeros((2, 1))),
                   MiniBatch(np.zeros((2, 1)), one_hot(np.array([0, 1]), 2))]
        with pytest.raises(ValueError, match="all labeled or all unlabeled"):
            flow_step(EmpiricalMeasure(np.zeros((2, 1))), batches, cfg, 1)

    def test_matches_fixed_point_update_exactly(self):
        # with zero energies and full batches, one step with interpolation
        # coefficient a reproduces z <- (1-a) z + a sum_k lam_k T_k(z)
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((16, 2))
        batches = [MiniBatch(rng.standard_normal((16, 2)) + 1.0),
                   MiniBatch(rng.standard_normal((16, 2)) - 1.0)]
        alpha = 0.35
        cfg = EmpiricalFlowConfig(16, 16, 1, HALF, step_size=alpha)
        new, _ = flow_step(EmpiricalMeasure(pts), batches, cfg, 1)

        mapped = np.zeros_like(pts)
        for lam, batch in zip(HALF.lam, batches):
            cost = ot.squared_distances(pts, batch.points)
            plan, _ = ot.solve_exact(np.full(16, 1 / 16), np.full(16, 1 / 16), cost)
            mapped += lam * ot.barycentric_map(plan, batch.points)
        expected = (1 - alpha) * pts + alpha * mapped
        assert np.max(np.abs(new.points - expected)) <= 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((10, 2))
        batch = MiniBatch(rng.standard_normal((10, 2)))
        cfg = EmpiricalFlowConfig(10, 10, 1, UNIT, step_size=0.4)
        new, _ = flow_step(EmpiricalMeasure(pts), [batch], cfg, 1)
        perm = rng.permutation(10)
        new_p, _ = flow_step(EmpiricalMeasure(pts[perm]), [batch], cfg, 1)
        assert np.allclose(new_p.points, new.points[perm], atol=1e-12)

    def test_label_propagation_direction(self):
        # a particle whose plan mass lands on class-1 batch points should
        # move its soft label toward class 1
        pts = np.array([[0.0]])
        logits = np.zeros((1, 2))
        cfg = EmpiricalFlowConfig(1, 2, 1, UNIT, step_size=0.5, label_weight=2.0)
        batch = MiniBatch(np.array([[0.0], [0.1]]), one_hot(np.array([1, 1]), 2))
        measure = EmpiricalMeasure(pts, label_logits=logits)
        new, _ = flow_step(measure, [batch], cfg, 1)
        soft = new.soft_labels()
        assert soft[0, 1] > 0.5


class TestRunFlow:
    def test_deterministic(self):
        inputs = [GaussianSampler([0.0], std=1.0)]
        cfg = EmpiricalFlowConfig(16, 16, 5, UNIT, seed=42)
        m1, t1 = run_flow(inputs, cfg)
        m2, t2 = run_flow(inputs, cfg)
        assert np.array_equal(m1.points, m2.points)
        assert t1 == t2

    def test_trace_layout(self):
        inputs = [GaussianSampler([0.0], std=1.0)]
        cfg = EmpiricalFlowConfig(8, 8, 7, UNIT, seed=0)
        _, trace = run_flow(inputs, cfg)
        assert len(trace) == 8
        assert [r.iter for r in trace] == list(range(8))

    def test_descent_toward_single_input(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((256, 2)) * 1.5 + np.array([3.0, -2.0])
        holdout = EmpiricalMeasure(data[:128])
        sampler = EmpiricalSampler(EmpiricalMeasure(data[128:]))
        cfg = EmpiricalFlowConfig(64, 64, 80, UNIT, seed=0)
        final, _ = run_flow([sampler], cfg)
        init, _ = run_flow([sampler],
                           EmpiricalFlowConfig(64, 64, 0, UNIT, seed=0))
        w_final = ot.w2_empirical(final, holdout)
        w_init = ot.w2_empirical(init, holdout)
        assert w_final <= w_init

    def test_labeled_two_blob_labels(self):
        def blobs(seed, offset):
            r = np.random.default_rng(seed)
            x = np.vstack([r.standard_normal((100, 2)),
                           r.standard_normal((100, 2)) + [8.0, 0.0]]) + offset
            y = np.repeat([0, 1], 100)
            return EmpiricalMeasure.from_hard_labels(x, y, 2)

        inputs = [EmpiricalSampler(blobs(0, np.array([0.0, 0.0]))),
                  EmpiricalSampler(blobs(1, np.array([0.0, 1.0])))]
        cfg = EmpiricalFlowConfig(128, 64, 150, HALF, label_weight=1.0, seed=0)
        final, _ = run_flow(inputs, cfg)
        hard = final.hard_labels()
        nearest_blob = (final.points[:, 0] > 4.0).astype(int)
        assert (hard == nearest_blob).mean() >= 0.95

    @pytest.mark.parametrize("init", ["gaussian", "subsample"])
    def test_final_measure_keeps_class_names(self, init):
        rng = np.random.default_rng(12)
        data = EmpiricalMeasure.from_hard_labels(
            rng.standard_normal((12, 1)), np.arange(12) % 3, 3,
            class_names=("cat", "dog", "fish"))
        cfg = EmpiricalFlowConfig(6, 6, 2, UNIT, label_weight=1.0, init=init)
        final, _ = run_flow([EmpiricalSampler(data)], cfg)
        assert final.class_names == ("cat", "dog", "fish")

    def test_mini_batch_objective_decreases_on_average(self):
        inputs = [GaussianSampler([0.0], std=1.0), GaussianSampler([4.0], std=1.0)]
        cfg = EmpiricalFlowConfig(64, 64, 120, HALF, seed=0)
        _, trace = run_flow(inputs, cfg)
        b = np.array([r.b_hat for r in trace])
        head = b[:20].mean()
        tail = b[-20:].mean()
        assert tail < head


class TestTraceComposition:
    def test_first_entry_from_public_functions(self):
        rng = np.random.default_rng(3)
        datasets = [EmpiricalMeasure.from_hard_labels(
            rng.standard_normal((12, 2)) + shift, rng.integers(0, 3, 12), 3)
            for shift in (0.0, 2.0)]
        target = EmpiricalMeasure(rng.standard_normal((8, 2)) + 1.0)
        spec = FunctionalSpec(entropy_weight=0.3, repulsion_weight=0.2,
                              repulsion_margin=2.0, target_weight=0.5,
                              target_measure=target)
        cfg = EmpiricalFlowConfig(12, 12, 0, HALF, label_weight=2.0,
                                  functional=spec, label_init="random", seed=4)
        inputs = [FullBatchSampler(d) for d in datasets]
        init, trace = run_flow(inputs, cfg)
        _, longer = run_flow(inputs, replace(cfg, n_iter=3))
        assert longer[0] == trace[0]

        # entry 0: the initial measure against the first (here: full) batches
        x = init.points
        b_hat = 0.0
        for lam, ds in zip(HALF.lam, datasets):
            cost = ot.joint_cost(x, ds.points, init.soft_labels(),
                                 one_hot(ds.hard_labels(), 3), 2.0)
            b_hat += lam * ot.solve_exact(init.weights, ds.weights, cost)[1]
        v = (0.3 * entropy_potential(init.label_logits)[0]
             + 0.5 * target_potential(EmpiricalMeasure(x), target)[0])
        u = 0.2 * hinge_repulsion(x, init.hard_labels(), 2.0)[0]
        rec = trace[0]
        assert rec.iter == 0 and rec.g == 0.0 and u > 0
        np.testing.assert_allclose(
            [rec.b_hat, rec.v, rec.u, rec.f, rec.param_norm],
            [b_hat, v, u, b_hat + v + u, np.linalg.norm(x)], rtol=1e-12)

    def test_steps_by_hand_reproduce_run_flow(self):
        # the run loop owns the trace: entry 0 of run_flow(n_iter=0), then
        # the records of flow_step(..., it) for it = 1..3, are bitwise the
        # trace of run_flow(n_iter=3); labels, both label energies and the
        # target potential enter every record
        rng = np.random.default_rng(7)
        datasets = [EmpiricalMeasure.from_hard_labels(
            rng.standard_normal((12, 2)) + shift, rng.integers(0, 3, 12), 3)
            for shift in (0.0, 2.0)]
        target = EmpiricalMeasure(rng.standard_normal((8, 2)) + 1.0)
        spec = FunctionalSpec(entropy_weight=0.3, repulsion_weight=0.2,
                              repulsion_margin=2.0, target_weight=0.5,
                              target_measure=target)
        cfg = EmpiricalFlowConfig(12, 12, 0, HALF, label_weight=2.0,
                                  functional=spec, label_init="random", seed=4)
        inputs = [FullBatchSampler(d) for d in datasets]
        measure, trace = run_flow(inputs, cfg)
        batches = [inp.sample(cfg.batch_size, rng) for inp in inputs]
        for it in range(1, 4):
            measure, record = flow_step(measure, batches, cfg, it)
            assert record.iter == it
            trace.append(record)

        final, expected = run_flow(inputs, replace(cfg, n_iter=3))
        assert trace == expected
        assert all(r.v != 0.0 and r.u != 0.0 for r in trace)
        for field in ("points", "weights", "label_logits"):
            np.testing.assert_array_equal(getattr(measure, field),
                                          getattr(final, field))


class TestLinePlans:
    """An exact feature-only problem in 1-D is solved on the points by
    ``solve_line``, and the flow forms no cost matrix; a label-weighted
    cost must not take the sorted path."""

    def test_unlabeled_1d_flow_takes_sorted_path(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a 1-D feature-only plan left the sorted path")
        for name in ("_assignment_plan", "_simplex_plan", "_linprog_plan",
                     "solve_exact", "joint_cost"):
            monkeypatch.setattr(ot, name, fail)
        inputs = [GaussianSampler([0.0], std=1.0), GaussianSampler([4.0], std=1.0)]
        final, trace = run_flow(inputs, EmpiricalFlowConfig(32, 16, 10, HALF))
        assert len(trace) == 11
        assert abs(final.points.mean() - 2.0) <= 0.5

    def test_labeled_1d_plans_use_joint_cost(self, monkeypatch):
        solve_exact = ot.solve_exact
        plans = []

        def record(*args, **kwargs):
            result = solve_exact(*args, **kwargs)
            plans.append(result[0].coupling)
            return result

        monkeypatch.setattr(ot, "solve_exact", record)
        # particles at 0 and 1 carry the classes of the batch points at 1
        # and 0, so the joint plan crosses where the sorted one would not
        measure = EmpiricalMeasure(
            np.array([[0.0], [1.0]]),
            label_logits=5.0 * np.array([[-1.0, 1.0], [1.0, -1.0]]))
        batch = MiniBatch(np.array([[0.0], [1.0]]), one_hot([0, 1], 2))
        flow_step(measure, [batch], EmpiricalFlowConfig(2, 2, 1, UNIT,
                                                        label_weight=4.0), 1)
        assert np.array_equal(plans.pop(), [[0.0, 0.5], [0.5, 0.0]])

        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 1))
        logits = 3.0 * rng.standard_normal((8, 3))
        batches = [MiniBatch(rng.standard_normal((8, 1)),
                             one_hot(rng.integers(0, 3, 8), 3)) for _ in range(2)]
        flow_step(EmpiricalMeasure(x, label_logits=logits), batches,
                  EmpiricalFlowConfig(8, 8, 1, HALF, label_weight=2.0), 1)
        assert len(plans) == len(batches)
        for plan, batch in zip(plans, batches):
            joint = ot.joint_cost(x, batch.points, softmax(logits),
                                  batch.labels, 2.0)
            expected, _ = solve_exact(np.full(8, 1 / 8), np.full(8, 1 / 8), joint)
            assert np.array_equal(plan, expected.coupling)


class TestMomentTrace:
    """The trace prices each step's fixed plans by their moments. The
    dense re-cost of ``conftest.dense_recost_flow_step`` is its reference:
    every record within 1e-12, and the same final measure bit for bit."""

    @staticmethod
    def inputs(labeled, rng):
        if not labeled:
            return [GaussianSampler([0.0], std=1.0),
                    GaussianSampler([4.0], std=0.5)]
        return [EmpiricalSampler(EmpiricalMeasure.from_hard_labels(
            rng.standard_normal((30, 2)) + shift, rng.integers(0, 3, 30), 3))
            for shift in ([4.0, 3.0], [6.0, 1.0])]

    @pytest.mark.parametrize("target", [False, True], ids=["plain", "target"])
    @pytest.mark.parametrize("labeled", [False, True],
                             ids=["unlabeled-1d", "labeled-2d"])
    @pytest.mark.parametrize("solver", ["exact", "entropic"])
    def test_matches_dense_recost(self, monkeypatch, solver, labeled, target):
        rng = np.random.default_rng(21)
        inputs = self.inputs(labeled, rng)
        d = 2 if labeled else 1
        functional = FunctionalSpec()
        if target:
            functional = FunctionalSpec(
                target_weight=0.2, target_measure=EmpiricalMeasure(
                    rng.standard_normal((20, d)) + 2.0))
        cfg = EmpiricalFlowConfig(
            24, 16, 8, HALF, solver=solver, functional=functional,
            label_weight=2.0 if labeled else 0.0,
            label_init="random", seed=3)
        final, trace = run_flow(inputs, cfg)
        monkeypatch.setattr(fe, "flow_step", dense_recost_flow_step)
        expected_final, expected = run_flow(inputs, cfg)

        assert len(trace) == len(expected) == 9
        for got, want in zip(trace, expected):
            assert got.iter == want.iter
            np.testing.assert_allclose(
                [got.b_hat, got.v, got.u, got.f, got.param_norm],
                [want.b_hat, want.v, want.u, want.f, want.param_norm],
                rtol=1e-12, atol=0.0)
        assert all(r.v > 0.0 for r in trace) == target
        for field in ("points", "label_logits"):
            np.testing.assert_array_equal(getattr(final, field),
                                          getattr(expected_final, field))


    @pytest.mark.parametrize("labeled", [False, True],
                             ids=["unlabeled-1d", "labeled-2d"])
    @pytest.mark.parametrize("solver", ["exact", "entropic"])
    def test_step_reads_no_coupling(self, monkeypatch, solver, labeled):
        # plans are mapped and priced through ot in the form they were solved
        def fail(plan):
            raise AssertionError("the flow read a plan's dense coupling")
        monkeypatch.setattr(ot.TransportPlan, "coupling", property(fail))
        rng = np.random.default_rng(22)
        d = 2 if labeled else 1
        functional = FunctionalSpec(target_weight=0.2, target_measure=(
            EmpiricalMeasure(rng.standard_normal((20, d)) + 2.0)))
        cfg = EmpiricalFlowConfig(
            24, 16, 3, HALF, solver=solver, functional=functional,
            label_weight=2.0 if labeled else 0.0, label_init="random")
        _, trace = run_flow(self.inputs(labeled, rng), cfg)
        assert len(trace) == 4


class TestEntropicFlow:
    def test_first_entry_from_public_solver(self):
        rng = np.random.default_rng(5)
        datasets = [EmpiricalMeasure.from_hard_labels(
            rng.standard_normal((10, 2)) + shift, rng.integers(0, 2, 10), 2)
            for shift in (0.0, 3.0)]
        cfg = EmpiricalFlowConfig(8, 10, 0, HALF, label_weight=2.0,
                                  solver="entropic", label_init="random", seed=1)
        inputs = [FullBatchSampler(d) for d in datasets]
        init, trace = run_flow(inputs, cfg)
        _, longer = run_flow(inputs, replace(cfg, n_iter=2))
        assert longer[0] == trace[0]

        # entry 0: entropic plans at the default eps = 0.05 * median(C)
        x = init.points
        b_hat = exact = 0.0
        for lam, ds in zip(HALF.lam, datasets):
            cost = ot.joint_cost(x, ds.points, init.soft_labels(),
                                 one_hot(ds.hard_labels(), 2), 2.0)
            b_hat += lam * ot.solve_entropic(init.weights, ds.weights, cost,
                                             epsilon=0.05 * np.median(cost))[1]
            exact += lam * ot.solve_exact(init.weights, ds.weights, cost)[1]
        rec = trace[0]
        assert rec.v == rec.u == rec.g == 0.0
        assert b_hat > exact
        np.testing.assert_allclose([rec.b_hat, rec.f, rec.param_norm],
                                   [b_hat, b_hat, np.linalg.norm(x)], rtol=1e-12)


class TestLabelChecks:
    """Inputs are all labeled with one class count and equal class names,
    or all unlabeled; the flow rejects anything else before it solves a plan."""

    @pytest.fixture(autouse=True)
    def no_solves(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a plan was solved before the label check")
        for name in ("solve_exact", "solve_entropic", "solve_auto"):
            monkeypatch.setattr(ot, name, fail)

    @staticmethod
    def labeled(n_classes, seed=0, class_names=None):
        rng = np.random.default_rng(seed)
        return EmpiricalMeasure.from_hard_labels(
            rng.standard_normal((12, 2)), np.arange(12) % n_classes, n_classes,
            class_names=class_names)

    @pytest.mark.parametrize("init", ["gaussian", "subsample"])
    def test_labeled_and_unlabeled_rejected(self, init):
        inputs = [GaussianSampler([0.0, 0.0], std=1.0),
                  EmpiricalSampler(self.labeled(2))]
        cfg = EmpiricalFlowConfig(8, 8, 3, HALF, init=init)
        with pytest.raises(ValueError, match="all labeled or all unlabeled"):
            run_flow(inputs, cfg)

    @pytest.mark.parametrize("init", ["gaussian", "subsample"])
    def test_class_counts_differ_rejected(self, init):
        inputs = [EmpiricalSampler(self.labeled(3)),
                  EmpiricalSampler(self.labeled(4, seed=1))]
        cfg = EmpiricalFlowConfig(8, 8, 3, HALF, init=init)
        with pytest.raises(ValueError, match="one class count"):
            run_flow(inputs, cfg)

    @pytest.mark.parametrize("spec", [FunctionalSpec(repulsion_weight=0.1),
                                      FunctionalSpec(entropy_weight=0.1)])
    def test_label_energy_needs_labels(self, spec):
        inputs = [GaussianSampler([0.0], std=1.0), GaussianSampler([4.0], std=1.0)]
        cfg = EmpiricalFlowConfig(8, 8, 3, HALF, functional=spec)
        with pytest.raises(ValueError, match="act on labels"):
            run_flow(inputs, cfg)

    def test_fixed_point_class_counts_differ_rejected(self):
        cfg = EmpiricalFlowConfig(8, 8, 3, HALF)
        with pytest.raises(ValueError, match="one class count"):
            fixed_point_baseline([self.labeled(2), self.labeled(3)], cfg)

    @pytest.mark.parametrize("names", [(("cat", "dog"), ("dog", "fish")),
                                       (("cat", "dog"), None)])
    @pytest.mark.parametrize("init", ["gaussian", "subsample"])
    def test_class_names_differ_rejected(self, init, names):
        inputs = [EmpiricalSampler(self.labeled(2, seed=i, class_names=n))
                  for i, n in enumerate(names)]
        cfg = EmpiricalFlowConfig(8, 8, 3, HALF, init=init)
        with pytest.raises(ValueError, match="one class_names") as exc:
            run_flow(inputs, cfg)
        assert all(repr(n) in str(exc.value) for n in names)

    def test_fixed_point_class_names_differ_rejected(self):
        cfg = EmpiricalFlowConfig(8, 8, 3, HALF)
        datasets = [self.labeled(2, class_names=("cat", "dog")),
                    self.labeled(2, seed=1, class_names=("dog", "fish"))]
        with pytest.raises(ValueError,
                           match=r"\('cat', 'dog'\) and \('dog', 'fish'\)"):
            fixed_point_baseline(datasets, cfg)


class TestFullBatchInvariants:
    def test_objective_non_increasing_full_batch(self):
        rng = np.random.default_rng(4)
        datasets = [EmpiricalMeasure(rng.standard_normal((32, 2)) + off)
                    for off in (np.zeros(2), np.array([3.0, 0.0]))]
        inputs = [FullBatchSampler(d) for d in datasets]
        cfg = EmpiricalFlowConfig(32, 32, 40, HALF, step_size=0.25, seed=1)
        _, trace = run_flow(inputs, cfg)
        b = np.array([r.b_hat for r in trace])
        assert np.all(np.diff(b) <= 1e-10)


class TestFixedPointBaseline:
    def two_gaussian_datasets(self, seed=0, n=512):
        rng = np.random.default_rng(seed)
        return [EmpiricalMeasure(rng.standard_normal((n, 1))),
                EmpiricalMeasure(rng.standard_normal((n, 1)) + 4.0)]

    def test_energies_rejected(self):
        # the fixed-point updates apply no energy; they must not be ignored
        datasets = self.two_gaussian_datasets()
        cfg = EmpiricalFlowConfig(32, 32, 1, HALF,
                                  functional=FunctionalSpec(repulsion_weight=0.1))
        with pytest.raises(ValueError, match="no energy"):
            fixed_point_baseline(datasets, cfg)

    def test_two_gaussian_mean(self):
        datasets = self.two_gaussian_datasets(seed=5)
        cfg = EmpiricalFlowConfig(128, 128, 60, HALF, step_size=0.5, seed=0)
        out = fixed_point_baseline(datasets, cfg)
        assert abs(out.points.mean() - 2.0) <= 0.05

    def test_matches_full_batch_flow_distribution(self):
        datasets = self.two_gaussian_datasets(seed=6, n=256)
        cfg = EmpiricalFlowConfig(128, 256, 60, HALF, step_size=0.5, seed=3)
        baseline = fixed_point_baseline(datasets, cfg)
        flowed, _ = run_flow([FullBatchSampler(d) for d in datasets], cfg)
        assert ot.w2_empirical(EmpiricalMeasure(baseline.points),
                               EmpiricalMeasure(flowed.points)) <= 0.15

    def test_label_propagation(self):
        rng = np.random.default_rng(7)
        x = np.vstack([rng.standard_normal((64, 2)),
                       rng.standard_normal((64, 2)) + [10.0, 0.0]])
        y = np.repeat([0, 1], 64)
        ds = EmpiricalMeasure.from_hard_labels(x, y, 2)
        cfg = EmpiricalFlowConfig(64, 128, 30, UNIT, step_size=0.5, seed=0)
        out = fixed_point_baseline([ds], cfg)
        hard = out.hard_labels()
        nearest = (out.points[:, 0] > 5.0).astype(int)
        assert (hard == nearest).mean() >= 0.95

    def test_keeps_class_names(self):
        ds = EmpiricalMeasure.from_hard_labels(
            np.arange(6.0)[:, None], np.arange(6) % 2, 2,
            class_names=("cat", "dog"))
        out = fixed_point_baseline([ds], EmpiricalFlowConfig(6, 6, 2, UNIT))
        assert out.class_names == ("cat", "dog")


class TestSamplers:
    def test_empirical_sampler_draws_support_points(self):
        rng = np.random.default_rng(8)
        m = EmpiricalMeasure(np.arange(10.0)[:, None])
        batch = EmpiricalSampler(m).sample(50, rng)
        assert set(batch.points.ravel()).issubset(set(m.points.ravel()))

    def test_empirical_sampler_labels(self):
        m = EmpiricalMeasure.from_hard_labels(
            np.zeros((4, 1)), np.array([0, 1, 2, 1]), 3)
        batch = EmpiricalSampler(m).sample(8, np.random.default_rng(9))
        assert batch.labels.shape == (8, 3)

    @pytest.mark.parametrize("sampler", [EmpiricalSampler, FullBatchSampler])
    def test_labels_decoded_once(self, sampler, monkeypatch):
        m = EmpiricalMeasure.from_hard_labels(
            np.arange(6.0)[:, None], np.array([0, 1, 2, 1, 0, 2]), 3)
        calls = []
        decode = EmpiricalMeasure.hard_labels
        monkeypatch.setattr(EmpiricalMeasure, "hard_labels",
                            lambda self: calls.append(1) or decode(self))
        s = sampler(m)
        rng = np.random.default_rng(11)
        batches = [s.sample(8, rng) for _ in range(4)]
        assert len(calls) == 1
        for batch in batches:
            idx = batch.points[:, 0].astype(int)
            assert np.array_equal(batch.labels, one_hot(decode(m)[idx], 3))

    def test_gmm_sampler(self):
        gmm = LabeledGMM([1.0], [[5.0]], [[[0.5]]], nu=[[0.0, 1.0]])
        batch = GmmSampler(gmm).sample(16, np.random.default_rng(10))
        assert np.array_equal(batch.labels,
                              np.tile([0.0, 1.0], (16, 1)))
