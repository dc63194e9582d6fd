import numpy as np
import pytest

from baryflow import ot
from baryflow.flow_empirical import EmpiricalFlowConfig
from baryflow.flow_gmm import GmmFlowConfig
from baryflow.functionals import (
    FunctionalSpec,
    check_inputs,
    entropy_potential,
    hinge_repulsion,
    internal_energy_mc,
    target_potential,
)
from baryflow.gaussian import LabeledGMM
from baryflow.measures import (
    BarycentricCoordinates,
    EmpiricalMeasure,
    MiniBatch,
    one_hot,
)

from conftest import random_pd_component


class TestEntropyPotential:
    def test_saturated_labels_zero(self):
        logits = 50.0 * np.eye(3)[np.array([0, 1, 2, 0])]
        value, grad = entropy_potential(logits)
        assert value <= 1e-12
        assert np.max(np.abs(grad)) <= 1e-12

    def test_uniform_is_log_c(self):
        value, _ = entropy_potential(np.zeros((5, 2)))
        assert abs(value - np.log(2.0)) <= 1e-12

    def test_range(self):
        rng = np.random.default_rng(0)
        for c in (2, 3, 5):
            logits = rng.standard_normal((20, c)) * 3
            value, _ = entropy_potential(logits)
            assert 0.0 <= value <= np.log(c) + 1e-12

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(30):
            logits = rng.standard_normal((4, 3)) * 2
            _, grad = entropy_potential(logits)
            for i in range(4):
                for j in range(3):
                    e = np.zeros_like(logits)
                    e[i, j] = h
                    fd = (entropy_potential(logits + e)[0]
                          - entropy_potential(logits - e)[0]) / (2 * h)
                    assert abs(fd - grad[i, j]) <= 1e-5 * max(1.0, abs(fd))


class TestHingeRepulsion:
    def test_same_label_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((6, 2))
        value, grad = hinge_repulsion(pts, np.zeros(6, int), margin=5.0)
        assert value == 0.0
        assert np.max(np.abs(grad)) == 0.0

    def test_outside_margin_zero(self):
        pts = np.array([[0.0], [2.0]])
        value, _ = hinge_repulsion(pts, np.array([0, 1]), margin=1.0)
        assert value == 0.0

    def test_two_point_value(self):
        # ordered pairs (0,1) and (1,0) each contribute (1 - 0.5)/n^2
        pts = np.array([[0.0], [0.5]])
        value, _ = hinge_repulsion(pts, np.array([0, 1]), margin=1.0)
        assert abs(value - 0.25) <= 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((8, 2))
        labels = rng.integers(0, 3, size=8)
        perm = np.array([2, 0, 1])
        v1, g1 = hinge_repulsion(pts, labels, margin=2.0)
        v2, g2 = hinge_repulsion(pts, perm[labels], margin=2.0)
        assert abs(v1 - v2) <= 1e-15
        assert np.allclose(g1, g2)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_finite_differences(self, metric):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(20):
            pts = rng.standard_normal((5, 3)) + 2.0
            labels = rng.integers(0, 2, size=5)
            margin = 2.5 if metric == "euclidean" else 0.8
            _, grad = hinge_repulsion(pts, labels, margin, metric)
            for i in range(5):
                for j in range(3):
                    e = np.zeros_like(pts)
                    e[i, j] = h
                    fd = (hinge_repulsion(pts + e, labels, margin, metric)[0]
                          - hinge_repulsion(pts - e, labels, margin, metric)[0]
                          ) / (2 * h)
                    assert abs(fd - grad[i, j]) <= 1e-4 * max(1.0, abs(fd))

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            hinge_repulsion(np.array([[0.0, 0.0], [1.0, 0.0]]),
                            np.array([0, 1]), 1.0, "cosine")


class TestTargetPotential:
    def test_zero_on_match(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        p = EmpiricalMeasure.from_hard_labels(pts, np.array([0, 1]), 2)
        target = EmpiricalMeasure(pts)
        value, grad, plan = target_potential(p, target)
        assert value <= 1e-12
        assert np.max(np.abs(grad)) <= 1e-12
        assert np.allclose(plan.coupling.sum(axis=1), p.weights, atol=1e-12)
        cost = ot.joint_cost(pts, target.points)
        assert value == pytest.approx(float((plan.coupling * cost).sum()), rel=1e-12)

    def test_single_atom(self):
        p = EmpiricalMeasure.from_hard_labels(
            np.array([[0.0]]), np.array([0]), 1)
        value, grad, _ = target_potential(p, EmpiricalMeasure(np.array([[4.0]])))
        assert abs(value - 16.0) <= 1e-12
        assert np.allclose(grad, [[-8.0]])

    def test_descent_direction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.standard_normal((5, 2))
            target = EmpiricalMeasure(rng.standard_normal((7, 2)) + 1.0)
            p = EmpiricalMeasure(pts)
            value, grad, _ = target_potential(p, target)
            stepped = EmpiricalMeasure(pts - 0.05 * grad)
            value2, _, _ = target_potential(stepped, target)
            assert value2 <= value + 1e-12

    def test_unlabeled_measure_accepted(self):
        p = EmpiricalMeasure(np.array([[0.0]]))
        target = EmpiricalMeasure(np.array([[2.0]]))
        value, grad, plan = target_potential(p, target)
        assert abs(value - 4.0) <= 1e-12
        assert np.allclose(plan.coupling.sum(axis=1), p.weights, atol=1e-12)
        cost = ot.joint_cost(p.points, target.points)
        assert value == pytest.approx(float((plan.coupling * cost).sum()), rel=1e-12)


    def test_line_target_solved_on_points(self, monkeypatch):
        # points on a line take the sorted plan, with no cost matrix
        rng = np.random.default_rng(6)
        p = EmpiricalMeasure(rng.standard_normal((7, 1)))
        target = EmpiricalMeasure(rng.standard_normal((5, 1)) + 1.0)
        cost = ot.joint_cost(p.points, target.points)
        ref_plan, ref_value = ot.solve_exact(p.weights, target.weights, cost)
        for name in ("joint_cost", "solve_auto", "solve_exact"):
            monkeypatch.setattr(ot, name, lambda *args: pytest.fail(
                "a 1-D target left the sorted path"))
        value, grad, plan = target_potential(p, target)
        assert value == pytest.approx(ref_value, rel=1e-12)
        np.testing.assert_allclose(plan.coupling, ref_plan.coupling,
                                   rtol=0, atol=1e-15)
        mapped = ref_plan.coupling @ target.points / p.weights[:, None]
        np.testing.assert_allclose(
            grad, 2.0 * p.weights[:, None] * (p.points - mapped),
            rtol=1e-12, atol=1e-15)


class TestInternalEnergyMc:
    def test_standard_normal_entropy(self):
        g = LabeledGMM([1.0], [[0.0]], [[[1.0]]])
        value, _, _, _ = internal_energy_mc(g, 100_000, seed=0)
        assert abs(value - (-0.5 * np.log(2 * np.pi * np.e))) <= 0.05

    def test_decreases_with_scale(self):
        vals = []
        for sigma in (0.5, 1.0, 2.0, 4.0):
            g = LabeledGMM([1.0], [[0.0]], [[[sigma]]])
            vals.append(internal_energy_mc(g, 20_000, seed=1)[0])
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_two_far_components(self):
        single = LabeledGMM([1.0], [[0.0]], [[[1.0]]])
        double = LabeledGMM([0.5, 0.5], [[0.0], [200.0]], [[[1.0]], [[1.0]]])
        v1 = internal_energy_mc(single, 100_000, seed=2)[0]
        v2 = internal_energy_mc(double, 100_000, seed=2)[0]
        assert abs(v2 - (v1 - np.log(2.0))) <= 0.05

    def test_finite_differences_common_random_numbers(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for trial in range(5):
            k, d = 2, 2
            mus = rng.standard_normal((k, d))
            chols = [random_pd_component(rng, d)[1] for _ in range(k)]
            w = rng.dirichlet(np.ones(k))

            def build(mus_, chols_):
                return LabeledGMM(w, mus_, chols_)

            seed = 100 + trial
            _, gm, gl, _ = internal_energy_mc(build(mus, chols), 256, seed=seed)
            for i in range(k):
                for j in range(d):
                    e = np.zeros((k, d))
                    e[i, j] = h
                    fd = (internal_energy_mc(build(mus + e, chols), 256, seed)[0]
                          - internal_energy_mc(build(mus - e, chols), 256, seed)[0]
                          ) / (2 * h)
                    assert abs(fd - gm[i, j]) <= 5e-2 * max(1.0, abs(fd))
                for r in range(d):
                    for c in range(r + 1):
                        e = np.zeros((d, d))
                        e[r, c] = h
                        cp = [chols[t] + (e if t == i else 0) for t in range(k)]
                        cm = [chols[t] - (e if t == i else 0) for t in range(k)]
                        fd = (internal_energy_mc(build(mus, cp), 256, seed)[0]
                              - internal_energy_mc(build(mus, cm), 256, seed)[0]
                              ) / (2 * h)
                        assert abs(fd - gl[i, r, c]) <= 5e-2 * max(1.0, abs(fd))

    def test_weight_gradient_unbiased_at_truth(self):
        # responsibilities average to the weights when sampling from the model
        g = LabeledGMM([0.3, 0.7], [[0.0], [8.0]], [[[1.0]], [[1.0]]])
        _, _, _, gw = internal_energy_mc(g, 200_000, seed=3)
        assert np.max(np.abs(gw)) <= 5e-3


class TestFunctionalSpec:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            FunctionalSpec(entropy_weight=-0.1)

    def test_target_weight_needs_measure(self):
        with pytest.raises(ValueError):
            FunctionalSpec(target_weight=1.0)

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError):
            FunctionalSpec(repulsion_metric="manhattan")

    def test_with_mask(self):
        spec = FunctionalSpec(entropy_weight=1.0, repulsion_weight=2.0,
                              target_weight=0.5,
                              target_measure=EmpiricalMeasure(np.zeros((1, 1))))
        b_only = spec.with_mask(False, False)
        assert not b_only.any_active
        v_only = spec.with_mask(True, False)
        assert v_only.target_weight == 0.5 and v_only.repulsion_weight == 0.0
        u_only = spec.with_mask(False, True)
        assert u_only.repulsion_weight == 2.0 and u_only.target_weight == 0.0


HALF = BarycentricCoordinates.uniform(2)
FLOW_CONFIGS = {
    "empirical": lambda **kw: EmpiricalFlowConfig(8, 8, 1, HALF, **kw),
    "gmm": lambda **kw: GmmFlowConfig(1, 1, HALF, **kw),
}


def labeled_measure(n_classes):
    return EmpiricalMeasure.from_hard_labels(
        np.arange(6.0)[:, None], np.arange(6) % n_classes, n_classes)


def labeled_gmm(n_classes):
    return LabeledGMM(np.full(n_classes, 1.0 / n_classes),
                      np.arange(n_classes, dtype=float)[:, None],
                      np.ones((n_classes, 1, 1)), nu=np.eye(n_classes))


def labeled_batch(n_classes):
    labels = one_hot(np.arange(4) % n_classes, n_classes)
    return MiniBatch(np.zeros((4, 1)), labels)


UNLABELED = [EmpiricalMeasure(np.zeros((3, 1))),
             LabeledGMM([1.0], [[0.0]], [[[1.0]]]),
             MiniBatch(np.zeros((4, 1)))]


@pytest.mark.parametrize("flow", sorted(FLOW_CONFIGS))
class TestCheckInputs:
    """One check of a flow's inputs for either flow config; the class count
    is read from a batch, a measure or a mixture alike."""

    @pytest.mark.parametrize("inputs", [
        [labeled_measure(2), labeled_gmm(3)],
        [labeled_batch(3), labeled_measure(2)],
    ])
    def test_class_counts_differ(self, flow, inputs):
        with pytest.raises(ValueError, match="one class count"):
            check_inputs(inputs, FLOW_CONFIGS[flow]())

    @pytest.mark.parametrize("inputs", [UNLABELED[:2], UNLABELED[1:]])
    def test_label_weight_needs_labels(self, flow, inputs):
        cfg = FLOW_CONFIGS[flow](label_weight=1.0)
        check_inputs(inputs, FLOW_CONFIGS[flow]())
        with pytest.raises(ValueError, match="act on labels"):
            check_inputs(inputs, cfg)

    def test_labeled_inputs_pass(self, flow):
        cfg = FLOW_CONFIGS[flow](
            label_weight=1.0, functional=FunctionalSpec(entropy_weight=0.1))
        check_inputs([labeled_batch(2), labeled_gmm(2)], cfg)
        with pytest.raises(ValueError, match="one input per"):
            check_inputs([labeled_measure(2)], cfg)
