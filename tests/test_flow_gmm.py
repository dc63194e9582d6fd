import warnings

import numpy as np
import pytest

from baryflow import ot
from baryflow.flow_gmm import GmmFlowConfig, run_gmm_flow
from baryflow.functionals import FunctionalSpec, hinge_repulsion
from baryflow.gaussian import (
    LabeledGMM,
    fixed_point_gaussian_barycenter,
    mw2_cost_matrix,
    mw2_fixed_plan_value_grad,
    mw2_sq,
)
from baryflow.measures import BarycentricCoordinates, EmpiricalMeasure

from conftest import bures_w2_sq_cov, random_pd_component

UNIT = BarycentricCoordinates.uniform(1)
HALF = BarycentricCoordinates.uniform(2)


def single(mu, cov):
    return LabeledGMM([1.0], [mu],
                      np.linalg.cholesky(np.asarray(cov, dtype=float))[None])


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GmmFlowConfig(0, 10, UNIT)
        with pytest.raises(ValueError):
            GmmFlowConfig(1, 10, UNIT, step_size=0.0)
        with pytest.raises(ValueError):
            GmmFlowConfig(1, 10, UNIT, init_mode="warm")

    @pytest.mark.parametrize("key, value", [
        ("step_size", np.nan), ("step_size", np.inf), ("step_size", -0.1),
        ("label_weight", np.nan), ("label_weight", np.inf),
        ("label_weight", -1.0)])
    def test_rejects_non_finite_settings(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            GmmFlowConfig(1, 10, UNIT, **{key: value})

    def test_em_init_needs_a_draw_per_component(self):
        with pytest.raises(ValueError, match="fits 600 components to "
                           "init_samples 256 x 2 inputs = 512 draws"):
            GmmFlowConfig(600, 1, HALF)
        GmmFlowConfig(600, 1, HALF, init_samples=300)
        GmmFlowConfig(600, 1, HALF, init_mode="random")

    def test_per_class_split(self):
        assert GmmFlowConfig(8, 1, HALF).per_class(4) == 2
        assert GmmFlowConfig(5, 1, HALF).per_class(4) == 1
        with pytest.raises(ValueError, match="n_components 3 is below the "
                           "class count 4"):
            GmmFlowConfig(3, 1, HALF).per_class(4)


class TestFixedPointGaussianBarycenter:
    @staticmethod
    def cov(out):
        return out.chols[0] @ out.chols[0].T

    def test_identical_inputs(self):
        mu, chol = random_pd_component(np.random.default_rng(0), 3)
        out = fixed_point_gaussian_barycenter([mu] * 3, [chol] * 3)
        assert np.allclose(out.means[0], mu)
        assert np.max(np.abs(self.cov(out) - chol @ chol.T)) <= 1e-10

    def test_1d_averages_std(self):
        out = fixed_point_gaussian_barycenter([[0.0], [4.0]], [[[1.0]], [[3.0]]])
        assert np.allclose(out.means[0], [2.0])
        assert abs(out.chols[0, 0, 0] - 2.0) <= 1e-10

    def test_commuting_diagonal_case(self):
        out = fixed_point_gaussian_barycenter(
            [[0.0, 0.0], [2.0, 2.0]],
            np.linalg.cholesky([np.diag([1.0, 4.0]), np.diag([9.0, 1.0])]))
        # commuting covariances: barycenter stds are the averaged stds
        expected = np.diag([((1 + 3) / 2) ** 2, ((2 + 1) / 2) ** 2])
        assert np.max(np.abs(self.cov(out) - expected)) <= 1e-9

    def test_weighted(self):
        out = fixed_point_gaussian_barycenter([[0.0], [10.0]], [[[1.0]], [[1.0]]],
                                              lam=[0.9, 0.1])
        assert np.allclose(out.means[0], [1.0])

    def test_non_convergence_reported(self):
        with pytest.raises(ot.ConvergenceError):
            fixed_point_gaussian_barycenter([[0.0], [4.0]], [[[1.0]], [[3.0]]],
                                            tol=0.0, max_iter=3)

    def test_singular_iterate_reported(self):
        # both inputs, and so the first iterate, have a variance ratio 1e-30
        chols = [np.diag([1.0, 1e-15]), np.diag([2.0, 1e-15])]
        with pytest.raises(ot.ConvergenceError, match="became singular"):
            fixed_point_gaussian_barycenter(np.zeros((2, 2)), chols)

    @pytest.mark.parametrize("means, chols, lam, match", [
        (np.zeros((2, 1)), np.stack([np.eye(2)] * 2), None,
         r"chols must be \(2, 1, 1\)"),
        (np.zeros((2, 2)), [[[1.0, 0.5], [0.0, 1.0]], np.eye(2)], None,
         "lower-triangular"),
        (np.zeros((2, 1)), np.ones((2, 1, 1)), [1.0],
         "one coordinate per Gaussian"),
    ], ids=["shape", "upper-triangular", "lam-length"])
    def test_rejects_bad_inputs(self, means, chols, lam, match):
        with pytest.raises(ValueError, match=match):
            fixed_point_gaussian_barycenter(means, chols, lam=lam)


class TestEnvelopeGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(10):
            k, m, d, c = 2, 3, 2, 2
            state = LabeledGMM(
                rng.dirichlet(np.ones(k)),
                *zip(*(random_pd_component(rng, d) for _ in range(k))),
                nu=rng.dirichlet(np.ones(c), size=k))
            other = LabeledGMM(
                rng.dirichlet(np.ones(m)),
                *zip(*(random_pd_component(rng, d) for _ in range(m))),
                nu=rng.dirichlet(np.ones(c), size=m))
            beta = 1.3
            _, plan = mw2_sq(state, other, beta=beta)
            omega = plan.coupling

            def objective(mus, chols, nu):
                # evaluated directly so nu can be perturbed off the simplex,
                # and in the covariance form, independent of the Bures kernel
                val = 0.0
                for i in range(k):
                    for j in range(m):
                        if omega[i, j] == 0.0:
                            continue
                        val += omega[i, j] * (
                            bures_w2_sq_cov(mus[i], chols[i] @ chols[i].T,
                                            other.means[j],
                                            other.chols[j] @ other.chols[j].T)
                            + beta * ((nu[i] - other.nu[j]) ** 2).sum())
                return val

            mus, chols, nu = state.means, state.chols, np.array(state.nu)
            _, gm, gl, gn = mw2_fixed_plan_value_grad(state, other, plan, beta)
            for i in range(k):
                for j in range(d):
                    e = np.zeros((k, d))
                    e[i, j] = h
                    fd = (objective(mus + e, chols, nu)
                          - objective(mus - e, chols, nu)) / (2 * h)
                    assert abs(fd - gm[i, j]) <= 1e-4 * max(1.0, abs(fd))
                for r in range(d):
                    for cc in range(r + 1):
                        e = np.zeros((k, d, d))
                        e[i, r, cc] = h
                        fd = (objective(mus, chols + e, nu)
                              - objective(mus, chols - e, nu)) / (2 * h)
                        assert abs(fd - gl[i, r, cc]) <= 1e-4 * max(1.0, abs(fd))
                for cc in range(c):
                    e = np.zeros((k, c))
                    e[i, cc] = h
                    fd = (objective(mus, chols, nu + e)
                          - objective(mus, chols, nu - e)) / (2 * h)
                    assert abs(fd - gn[i, cc]) <= 1e-4 * max(1.0, abs(fd))


class TestGmmFlowStep:
    def test_fixed_point_state_equals_input(self):
        rng = np.random.default_rng(2)
        state = LabeledGMM([0.5, 0.5], *zip(random_pd_component(rng, 2),
                                            random_pd_component(rng, 2)))
        cfg = GmmFlowConfig(2, 1, UNIT, step_size=0.2, seed=0)
        new, _ = run_gmm_flow([state], cfg, init=state)
        assert np.max(np.abs(new.means - state.means)) <= 1e-9
        assert np.max(np.abs(new.chols - state.chols)) <= 1e-8

    def test_1d_two_gaussians(self):
        q1 = single([0.0], [[1.0]])
        q2 = single([4.0], [[1.0]])
        cfg = GmmFlowConfig(1, 800, HALF, step_size=0.1, seed=0)
        init = single([1.0], [[0.25]])
        final, _ = run_gmm_flow([q1, q2], cfg, init=init)
        mu = final.means[0, 0]
        sigma = final.chols[0, 0, 0]
        assert 1.95 <= mu <= 2.05
        assert 0.95 <= sigma <= 1.05

    def test_diag_only_keeps_off_diagonal_zero(self):
        # the correlated input pulls the off-diagonal entries negative before
        # they are zeroed, which must not leave -0.0 behind
        q1 = single([0.0, 0.0], np.diag([1.0, 2.0]))
        cfg = GmmFlowConfig(1, 50, HALF, step_size=0.1, diag_only=True, seed=0)
        for cov2 in (np.diag([2.0, 0.5]), [[2.0, -0.6], [-0.6, 0.5]]):
            final, _ = run_gmm_flow([q1, single([2.0, 1.0], cov2)], cfg)
            off = final.chols[:, ~np.eye(2, dtype=bool)]
            assert np.all(off == 0.0)
            assert not np.any(np.signbit(off))

    def test_diag_only_matches_interpolation_update(self):
        # axis-aligned case: one raw gradient step with size a equals the
        # classical interpolation with coefficient 2 a pi_i per component
        rng = np.random.default_rng(3)
        k = 2
        state = LabeledGMM(
            [0.5, 0.5],
            *zip(*((rng.standard_normal(2), np.diag(rng.uniform(0.5, 2.0, 2)))
                   for _ in range(k))))
        q = LabeledGMM(
            [0.5, 0.5],
            *zip(*((rng.standard_normal(2) + 1.0,
                    np.diag(rng.uniform(0.5, 2.0, 2))) for _ in range(k))))
        alpha = 0.05
        cfg = GmmFlowConfig(k, 1, UNIT, step_size=alpha, diag_only=True, seed=0)
        new, _ = run_gmm_flow([q], cfg, init=state)

        cost = mw2_cost_matrix(state, q)
        plan, _ = ot.solve_exact(state.weights, q.weights, cost)
        omega = plan.coupling
        for i, (mu, chol) in enumerate(zip(state.means, state.chols)):
            pi = state.weights[i]
            t_mu = (omega[i] @ q.means) / pi
            t_sd = (omega[i] @ np.stack([np.diag(c) for c in q.chols])) / pi
            a_eff = 2 * alpha * pi
            exp_mu = (1 - a_eff) * mu + a_eff * t_mu
            exp_sd = (1 - a_eff) * np.diag(chol) + a_eff * t_sd
            assert np.max(np.abs(new.means[i] - exp_mu)) <= 1e-6
            assert np.max(np.abs(np.diag(new.chols[i]) - exp_sd)) <= 1e-6

    def test_chol_clamp_warns_never_crashes(self):
        # gradient toward a near-degenerate input overshoots the diagonal
        q1 = single([0.0], [[1e-6]])
        state = single([0.0], [[1.0]])
        cfg = GmmFlowConfig(1, 1, UNIT, step_size=5.0, seed=0)
        with pytest.warns(RuntimeWarning):
            new, _ = run_gmm_flow([q1], cfg, init=state)
        assert new.chols[0, 0, 0] >= 1e-6

    def test_no_clamp_at_small_scale(self):
        # the clamp floor is relative: diagonals that converge below 1e-6
        # are not lifted
        q1 = LabeledGMM([0.5, 0.5], [[0.0], [1e-5]], [[[5e-7]], [[5e-7]]])
        q2 = LabeledGMM([0.5, 0.5], [[1e-6], [1.1e-5]], [[[6e-7]], [[4e-7]]])
        cfg = GmmFlowConfig(2, 20, HALF, seed=0, init_samples=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            final, _ = run_gmm_flow([q1, q2], cfg)
        assert 0.0 < final.chols.min() < 1e-6


class TestRunGmmFlow:
    def test_objective_non_increasing_small_step(self):
        rng = np.random.default_rng(4)
        q1 = LabeledGMM([0.5, 0.5], *zip(random_pd_component(rng, 2),
                                         random_pd_component(rng, 2)))
        q2 = LabeledGMM([0.5, 0.5], *zip(random_pd_component(rng, 2),
                                         random_pd_component(rng, 2)))
        cfg = GmmFlowConfig(2, 60, HALF, step_size=0.02, seed=0)
        _, trace = run_gmm_flow([q1, q2], cfg)
        b = np.array([r.b_hat for r in trace])
        assert np.all(np.diff(b) <= 1e-8)

    def test_label_bijection_with_large_beta(self):
        rng = np.random.default_rng(5)
        def labeled_input(seed):
            r = np.random.default_rng(seed)
            means = [r.standard_normal(2) + 4 * i for i in range(3)]
            return LabeledGMM(np.full(3, 1 / 3), means, [0.5 * np.eye(2)] * 3,
                              nu=np.eye(3))
        inputs = [labeled_input(0), labeled_input(1)]
        cfg = GmmFlowConfig(3, 150, HALF, step_size=0.05, label_weight=50.0,
                            seed=0)
        final, _ = run_gmm_flow([*inputs], cfg)
        hard = np.argmax(final.nu, axis=1)
        assert sorted(hard.tolist()) == [0, 1, 2]

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        q1 = LabeledGMM([1.0], *zip(random_pd_component(rng, 2)))
        q2 = LabeledGMM([1.0], *zip(random_pd_component(rng, 2)))
        cfg = GmmFlowConfig(1, 20, HALF, step_size=0.1, seed=9)
        f1, t1 = run_gmm_flow([q1, q2], cfg)
        f2, t2 = run_gmm_flow([q1, q2], cfg)
        assert np.array_equal(f1.means, f2.means)
        assert t1 == t2

    def test_permutation_symmetry_with_explicit_init(self):
        rng = np.random.default_rng(7)
        q1 = LabeledGMM([1.0], *zip(random_pd_component(rng, 2)))
        q2 = LabeledGMM([1.0], *zip(random_pd_component(rng, 2)))
        init = LabeledGMM([1.0], *zip(random_pd_component(rng, 2)))
        lam = BarycentricCoordinates([0.3, 0.7])
        lam_rev = BarycentricCoordinates([0.7, 0.3])
        cfg = GmmFlowConfig(1, 40, lam, step_size=0.1, seed=0)
        cfg_rev = GmmFlowConfig(1, 40, lam_rev, step_size=0.1, seed=0)
        f1, _ = run_gmm_flow([q1, q2], cfg, init=init)
        f2, _ = run_gmm_flow([q2, q1], cfg_rev, init=init)
        assert np.max(np.abs(f1.means - f2.means)) <= 1e-9
        assert np.max(np.abs(f1.chols - f2.chols)) <= 1e-9

    def test_flow_weights_mode(self):
        rng = np.random.default_rng(8)
        state = LabeledGMM([0.5, 0.5], *zip(random_pd_component(rng, 2),
                                            random_pd_component(rng, 2)))
        q = LabeledGMM([0.8, 0.2], *zip(random_pd_component(rng, 2),
                                        random_pd_component(rng, 2)))
        cfg = GmmFlowConfig(2, 30, UNIT, step_size=0.05, flow_weights=True,
                            seed=0)
        final, _ = run_gmm_flow([q], cfg, init=state)
        assert abs(final.weights.sum() - 1.0) <= 1e-12
        assert not np.allclose(final.weights, [0.5, 0.5])


class TestTraceComposition:
    def test_last_entry_from_public_functions(self):
        rng = np.random.default_rng(7)

        def labeled_input(shift):
            means, chols = zip(*(random_pd_component(rng, 2) for _ in range(2)))
            return LabeledGMM([0.4, 0.6], np.array(means) + shift, chols,
                              nu=np.eye(2))

        inputs = [labeled_input(0.0), labeled_input(3.0)]
        spec = FunctionalSpec(
            entropy_weight=0.1, repulsion_weight=0.1, repulsion_margin=5.0,
            target_weight=0.1,
            target_measure=EmpiricalMeasure(rng.standard_normal((16, 2)) + 1.5),
            internal_weight=0.05)
        cfg = GmmFlowConfig(2, 4, HALF, step_size=0.05, label_weight=1.0,
                            mc_samples=32, functional=spec, seed=2)
        state, trace = run_gmm_flow(inputs, cfg)

        # the last entry: the final state with freshly solved couplings
        b_hat = 0.0
        for lam, q in zip(HALF.lam, inputs):
            cost = mw2_cost_matrix(state, q, beta=1.0)
            b_hat += lam * ot.solve_exact(state.weights, q.weights, cost)[1]
        u = 0.1 * hinge_repulsion(state.means, np.argmax(state.nu, axis=1),
                                  5.0)[0]
        norm = np.sqrt((state.means ** 2).sum() + (state.chols ** 2).sum())
        last = trace[-1]
        assert last.iter == 4 and u > 0 and last.g != 0.0
        np.testing.assert_allclose([last.b_hat, last.u, last.param_norm],
                                   [b_hat, u, norm], rtol=1e-12)
        assert last.f == pytest.approx(last.b_hat + last.v + last.u + last.g,
                                       rel=1e-12)


class TestLabelChecks:
    """Inputs are all labeled with one class count, or all unlabeled; the
    flow rejects anything else before it solves a coupling."""

    @pytest.fixture(autouse=True)
    def no_solves(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a coupling was solved before the label check")
        monkeypatch.setattr(ot, "solve_exact", fail)

    @staticmethod
    def labeled(n_classes):
        return LabeledGMM(np.full(n_classes, 1.0 / n_classes),
                          np.arange(n_classes, dtype=float)[:, None],
                          np.ones((n_classes, 1, 1)), nu=np.eye(n_classes))

    def test_labeled_and_unlabeled_rejected(self):
        cfg = GmmFlowConfig(2, 3, HALF)
        with pytest.raises(ValueError, match="all labeled or all unlabeled"):
            run_gmm_flow([single([0.0], [[1.0]]), self.labeled(2)], cfg)

    def test_class_counts_differ_rejected(self):
        cfg = GmmFlowConfig(2, 3, HALF)
        with pytest.raises(ValueError, match="one class count"):
            run_gmm_flow([self.labeled(2), self.labeled(3)], cfg)

    @pytest.mark.parametrize("run", [
        lambda inputs, cfg, init: run_gmm_flow(inputs, cfg, init=init),
    ], ids=["run_gmm_flow"])
    @pytest.mark.parametrize("init_classes, input_classes, label_weight", [
        (2, 3, 1.0), (None, 3, 1.0), (2, None, 0.0)],
        ids=["2-of-3", "unlabeled-of-3", "2-of-unlabeled"])
    def test_state_class_count_differs_rejected(self, run, init_classes,
                                                input_classes, label_weight):
        # the state of run_gmm_flow(init=...) gets the inputs' label rule
        def mixture(n_classes):
            return single([0.0], [[1.0]]) if n_classes is None else \
                self.labeled(n_classes)
        cfg = GmmFlowConfig(2, 3, HALF, label_weight=label_weight)
        with pytest.raises(ValueError, match=f"class count {init_classes}, "
                                             f"the inputs {input_classes}"):
            run([mixture(input_classes)] * 2, cfg, mixture(init_classes))

    @pytest.mark.parametrize("spec", [FunctionalSpec(repulsion_weight=0.1),
                                      FunctionalSpec(entropy_weight=0.1)])
    def test_label_energy_needs_labels(self, spec):
        cfg = GmmFlowConfig(1, 3, HALF, functional=spec)
        with pytest.raises(ValueError, match="act on labels"):
            run_gmm_flow([single([0.0], [[1.0]]), single([4.0], [[1.0]])], cfg)


class TestEmInit:
    def test_em_init_respects_labels(self):
        rng = np.random.default_rng(9)
        def labeled_input(offset):
            return LabeledGMM([0.5, 0.5],
                              [[0.0 + offset, 0.0], [6.0 + offset, 0.0]],
                              [0.3 * np.eye(2)] * 2, nu=np.eye(2))
        cfg = GmmFlowConfig(2, 0, HALF, seed=0)
        final, trace = run_gmm_flow([labeled_input(0.0), labeled_input(0.5)], cfg)
        assert final.nu is not None
        assert sorted(np.argmax(final.nu, axis=1).tolist()) == [0, 1]
        assert len(trace) == 1

    def test_class_drawn_too_few_reported(self):
        # class 1 holds 5% of the mass, so 40 draws give it fewer than the
        # 5 components per class that 10 components on 2 classes need
        rare = LabeledGMM([0.95, 0.05], [[0.0], [6.0]], [[[1.0]], [[1.0]]],
                          nu=np.eye(2))
        cfg = GmmFlowConfig(10, 0, HALF, init_samples=20, seed=1)
        with pytest.raises(ValueError, match=r"drew class 1 [1-4] times in "
                           r"init_samples 20 x 2 inputs, but fits 5 "
                           r"components per class"):
            run_gmm_flow([rare, rare], cfg)

    def test_fewer_components_than_classes_rejected(self):
        labeled = LabeledGMM([0.5, 0.5], [[0.0], [6.0]], [[[1.0]], [[1.0]]],
                             nu=np.eye(2))
        with pytest.raises(ValueError, match="class count 2"):
            run_gmm_flow([labeled, labeled], GmmFlowConfig(1, 0, HALF))
