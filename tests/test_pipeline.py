import dataclasses

import numpy as np
import pytest

from baryflow.datasets import (
    AffineMap,
    DomainSpec,
    synthetic_domain_specs,
    synthetic_msda,
)
from baryflow.flow_empirical import EmpiricalFlowConfig
from baryflow.flow_gmm import GmmFlowConfig
from baryflow.measures import BarycentricCoordinates, EmpiricalMeasure
from baryflow.pipeline import (
    ConvergenceReport,
    MsdaReport,
    convergence_report,
    msda_adapt,
    w2_to_reference,
)

HALF = BarycentricCoordinates.uniform(2)


def flow_cfg(seed, beta=8.0, n_iter=100):
    return EmpiricalFlowConfig(
        n_particles=128, batch_size=64, n_iter=n_iter, coordinates=HALF,
        label_weight=beta, seed=seed, init="subsample")


class TestConvergenceReport:
    def test_recovers_synthetic_rate(self):
        tau = np.arange(400)
        trace = 2.0 + 5.0 * np.exp(-0.05 * tau)
        rep = convergence_report(trace)
        assert abs(rep.decay_rate - 0.05) <= 0.05 * 0.05
        assert abs(rep.plateau - 2.0) <= 0.01
        assert rep.r_squared >= 0.99

    def test_constant_trace(self):
        rep = convergence_report(np.full(100, 3.0))
        assert rep.decay_rate <= 1e-12
        assert rep.plateau == 3.0
        assert rep.r_squared == 1.0

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(np.ones(49))

    def test_accepts_trace_records(self):
        from baryflow.flow_empirical import TraceRecord
        recs = [TraceRecord(i, 1.0 + np.exp(-0.1 * i), 0, 0, 0, 0, 0)
                for i in range(200)]
        rep = convergence_report(recs)
        assert abs(rep.decay_rate - 0.1) <= 0.01


class TestW2ToReference:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(0)
        m = EmpiricalMeasure(rng.standard_normal((50, 2)))
        assert w2_to_reference(m, m) <= 1e-6

    def test_translation_distance(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((80, 2))
        shift = np.array([3.0, 4.0])
        a = EmpiricalMeasure(pts)
        b = EmpiricalMeasure(pts + shift)
        assert abs(w2_to_reference(a, b) - 5.0) <= 1e-9

    def test_subsampling_cap(self):
        rng = np.random.default_rng(2)
        a = EmpiricalMeasure(rng.standard_normal((500, 2)))
        b = EmpiricalMeasure(rng.standard_normal((500, 2)) + 2.0)
        val = w2_to_reference(a, b, max_points=100, seed=0)
        assert 1.0 <= val <= 3.5


class TestMsdaAdapt:
    def test_identity_task_adapted_close_to_source_only(self):
        # three identical source domains plus an identical target; sizes are
        # generous because the OT alignment carries O(1/sqrt(n)) class-mass
        # noise that a 1-NN classifier amplifies
        base = synthetic_domain_specs(n_samples=2048, class_std=0.6, seed=0)[0]
        specs = [DomainSpec(base.class_means, base.class_chols,
                            AffineMap.identity(2), 2048) for _ in range(4)]
        data = synthetic_msda(specs, seed=0)
        cfg = dataclasses.replace(
            flow_cfg(0), n_particles=512, batch_size=128, n_iter=80,
            coordinates=BarycentricCoordinates.uniform(3))
        rep = msda_adapt(data.sources, data.target_features,
                         data.target_labels, "empirical", cfg)
        assert abs(rep.accuracy_adapted - rep.accuracy_source_only) <= 0.02

    def test_rotated_task_adapted_beats_source_only(self):
        specs = synthetic_domain_specs(seed=1)
        data = synthetic_msda(specs, seed=1)
        rep = msda_adapt(data.sources, data.target_features,
                         data.target_labels, "empirical", flow_cfg(1))
        assert rep.accuracy_adapted > rep.accuracy_source_only

    def test_gmm_method(self):
        specs = synthetic_domain_specs(seed=2)
        data = synthetic_msda(specs, seed=2)
        cfg = GmmFlowConfig(n_components=3, n_iter=120, coordinates=HALF,
                            label_weight=8.0, seed=2)
        rep = msda_adapt(data.sources, data.target_features,
                         data.target_labels, "gmm", cfg)
        assert rep.accuracy_adapted > rep.accuracy_source_only

    def test_discrete_baseline_method(self):
        specs = synthetic_domain_specs(seed=3)
        data = synthetic_msda(specs, seed=3)
        cfg = flow_cfg(3, n_iter=40)
        rep = msda_adapt(data.sources, data.target_features,
                         data.target_labels, "discrete_baseline", cfg)
        assert rep.accuracy_adapted > rep.accuracy_source_only

    def test_bit_stable_given_config_and_seed(self):
        specs = synthetic_domain_specs(n_samples=128, seed=4)
        data = synthetic_msda(specs, seed=4)
        cfg = flow_cfg(4, n_iter=30)
        r1 = msda_adapt(data.sources, data.target_features,
                        data.target_labels, "empirical", cfg)
        r2 = msda_adapt(data.sources, data.target_features,
                        data.target_labels, "empirical", cfg)
        assert r1.accuracy_adapted == r2.accuracy_adapted
        assert r1.accuracy_source_only == r2.accuracy_source_only

    def test_eval_label_size_checked(self):
        specs = synthetic_domain_specs(n_samples=128, seed=5)
        data = synthetic_msda(specs, seed=5)
        with pytest.raises(ValueError):
            msda_adapt(data.sources, data.target_features,
                       data.target_labels[:-1], "empirical", flow_cfg(5))

    def test_no_sources_rejected(self):
        specs = synthetic_domain_specs(n_samples=128, seed=6)
        data = synthetic_msda(specs, seed=6)
        with pytest.raises(ValueError):
            msda_adapt([], data.target_features, data.target_labels,
                       "empirical", flow_cfg(6))

    def test_labeled_target_rejected(self):
        specs = synthetic_domain_specs(n_samples=128, seed=8)
        data = synthetic_msda(specs, seed=8)
        target = EmpiricalMeasure.from_hard_labels(
            data.target_features.points, data.target_labels, 3)
        with pytest.raises(ValueError, match="unlabeled"):
            msda_adapt(data.sources, target, data.target_labels,
                       "empirical", flow_cfg(8, n_iter=2))

    def test_unknown_method_rejected(self):
        specs = synthetic_domain_specs(n_samples=128, seed=7)
        data = synthetic_msda(specs, seed=7)
        with pytest.raises(ValueError, match="method"):
            msda_adapt(data.sources, data.target_features,
                       data.target_labels, "neural", flow_cfg(7))


class TestReports:
    def test_accuracy_bounds_enforced(self):
        with pytest.raises(ValueError):
            MsdaReport(1.2, 0.5, {})

    def test_convergence_report_validation(self):
        with pytest.raises(ValueError):
            ConvergenceReport(decay_rate=-0.1, plateau=1.0, r_squared=1.0)
