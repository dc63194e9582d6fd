"""Desk-scale MSDA evaluation and convergence diagnostics.

The adaptation pipeline: compute a labeled barycenter of the source measures,
align its support with the target features through a uniform exact plan of
``ot.solve_points`` (feature cost only, on subsamples capped at 2000 points),
push the barycenter particles through the barycentric map, train a
1-nearest-neighbor classifier on the transported labeled points, and score
it on held-out target labels. Target labels never enter the adaptation path;
they are a separate argument used only for scoring.

For flows run with label weight 0 (unlabeled barycenters) the classifier
labels are recovered afterwards by propagating the source labels through
one final set of feature-only plans, mirroring the classical discrete
label-transfer baselines.

Results are plain values (``MsdaReport``, ``ConvergenceReport``); the CLI
writes what it reports of them into its run report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import ot
from .flow_empirical import (
    EmpiricalSampler,
    fixed_point_baseline,
    run_flow,
)
from .flow_gmm import GmmFlowConfig, run_gmm_flow
from .gaussian import em_fit, sample_reparam
from .measures import EmpiricalMeasure, logits_from_probs, one_hot

__all__ = [
    "MsdaReport",
    "ConvergenceReport",
    "msda_adapt",
    "convergence_report",
    "w2_to_reference",
]

BARYCENTER_KINDS = ("empirical", "gmm", "discrete_baseline")
# Largest column support of a label-transfer or alignment plan.
PLAN_CAP = 2000
# Particles drawn from a GMM barycenter for alignment and classification.
GMM_PARTICLES = 256
# Share of a trace, at its end, that convergence_report averages as the plateau.
PLATEAU_FRAC = 0.2


@dataclass(frozen=True)
class MsdaReport:
    accuracy_source_only: float
    accuracy_adapted: float
    timings_ms: dict

    def __post_init__(self):
        for name in ("accuracy_source_only", "accuracy_adapted"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class ConvergenceReport:
    decay_rate: float
    plateau: float
    r_squared: float

    def __post_init__(self):
        if self.plateau < 0 and not np.isclose(self.plateau, 0):
            # barycenter objectives are nonnegative; a negative plateau can
            # only come from a malformed trace
            raise ValueError("plateau must be >= 0")
        if self.decay_rate < 0:
            raise ValueError("decay rate must be >= 0")


def _nn_predict(train_x, train_y, test_x):
    from scipy.spatial import cKDTree

    tree = cKDTree(np.asarray(train_x, dtype=float))
    _, idx = tree.query(np.asarray(test_x, dtype=float), k=1)
    return np.asarray(train_y)[idx]


def _subsample_for_plan(n_rows: int, n_avail: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Pick at most PLAN_CAP column support indices; trimmed to a multiple
    of n_rows when possible so the exact solver stays on its fast
    assignment path."""
    n_sub = min(n_avail, PLAN_CAP)
    if n_sub >= n_rows:
        n_sub = max(n_rows, (n_sub // n_rows) * n_rows)
    if n_sub == n_avail:
        return np.arange(n_avail)
    return rng.choice(n_avail, size=n_sub, replace=False)


def _propagate_labels(points, sources, lam, rng):
    """Soft labels for a support via one-shot OT label transfer from the
    labeled sources: one uniform exact plan per source, feature cost only,
    by ``ot.solve_points``."""
    n = points.shape[0]
    n_classes = sources[0].n_classes
    y = np.zeros((n, n_classes))
    for l, src in zip(lam, sources):
        idx = _subsample_for_plan(n, src.n, rng)
        pts = src.points[idx]
        labels = one_hot(src.hard_labels()[idx], n_classes)
        plan, _ = ot.solve_points(points, pts, solver="exact")
        y += l * ot.barycentric_map(plan, labels)
    return y


def _gmm_barycenter_particles(sources, cfg: GmmFlowConfig,
                              rng) -> EmpiricalMeasure:
    n_classes = sources[0].n_classes
    per_class = cfg.per_class(n_classes)
    fitted = [em_fit(s.points, s.hard_labels(), components_per_class=per_class,
                     seed=rng, diag=cfg.diag_only) for s in sources]
    mixture, _ = run_gmm_flow(fitted, cfg)
    pts, idx, _ = sample_reparam(mixture, GMM_PARTICLES, rng)
    hard = np.argmax(mixture.nu, axis=1)[idx]
    return EmpiricalMeasure.from_hard_labels(pts, hard, n_classes)


def msda_adapt(sources, target_features: EmpiricalMeasure, eval_labels,
               method: str, cfg) -> MsdaReport:
    """Adapt labeled sources to an unlabeled target and score a 1-NN
    classifier trained on the transported barycenter.

    ``method`` picks the barycenter: "empirical" (mini-batch flow), "gmm"
    (mixture flow, sampled to particles), or "discrete_baseline" (full-batch
    fixed point, which reads no ``cfg.batch_size``). ``cfg`` is the matching
    flow config; ``eval_labels`` are used only for the final accuracies.
    """
    if len(sources) == 0:
        raise ValueError("need at least one source measure")
    if method not in BARYCENTER_KINDS:
        raise ValueError(f"method must be one of {BARYCENTER_KINDS}")
    if target_features.label_logits is not None:
        raise ValueError("target_features must be unlabeled; target labels "
                         "enter only as eval_labels")
    eval_labels = np.asarray(eval_labels)
    if eval_labels.shape[0] != target_features.n:
        raise ValueError("eval_labels must match the target size")
    timings: dict[str, float] = {}
    rng = np.random.default_rng(cfg.seed)
    lam = cfg.coordinates.lam

    t0 = time.perf_counter()
    if method == "empirical":
        samplers = [EmpiricalSampler(s) for s in sources]
        bary, _ = run_flow(samplers, cfg)
        if cfg.label_weight == 0:
            # unlabeled flow: recover labels by one-shot OT transfer
            soft = _propagate_labels(bary.points, sources, lam, rng)
            bary = EmpiricalMeasure(bary.points, bary.weights,
                                    logits_from_probs(soft))
    elif method == "discrete_baseline":
        bary = fixed_point_baseline(sources, cfg)
    else:
        bary = _gmm_barycenter_particles(sources, cfg, rng)
    timings["barycenter_ms"] = 1e3 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    idx = _subsample_for_plan(bary.n, target_features.n, rng)
    tgt_pts = target_features.points[idx]
    plan, _ = ot.solve_points(bary.points, tgt_pts, solver="exact")
    transported = ot.barycentric_map(plan, tgt_pts)
    timings["align_ms"] = 1e3 * (time.perf_counter() - t0)

    t0 = time.perf_counter()
    hard = bary.hard_labels()
    pred_adapted = _nn_predict(transported, hard, target_features.points)
    acc_adapted = float((pred_adapted == eval_labels).mean())

    pooled_x = np.vstack([s.points for s in sources])
    pooled_y = np.concatenate([s.hard_labels() for s in sources])
    pred_source = _nn_predict(pooled_x, pooled_y, target_features.points)
    acc_source = float((pred_source == eval_labels).mean())
    timings["classify_ms"] = 1e3 * (time.perf_counter() - t0)

    return MsdaReport(
        accuracy_source_only=acc_source,
        accuracy_adapted=acc_adapted,
        timings_ms=timings,
    )


def convergence_report(trace) -> ConvergenceReport:
    """Fit the decay-plus-plateau shape of a barycenter objective trace.

    The plateau is the mean of the last PLATEAU_FRAC of the trace. The
    decay rate comes from a least-squares line on log(value - plateau) over
    the pre-plateau window: the initial contiguous segment where the
    residual still exceeds both 5% of its starting value and twice the
    plateau-block spread (so plateau noise never enters the fit).
    Residuals are clipped at 1e-12 before the log.
    """
    values = np.array([r.b_hat if hasattr(r, "b_hat") else float(r)
                       for r in trace], dtype=float)
    if values.shape[0] < 50:
        raise ValueError("trace must have at least 50 entries")
    n = values.shape[0]
    n_plateau = max(1, int(round(PLATEAU_FRAC * n)))
    plateau = float(values[-n_plateau:].mean())
    resid = np.maximum(values - plateau, 1e-12)

    threshold = max(0.05 * resid[0], 2.0 * float(values[-n_plateau:].std()),
                    1e-11)
    crossed = np.nonzero(resid < threshold)[0]
    tau_star = int(crossed[0]) if crossed.size else n - n_plateau
    window = np.arange(min(max(tau_star, 2), n - n_plateau))
    x = window.astype(float)
    y = np.log(resid[window])
    slope, intercept = np.polyfit(x, y, 1)
    fit = intercept + slope * x
    ss_res = float(((y - fit) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ConvergenceReport(
        decay_rate=max(0.0, -float(slope)),
        plateau=max(plateau, 0.0),
        r_squared=float(r_squared),
    )


def w2_to_reference(result, reference, max_points: int = 2000,
                    seed=0) -> float:
    """W2 between the feature clouds of two measures, subsampled to at most
    ``max_points`` support points each."""
    rng = np.random.default_rng(seed)
    clouds = []
    for m in (result, reference):
        pts = m.points
        if pts.shape[0] > max_points:
            pts = pts[rng.choice(pts.shape[0], size=max_points, replace=False)]
        clouds.append(EmpiricalMeasure(pts))
    return ot.w2_empirical(clouds[0], clouds[1])
