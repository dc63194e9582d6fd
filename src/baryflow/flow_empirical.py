"""Mini-batch particle gradient flow for (labeled) empirical barycenters.

Each step solves one transport plan per input batch at the current particles
(block-coordinate descent: plans at fixed particles, then a gradient step on
particles and label logits). The exposed step size is the fixed-point
interpolation coefficient alpha' in (0, 1]; the raw Euclidean step is derived
internally as alpha' * n / 2, so that with zero energies and full batches one
step reproduces the classical update
z <- (1 - alpha') z + alpha' sum_k lambda_k T_k(z) exactly.

The measure is the flow's state. ``flow_step(measure, batches, cfg, it)``
returns the moved measure and the trace record of step ``it``, and
``run_flow`` owns the trace: it starts it with entry 0, the initialization
evaluated on the first batches, and appends entry t, the post-step measure
evaluated on the batches used in step t, for t = 1..n_iter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ot
from .functionals import (
    FunctionalSpec,
    _label_energies,
    check_inputs,
    target_potential,
)
from .functionals import hinge_repulsion  # noqa: F401  (bench/tests trace it here)
from .gaussian import LabeledGMM, sample_reparam
from .measures import (
    BarycentricCoordinates,
    EmpiricalMeasure,
    MiniBatch,
    logits_from_probs,
    one_hot,
    softmax,
)

__all__ = [
    "EmpiricalFlowConfig",
    "TraceRecord",
    "flow_step",
    "run_flow",
    "fixed_point_baseline",
    "EmpiricalSampler",
    "FullBatchSampler",
    "GaussianSampler",
    "GmmSampler",
]

INIT_MODES = ("gaussian", "subsample")
LABEL_INIT_MODES = ("uniform", "random")
SOLVERS = ("exact", "entropic")


@dataclass(frozen=True)
class TraceRecord:
    """Objective decomposition at one iterate.

    ``b_hat`` is the mini-batch barycenter objective, ``v``/``u``/``g`` the
    weighted potential, interaction, and internal energies, ``f`` their sum.
    """

    iter: int
    b_hat: float
    v: float
    u: float
    g: float
    f: float
    param_norm: float


@dataclass(frozen=True)
class EmpiricalFlowConfig:
    n_particles: int
    batch_size: int
    n_iter: int
    coordinates: BarycentricCoordinates
    step_size: float = 0.5
    label_weight: float = 0.0
    functional: FunctionalSpec = field(default_factory=FunctionalSpec)
    init: str = "gaussian"
    label_init: str = "uniform"
    seed: int = 0
    solver: str = "exact"

    def __post_init__(self):
        if self.n_particles < 1 or self.batch_size < 1 or self.n_iter < 0:
            raise ValueError("n_particles, batch_size >= 1 and n_iter >= 0 required")
        if not 0.0 < self.step_size <= 1.0:
            raise ValueError("step_size is the interpolation coefficient in (0, 1]")
        if not (np.isfinite(self.label_weight) and self.label_weight >= 0):
            raise ValueError("label_weight must be finite and >= 0")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")
        if self.label_init not in LABEL_INIT_MODES:
            raise ValueError(f"label_init must be one of {LABEL_INIT_MODES}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        if self.functional.internal_weight > 0:
            raise ValueError("the empirical flow has no internal energy; "
                             "functional.internal_weight must be 0")


# ---------------------------------------------------------------------------
# samplers: anything with .sample(m, rng) -> MiniBatch drives run_flow

def _one_hot_labels(measure: EmpiricalMeasure) -> np.ndarray | None:
    """A measure's hard labels one-hot, (n, C), or None when it is
    unlabeled; the samplers decode them once, when built."""
    if measure.label_logits is None:
        return None
    return one_hot(measure.hard_labels(), measure.n_classes)


class EmpiricalSampler:
    """I.i.d. draws (with replacement) from a fixed empirical measure."""

    def __init__(self, measure):
        self.measure = measure
        self._labels = _one_hot_labels(measure)

    def sample(self, m: int, rng: np.random.Generator) -> MiniBatch:
        meas = self.measure
        idx = rng.choice(meas.n, size=m, p=meas.weights)
        labels = None if self._labels is None else self._labels[idx]
        return MiniBatch(meas.points[idx], labels)


class FullBatchSampler:
    """Returns the complete dataset on every call (ignores m)."""

    def __init__(self, measure):
        self.measure = measure
        self._batch = MiniBatch(measure.points, _one_hot_labels(measure))

    def sample(self, m: int, rng: np.random.Generator) -> MiniBatch:
        return self._batch


class GaussianSampler:
    """Unlabeled Gaussian generator N(mean, diag(std)^2)."""

    def __init__(self, mean, std):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.std = np.broadcast_to(
            np.asarray(std, dtype=float), self.mean.shape).copy()

    def sample(self, m: int, rng: np.random.Generator) -> MiniBatch:
        eps = rng.standard_normal((m, self.mean.shape[0]))
        return MiniBatch(self.mean + eps * self.std)


class GmmSampler:
    """Reparametrized draws from a mixture; labels from component nu rows."""

    def __init__(self, gmm: LabeledGMM):
        self.gmm = gmm

    def sample(self, m: int, rng: np.random.Generator) -> MiniBatch:
        pts, idx, _ = sample_reparam(self.gmm, m, rng)
        labels = None
        if self.gmm.nu is not None:
            hard = np.argmax(self.gmm.nu, axis=1)[idx]
            labels = one_hot(hard, self.gmm.n_classes)
        return MiniBatch(pts, labels)


# ---------------------------------------------------------------------------

def _solve_plans(points, soft_labels, batches, cfg: EmpiricalFlowConfig):
    """One uniform-marginal plan per batch at fixed particles, as a list of
    (plan, cost) pairs by ``ot.solve_points`` with the config's solver,
    which picks the path; labels enter the cost when label_weight > 0."""
    return [ot.solve_points(points, batch.points, solver=cfg.solver,
                            labels_x=soft_labels, labels_y=batch.labels,
                            beta=cfg.label_weight)
            for batch in batches]


def _lam_map(lam, results, targets):
    """sum_k lam_k T_k(targets_k): the coordinate-weighted barycentric maps
    of the plans in ``results``."""
    return sum(l * ot.barycentric_map(plan, y)
               for l, (plan, _), y in zip(lam, results, targets))


def _plans_and_energies(measure, batches, cfg: EmpiricalFlowConfig):
    """Plans and weighted energies at fixed particles: the first half of a
    step, and the whole of trace entry 0.

    Returns (logits, soft labels, plans, (v, u, particle gradient, logit
    gradient, target plan)); the target plan lets a step re-cost the target
    potential at the moved particles without a second solve.
    """
    logits = measure.label_logits
    soft = None if logits is None else softmax(logits)
    x = measure.points
    results = _solve_plans(x, soft, batches, cfg)
    spec = cfg.functional
    v, u, g_pts, g_log = _label_energies(x, logits, spec)
    target_plan = None
    if spec.target_weight > 0:
        tv, tg, target_plan = target_potential(EmpiricalMeasure(x), spec.target_measure)
        v += spec.target_weight * tv
        g_pts = g_pts + spec.target_weight * tg
    return logits, soft, results, (v, u, g_pts, g_log, target_plan)


def _record(it: int, b_hat, v: float, u: float, points) -> TraceRecord:
    return TraceRecord(it, float(b_hat), v, u, 0.0, float(b_hat + v + u),
                       float(np.linalg.norm(points)))


def _evaluate(measure, batches, cfg, it: int) -> TraceRecord:
    """Objective at a measure with freshly solved plans (trace entry 0)."""
    _, _, results, (v, u, *_) = _plans_and_energies(measure, batches, cfg)
    b_hat = sum(l * c for l, (_, c) in zip(cfg.coordinates.lam, results))
    return _record(it, b_hat, v, u, measure.points)


def flow_step(measure: EmpiricalMeasure, batches, cfg: EmpiricalFlowConfig,
              it: int) -> tuple[EmpiricalMeasure, TraceRecord]:
    """One block-coordinate step: plans at fixed particles, then a descent
    step on particles (and label logits).

    Returns (new measure, trace record); ``it`` is the step number, the
    index of the record in the trace (entry 0 is the initialization), and
    becomes ``record.iter``. The record holds the objective of the updated
    particles under the plans just solved, i.e. the mid-sweep value of the
    block-coordinate scheme; the next step's plan solve then improves on it.
    This keeps one plan solve per input per step. Each fixed plan is priced
    at the moved particles by ``ot.plan_cost``, in the features and, times
    label_weight, in the labels, and so is the target plan of the target
    potential: the record forms no cost matrix, and the step reads each plan
    in the form its solver gave (cells of an exact plan, the matrix of an
    entropic one) through ``ot`` alone.
    """
    check_inputs(batches, cfg)
    if cfg.label_weight > 0 and measure.label_logits is None:
        raise ValueError("label_weight > 0 requires a labeled measure")
    x = measure.points
    n = x.shape[0]
    lam = cfg.coordinates.lam
    beta = cfg.label_weight
    spec = cfg.functional
    logits, soft, results, (_, _, e_gx, e_glog, target_plan) = \
        _plans_and_energies(measure, batches, cfg)

    grad_x = (2.0 / n) * (x - _lam_map(lam, results, [b.points for b in batches]))
    raw_step = cfg.step_size * n / 2.0
    x_new = x - raw_step * (grad_x + e_gx)
    logits_new = None
    if logits is not None:
        grad_logits = np.zeros_like(logits)
        if beta > 0:
            resid = soft - _lam_map(lam, results, [b.labels for b in batches])
            # softmax chain rule J v = y * v - y (y . v), row-wise
            grad_logits = (2.0 * beta / n) * (
                soft * resid - soft * (soft * resid).sum(axis=1, keepdims=True))
        logits_new = logits - raw_step * (grad_logits + e_glog)
    new_measure = EmpiricalMeasure(x_new, measure.weights, logits_new)

    # objective at the new particles under the plans of this step
    soft_new = None if logits_new is None else softmax(logits_new)
    b_hat = 0.0
    for l, (plan, _), batch in zip(lam, results, batches):
        price = ot.plan_cost(plan, x_new, batch.points)
        if beta > 0:
            price += beta * ot.plan_cost(plan, soft_new, batch.labels)
        b_hat += l * price
    v, u, _, _ = _label_energies(x_new, logits_new, spec)
    if target_plan is not None:
        v += spec.target_weight * ot.plan_cost(
            target_plan, x_new, spec.target_measure.points)
    return new_measure, _record(it, b_hat, v, u, x_new)


def _initial_measure(init_batches, cfg, rng):
    pts = init_batches[0].points
    # all batches are labeled with one class count, or none is
    n_classes = init_batches[0].n_classes
    n, d = cfg.n_particles, pts.shape[1]

    if cfg.init == "gaussian":
        std = pts.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        x0 = rng.standard_normal((n, d)) * std
        logits0 = None if n_classes is None else _init_logits(n, n_classes, cfg, rng)
        return EmpiricalMeasure(x0, label_logits=logits0)
    # subsample: pool the first batches pro rata the coordinates
    pool_pts = np.vstack([b.points for b in init_batches])
    if n_classes is None:
        idx = rng.choice(pool_pts.shape[0], size=n, replace=pool_pts.shape[0] < n)
        return EmpiricalMeasure(pool_pts[idx])
    pool_lab = np.vstack([b.labels for b in init_batches])
    idx = _stratified_choice(pool_lab.argmax(axis=1), n, rng)
    # moderately sharp logits: decisive in the joint cost, but with enough
    # softmax slope left that the flow can still relabel particles
    return EmpiricalMeasure(pool_pts[idx], label_logits=logits_from_probs(
        pool_lab[idx], eps=0.02))


def _stratified_choice(hard_labels, n, rng):
    """Subsample indices with class counts proportional to the pool's
    (largest-remainder rounding), so initial label masses track the data."""
    classes, counts = np.unique(hard_labels, return_counts=True)
    quota = counts * n / counts.sum()
    take = np.floor(quota).astype(int)
    rem = n - take.sum()
    if rem > 0:
        order = np.argsort(-(quota - take))
        take[order[:rem]] += 1
    picked = []
    for cls, k in zip(classes, take):
        pool = np.flatnonzero(hard_labels == cls)
        if k > 0:
            picked.append(rng.choice(pool, size=k, replace=pool.shape[0] < k))
    idx = np.concatenate(picked) if picked else np.arange(n)
    return np.sort(idx)


def _init_logits(n, n_classes, cfg, rng):
    if cfg.label_init == "uniform":
        return np.zeros((n, n_classes))
    return 0.01 * rng.standard_normal((n, n_classes))


def run_flow(inputs, cfg: EmpiricalFlowConfig):
    """Run the full mini-batch flow; returns (final measure, trace).

    ``inputs`` are samplers exposing sample(m, rng) -> MiniBatch (datasets
    wrapped in EmpiricalSampler, generators, or GmmSampler). The trace has
    n_iter + 1 records: entry 0 evaluates the initial measure on the first
    batches, and entry t is the record of ``flow_step(..., it=t)``.
    Deterministic for a fixed config seed.
    """
    rng = np.random.default_rng(cfg.seed)
    init_batches = [inp.sample(cfg.batch_size, rng) for inp in inputs]
    check_inputs(init_batches, cfg)
    measure = _initial_measure(init_batches, cfg, rng)
    trace = [_evaluate(measure, init_batches, cfg, 0)]
    for it in range(1, cfg.n_iter + 1):
        batches = [inp.sample(cfg.batch_size, rng) for inp in inputs]
        measure, record = flow_step(measure, batches, cfg, it)
        trace.append(record)
    return measure, trace


def fixed_point_baseline(datasets, cfg: EmpiricalFlowConfig):
    """Full-batch fixed-point iterations (the classical discrete updates).

    Particles interpolate toward the coordinate-weighted barycentric maps,
    with cfg.step_size as the interpolation coefficient, and label
    probability vectors are propagated through the same plans. No energy
    applies, so ``cfg.functional`` must have no positive weight. Every
    iteration uses the full datasets, so ``cfg.batch_size`` is not read.
    """
    a = cfg.step_size
    if cfg.functional.any_active:
        raise ValueError("the fixed-point baseline applies no energy; "
                         "cfg.functional must have no positive weight")
    check_inputs(datasets, cfg)
    rng = np.random.default_rng(cfg.seed)
    full_batches = [FullBatchSampler(ds).sample(0, rng) for ds in datasets]
    measure = _initial_measure(full_batches, cfg, rng)

    labeled = measure.label_logits is not None
    x = np.array(measure.points)
    y = softmax(measure.label_logits) if labeled else None
    lam = cfg.coordinates.lam

    for _ in range(cfg.n_iter):
        results = _solve_plans(x, y, full_batches, cfg)
        x = (1.0 - a) * x + a * _lam_map(
            lam, results, [b.points for b in full_batches])
        if labeled:
            y = (1.0 - a) * y + a * _lam_map(
                lam, results, [b.labels for b in full_batches])

    return EmpiricalMeasure(x, measure.weights,
                            logits_from_probs(y) if labeled else None)
