"""Gradient flow on Gaussian-mixture parameters under MW2 plus energies.

Each step solves the component coupling of the mixture distance for every
input at the current parameters, holds those couplings fixed (envelope
treatment of the inner argmin), and takes one descent step on the means,
Cholesky factors, component label logits, and optionally the weight logits.
The Bures values and gradients come from ``gaussian`` and the energies,
with the two Monte-Carlo ones on mixtures, from ``functionals``; this module
holds the flow's config, initialization and steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import ot
from .flow_empirical import TraceRecord
from .functionals import (
    FunctionalSpec,
    _label_energies,
    check_inputs,
    internal_energy_mc,
    target_potential_mc,
)
from .functionals import hinge_repulsion  # noqa: F401  (bench/tests trace it here)
from .gaussian import (
    LabeledGMM,
    em_fit,
    mw2_cost_matrix,
    mw2_fixed_plan_value_grad,
    sample_reparam,
)
from .gaussian import bures_w2_grad, bures_w2_sq  # noqa: F401  (bench/tests trace them here)
from .measures import BarycentricCoordinates, softmax

__all__ = ["GmmFlowConfig", "run_gmm_flow"]

# a step clamps Cholesky diagonals at this fraction of the largest diagonal
# of the state and the inputs, so the clamp does not depend on their units
CHOL_DIAG_FLOOR = 1e-6
GMM_INIT_MODES = ("em", "random")


@dataclass(frozen=True)
class GmmFlowConfig:
    """Settings of ``run_gmm_flow``; the CLI's ``gmm``/``flow_config`` keys.

    n_components: components of the barycenter mixture. A labeled em init
        fits ``per_class(C)`` of them to each of the C classes.
    n_iter: descent steps.
    coordinates: barycentric coordinates, one per input mixture.
    step_size: gradient step on means, factors and logits; no units.
    label_weight: beta of the component cost W2^2 + beta ||nu_i - nu_j||^2;
        units of length^2.
    mc_samples: draws per Monte-Carlo energy per step.
    functional: the energies' weights (``FunctionalSpec``).
    diag_only: keep the factors diagonal.
    flow_weights: also move the component weights.
    init_mode: "em" fits the initial mixture by EM to a pool of
        ``init_samples`` draws of each input; "random" takes
        ``n_components`` pooled draws as means, with the pool's per-axis
        spread as factors.
    init_samples: draws of each input in the initial pool.
    seed: seeds the initial pool and the Monte-Carlo draws.
    """

    n_components: int
    n_iter: int
    coordinates: BarycentricCoordinates
    step_size: float = 0.1
    label_weight: float = 0.0
    mc_samples: int = 128
    functional: FunctionalSpec = field(default_factory=FunctionalSpec)
    diag_only: bool = False
    flow_weights: bool = False
    init_mode: str = "em"
    init_samples: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.n_components < 1 or self.n_iter < 0:
            raise ValueError("n_components >= 1 and n_iter >= 0 required")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError("step_size must be finite and > 0")
        if not (np.isfinite(self.label_weight) and self.label_weight >= 0):
            raise ValueError("label_weight must be finite and >= 0")
        if self.mc_samples < 1 or self.init_samples < 1:
            raise ValueError("sample counts >= 1 required")
        if self.init_mode not in GMM_INIT_MODES:
            raise ValueError(f"init_mode must be one of {GMM_INIT_MODES}")
        # an em fit needs a draw per component
        pool = self.init_samples * len(self.coordinates)
        if self.init_mode == "em" and self.n_components > pool:
            raise ValueError(f"the em init fits {self.n_components} components "
                             f"to init_samples {self.init_samples} x "
                             f"{len(self.coordinates)} inputs = {pool} draws")

    def per_class(self, n_classes: int) -> int:
        """Components a labeled em fit gives each of ``n_classes`` classes:
        ``n_components // n_classes``; ValueError below one per class."""
        if self.n_components < n_classes:
            raise ValueError(f"n_components {self.n_components} is below the "
                             f"class count {n_classes}; a labeled fit needs "
                             f"a component per class")
        return self.n_components // n_classes


def _nu_logits(nu: np.ndarray) -> np.ndarray:
    # softmax(log nu) == nu on the simplex, so this round-trips exactly
    return np.log(np.maximum(nu, 1e-12))


def _energy_grads(state: LabeledGMM, cfg: GmmFlowConfig, rng):
    """Weighted energies of a mixture state: entropy and repulsion on the
    component labels and means, then the target potential and the internal
    energy by Monte-Carlo, drawn from ``rng`` in that order.

    Returns (v, u, g, g_mu, g_l, g_nu, g_w); the gradients update
    (mu, L, nu_logits, w_logits).
    """
    spec = cfg.functional
    k, d = state.n_components, state.dim
    nu_logits = None if state.nu is None else _nu_logits(state.nu)
    v, u, g_mu, g_nu = _label_energies(state.means, nu_logits, spec)
    g = 0.0
    g_l = np.zeros((k, d, d))
    g_w = np.zeros(k)
    if spec.target_weight > 0:
        tv, t_mu, t_l = target_potential_mc(state, spec.target_measure,
                                            cfg.mc_samples, rng)
        v += spec.target_weight * tv
        g_mu = g_mu + spec.target_weight * t_mu
        g_l = g_l + spec.target_weight * t_l
    if spec.internal_weight > 0:
        iv, im, il, iw = internal_energy_mc(state, cfg.mc_samples, rng)
        g += spec.internal_weight * iv
        g_mu = g_mu + spec.internal_weight * im
        g_l = g_l + spec.internal_weight * il
        g_w = g_w + spec.internal_weight * iw
    return v, u, g, g_mu, g_l, g_nu, g_w


def _evaluate(state: LabeledGMM, inputs, cfg: GmmFlowConfig, rng, it: int):
    """Objective at ``state`` with freshly solved component couplings.

    Returns the trace record, the (cost, plan, value) of each input, and
    the energy gradients (g_mu, g_l, g_nu, g_w).
    """
    def solve(q):
        cost = mw2_cost_matrix(state, q, beta=cfg.label_weight)
        plan, value = ot.solve_exact(state.weights, q.weights, cost)
        return cost, plan, value

    solved = [solve(q) for q in inputs]
    b_hat = 0.0
    for l, (_, _, value) in zip(cfg.coordinates.lam, solved):
        b_hat += l * value
    v, u, g, *energy_grads = _energy_grads(state, cfg, rng)
    mus, chols = state.means, state.chols
    record = TraceRecord(
        it, float(b_hat), float(v), float(u), float(g),
        float(b_hat + v + u + g),
        float(np.sqrt((mus ** 2).sum() + (chols ** 2).sum())))
    return record, solved, energy_grads


def _step(state: LabeledGMM, inputs, cfg: GmmFlowConfig, rng, it: int):
    """One descent step; returns (new state, trace record at the old state)."""
    record, solved, (e_mu, e_l, e_nu, e_w) = _evaluate(state, inputs, cfg, rng, it)
    lam = cfg.coordinates.lam
    beta = cfg.label_weight
    k, d = state.n_components, state.dim
    mus = state.means
    chols = state.chols
    nu = state.nu
    nu_logits = None if nu is None else _nu_logits(nu)

    grad_mu = np.zeros((k, d))
    grad_l = np.zeros((k, d, d))
    grad_nu_total = np.zeros_like(nu) if nu is not None else None
    grad_pi = np.zeros(k)
    for l, q, (cost, plan, _) in zip(lam, inputs, solved):
        _, gm, gl, gn = mw2_fixed_plan_value_grad(state, q, plan, beta)
        grad_mu += l * gm
        grad_l += l * gl
        if gn is not None:
            grad_nu_total += l * gn
        if cfg.flow_weights:
            # envelope by row scaling: d cost / d pi_i at fixed conditionals
            priced = plan.mass * cost[plan.rows, plan.cols]
            grad_pi += l * np.bincount(plan.rows, priced, k) / state.weights

    grad_mu += e_mu
    grad_l += e_l

    # chain the nu gradient through the softmax logits
    grad_nu_logits = None
    if nu is not None:
        grad_nu_logits = nu * grad_nu_total - nu * (nu * grad_nu_total).sum(
            axis=1, keepdims=True) + e_nu

    a = cfg.step_size
    mus_new = mus - a * grad_mu
    chols_new = np.tril(chols - a * grad_l)
    if cfg.diag_only:
        chols_new = np.where(np.eye(d) == 1.0, chols_new, 0.0)
    diag_idx = np.arange(d)
    diags = chols_new[:, diag_idx, diag_idx]
    floor = CHOL_DIAG_FLOOR * max(
        np.diagonal(g.chols, axis1=1, axis2=2).max() for g in (state, *inputs))
    if np.any(diags < floor):
        warnings.warn("Cholesky diagonal clamped to keep covariances PD",
                      RuntimeWarning, stacklevel=2)
        chols_new[:, diag_idx, diag_idx] = np.maximum(diags, floor)

    nu_new = nu
    if grad_nu_logits is not None:
        nu_new = softmax(nu_logits - a * grad_nu_logits)

    weights_new = state.weights
    if cfg.flow_weights:
        w_logits = np.log(np.maximum(state.weights, 1e-12))
        chain = state.weights * (grad_pi - float(state.weights @ grad_pi)) + e_w
        weights_new = softmax(w_logits - a * chain)

    return LabeledGMM(weights_new, mus_new, chols_new, nu=nu_new), record


def _check_state(state, inputs):
    """A flow state against inputs that passed ``check_inputs``: one
    dimension, and the inputs' class count (None when all are unlabeled)."""
    if any(q.dim != state.dim for q in inputs):
        raise ValueError("all mixtures must share one dimension")
    if state.n_classes != inputs[0].n_classes:
        raise ValueError(f"the flow state has class count {state.n_classes}, "
                         f"the inputs {inputs[0].n_classes}")


def _init_state(inputs, cfg: GmmFlowConfig, rng) -> LabeledGMM:
    # check_inputs gives every input one class count, or none
    n_classes = inputs[0].n_classes
    labeled = n_classes is not None
    pts_all, lab_all = [], []
    for q in inputs:
        pts, idx, _ = sample_reparam(q, cfg.init_samples, rng)
        pts_all.append(pts)
        if labeled:
            lab_all.append(np.argmax(q.nu, axis=1)[idx])
    pool = np.vstack(pts_all)
    labels = np.concatenate(lab_all) if labeled else None

    if cfg.init_mode == "em":
        if labeled:
            # EM fits the classes drawn; one that was not drawn gets no
            # component, and its column of nu stays 0
            present, labels = np.unique(labels, return_inverse=True)
            per_class = cfg.per_class(n_classes)
            drawn = np.bincount(labels)
            c = int(np.argmin(drawn))
            if drawn[c] < per_class:
                raise ValueError(
                    f"the em init drew class {present[c]} {drawn[c]} times "
                    f"in init_samples {cfg.init_samples} x {len(inputs)} "
                    f"inputs, but fits {per_class} components per class")
            fit = em_fit(pool, labels, components_per_class=per_class,
                         seed=rng, diag=cfg.diag_only)
            nu = np.zeros((fit.n_components, n_classes))
            nu[:, present] = fit.nu
            state = LabeledGMM(fit.weights, fit.means, fit.chols, nu=nu)
        else:
            state = em_fit(pool, components_per_class=cfg.n_components,
                           seed=rng, diag=cfg.diag_only)
    else:
        k = cfg.n_components
        idx = rng.choice(pool.shape[0], size=k, replace=pool.shape[0] < k)
        std = pool.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        chols = np.repeat(np.diag(std)[None], k, axis=0)
        nu = None
        if labeled:
            nu = np.full((k, n_classes), 1.0 / n_classes)
        state = LabeledGMM(np.full(k, 1.0 / k), pool[idx], chols, nu=nu)
    return state


def run_gmm_flow(inputs, cfg: GmmFlowConfig, init: LabeledGMM | None = None):
    """Run the mixture-parameter flow; returns (final mixture, trace).

    Inputs are LabeledGMMs sharing one dimension. The default initialization
    fits a mixture by EM on a pooled reparametrized sample of all inputs;
    ``init`` overrides it. Deterministic for a fixed config seed.
    """
    check_inputs(inputs, cfg)
    rng = np.random.default_rng(cfg.seed)
    state = init if init is not None else _init_state(inputs, cfg, rng)
    _check_state(state, inputs)
    trace = []
    for it in range(cfg.n_iter):
        state, record = _step(state, inputs, cfg, rng, it)
        trace.append(record)
    trace.append(_evaluate(state, inputs, cfg, rng, cfg.n_iter)[0])
    return state, trace

