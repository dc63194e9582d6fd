"""Gradient flow on Gaussian-mixture parameters under MW2 plus energies.

Each step solves the component coupling of the mixture distance for every
input at the current parameters, holds those couplings fixed (envelope
treatment of the inner argmin), and takes one descent step on the means,
Cholesky factors, component label logits, and optionally the weight logits.
Energies that lack a closed form on mixtures (target potential, internal
energy) are estimated by Monte-Carlo through the reparametrization trick, so
their gradients reach mu and L along the sampling path.
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
    target_potential,
)
from .functionals import hinge_repulsion  # noqa: F401  (bench/tests trace it here)
from .gaussian import (
    LabeledGMM,
    _bures_kernel,
    _check_factors,
    _pathwise_grads,
    _per_class_components,
    em_fit,
    mw2_cost_matrix,
    sample_reparam,
)
from .gaussian import bures_w2_grad, bures_w2_sq  # noqa: F401  (bench/tests trace them here)
from .measures import BarycentricCoordinates, EmpiricalMeasure, softmax

__all__ = [
    "GmmFlowConfig",
    "run_gmm_flow",
    "fixed_point_gaussian_barycenter",
    "mw2_fixed_plan_value_grad",
]

# a step clamps Cholesky diagonals at this fraction of the largest diagonal
# of the state and the inputs, so the clamp does not depend on their units
CHOL_DIAG_FLOOR = 1e-6
GMM_INIT_MODES = ("em", "random")


@dataclass(frozen=True)
class GmmFlowConfig:
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


def mw2_fixed_plan_value_grad(state: LabeledGMM, other: LabeledGMM,
                              omega: np.ndarray, beta: float = 0.0):
    """Value and gradients of the coupling objective at a fixed plan.

    Objective: sum_ij omega_ij (W2(P_i, Q_j)^2 + beta ||nu_i - nu_j||^2),
    differentiated w.r.t. the state's means, Cholesky factors, and component
    label vectors (returned w.r.t. nu directly, before any logit chain rule).
    One Bures kernel call gives the value and transport map T_ij of each
    pair with omega_ij != 0; with row sums r, grad_mu = 2 (r mu - omega mu')
    and grad_L_i = tril((D_i + D_i^T) L_i), D_i = r_i I - sum_j omega_ij T_ij.
    A relatively singular factor of a state component with mass in omega
    raises LinAlgError (see ``bures_w2_grad``).
    """
    omega = np.asarray(omega, dtype=float)
    n, m = state.n_components, other.n_components
    if omega.shape != (n, m):
        raise ValueError("omega shape does not match the component counts")
    # only the nonzero pairs of the plan carry a value and a map; an exact
    # plan is sparse (a vertex has at most n + m - 1 nonzeros)
    i, j = np.nonzero(omega)
    values, tmaps = _bures_kernel(state.means[i], state.chols[i],
                                  other.means[j], other.chols[j], maps=True)
    w = omega[i, j]
    value = float(w @ values)
    rows = omega.sum(axis=1)
    grad_mu = 2.0 * (rows[:, None] * state.means - omega @ other.means)
    dsigma = rows[:, None, None] * np.eye(state.dim)
    np.add.at(dsigma, i, -w[:, None, None] * tmaps)
    grad_l = np.tril((dsigma + dsigma.transpose(0, 2, 1)) @ state.chols)
    grad_nu = None
    if beta > 0 and state.nu is not None and other.nu is not None:
        diff_sq = ot.squared_distances(state.nu, other.nu)
        value += beta * float((omega * diff_sq).sum())
        grad_nu = 2.0 * beta * (rows[:, None] * state.nu - omega @ other.nu)
    return value, grad_mu, grad_l, grad_nu


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
        z, idx, eps = sample_reparam(state, cfg.mc_samples, rng)
        tv, tg, _ = target_potential(EmpiricalMeasure(z), spec.target_measure)
        v += spec.target_weight * tv
        t_mu, t_l = _pathwise_grads(tg, idx, eps, k)
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
        omega = plan.coupling  # formed from the plan's cells on each read
        _, gm, gl, gn = mw2_fixed_plan_value_grad(state, q, omega, beta)
        grad_mu += l * gm
        grad_l += l * gl
        if gn is not None:
            grad_nu_total += l * gn
        if cfg.flow_weights:
            # envelope by row scaling: d cost / d pi_i at fixed conditionals
            grad_pi += l * (omega * cost).sum(axis=1) / state.weights

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
            per_class = _per_class_components(cfg.n_components, n_classes)
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


def fixed_point_gaussian_barycenter(means, chols, lam=None, tol: float = 1e-10,
                                    max_iter: int = 500) -> LabeledGMM:
    """Barycenter of the Gaussians N(means[k], chols[k] chols[k]^T) with
    coordinates ``lam`` (uniform by default), as a one-component LabeledGMM.

    The mean is the coordinate-weighted average of means; the covariance
    iterates S <- M S M with M = sum_k lam_k T_k, T_k the optimal map from
    N(0, S) to the k-th Gaussian (Alvarez-Esteban, del Barrio,
    Cuesta-Albertos & Matran, 2016), on a factor L of S: L <- M L, with the
    T_k from the Bures kernel on L. M is also the optimal map from S to
    M S M, so the W2 change between iterates is ||(I - M) L||_F, which has
    no cancellation; the iteration stops once it drops below tol. A singular
    iterate raises ConvergenceError.
    """
    means = np.asarray(means, dtype=float)
    chols = _check_factors(means, np.asarray(chols, dtype=float))
    k = means.shape[0]
    lam = np.full(k, 1.0 / k) if lam is None else np.asarray(lam, dtype=float)
    if lam.shape != (k,):
        raise ValueError("need one coordinate per Gaussian")
    mean = lam @ means
    try:
        factor = np.linalg.cholesky(
            np.einsum("k,kij->ij", lam, chols @ chols.transpose(0, 2, 1)))
        for _ in range(max_iter):
            _, tmaps = _bures_kernel(mean, factor, means, chols, maps=True)
            moved = np.einsum("k,kij->ij", lam, tmaps) @ factor
            change = np.sqrt(((moved - factor) ** 2).sum())
            factor = moved
            if change < tol:
                return LabeledGMM([1.0], mean[None],
                                  np.linalg.cholesky(factor @ factor.T)[None])
    except np.linalg.LinAlgError:
        raise ot.ConvergenceError("fixed-point iterate became singular") from None
    raise ot.ConvergenceError(
        f"Gaussian barycenter fixed point did not converge in {max_iter} iterations")
