"""Regularizing energies for the barycenter flows.

Three potential/interaction terms act on particle representations:

* label entropy — mean Shannon entropy of the soft labels; adding it to the
  descended objective sharpens labels (fuzzy labels are penalized);
* hinge repulsion — pairs with different hard labels closer than a margin are
  pushed apart (Euclidean or cosine distance);
* target potential — squared W2 to a fixed target batch, differentiated by
  holding the optimal plan fixed (envelope theorem).

A fourth, the internal energy, is defined for mixtures only and is estimated
by Monte-Carlo through the reparametrization trick; its value is the mean
mixture log density at the drawn samples (the negative differential entropy).
All gradients are gradients of the evaluated estimator, so with common random
numbers they match finite differences of the same estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ot
from .gaussian import LabeledGMM, _pathwise_grads, _whiten, sample_reparam
from .measures import EmpiricalMeasure, logsumexp, softmax, softmax_decode

__all__ = [
    "FunctionalSpec",
    "entropy_potential",
    "hinge_repulsion",
    "target_potential",
    "internal_energy_mc",
    "check_inputs",
]

REPULSION_METRICS = ("euclidean", "cosine")


@dataclass(frozen=True)
class FunctionalSpec:
    """Weights and parameters of the regularizing energies.

    All weights default to zero (pure barycenter flow). ``target_measure``
    must be set whenever ``target_weight`` is positive.
    """

    entropy_weight: float = 0.0
    repulsion_weight: float = 0.0
    repulsion_margin: float = 1.0
    repulsion_metric: str = "euclidean"
    target_weight: float = 0.0
    target_measure: EmpiricalMeasure | None = None
    internal_weight: float = 0.0

    def __post_init__(self):
        for name in ("entropy_weight", "repulsion_weight", "repulsion_margin",
                     "target_weight", "internal_weight"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.repulsion_metric not in REPULSION_METRICS:
            raise ValueError(
                f"repulsion_metric must be one of {REPULSION_METRICS}")
        if self.target_weight > 0 and self.target_measure is None:
            raise ValueError("target_weight > 0 requires a target_measure")

    def with_mask(self, use_v: bool, use_u: bool) -> "FunctionalSpec":
        """Copy with the potential (V) and/or interaction (U) terms disabled."""
        spec = self
        if not use_v:
            spec = replace(spec, target_weight=0.0, target_measure=None,
                           entropy_weight=0.0)
        if not use_u:
            spec = replace(spec, repulsion_weight=0.0)
        return spec

    @property
    def any_active(self) -> bool:
        return (self.entropy_weight > 0 or self.repulsion_weight > 0
                or self.target_weight > 0 or self.internal_weight > 0)


def entropy_potential(label_logits: np.ndarray
                      ) -> tuple[float, np.ndarray]:
    """Mean label entropy and its gradient w.r.t. the logits.

    value = (1/n) sum_i H(softmax(l_i)); per point the value lies in
    [0, ln C]. Minimizing it drives labels toward one-hot vectors.
    """
    logits = np.atleast_2d(np.asarray(label_logits, dtype=float))
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite entries")
    n = logits.shape[0]
    y = softmax(logits)
    # y log y with 0 log 0 = 0 (saturated logits give exact zeros)
    ylogy = y * np.log(y, out=np.zeros_like(y), where=y > 0)
    value = float(-ylogy.sum() / n)
    # dH/dl_c = -y_c (log y_c - sum_b y_b log y_b)
    logy = np.log(np.maximum(y, 1e-300))
    grad = -y * (logy - ylogy.sum(axis=1, keepdims=True)) / n
    return value, grad


def _pairwise_distance(points: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        return np.sqrt(ot.squared_distances(points, points))
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms == 0):
        raise ValueError("cosine distance is undefined for zero vectors")
    sim = (points @ points.T) / np.outer(norms, norms)
    return 1.0 - sim


def hinge_repulsion(points: np.ndarray, hard_labels: np.ndarray,
                    margin: float, metric: str = "euclidean"
                    ) -> tuple[float, np.ndarray]:
    """Hinge interaction energy over differently-labeled pairs.

    value = (1/n^2) sum_{i != j, y_i != y_j} max(0, margin - d(x_i, x_j)).
    The subgradient at the hinge kink (and at coincident points under the
    Euclidean metric) is taken to be zero.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if metric not in REPULSION_METRICS:
        raise ValueError(f"metric must be one of {REPULSION_METRICS}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(hard_labels)
    n = points.shape[0]
    dist = _pairwise_distance(points, metric)
    diff_label = labels[:, None] != labels[None, :]
    np.fill_diagonal(diff_label, False)
    active = diff_label & (dist < margin)
    value = float((margin - dist)[active].sum() / n**2)

    grad = np.zeros_like(points)
    if not np.any(active):
        return value, grad
    if metric == "euclidean":
        # d d/d x_i = (x_i - x_j)/d; zero subgradient on coincident points
        w = np.where(active & (dist > 0), 1.0 / np.where(dist > 0, dist, 1.0), 0.0)
        deg = w.sum(axis=1)
        grad = -(2.0 / n**2) * (deg[:, None] * points - w @ points)
    else:
        norms = np.linalg.norm(points, axis=1)
        unit = points / norms[:, None]
        # d d/d x_i = -(u_j - cos_ij u_i)/||x_i||
        cos = unit @ unit.T
        a = np.where(active, 1.0, 0.0)
        term = a @ unit - (a * cos).sum(axis=1)[:, None] * unit
        grad = (2.0 / n**2) * term / norms[:, None]
    return value, grad


def target_potential(p, target: EmpiricalMeasure
                     ) -> tuple[float, np.ndarray, ot.TransportPlan]:
    """Squared W2 from the measure to a target batch, feature cost only.

    The gradient descends the coupling objective with the optimal plan held
    fixed: at particle i it is 2 w_i (x_i - T(x_i)) with T the barycentric
    map. Labels do not enter the cost. The plan is ``ot.solve_points``'s
    with "auto": exact on the points for points on a line, at any size, and
    otherwise by ``ot.solve_auto`` on their cost. The optimal plan is
    returned too, so the value can be re-costed at moved particles without
    a second solve.
    """
    if target.n < 1:
        raise ValueError("target measure is empty")
    plan, value = ot.solve_points(p.points, target.points, p.weights,
                                  target.weights)
    mapped = ot.barycentric_map(plan, target.points)
    grad_points = 2.0 * p.weights[:, None] * (p.points - mapped)
    return float(value), grad_points, plan


def check_inputs(inputs, cfg) -> None:
    """Check a flow's inputs against its config before the flow runs.

    ``inputs`` holds one mini-batch, measure or mixture per barycentric
    coordinate of ``cfg``, an empirical or a GMM flow config. They must be
    all labeled with one class count and equal ``class_names`` (None counts
    as a value), or all unlabeled; the label cost and the entropy and
    repulsion energies act on labels, so a positive ``label_weight``,
    ``entropy_weight`` or ``repulsion_weight`` needs labeled inputs. Raises
    ValueError otherwise.
    """
    if len(inputs) != len(cfg.coordinates):
        raise ValueError("need one input per barycentric coordinate")
    counts = {x.n_classes for x in inputs}
    if None in counts and len(counts) > 1:
        raise ValueError("inputs must be all labeled or all unlabeled")
    if len(counts) > 1:
        raise ValueError(
            f"labeled inputs must share one class count, got {sorted(counts)}")
    names = list(dict.fromkeys(x.class_names for x in inputs))
    if len(names) > 1:
        raise ValueError("labeled inputs must share one class_names, got "
                         + " and ".join(map(repr, names)))
    spec = cfg.functional
    if None in counts and (cfg.label_weight > 0 or spec.entropy_weight > 0
                           or spec.repulsion_weight > 0):
        raise ValueError("label_weight, entropy_weight and repulsion_weight "
                         "act on labels; the inputs are unlabeled")


def _label_energies(points: np.ndarray, logits: np.ndarray | None,
                    spec: FunctionalSpec):
    """Weighted label entropy (V) and hinge repulsion (U) with gradients.

    ``points`` are particles or mixture means and ``logits`` their label
    logits (None when unlabeled); hard labels are decoded by
    ``softmax_decode``. Returns (v, u, grad_points, grad_logits), with
    grad_logits None for unlabeled input.
    """
    v = u = 0.0
    g_pts = np.zeros_like(points)
    g_log = None if logits is None else np.zeros_like(logits)
    if spec.entropy_weight > 0:
        if logits is None:
            raise ValueError("entropy energy requires labels")
        ev, eg = entropy_potential(logits)
        v += spec.entropy_weight * ev
        g_log = g_log + spec.entropy_weight * eg
    if spec.repulsion_weight > 0:
        if logits is None:
            raise ValueError("repulsion energy requires labels")
        rv, rg = hinge_repulsion(points, softmax_decode(logits)[1],
                                 spec.repulsion_margin, spec.repulsion_metric)
        u += spec.repulsion_weight * rv
        g_pts = g_pts + spec.repulsion_weight * rg
    return v, u, g_pts, g_log


def internal_energy_mc(gmm: LabeledGMM, n_samples: int, seed=None
                       ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Monte-Carlo internal energy (1/S) sum_s log P(z_s) with gradients.

    Samples are reparametrized (z = mu_i + L_i eps), so the returned
    gradients include both the sampling-path terms (through mu, L) and the
    direct density terms; the weight gradient is returned w.r.t. softmax
    logits of pi and covers the density term only (the categorical draw is
    not differentiable).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    z, comp_idx, eps = sample_reparam(gmm, n_samples, seed)
    chols = gmm.chols

    u, lp, inv = _whiten(gmm.means, chols, z.T)
    lp = lp + np.log(gmm.weights)[None, :]
    total = logsumexp(lp, axis=1)
    resp = np.exp(lp - total[:, None])  # (S, K)
    value = float(total.mean())

    # v_sk = Sigma_k^{-1} (z_s - mu_k) = L_k^{-T} u_sk; g_s = d log p / d z
    inv_t = inv.transpose(0, 2, 1)
    v = (inv_t @ u).transpose(2, 0, 1)
    g = -np.einsum("sk,skd->sd", resp, v)

    grad_mu, grad_l = _pathwise_grads(g, comp_idx, eps, gmm.n_components)
    for j in range(gmm.n_components):
        # direct density terms
        grad_mu[j] += np.einsum("s,sd->d", resp[:, j], v[:, j, :])
        vl = np.einsum("s,sd,se->de", resp[:, j], v[:, j, :], v[:, j, :])
        grad_l[j] += np.tril(vl @ chols[j] - resp[:, j].sum() * inv_t[j])
    grad_mu /= n_samples
    grad_l /= n_samples

    # d value / d pi_k = mean_s r_sk / pi_k, chained through softmax
    grad_wlogits = resp.mean(axis=0) - gmm.weights
    return value, grad_mu, grad_l, grad_wlogits
