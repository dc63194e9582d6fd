"""Gaussian and Gaussian-mixture machinery, and every formula built on the
Bures kernel.

Covariances are parametrized by lower-triangular Cholesky factors L with
positive diagonal (Sigma = L L^T), which is what the mixture flow optimizes
and what the reparametrized sampler consumes directly. ``LabeledGMM`` is the
one Gaussian type: stacked weights (k,), means (k, d), factors (k, d, d) and
optional label vectors (k, C). A single Gaussian is a one-component mixture,
or one row (mean, factor) of the stacks; ``_check_factors`` is the one check
of a stack of factors.

Provides the closed-form squared 2-Wasserstein distance between Gaussians
(Bures metric) with its analytic gradient, the component-level mixture
distance MW2 (with an optional label term on component label vectors), its
value and gradients at a fixed component plan, the fixed-point barycenter
of Gaussians, EM fitting, reparametrized sampling, and JSON
(de)serialization.

Every Bures value and transport map comes from one kernel on two stacks of
factors, through the Procrustes identity (Bhatia, Jain & Lim, Expo. Math.
2019): W2^2 = ||mu1 - mu2||^2 + ||L1||_F^2 + ||L2||_F^2 - 2 ||L1^T L2||_*.
A (k, m) cost matrix, or the maps of a gradient pass at the nonzero entries
of a plan, take one batched SVD of the stacked products L1^T L2 and no
covariance square root; the one-pair ``bures_w2_sq`` and ``bures_w2_grad``
call the same kernel on one pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ot
from .measures import _freeze, logsumexp, one_hot, validate_simplex

__all__ = [
    "LabeledGMM",
    "bures_w2_sq",
    "bures_w2_grad",
    "mw2_sq",
    "mw2_cost_matrix",
    "mw2_fixed_plan_value_grad",
    "fixed_point_gaussian_barycenter",
    "em_fit",
    "sample_reparam",
    "gmm_log_density",
    "gmm_to_json",
    "gmm_from_json",
    "save_gmm",
    "load_gmm",
]

GMM_SCHEMA_VERSION = 1
# An entry above the diagonal of a Cholesky factor counts as zero up to
# TRIL_RTOL times the factor's largest entry, so the check has no units.
TRIL_RTOL = 1e-8
# EM stops after EM_MAX_ITER iterations, or once the log-likelihood changes
# by less than EM_TOL.
EM_MAX_ITER = 200
EM_TOL = 1e-8


def _check_factors(means: np.ndarray, chols: np.ndarray) -> np.ndarray:
    """Check a stack of Gaussians in one pass and return its factors with
    ``np.tril`` applied.

    ``means`` must be a non-empty (k, d) matrix and ``chols`` (k, d, d), all
    entries finite; each factor must be lower-triangular up to TRIL_RTOL of
    its largest entry and have a strictly positive diagonal.
    """
    if means.ndim != 2 or 0 in means.shape:
        raise ValueError(f"means must be a non-empty (k, d) matrix, "
                         f"got shape {means.shape}")
    k, d = means.shape
    if chols.shape != (k, d, d):
        raise ValueError(f"chols must be ({k}, {d}, {d}), got {chols.shape}")
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(chols))):
        raise ValueError("component parameters contain non-finite entries")
    largest = np.abs(chols).max(axis=(1, 2))
    if np.any(np.abs(np.triu(chols, 1)).max(axis=(1, 2)) > TRIL_RTOL * largest):
        raise ValueError("chol must be lower-triangular")
    if np.any(np.diagonal(chols, axis1=1, axis2=2) <= 0):
        raise ValueError("chol must have strictly positive diagonal")
    return np.tril(chols)


@dataclass(frozen=True)
class LabeledGMM:
    """Gaussian mixture of k components in d dimensions, as stacked arrays:
    ``weights`` (k,) on the simplex, ``means`` (k, d), lower-triangular
    Cholesky factors ``chols`` (k, d, d), and optional label vectors ``nu``
    (k, C) whose rows lie on the class simplex.
    """

    weights: np.ndarray
    means: np.ndarray
    chols: np.ndarray
    nu: np.ndarray | None = None

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        chols = _check_factors(means, np.asarray(self.chols, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != (means.shape[0],):
            raise ValueError("need one weight per component")
        if not validate_simplex(w, tol=1e-9):
            raise ValueError("mixture weights must lie on the simplex")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "means", _freeze(means))
        object.__setattr__(self, "chols", _freeze(chols))
        if self.nu is not None:
            nu = np.atleast_2d(np.asarray(self.nu, dtype=float))
            if nu.ndim != 2 or nu.shape[0] != means.shape[0]:
                raise ValueError("nu must have one row per component")
            if not validate_simplex(nu, tol=1e-6):
                raise ValueError("nu rows must lie on the class simplex")
            object.__setattr__(self, "nu", _freeze(nu))

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_classes(self) -> int | None:
        return None if self.nu is None else self.nu.shape[1]


def _bures_kernel(mu1, l1, mu2, l2, maps: bool = False):
    """Squared Bures-Wasserstein distances between Gaussians N(mu1, L1 L1^T)
    and N(mu2, L2 L2^T), on stacks of means (..., d) and factors (..., d, d)
    that broadcast against each other: (k, 1, d) against (m, d) gives all
    k x m pairs, (n, d) against (n, d) gives n pairs. A factor need not be
    triangular.

    Returns the values; with ``maps``, also the optimal linear maps T, which
    push N(0, L1 L1^T) to N(0, L2 L2^T). One batched SVD of
    A = L1^T L2 = U S V^T gives the value
    ||mu1 - mu2||^2 + ||L1||_F^2 + ||L2||_F^2 - 2 sum(S) and the map
    T = W S W^T, with W = L1^{-T} U from the inverses of the L1 stack. The
    maps need every Sigma1 strictly positive definite: a factor in the L1
    stack with sigma_min^2 <= 1e-12 sigma_max^2 raises LinAlgError.
    """
    if mu1.shape[-1] != mu2.shape[-1] or l1.shape[-2:] != l2.shape[-2:]:
        raise ValueError("components must share one dimension")
    a = l1.swapaxes(-1, -2) @ l2
    if maps:
        # relative to the largest singular value, so the check holds at any
        # scale
        sv1 = np.linalg.svd(l1, compute_uv=False)
        if np.any(sv1[..., -1] ** 2 <= 1e-12 * sv1[..., 0] ** 2):
            raise np.linalg.LinAlgError("singular covariance: no transport map")
        u, sv, _ = np.linalg.svd(a)
    else:
        sv = np.linalg.svd(a, compute_uv=False)
    values = np.maximum(
        ((mu1 - mu2) ** 2).sum(axis=-1) + (l1 ** 2).sum(axis=(-2, -1))
        + (l2 ** 2).sum(axis=(-2, -1)) - 2.0 * sv.sum(axis=-1), 0.0)
    if not maps:
        return values
    w = np.linalg.inv(l1).swapaxes(-1, -2) @ u
    return values, (w * sv[..., None, :]) @ w.swapaxes(-1, -2)


def bures_w2_sq(mu1, l1, mu2, l2) -> float:
    """Squared Bures-Wasserstein distance between N(mu1, L1 L1^T) and
    N(mu2, L2 L2^T), on mean and factor rows of ``LabeledGMM`` stacks:
    ||mu1 - mu2||^2 + ||L1||_F^2 + ||L2||_F^2 - 2 ||L1^T L2||_*."""
    return float(_bures_kernel(mu1, l1, mu2, l2))


def bures_w2_grad(mu1, l1, mu2, l2) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of bures_w2_sq(mu1, l1, mu2, l2) w.r.t. mu1 and L1.

    dmu = 2 (mu1 - mu2); the covariance gradient is I - T with T the
    kernel's optimal linear transport map, chained onto L as
    dL = (dS + dS^T) L, restricted to the lower triangle. Requires Sigma1
    strictly positive definite: a factor with
    sigma_min(L1)^2 <= 1e-12 sigma_max(L1)^2 raises LinAlgError.
    """
    _, tmap = _bures_kernel(mu1, l1, mu2, l2, maps=True)
    dsigma = np.eye(mu1.shape[0]) - tmap
    return 2.0 * (mu1 - mu2), np.tril((dsigma + dsigma.T) @ l1)


def mw2_cost_matrix(p: LabeledGMM, q: LabeledGMM, beta: float = 0.0
                    ) -> np.ndarray:
    """Component-pair cost matrix: Bures W2^2 plus the squared label metric.

    C_ij = W2(P_i, Q_j)^2 + beta * ||nu_i - nu_j||^2, all Bures values from
    one kernel call on the two mixtures' stacks. The label term is dropped
    when either mixture has no labels or beta = 0.
    """
    # ot.solve_exact rejects the non-finite cost of a diverged mixture
    with np.errstate(over="ignore", invalid="ignore"):
        cost = _bures_kernel(p.means[:, None], p.chols[:, None], q.means, q.chols)
    if beta > 0 and p.nu is not None and q.nu is not None:
        cost = cost + beta * ot.squared_distances(p.nu, q.nu)
    return cost


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


def mw2_sq(p: LabeledGMM, q: LabeledGMM, beta: float = 0.0
           ) -> tuple[float, ot.TransportPlan]:
    """Squared mixture-Wasserstein distance and its component coupling.

    Solves the exact component LP over Gamma(pi_P, pi_Q) on the decomposed
    feature + label cost.
    """
    cost = mw2_cost_matrix(p, q, beta=beta)
    plan, value = ot.solve_exact(p.weights, q.weights, cost)
    return value, plan


def _whiten(means: np.ndarray, chols: np.ndarray, zt: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whitened residuals u_k = L_k^{-1} (z - mu_k), shape (k, d, n), the
    component log densities, shape (n, k), and the factor inverses L_k^{-1},
    shape (k, d, d), of stacked means and factors, at the n points that are
    the columns of ``zt`` (d, n).

    u is one batched product with the inverses, which are formed once per
    call; its error is about cond(L) * eps. A C-contiguous ``zt`` makes the
    residuals twice as fast as a transposed view, with the same bits."""
    inv = np.linalg.inv(chols)
    u = inv @ (zt - means[:, :, None])
    d = means.shape[1]
    logdet = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    const = -0.5 * d * np.log(2.0 * np.pi)
    return u, (const - logdet[:, None] - 0.5 * (u * u).sum(axis=1)).T, inv


def gmm_log_density(gmm: LabeledGMM, z: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Mixture log density at a point, plus component responsibilities."""
    z = np.asarray(z, dtype=float)
    lp = _whiten(gmm.means, gmm.chols, z[:, None])[1] + np.log(gmm.weights)
    total = logsumexp(lp, axis=1)
    resp = np.exp(lp - total[:, None])
    return float(total[0]), resp[0]


def sample_reparam(gmm: LabeledGMM, n: int, seed=None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw n reparametrized samples z = mu_i + L_i eps, i ~ pi.

    Returns (points, component_index, eps); eps is retained so gradients can
    be propagated through the means and Cholesky factors.
    """
    rng = np.random.default_rng(seed)
    d = gmm.dim
    if n == 0:
        return np.zeros((0, d)), np.zeros(0, dtype=int), np.zeros((0, d))
    idx = rng.choice(gmm.n_components, size=n, p=gmm.weights)
    eps = rng.standard_normal((n, d))
    pts = gmm.means[idx] + np.einsum("nij,nj->ni", gmm.chols[idx], eps)
    return pts, idx, eps


def _pathwise_grads(grad: np.ndarray, idx: np.ndarray, eps: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Chain per-sample gradients (n, d) at the samples z = mu_idx + L_idx eps
    of ``sample_reparam`` onto the k means, sum_{idx=j} grad, and the k
    factors, tril(sum_{idx=j} grad eps^T)."""
    d = grad.shape[1]
    grad_mu = np.zeros((k, d))
    grad_l = np.zeros((k, d, d))
    for j in range(k):
        sel = idx == j
        grad_mu[j] = grad[sel].sum(axis=0)
        grad_l[j] = np.tril(grad[sel].T @ eps[sel])
    return grad_mu, grad_l


def _em_single(data: np.ndarray, k: int, max_iter: int, tol: float,
               rng: np.random.Generator, diag: bool
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """Fit one GMM with EM; returns (weights, means, Cholesky factors,
    loglik trace). Both steps read the pool as one contiguous (d, n)
    array, so residuals are (k, d, n) stacks."""
    n, d = data.shape
    if n < k:
        raise ValueError(f"need at least {k} points to fit {k} components")
    # init: k distinct data points as means, shared data covariance
    idx = rng.choice(n, size=k, replace=False)
    mus = data[idx].copy()
    base_cov = np.cov(data.T, ddof=0).reshape(d, d) if n > 1 else np.eye(d)
    covs = np.repeat(_regularized(base_cov[None], diag), k, axis=0)
    pis = np.full(k, 1.0 / k)
    data_t = np.ascontiguousarray(data.T)

    logliks: list[float] = []
    for _ in range(max_iter):
        chols = np.linalg.cholesky(covs)
        lp = _whiten(mus, chols, data_t)[1] + np.log(pis)[None, :]
        total = logsumexp(lp, axis=1)
        loglik = float(total.sum())
        resp = np.exp(lp - total[:, None])

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        pis = nk / n
        mus = (resp.T @ data) / nk[:, None]
        diff_t = data_t - mus[:, :, None]
        covs = (diff_t * resp.T[:, None, :]) @ diff_t.transpose(0, 2, 1)
        covs = covs / nk[:, None, None]
        covs = _regularized((covs + covs.transpose(0, 2, 1)) / 2.0, diag)

        logliks.append(loglik)
        if len(logliks) > 1 and abs(logliks[-1] - logliks[-2]) < tol:
            break

    return pis, mus, np.linalg.cholesky(covs), logliks


def _regularized(covs: np.ndarray, diag: bool) -> np.ndarray:
    """A (k, d, d) stack of covariances plus a ridge, which prevents collapse
    on degenerate clusters, zeroed off the diagonal when ``diag``."""
    d = covs.shape[-1]
    lift = 1e-6 * np.maximum(np.trace(covs, axis1=1, axis2=2) / d, 1e-6)
    eye = np.eye(d)
    covs = covs + lift[:, None, None] * eye
    return np.where(eye == 1.0, covs, 0.0) if diag else covs


def em_fit(data, labels=None, components_per_class: int = 1, seed=None,
           diag: bool = False) -> LabeledGMM:
    """Fit a GMM by EM; with labels, one GMM per class and one-hot nu rows.

    Global weights are class frequencies times the within-class mixture
    weights.
    """
    if components_per_class < 1:
        raise ValueError("components_per_class must be >= 1")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    rng = np.random.default_rng(seed)
    if labels is None:
        pis, mus, chols, _ = _em_single(
            data, components_per_class, EM_MAX_ITER, EM_TOL, rng, diag)
        return LabeledGMM(pis, mus, chols)

    labels = np.asarray(labels)
    n_classes = int(labels.max()) + 1
    fits = []
    for c in range(n_classes):
        rows = data[labels == c]
        if rows.shape[0] == 0:
            raise ValueError(f"class {c} has no samples")
        pis_c, mus_c, chols_c, _ = _em_single(
            rows, components_per_class, EM_MAX_ITER, EM_TOL, rng, diag)
        fits.append((rows.shape[0] / data.shape[0] * pis_c, mus_c, chols_c))
    w, mus, chols = (np.concatenate(parts) for parts in zip(*fits))
    nu = one_hot(np.repeat(np.arange(n_classes), components_per_class),
                 n_classes)
    return LabeledGMM(w / w.sum(), mus, chols, nu=nu)


def gmm_to_json(gmm: LabeledGMM) -> dict:
    """JSON-serializable dict: {weights, means, cholesky_rows, labels}."""
    return {
        "schema_version": GMM_SCHEMA_VERSION,
        "weights": gmm.weights.tolist(),
        "means": gmm.means.tolist(),
        "cholesky_rows": gmm.chols.tolist(),
        "labels": gmm.nu.tolist() if gmm.nu is not None else None,
    }


def gmm_from_json(doc: dict) -> LabeledGMM:
    """The mixture of a ``gmm_to_json`` document; ValueError if ``doc`` is
    not a JSON object or a field is not a numeric array."""
    if not isinstance(doc, dict):
        raise ValueError("a GMM document must be a JSON object")
    version = doc.get("schema_version", GMM_SCHEMA_VERSION)
    if version != GMM_SCHEMA_VERSION:
        raise ValueError(f"unsupported GMM schema version {version}")
    try:
        return LabeledGMM(doc["weights"], doc["means"], doc["cholesky_rows"],
                          nu=doc.get("labels"))
    except TypeError as e:
        raise ValueError(f"GMM fields must be numeric arrays ({e})") from None


def save_gmm(gmm: LabeledGMM, path) -> None:
    with open(path, "w") as fh:
        json.dump(gmm_to_json(gmm), fh, indent=1)
        fh.write("\n")


def load_gmm(path) -> LabeledGMM:
    with open(path) as fh:
        return gmm_from_json(json.load(fh))
