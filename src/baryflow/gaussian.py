"""Gaussian and Gaussian-mixture machinery.

Covariances are parametrized by lower-triangular Cholesky factors L with
positive diagonal (Sigma = L L^T), which is what the mixture flow optimizes
and what the reparametrized sampler consumes directly. ``LabeledGMM`` is the
one Gaussian type: stacked weights (k,), means (k, d), factors (k, d, d) and
optional label vectors (k, C). A single Gaussian is a one-component mixture,
or one row (mean, factor) of the stacks; ``_check_factors`` is the one check
of a stack of factors.

Provides the closed-form squared 2-Wasserstein distance between Gaussians
(Bures metric) with its analytic gradient, the component-level mixture
distance MW2 (with an optional label term on component label vectors),
EM fitting, reparametrized sampling, and JSON (de)serialization.

The Bures value and gradient are a per-pair kernel on factor rows, through
the Procrustes identity (Bhatia, Jain & Lim, Expo. Math. 2019):
W2^2 = ||mu1 - mu2||^2 + ||L1||_F^2 + ||L2||_F^2 - 2 ||L1^T L2||_*,
so the flow path takes one SVD of L1^T L2 per component pair and no
covariance square root. ``bures_w2_sq_cov`` and ``matrix_sqrt_psd`` serve
covariance inputs and the fixed-point barycenter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ot
from .measures import _freeze, logsumexp, one_hot, validate_simplex

__all__ = [
    "LabeledGMM",
    "matrix_sqrt_psd",
    "bures_w2_sq",
    "bures_w2_sq_cov",
    "bures_w2_grad",
    "mw2_sq",
    "mw2_cost_matrix",
    "em_fit",
    "sample_reparam",
    "gmm_log_density",
    "gmm_to_json",
    "gmm_from_json",
    "save_gmm",
    "load_gmm",
]

GMM_SCHEMA_VERSION = 1
# Relative tolerance of matrix_sqrt_psd's symmetry and PSD checks.
SQRT_PSD_TOL = 1e-10
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

    @property
    def class_names(self) -> None:
        """Mixtures carry no class names."""
        return None


def matrix_sqrt_psd(s: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues within -SQRT_PSD_TOL (relative to the largest) are clamped
    to zero; asymmetry or indefiniteness beyond tolerance raises ValueError.
    """
    tol = SQRT_PSD_TOL
    s = np.atleast_2d(np.asarray(s, dtype=float))
    scale = max(1.0, float(np.max(np.abs(s))) if s.size else 1.0)
    if np.max(np.abs(s - s.T)) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh((s + s.T) / 2.0)
    if vals.min() < -tol * max(1.0, float(vals.max())):
        raise ValueError(f"matrix is not PSD (min eigenvalue {vals.min():.3g})")
    root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
    return (root + root.T) / 2.0


def bures_w2_sq_cov(mu1, cov1, mu2, cov2) -> float:
    """Squared Gaussian W2 from means and covariances (PSD allowed):
    ||mu1 - mu2||^2 + Tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})."""
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=float))
    cov1 = np.atleast_2d(np.asarray(cov1, dtype=float))
    cov2 = np.atleast_2d(np.asarray(cov2, dtype=float))
    if mu1.shape != mu2.shape or cov1.shape != cov2.shape:
        raise ValueError("Gaussian parameters must share one dimension")
    s1h = matrix_sqrt_psd(cov1)
    cross = matrix_sqrt_psd(s1h @ cov2 @ s1h)
    val = float(
        ((mu1 - mu2) ** 2).sum()
        + np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(cross)
    )
    return max(val, 0.0)


def bures_w2_sq(mu1, l1, mu2, l2) -> float:
    """Squared Bures-Wasserstein distance between N(mu1, L1 L1^T) and
    N(mu2, L2 L2^T), on mean and factor rows of ``LabeledGMM`` stacks:
    ||mu1 - mu2||^2 + ||L1||_F^2 + ||L2||_F^2 - 2 ||L1^T L2||_*."""
    if mu1.shape != mu2.shape or l1.shape != l2.shape:
        raise ValueError("components must share one dimension")
    sv = np.linalg.svd(l1.T @ l2, compute_uv=False)
    val = float(((mu1 - mu2) ** 2).sum()
                + (l1 ** 2).sum() + (l2 ** 2).sum() - 2.0 * sv.sum())
    return max(val, 0.0)


def bures_w2_grad(mu1, l1, mu2, l2) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of bures_w2_sq(mu1, l1, mu2, l2) w.r.t. mu1 and L1.

    dmu = 2 (mu1 - mu2); the covariance gradient is I - T with T the optimal
    linear transport map, chained onto L as dL = (dS + dS^T) L, restricted to
    the lower triangle. With L1^T L2 = U S V^T and W = L1^{-T} U from one
    solve, T = W S W^T. Requires Sigma1 strictly positive definite: a factor
    with sigma_min(L1)^2 <= 1e-12 sigma_max(L1)^2 raises LinAlgError.
    """
    if mu1.shape != mu2.shape or l1.shape != l2.shape:
        raise ValueError("components must share one dimension")
    # relative to the largest singular value, so the check holds at any scale
    sv1 = np.linalg.svd(l1, compute_uv=False)
    if sv1[-1] ** 2 <= 1e-12 * sv1[0] ** 2:
        raise np.linalg.LinAlgError("singular covariance: no transport map")
    u, sv, _ = np.linalg.svd(l1.T @ l2)
    w = np.linalg.solve(l1.T, u)
    tmap = (w * sv) @ w.T
    dsigma = np.eye(mu1.shape[0]) - tmap
    dmu = 2.0 * (mu1 - mu2)
    dl = np.tril((dsigma + dsigma.T) @ l1)
    return dmu, dl


def mw2_cost_matrix(p: LabeledGMM, q: LabeledGMM, beta: float = 0.0
                    ) -> np.ndarray:
    """Component-pair cost matrix: Bures W2^2 plus the squared label metric.

    C_ij = W2(P_i, Q_j)^2 + beta * ||nu_i - nu_j||^2. The label term is
    dropped when either mixture has no labels or beta = 0.
    """
    n, m = p.n_components, q.n_components
    cost = np.empty((n, m))
    for i, (mu_i, l_i) in enumerate(zip(p.means, p.chols)):
        for j, (mu_j, l_j) in enumerate(zip(q.means, q.chols)):
            cost[i, j] = bures_w2_sq(mu_i, l_i, mu_j, l_j)
    if beta > 0 and p.nu is not None and q.nu is not None:
        cost = cost + beta * ot.squared_distances(p.nu, q.nu)
    return cost


def mw2_sq(p: LabeledGMM, q: LabeledGMM, beta: float = 0.0
           ) -> tuple[float, ot.TransportPlan]:
    """Squared mixture-Wasserstein distance and its component coupling.

    Solves the exact component LP over Gamma(pi_P, pi_Q) on the decomposed
    feature + label cost.
    """
    cost = mw2_cost_matrix(p, q, beta=beta)
    plan, value = ot.solve_exact(p.weights, q.weights, cost)
    return value, plan


def _whiten(means: np.ndarray, chols: np.ndarray, z: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whitened residuals u_k = L_k^{-1} (z - mu_k), shape (k, d, n), the
    component log densities, shape (n, k), and the factor inverses L_k^{-1},
    shape (k, d, d), of stacked means and factors.

    u is one batched product with the inverses, which are formed once per
    call; its error is about cond(L) * eps."""
    inv = np.linalg.inv(chols)
    u = inv @ (z.T - means[:, :, None])
    d = means.shape[1]
    logdet = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    const = -0.5 * d * np.log(2.0 * np.pi)
    return u, (const - logdet[:, None] - 0.5 * (u * u).sum(axis=1)).T, inv


def gmm_log_density(gmm: LabeledGMM, z: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Mixture log density at a point, plus component responsibilities."""
    z = np.asarray(z, dtype=float)
    lp = _whiten(gmm.means, gmm.chols, z[None, :])[1] + np.log(gmm.weights)
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
    loglik trace)."""
    n, d = data.shape
    if n < k:
        raise ValueError(f"need at least {k} points to fit {k} components")
    # init: k distinct data points as means, shared data covariance
    idx = rng.choice(n, size=k, replace=False)
    mus = data[idx].copy()
    base_cov = np.cov(data.T, ddof=0).reshape(d, d) if n > 1 else np.eye(d)
    covs = np.repeat(_regularized(base_cov[None], diag), k, axis=0)
    pis = np.full(k, 1.0 / k)

    logliks: list[float] = []
    for _ in range(max_iter):
        chols = np.linalg.cholesky(covs)
        lp = _whiten(mus, chols, data)[1] + np.log(pis)[None, :]
        total = logsumexp(lp, axis=1)
        loglik = float(total.sum())
        resp = np.exp(lp - total[:, None])

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        pis = nk / n
        mus = (resp.T @ data) / nk[:, None]
        diff = data[None, :, :] - mus[:, None, :]
        covs = (resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff
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


def _per_class_components(n_components: int, n_classes: int) -> int:
    """Components per class that ``em_fit`` fits when a flow asks for
    ``n_components`` on ``n_classes`` classes: the floor of the ratio, at
    least 1."""
    return max(1, n_components // n_classes)


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
