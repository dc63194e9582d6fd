import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from baryflow import flow_empirical as fe
from baryflow import ot
from baryflow.flow_empirical import EmpiricalFlowConfig, GaussianSampler, run_flow
from baryflow.functionals import _label_energies
from baryflow.gaussian import _regularized
from baryflow.measures import (
    BarycentricCoordinates,
    EmpiricalMeasure,
    logsumexp,
    softmax,
)

TWO_GAUSSIAN_SEEDS = (0, 1, 2, 3, 4)


def two_gaussian_config(seed: int, batch_size: int) -> EmpiricalFlowConfig:
    """The Gaussian-barycenter recovery task: N(0,1) and N(4,1), equal
    coordinates, 256 particles, 300 iterations.

    The step size is gentler than the 0.5 default so the objective decay
    spans enough iterations for the convergence-shape diagnostics; the
    recovery ranges are unaffected (the flow converges well before the
    iteration budget either way).
    """
    return EmpiricalFlowConfig(
        n_particles=256,
        batch_size=batch_size,
        n_iter=300,
        coordinates=BarycentricCoordinates.uniform(2),
        step_size=0.15,
        seed=seed,
    )


def run_two_gaussian(seed: int, batch_size: int):
    inputs = [GaussianSampler([0.0], std=1.0), GaussianSampler([4.0], std=1.0)]
    return run_flow(inputs, two_gaussian_config(seed, batch_size))


@pytest.fixture(scope="session")
def two_gaussian_runs_m128():
    """Five seeded runs at batch size 128, shared across acceptance checks."""
    import time
    out = {}
    for seed in TWO_GAUSSIAN_SEEDS:
        t0 = time.perf_counter()
        final, trace = run_two_gaussian(seed, 128)
        out[seed] = (final, trace, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def two_gaussian_runs_m16():
    out = {}
    for seed in TWO_GAUSSIAN_SEEDS:
        final, trace = run_two_gaussian(seed, 16)
        out[seed] = (final, trace)
    return out


def random_pd_component(rng: np.random.Generator, d: int):
    """A random strictly-PD Gaussian (mu, chol) for gradient/metric tests."""
    a = rng.standard_normal((d, d))
    chol = np.linalg.cholesky(a @ a.T / d + 0.5 * np.eye(d))
    return rng.standard_normal(d), chol


def plain_assignment_plan(c: np.ndarray) -> np.ndarray:
    """Reference for ``ot._assignment_plan``: ``linear_sum_assignment`` on
    the plain cost, rows repeated L/n and columns L/m times (L = lcm(n, m)),
    contracted back to an n x m plan."""
    n, m = c.shape
    L = math.lcm(n, m)
    rows = np.repeat(np.arange(n), L // n)
    cols = np.repeat(np.arange(m), L // m)
    ri, ci = linear_sum_assignment(c[np.ix_(rows, cols)])
    plan = np.zeros((n, m))
    np.add.at(plan, (rows[ri], cols[ci]), 1.0 / L)
    return plan


def cells_coupling(cells, shape) -> np.ndarray:
    """The n x m matrix of a solver's cells (rows, cols, mass), repeated
    cells summed."""
    rows, cols, mass = cells
    plan = np.zeros(shape)
    np.add.at(plan, (rows, cols), mass)
    return plan


def cells_cost(cells, c: np.ndarray) -> float:
    """<plan, c> of a solver's cells (rows, cols, mass)."""
    rows, cols, mass = cells
    return float(mass @ c[rows, cols])


# The dense plan builders of the exact paths as they were before the paths
# returned cells: each scatters its solution into an n x m array. They are
# the oracles for ``TransportPlan.coupling`` of the cell plans.

def dense_line_plan(a, b, x, y) -> np.ndarray:
    """The sorted plan of ``ot.solve_line`` between flat points x and y:
    the north-west-corner coupling of the sorted weights."""
    ix = np.argsort(x, kind="stable")
    iy = np.argsort(y, kind="stable")
    ca = np.cumsum(np.maximum(a[ix], 0.0))
    cb = np.cumsum(np.maximum(b[iy], 0.0))
    cuts = np.union1d(ca, cb)
    rows = np.minimum(np.searchsorted(ca, cuts), np.searchsorted(ca, ca[-1]))
    cols = np.minimum(np.searchsorted(cb, cuts), np.searchsorted(cb, cb[-1]))
    n, m = x.shape[0], y.shape[0]
    return np.bincount(ix[rows] * m + iy[cols],
                       weights=np.diff(cuts, prepend=0.0),
                       minlength=n * m).reshape(n, m)


def dense_assignment_plan(c: np.ndarray) -> np.ndarray:
    """``ot._assignment_plan``: the lcm assignment, on the reduced cost
    where both sides are expanded."""
    n, m = c.shape
    L = math.lcm(n, m)
    rows = np.repeat(np.arange(n), L // n)
    cols = np.repeat(np.arange(m), L // m)
    r = ot._reduced_cost(c) if L > max(n, m) else c
    ri, ci = linear_sum_assignment(r[np.ix_(rows, cols)])
    plan = np.zeros((n, m))
    np.add.at(plan, (rows[ri], cols[ci]), 1.0 / L)
    return plan


def dense_simplex_plan(c: np.ndarray, a, b) -> np.ndarray:
    """``ot._simplex_plan``: the transportation simplex from the least-cost
    start, pivoted by Bland's rule."""
    n, m = c.shape
    mass = ot._least_cost_start(c, a, b)
    rows = [[] for _ in range(n)]
    cols = [[] for _ in range(m)]
    for i, j in mass:
        rows[i].append(j)
        cols[j].append(i)
    cl = c.tolist()
    tol = 1e-12 * float(c.max())
    while True:
        u, v, parent, depth = ot._tree_potentials(cl, rows, cols)
        r = c - u[:, None] - v[None, :]
        k = int(np.argmax(r < -tol))
        if not r.flat[k] < -tol:
            break
        p, q = divmod(k, m)
        path = ot._tree_path(parent, depth, n, p, q)
        minus, plus = path[0::2], path[1::2]
        leave = min(minus, key=lambda cell: (mass[cell], cell))
        theta = mass.pop(leave)
        for cell in minus:
            if cell != leave:
                mass[cell] -= theta
        for cell in plus:
            mass[cell] += theta
        mass[p, q] = theta
        rows[leave[0]].remove(leave[1])
        cols[leave[1]].remove(leave[0])
        rows[p].append(q)
        cols[q].append(p)
    plan = np.zeros((n, m))
    cells = np.array(list(mass), dtype=np.intp)
    plan[cells[:, 0], cells[:, 1]] = list(mass.values())
    return plan


def dense_linprog_plan(c: np.ndarray, a, b) -> np.ndarray:
    """``ot._linprog_plan``: HiGHS on the transport LP of c / max(c)."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = c.shape
    idx = np.arange(n * m)
    ones = np.ones(n * m)
    a_eq = sparse.vstack([
        sparse.coo_matrix((ones, (np.repeat(np.arange(n), m), idx)),
                          shape=(n, n * m)),
        sparse.coo_matrix((ones, (np.tile(np.arange(m), n), idx)),
                          shape=(m, n * m)),
    ]).tocsc()
    b_eq = np.concatenate([a, b])
    top = c.max()
    res = linprog((c / top if top > 0 else c).ravel(), A_eq=a_eq[:-1],
                  b_eq=b_eq[:-1], bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    plan = np.maximum(res.x.reshape(n, m), 0.0)
    plan *= a.sum() / plan.sum()
    return plan


# The point-cloud dispatches of the call sites as they were before
# ``ot.solve_points`` chose the path for all of them: the references for its
# plans and costs.

def flow_plan_dispatch(points, soft_labels, batch, beta, solver):
    """``flow_empirical._solve_plans`` for one batch: uniform weights; the
    sorted plan for exact feature-only plans on a line, else the joint cost
    (labels when beta > 0) solved exactly or by Sinkhorn at the default
    epsilon."""
    n, m = points.shape[0], batch.points.shape[0]
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    if (solver == "exact" and beta == 0
            and points.shape[1] == batch.points.shape[1] == 1):
        return ot.solve_line(a, b, points, batch.points)
    if beta > 0:
        cost = ot.joint_cost(points, batch.points, soft_labels, batch.labels,
                             beta)
    else:
        cost = ot.joint_cost(points, batch.points)
    if solver == "exact":
        return ot.solve_exact(a, b, cost)
    return ot.solve_entropic(a, b, cost, epsilon=ot._default_epsilon(cost),
                             max_iter=2000, tol=1e-9)


def target_potential_dispatch(p, target):
    """``functionals.target_potential``'s plan: the sorted plan on a line,
    else ``solve_auto`` on the feature cost, with the measures' weights."""
    if p.points.shape[1] == target.points.shape[1] == 1:
        return ot.solve_line(p.weights, target.weights, p.points,
                             target.points)
    cost = ot.joint_cost(p.points, target.points)
    return ot.solve_auto(p.weights, target.weights, cost)


def w2_dispatch(p, q):
    """``ot.w2_empirical``'s plan: ``solve_auto`` on the feature cost, with
    the measures' weights, on a line too."""
    return ot.solve_auto(p.weights, q.weights, ot.joint_cost(p.points, q.points))


def uniform_exact_dispatch(x, y):
    """The plans of ``pipeline._propagate_labels`` and of the alignment in
    ``pipeline.msda_adapt``: ``solve_exact`` on the feature cost with uniform
    weights, on a line too."""
    n, m = x.shape[0], y.shape[0]
    return ot.solve_exact(np.full(n, 1.0 / n), np.full(m, 1.0 / m),
                          ot.joint_cost(x, y))


def dense_recost_flow_step(measure, batches, cfg, it):
    """Reference for ``flow_empirical.flow_step``, with the same arguments
    and returns: the same plans and update, with the record priced on dense
    costs, <P, joint_cost(x', y)> for each batch plan and the feature cost
    for the target plan, in place of the plans' moments."""
    x = measure.points
    n = x.shape[0]
    lam = cfg.coordinates.lam
    beta = cfg.label_weight
    spec = cfg.functional
    logits, soft, results, (_, _, e_gx, e_glog, target_plan) = \
        fe._plans_and_energies(measure, batches, cfg)

    grad_x = (2.0 / n) * (x - fe._lam_map(lam, results,
                                          [b.points for b in batches]))
    raw_step = cfg.step_size * n / 2.0
    x_new = x - raw_step * (grad_x + e_gx)
    logits_new = None
    if logits is not None:
        grad_logits = np.zeros_like(logits)
        if beta > 0:
            resid = soft - fe._lam_map(lam, results, [b.labels for b in batches])
            grad_logits = (2.0 * beta / n) * (
                soft * resid - soft * (soft * resid).sum(axis=1, keepdims=True))
        logits_new = logits - raw_step * (grad_logits + e_glog)
    new_measure = EmpiricalMeasure(x_new, measure.weights, logits_new)

    soft_new = None if logits_new is None else softmax(logits_new)
    b_hat = 0.0
    for l, (plan, _), batch in zip(lam, results, batches):
        cost = ot.joint_cost(x_new, batch.points, soft_new, batch.labels, beta)
        b_hat += l * float((plan.coupling * cost).sum())
    v, u, _, _ = _label_energies(x_new, logits_new, spec)
    if target_plan is not None:
        cost = ot.joint_cost(x_new, spec.target_measure.points)
        v += spec.target_weight * float((target_plan.coupling * cost).sum())
    return new_measure, fe._record(it, b_hat, v, u, x_new)


# The covariance form of the Gaussian W2 and of the barycenter fixed point:
# independent oracles for the factor-form Bures kernel in baryflow.gaussian.

# Relative tolerance of matrix_sqrt_psd's symmetry and PSD checks.
SQRT_PSD_TOL = 1e-10


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


def covariance_fixed_point(covs, lam, n_iter: int = 50) -> np.ndarray:
    """Barycenter covariance of the Gaussians with covariances ``covs`` and
    coordinates ``lam``: n_iter steps of
    S <- S^{-1/2} (sum_k lam_k (S^{1/2} Sigma_k S^{1/2})^{1/2})^2 S^{-1/2}
    from the coordinate average of the covariances."""
    s = sum(l * cv for l, cv in zip(lam, covs))
    for _ in range(n_iter):
        sh = matrix_sqrt_psd(s)
        sih = np.linalg.inv(sh)
        t = sum(l * matrix_sqrt_psd(sh @ cv @ sh) for l, cv in zip(lam, covs))
        s = sih @ t @ t @ sih
        s = (s + s.T) / 2.0
    return s


def em_single_reference(data, k, max_iter, tol, rng, diag):
    """Reference for ``gaussian._em_single`` on an (n, d) pool, same
    arguments and returns: the same initialization, E-step and stopping
    rule, with the residuals of both steps formed from the pool as it is,
    (k, n, d) in the M-step."""
    n, d = data.shape
    idx = rng.choice(n, size=k, replace=False)
    mus = data[idx].copy()
    base_cov = np.cov(data.T, ddof=0).reshape(d, d) if n > 1 else np.eye(d)
    covs = np.repeat(_regularized(base_cov[None], diag), k, axis=0)
    pis = np.full(k, 1.0 / k)
    const = -0.5 * d * np.log(2.0 * np.pi)
    logliks = []
    for _ in range(max_iter):
        chols = np.linalg.cholesky(covs)
        u = np.linalg.inv(chols) @ (data.T - mus[:, :, None])
        logdet = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        lp = (const - logdet[:, None] - 0.5 * (u * u).sum(axis=1)).T
        lp = lp + np.log(pis)[None, :]
        total = logsumexp(lp, axis=1)
        resp = np.exp(lp - total[:, None])
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        pis = nk / n
        mus = (resp.T @ data) / nk[:, None]
        diff = data[None, :, :] - mus[:, None, :]
        covs = (resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff
        covs = covs / nk[:, None, None]
        covs = _regularized((covs + covs.transpose(0, 2, 1)) / 2.0, diag)
        logliks.append(float(total.sum()))
        if len(logliks) > 1 and abs(logliks[-1] - logliks[-2]) < tol:
            break
    return pis, mus, np.linalg.cholesky(covs), logliks
