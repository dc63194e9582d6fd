"""Discrete optimal transport: ground costs, exact and entropic solvers.

Costs are squared distances (p = 2 throughout), held in plain 2-D arrays.
The joint feature-label ground metric is
d(z, z')^2 = ||x - x'||^2 + beta * ||y - y'||^2. Every solver that takes a
cost array checks it the same way, once per solve: 2-D, finite and
nonnegative.

Between weighted points on the real line, ``solve_line`` takes the points
themselves, not a cost: its plan is the north-west-corner coupling of the
sorted points, optimal for any weights, and it prices that plan on its at
most n + m - 1 cells, so no n x m cost is formed.

The exact solver ``solve_exact`` takes one of three paths:

- uniform marginals with L = lcm(n, m) at most ``LCM_RATIO_LIMIT * max(n, m)``:
  an L x L assignment problem (exact and fast). When both sides are
  expanded (L > max(n, m)), a short annealed Sinkhorn on the n x m cost
  gives the assignment solver starting prices; they shift every assignment
  by one constant, so the plan is that of the plain cost, which is solved
  instead when median(C) is not positive or the prices are not finite;
- at most ``SIMPLEX_SIZE_LIMIT`` coupling entries: the transportation
  simplex on the dense cost, started from the least-cost basis (cells taken
  in increasing cost, each closing its row or its column) and pivoted by
  Bland's rule;
- everything else: the HiGHS simplex on the transport LP.

Problems above ``EXACT_SIZE_LIMIT`` coupling entries default to the
entropic solver with eps = 0.05 * median(C): Sinkhorn in the scaling domain,
with the scalings absorbed into the potentials before they overflow, and
log-domain updates where the kernel underflows.

Plans are held as their solvers produce them (``TransportPlan``). Every
exact path gives its cells and never scatters them into an n x m array:
the sorted and simplex plans are vertices of the transport polytope, with
at most n + m - 1 cells, HiGHS gives the nonzeros of its solution, and the
lcm assignment one cell per matched pair, L of them. Sinkhorn gives a
dense matrix, whose every entry is positive. ``barycentric_map`` and
``plan_cost``, which prices a plan already solved at moved points, read
either form, so no caller needs to know which it holds, and neither forms
an n x m cost.

This module imports numpy only. The assignment path loads
``scipy.optimize`` and the LP path ``scipy.optimize`` and ``scipy.sparse``
on first use, so ``solve_line``, the transportation simplex and Sinkhorn
never import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import _freeze, logsumexp

__all__ = [
    "TransportPlan",
    "ConvergenceError",
    "joint_cost",
    "squared_distances",
    "solve_exact",
    "solve_line",
    "solve_entropic",
    "solve_auto",
    "barycentric_map",
    "plan_cost",
    "w2_empirical",
]

# The cells of an exact plan: row indices, column indices and masses.
Cells = tuple[np.ndarray, np.ndarray, np.ndarray]

# Above this many coupling entries, solve_auto switches to the entropic solver.
EXACT_SIZE_LIMIT = 250_000
# Uniform problems take the assignment path while lcm(n, m) <= this times
# max(n, m); coprime sizes give lcm = n * m, an (n m)^2 expanded cost.
LCM_RATIO_LIMIT = 4
# Non-assignment problems up to this many coupling entries take the
# transportation simplex, larger ones the HiGHS LP. On square problems with
# Dirichlet weights and 5-D squared-distance costs (1 BLAS thread, 2-vCPU
# Xeon), the simplex from its least-cost start stays faster than HiGHS up to
# about 400-600 entries. The limit stays at 100: raising it would move the
# path choice of larger problems.
SIMPLEX_SIZE_LIMIT = 100
# Sinkhorn epsilon levels (halving from median(C)) and iterations per level
# that price an lcm assignment before it is solved.
_WARM_LEVELS = 9
_WARM_ITERS = 5
# Sinkhorn scalings outside [1 / _SCALING_BOUND, _SCALING_BOUND] are absorbed
# into the potentials, far from float overflow and underflow.
_SCALING_BOUND = 1e30


class ConvergenceError(RuntimeError):
    """A solver failed to reach its convergence criterion."""


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling with prescribed marginals, held in the form its
    solver produced.

    Exact plans hold their cells: ``rows``, ``cols`` and ``mass``, the row,
    column and mass of each entry the solver set, far fewer than the n x m
    entries (a vertex of the transport polytope has at most n + m - 1
    nonzeros). The lcm assignment lists a cell once per matched pair of
    copies, so a cell may repeat, and every reader sums repeated cells.
    Entropic plans hold the dense n x m ``matrix``: every entry of a
    Sinkhorn plan is positive, and a cell list of all of them is slower to
    map and price. A plan is given exactly one of the two forms.
    ``coupling`` is the dense matrix of either, summed from the cells on
    demand.

    ``marginal_tol`` loosens the feasibility check for entropic plans that
    stopped at max_iter; exact plans use the default 1e-8.
    """

    row_marginal: np.ndarray
    col_marginal: np.ndarray
    matrix: np.ndarray | None = None
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None
    mass: np.ndarray | None = None
    marginal_tol: float = 1e-8

    def __post_init__(self):
        a = np.asarray(self.row_marginal, dtype=float)
        b = np.asarray(self.col_marginal, dtype=float)
        n, m = a.shape[0], b.shape[0]
        cells = (self.rows, self.cols, self.mass)
        if (self.matrix is None) == all(c is None for c in cells):
            raise ValueError("a plan holds either a matrix or cells")
        if self.matrix is not None:
            g = np.asarray(self.matrix, dtype=float)
            if g.shape != (n, m):
                raise ValueError("coupling shape does not match the marginals")
            low = g.min(initial=0.0)
            row_sums, col_sums = g.sum(axis=1), g.sum(axis=0)
            object.__setattr__(self, "matrix", _freeze(g))
        else:
            rows, cols = np.asarray(self.rows), np.asarray(self.cols)
            mass = np.asarray(self.mass, dtype=float)
            if not (rows.ndim == 1 and rows.shape == cols.shape == mass.shape):
                raise ValueError(
                    "rows, cols and mass must be 1-D of one length")
            if not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
                raise ValueError("cell rows and cols must be integers")
            if rows.size and not (0 <= rows.min() and rows.max() < n
                                  and 0 <= cols.min() and cols.max() < m):
                raise ValueError("cell index out of the plan's range")
            low = mass.min(initial=0.0)
            row_sums = np.bincount(rows, weights=mass, minlength=n)
            col_sums = np.bincount(cols, weights=mass, minlength=m)
            object.__setattr__(self, "rows", _freeze(rows, np.intp))
            object.__setattr__(self, "cols", _freeze(cols, np.intp))
            object.__setattr__(self, "mass", _freeze(mass))
        if low < -1e-12:
            raise ValueError("coupling has negative entries")
        tol = self.marginal_tol
        if np.abs(row_sums - a).max() > tol:
            raise ValueError("row sums do not match the row marginal")
        if np.abs(col_sums - b).max() > tol:
            raise ValueError("column sums do not match the column marginal")
        object.__setattr__(self, "row_marginal", _freeze(a))
        object.__setattr__(self, "col_marginal", _freeze(b))

    @property
    def coupling(self) -> np.ndarray:
        """The dense n x m coupling, read-only: the matrix of an entropic
        plan, or the cells of an exact plan summed into one."""
        if self.matrix is not None:
            return self.matrix
        n, m = self.row_marginal.shape[0], self.col_marginal.shape[0]
        g = np.bincount(self.rows * m + self.cols, weights=self.mass,
                        minlength=n * m).reshape(n, m)
        g.flags.writeable = False
        return g


def squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of x and y."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    sq = (
        (x * x).sum(axis=1)[:, None]
        + (y * y).sum(axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    return np.maximum(sq, 0.0)


def joint_cost(x, y, labels_x=None, labels_y=None, beta: float = 0.0) -> np.ndarray:
    """Squared joint feature-label cost between two point sets.

    C[i, j] = ||x_i - y_j||^2 + beta * ||labels_x_i - labels_y_j||^2, as a
    read-only nonnegative array. Labels must be present on both sides or on
    neither; with no labels (or beta = 0 and labels dropped) this is the
    squared Euclidean cost.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"feature dimensions differ: {x.shape[1]} vs {y.shape[1]}")
    if (labels_x is None) != (labels_y is None):
        raise ValueError("labels must be given for both sides or neither")
    vals = squared_distances(x, y)
    if labels_x is not None and beta > 0:
        lx = np.atleast_2d(np.asarray(labels_x, dtype=float))
        ly = np.atleast_2d(np.asarray(labels_y, dtype=float))
        if lx.shape[1] != ly.shape[1]:
            raise ValueError("label dimensions differ between the two sides")
        if lx.shape[0] != x.shape[0] or ly.shape[0] != y.shape[0]:
            raise ValueError("labels must have one row per point")
        vals = vals + beta * squared_distances(lx, ly)
    vals.flags.writeable = False
    return vals


def _check_cost(C) -> np.ndarray:
    """The solvers' input check: ``C`` as a 2-D, finite, nonnegative float
    array (entries within 1e-12 below zero are clamped to zero)."""
    Cv = np.asarray(C, dtype=float)
    if Cv.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    if not np.all(np.isfinite(Cv)):
        raise ValueError("cost matrix contains non-finite entries")
    low = Cv.min(initial=0.0)
    if low < -1e-12:
        raise ValueError("cost matrix contains negative entries")
    return np.maximum(Cv, 0.0) if low < 0 else Cv


def _check_marginals(a: np.ndarray, b: np.ndarray, n: int, m: int) -> None:
    if n == 0 or m == 0:
        raise ValueError(f"empty transport problem: sizes ({n}, {m})")
    if a.shape != (n,) or b.shape != (m,):
        raise ValueError(
            f"marginal sizes {a.shape}, {b.shape} do not match the problem "
            f"sizes ({n}, {m})")
    if np.any(a < -1e-12) or np.any(b < -1e-12):
        raise ValueError("marginals must be nonnegative")
    if abs(a.sum() - b.sum()) > 1e-8:
        raise ValueError(
            f"infeasible marginals: masses {a.sum():.12g} vs {b.sum():.12g}")


def _is_uniform(w: np.ndarray) -> bool:
    return bool(np.all(np.abs(w - 1.0 / w.shape[0]) <= 1e-12))


def _assignment_plan(C: np.ndarray) -> Cells:
    """Cells of an exact plan for uniform marginals.

    Rows are repeated L/n times and columns L/m times, L = lcm(n, m), into a
    square assignment problem; Birkhoff's theorem makes the contracted
    solution optimal for the original LP. Each of the L matched pairs is one
    cell of mass 1/L at its original row and column, so a cell repeats when
    several copies of one row match copies of one column. With an integer
    size ratio L = max(n, m), and the plain expanded cost is solved: there
    starting prices gain no time and reorder tied plans.

    When both sides are expanded (L > max(n, m)), the solver is given
    starting prices: the expanded cost is the reduced cost
    C - f (+) g of ``_reduced_cost``, formed on the n x m cost and then
    expanded. A full assignment uses every row copy and every column copy
    once, so the shift adds the same constant
    sum_i (L/n) f_i + sum_j (L/m) g_j to every assignment, and the optimal
    assignments are those of the plain cost. When median(C) is not positive,
    or the reduced cost is not finite, the plain expanded cost is solved.
    """
    from scipy.optimize import linear_sum_assignment

    n, m = C.shape
    L = math.lcm(n, m)
    rows = np.repeat(np.arange(n), L // n)
    cols = np.repeat(np.arange(m), L // m)
    R = _reduced_cost(C) if L > max(n, m) else C
    ri, ci = linear_sum_assignment(R[np.ix_(rows, cols)])
    return rows[ri], cols[ci], np.full(L, 1.0 / L)


def _reduced_cost(C: np.ndarray) -> np.ndarray:
    """C - f (+) g for approximate dual prices (f, g) of the uniform problem
    on ``C``: a short annealed Sinkhorn, ``_WARM_ITERS`` iterations at each
    of ``_WARM_LEVELS`` epsilons halving from median(C). ``C`` itself when
    median(C) is not positive or the reduced cost is not finite."""
    eps = float(np.median(C))
    if not eps > 0:
        return C
    n, m = C.shape
    f, g = np.zeros(n), np.zeros(m)
    a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    for _ in range(_WARM_LEVELS):
        f, g = _sinkhorn_potentials(C, a, b, f, g, eps,
                                    max_iter=_WARM_ITERS, tol=0.0)
        eps /= 2.0
    R = C - f[:, None] - g[None, :]
    return R if np.all(np.isfinite(R)) else C


def _monotone_plan(a: np.ndarray, b: np.ndarray, x: np.ndarray,
                   y: np.ndarray) -> Cells:
    """Cells of the north-west-corner coupling of ``a`` and ``b`` with rows
    in stable ``argsort(x)`` order and columns in ``argsort(y)`` order, as
    (row indices, column indices, masses), at most n + m - 1 of them.

    On the real line this monotone coupling is optimal for any convex cost
    of x - y and any weights (Peyre & Cuturi, Computational Optimal
    Transport, 2019, section 2.6). Each merged breakpoint of the two
    cumulative weights closes one segment, whose mass goes to the row and
    the column that are open on it.
    """
    ix = np.argsort(x, kind="stable")
    iy = np.argsort(y, kind="stable")
    ca = np.cumsum(np.maximum(a[ix], 0.0))
    cb = np.cumsum(np.maximum(b[iy], 0.0))
    # the distinct values of both cumulative sums, in order (np.union1d's
    # values, without its general-purpose overhead)
    cuts = np.concatenate((ca, cb))
    cuts.sort()
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    # rounding may leave one total a little below the other; the last row
    # (column) of positive weight takes the rest
    rows = np.minimum(np.searchsorted(ca, cuts), np.searchsorted(ca, ca[-1]))
    cols = np.minimum(np.searchsorted(cb, cuts), np.searchsorted(cb, cb[-1]))
    return ix[rows], iy[cols], cuts - np.concatenate(([0.0], cuts[:-1]))


def _line_points(points) -> np.ndarray:
    """``points`` as a flat float array; they must be finite and lie on a
    line, shape (n,) or (n, 1)."""
    p = np.asarray(points, dtype=float)
    if p.ndim not in (1, 2) or p.size != p.shape[0]:
        raise ValueError(
            f"points must be 1-D, shape (n,) or (n, 1), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("points contain non-finite values")
    return p.reshape(-1)


def _linprog_plan(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> Cells:
    """Cells of an exact plan by HiGHS on the transport LP: the nonzeros of
    its solution. HiGHS sees the cost scaled to max 1, since its tolerances
    are absolute, and its solution is clipped at zero and scaled to the row
    mass."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = C.shape
    cols = np.arange(n * m)
    ones = np.ones(n * m)
    A_eq = sparse.vstack([
        sparse.coo_matrix((ones, (np.repeat(np.arange(n), m), cols)),
                          shape=(n, n * m)),
        sparse.coo_matrix((ones, (np.tile(np.arange(m), n), cols)),
                          shape=(m, n * m)),
    ]).tocsc()
    b_eq = np.concatenate([a, b])
    top = C.max()
    c = (C / top if top > 0 else C).ravel()
    # drop one redundant constraint so the system has full row rank
    res = linprog(c, A_eq=A_eq[:-1], b_eq=b_eq[:-1],
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise ConvergenceError(f"exact OT LP failed: {res.message}")
    # clean tiny solver noise so the plan passes feasibility validation
    x = np.maximum(res.x, 0.0)
    k = np.flatnonzero(x)
    return k // m, k % m, x[k] * (a.sum() / x.sum())


def _simplex_plan(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> Cells:
    """Cells of an exact plan by the transportation simplex (Peyre & Cuturi,
    Computational Optimal Transport, 2019, section 3).

    The basis is a spanning tree of n + m - 1 cells of the bipartite
    row-column graph, started by the least-cost (matrix-minimum) rule. The
    cells are visited in stable ``argsort(C)`` order, and each cell whose
    row and column are both open takes the smaller of their remainders and
    closes exactly one of them. The row closes when its remainder is at
    most the column's and another row is open, and also when its column is
    the last one open, which a mass mismatch within rounding could close
    early; the column closes otherwise. Each pivot prices the cells with
    the potentials u_i + v_j = C_ij of the basis, enters the first cell in
    row-major order with a negative reduced cost and moves mass around the
    cycle it closes in the tree; of the tied leaving cells the first in
    row-major order leaves. This is Bland's rule, so
    degenerate pivots cannot cycle. A mismatch between sum(a) and sum(b)
    stays in the marginals of the plan, as in the LP. The cells are the
    n + m - 1 of the final basis, zero-mass ones included.
    """
    n, m = C.shape
    mass = _least_cost_start(C, a, b)
    rows = [[] for _ in range(n)]  # basis columns of each row
    cols = [[] for _ in range(m)]  # basis rows of each column
    for i, j in mass:
        rows[i].append(j)
        cols[j].append(i)

    Cl = C.tolist()
    tol = 1e-12 * float(C.max())
    while True:
        u, v, parent, depth = _tree_potentials(Cl, rows, cols)
        r = C - u[:, None] - v[None, :]
        k = int(np.argmax(r < -tol))
        if not r.flat[k] < -tol:
            break
        p, q = divmod(k, m)
        path = _tree_path(parent, depth, n, p, q)
        minus, plus = path[0::2], path[1::2]
        leave = min(minus, key=lambda c: (mass[c], c))
        theta = mass.pop(leave)
        for c in minus:
            if c != leave:
                mass[c] -= theta
        for c in plus:
            mass[c] += theta
        mass[p, q] = theta
        rows[leave[0]].remove(leave[1])
        cols[leave[1]].remove(leave[0])
        rows[p].append(q)
        cols[q].append(p)

    cells = np.array(list(mass), dtype=np.intp)
    return cells[:, 0], cells[:, 1], np.array(list(mass.values()))


def _least_cost_start(C: np.ndarray, a: np.ndarray, b: np.ndarray
                      ) -> dict[tuple[int, int], float]:
    """The least-cost starting basis of ``_simplex_plan``: its n + m - 1
    cells (i, j), in the order they were taken, with their masses.

    Each cell taken closes exactly one line, and a closed line takes no
    later cell, so the cells form no cycle; a row and a column stay open
    until the last cell, so the n + m - 1 cells span every line."""
    n, m = C.shape
    ra = np.maximum(a, 0.0).tolist()  # row remainders, None once closed
    rb = np.maximum(b, 0.0).tolist()  # column remainders, None once closed
    open_rows, open_cols = n, m
    mass = {}
    for k in np.argsort(C, axis=None, kind="stable").tolist():
        i, j = divmod(k, m)
        if ra[i] is None or rb[j] is None:
            continue
        t = min(ra[i], rb[j])
        mass[i, j] = t
        ra[i] -= t
        rb[j] -= t
        if open_rows > 1 and (ra[i] <= rb[j] or open_cols == 1):
            ra[i] = None
            open_rows -= 1
        else:
            rb[j] = None
            open_cols -= 1
            if open_cols == 0:
                break
    return mass


def _tree_potentials(Cl, rows, cols):
    """Potentials with u_i + v_j = C_ij on every basis cell and u_0 = 0,
    by a depth-first walk of the basis tree from row 0, with each node's
    parent and depth in that walk. Tree node i < n is row i, node n + j
    column j."""
    n, m = len(rows), len(cols)
    u = [0.0] * n
    v = [0.0] * m
    parent = [-1] * (n + m)
    depth = [-1] * (n + m)
    depth[0] = 0
    stack = [0]
    while stack:
        k = stack.pop()
        if k < n:
            for j in rows[k]:
                if depth[n + j] < 0:
                    parent[n + j], depth[n + j] = k, depth[k] + 1
                    v[j] = Cl[k][j] - u[k]
                    stack.append(n + j)
        else:
            j = k - n
            for i in cols[j]:
                if depth[i] < 0:
                    parent[i], depth[i] = k, depth[k] + 1
                    u[i] = Cl[i][j] - v[j]
                    stack.append(i)
    return np.array(u), np.array(v), parent, depth


def _tree_path(parent, depth, n: int, p: int, q: int) -> list[tuple[int, int]]:
    """Basis cells on the tree path from row ``p`` to column ``q``, in
    order from row ``p``: they alternate losing and gaining mass when
    (p, q) enters. Climbs from both ends to their common ancestor in the
    walk of ``_tree_potentials``."""
    def cell(k):
        return (k, parent[k] - n) if k < n else (parent[k], k - n)

    head, tail = [], []
    x, y = p, n + q
    while x != y:
        if depth[x] >= depth[y]:
            head.append(cell(x))
            x = parent[x]
        else:
            tail.append(cell(y))
            y = parent[y]
    return head + tail[::-1]


def solve_line(a, b, x, y) -> tuple[TransportPlan, float]:
    """Solve the OT problem between weighted points on the real line
    exactly, for the squared distance.

    ``x`` (n points) and ``y`` (m points) have shape (n,) or (n, 1), likewise
    (m,) or (m, 1), and are finite; ``a`` and ``b`` are their weights. The
    plan is the north-west-corner coupling of the sorted points
    (``_monotone_plan``), optimal for any weights, held as its at most
    n + m - 1 cells, and the returned cost is sum w (x_i - y_j)^2 over them,
    so no n x m array is formed.
    """
    x, y = _line_points(x), _line_points(y)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    _check_marginals(a, b, x.shape[0], y.shape[0])
    rows, cols, mass = _monotone_plan(a, b, x, y)
    cost = float(mass @ (x[rows] - y[cols]) ** 2)
    return TransportPlan(a, b, rows=rows, cols=cols, mass=mass), cost


def solve_exact(a, b, C: np.ndarray) -> tuple[TransportPlan, float]:
    """Solve the discrete OT problem exactly.

    Returns the optimal plan, held as the cells its path produced, and its
    cost sum mass * C[rows, cols] over them. The path is chosen here:
    uniform marginals take the assignment reduction, while
    L = lcm(n, m) is at most ``LCM_RATIO_LIMIT * max(n, m)``, solved with
    Sinkhorn starting prices where L > max(n, m) and on the plain cost where
    median(C) is not positive or the prices are not finite
    (``_assignment_plan``); other problems of at most ``SIMPLEX_SIZE_LIMIT``
    coupling entries the transportation simplex; and everything else the
    HiGHS LP. Points on a line are solved without a cost by ``solve_line``.
    """
    Cv = _check_cost(C)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n, m = Cv.shape
    _check_marginals(a, b, n, m)
    if (_is_uniform(a) and _is_uniform(b)
            and math.lcm(n, m) <= LCM_RATIO_LIMIT * max(n, m)):
        rows, cols, mass = _assignment_plan(Cv)
    elif n * m <= SIMPLEX_SIZE_LIMIT:
        rows, cols, mass = _simplex_plan(Cv, a, b)
    else:
        rows, cols, mass = _linprog_plan(Cv, a, b)
    cost = float(mass @ Cv[rows, cols])
    return TransportPlan(a, b, rows=rows, cols=cols, mass=mass), cost


def solve_entropic(a, b, C: np.ndarray, epsilon: float,
                   max_iter: int = 10_000, tol: float = 1e-9,
                   ) -> tuple[TransportPlan, float]:
    """Entropy-regularized OT via stabilized Sinkhorn scaling iterations
    (``_sinkhorn_potentials``), annealing epsilon from median(C) by halving.
    Rows and columns of zero mass get exact zeros, and the rest is solved on
    the positive-mass support.

    The returned cost is <plan, C> without the entropy term. If the marginal
    violation is still above ``tol`` at ``max_iter``, the plan is returned
    with its feasibility tolerance widened to the observed violation.
    ``epsilon`` must be finite and positive, ``max_iter`` at least 1 and
    ``tol`` finite and nonnegative.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and >= 0")
    Cv = _check_cost(C)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n, m = Cv.shape
    _check_marginals(a, b, n, m)

    rows, cols = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
    support = np.ix_(rows, cols)
    Cs, a_s, b_s = Cv[support], a[rows], b[cols]
    f = np.zeros(Cs.shape[0])
    g = np.zeros(Cs.shape[1])

    # epsilon scaling: anneal from median(C) down to the target, warm-starting
    # the potentials at each level
    levels = []
    e = float(np.median(Cv))
    while e > 2.0 * epsilon:
        levels.append(e)
        e /= 2.0
    if Cs.size:
        for eps in levels:
            f, g = _sinkhorn_potentials(Cs, a_s, b_s, f, g, eps,
                                        max_iter=30, tol=0.0)
        f, g = _sinkhorn_potentials(Cs, a_s, b_s, f, g, epsilon,
                                    max_iter=max_iter, tol=tol)

    plan = np.zeros((n, m))
    plan[support] = _gibbs(Cs, f, g, epsilon)
    if not np.all(np.isfinite(plan)):
        raise ConvergenceError("entropic solver produced non-finite plan")
    violation = max(
        float(np.max(np.abs(plan.sum(axis=1) - a))),
        float(np.max(np.abs(plan.sum(axis=0) - b))),
    )
    cost = float((plan * Cv).sum())
    return TransportPlan(a, b, matrix=plan,
                         marginal_tol=max(1e-8, violation)), cost


def _sinkhorn_potentials(Cv, a, b, f, g, eps, max_iter, tol):
    """Sinkhorn at one epsilon level on positive marginals; returns (f, g).

    The plan is diag(u) K diag(v) with K = exp((f + g - C) / eps), and each
    iteration is two matrix-vector products: v = b / (K^T u), then
    u = a / (K v), so row marginals are satisfied exactly. Every 5
    iterations and at the last one, the column violation |v (K^T u) - b| is
    read, and the updates stop once it is at most ``tol`` (never when
    ``tol`` is 0). At the same points, scalings outside [1e-30, 1e30]
    (``_SCALING_BOUND``) are absorbed into (f, g) and K is rebuilt. A
    scaling that is 0, inf or NaN (a row or column of K underflowed)
    restarts the level from its starting potentials with the log-domain
    updates of ``_sinkhorn_log``.
    """
    f0, g0 = f, g
    with np.errstate(all="ignore"):
        K = _gibbs(Cv, f, g, eps)
        u = np.ones_like(f)
        Ktu = u @ K
        for it in range(max_iter):
            v = b / Ktu
            u = a / (K @ v)
            Ktu = u @ K
            if it % 5 != 4 and it != max_iter - 1:
                continue
            low = min(u.min(), v.min())
            high = max(u.max(), v.max())
            if not 0.0 < low <= high < np.inf:
                return _sinkhorn_log(Cv, a, b, f0, g0, eps, max_iter, tol)
            if tol > 0 and np.max(np.abs(v * Ktu - b)) <= tol:
                break
            if low < 1.0 / _SCALING_BOUND or high > _SCALING_BOUND:
                f = f + eps * np.log(u)
                g = g + eps * np.log(v)
                K = _gibbs(Cv, f, g, eps)
                u, v = np.ones_like(f), np.ones_like(g)
                Ktu = u @ K
    return f + eps * np.log(u), g + eps * np.log(v)


def _sinkhorn_log(Cv, a, b, f, g, eps, max_iter, tol):
    """Log-domain Sinkhorn updates at one epsilon level, the fallback of
    ``_sinkhorn_potentials`` with the same update order and stopping rule;
    returns (f, g)."""
    loga, logb = np.log(a), np.log(b)
    keps = -Cv / eps
    for it in range(max_iter):
        g = eps * (logb - logsumexp(keps + f[:, None] / eps, axis=0))
        f = eps * (loga - logsumexp(keps + g[None, :] / eps, axis=1))
        if tol > 0 and (it % 5 == 4 or it == max_iter - 1):
            plan = np.exp(keps + (f[:, None] + g[None, :]) / eps)
            violation = float(np.max(np.abs(plan.sum(axis=0) - b)))
            if violation <= tol:
                break
    return f, g


def _gibbs(Cv, f, g, eps):
    """exp((f_i + g_j - C_ij) / eps): the entropic plan of potentials (f, g),
    and the Sinkhorn kernel they offset."""
    return np.exp((f[:, None] + g[None, :] - Cv) / eps)


def _default_epsilon(Cv: np.ndarray) -> float:
    """Entropic epsilon 0.05 * median(C), which keeps the regularization
    scale-invariant; 1e-6 when that is not positive."""
    eps = 0.05 * float(np.median(Cv))
    return eps if eps > 0 else 1e-6


def solve_auto(a, b, C: np.ndarray) -> tuple[TransportPlan, float]:
    """Exact plan up to EXACT_SIZE_LIMIT coupling entries, entropic above,
    with the default epsilon. The chosen solver checks ``C``."""
    Cv = np.asarray(C, dtype=float)
    if Cv.size <= EXACT_SIZE_LIMIT:
        return solve_exact(a, b, Cv)
    return solve_entropic(a, b, Cv, epsilon=_default_epsilon(Cv),
                          max_iter=2000, tol=1e-7)


def plan_cost(plan: TransportPlan, x: np.ndarray, y: np.ndarray) -> float:
    """<P, C> for the plan P and the squared Euclidean cost
    C[i, j] = ||x_i - y_j||^2 between the rows of the 2-D float arrays x
    and y, with no n x m cost formed.

    Cells are priced one by one: sum_k mass_k ||x_{rows_k} - y_{cols_k}||^2.
    A dense plan is priced by its moments:
    sum_i r_i ||x_i||^2 + sum_j c_j ||y_j||^2 - 2 <x, P y>, with r and c the
    row and column sums of P itself, not the marginals it was solved for,
    which an entropic plan meets only within its tolerance. Both sides are
    first centred on the mean of all the plan's mass, the r-weighted x and
    the c-weighted y together: that centre makes the two square terms as
    small as any centre can, so they stay near the size of the value even
    for points far from the origin. Clamped at 0, as each entry of C is.
    """
    if plan.matrix is None:
        d = x[plan.rows] - y[plan.cols]
        value = plan.mass @ (d * d).sum(axis=1)
    else:
        g = plan.matrix
        r, c = g.sum(axis=1), g.sum(axis=0)
        centre = (r @ x + c @ y) / (r.sum() + c.sum())
        xc, yc = x - centre, y - centre
        value = (r @ (xc * xc).sum(axis=1) + c @ (yc * yc).sum(axis=1)
                 - 2.0 * np.vdot(xc, g @ yc))
    return max(float(value), 0.0)


def barycentric_map(plan: TransportPlan, y: np.ndarray) -> np.ndarray:
    """Conditional mean of ``y`` under the plan: row i of the output is
    sum_j plan_ij y_j / sum_j plan_ij. Cells are summed into their rows by
    one ``bincount`` over (row, coordinate) slots; a dense plan is one
    product."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, d = plan.row_marginal.shape[0], y.shape[1]
    if plan.col_marginal.shape[0] != y.shape[0]:
        raise ValueError("plan columns do not match the target points")
    if plan.matrix is None:
        rows, mass = plan.rows, plan.mass
        row_mass = np.bincount(rows, weights=mass, minlength=n)
        slots = (rows[:, None] * d + np.arange(d)).ravel()
        moved = (mass[:, None] * y[plan.cols]).ravel()
        total = np.bincount(slots, weights=moved,
                            minlength=n * d).reshape(n, d)
    else:
        row_mass = plan.matrix.sum(axis=1)
        total = plan.matrix @ y
    if np.any(row_mass <= 0):
        raise ValueError("plan has a zero row marginal; map is undefined")
    return total / row_mass[:, None]


def _on_line(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether the rows of the 2-D point arrays x and y all lie on the real
    line: there an exact plan for the squared distance between the points
    alone (no label term) is ``solve_line``'s, with no cost matrix."""
    return x.shape[1] == y.shape[1] == 1


def w2_empirical(p, q) -> float:
    """2-Wasserstein distance between the feature clouds of two measures
    (labels play no part). Exact plans below EXACT_SIZE_LIMIT entries,
    entropic above.
    """
    _, cost = solve_auto(p.weights, q.weights, joint_cost(p.points, q.points))
    return float(np.sqrt(max(cost, 0.0)))
