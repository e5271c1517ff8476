"""Small dense linear programming with primal and dual solutions.

Canonical form:  maximize c.x  subject to  A x <= b,  x >= 0.

The solver is a two-phase tableau simplex with Bland's anti-cycling rule
and dense storage.  Instances in this package are desk scale (at most a
few thousand variables, a handful of rows), so robustness and exact dual
extraction matter more than speed.  Rows and the objective are scaled by
powers of two before solving, which conditions pivots without introducing
any rounding of its own.

On top of the raw solver sit the consumer-side helpers.  The equilibrium
verifiers need two numbers per agent, the consumer value and the minimal
cost among maximizers; `consumer_envelope` computes both exactly in
closed form from the upper concave envelope of the (price, utility)
points, with no LP.  The LP forms remain for callers that need a
lottery or duals: the budgeted lottery demand problem with its duals
(mu0, mu1), its minimal-cost refinement, and the supporting shadow prices
(c, alpha) with alpha * p >= u - c tight on the demand's support.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import EPS_LP, EPS_SUPP

_PIVOT_TOL = 1e-11
_RATIO_TIE = 1e-12

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(RuntimeError):
    """Pivot limit exceeded or an ill-conditioned basis; never silent garbage."""


class _Unbounded(Exception):
    pass


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  s.t.  constraint_matrix @ x <= rhs,  x >= 0."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.asarray(self.constraint_matrix, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("bad LP shapes")
        r, m = A.shape
        if r < 1 or m < 1 or c.shape[0] != m or b.shape[0] != r:
            raise ValueError("bad LP shapes")
        if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("LP entries must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", A)
        object.__setattr__(self, "rhs", b)


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: np.ndarray | None
    dual: np.ndarray | None
    objective_value: float | None


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    piv_row = T[row]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * piv_row
    basis[row] = col


def _run_simplex(T, basis, eligible, max_iter):
    """Bland's rule on tableau T (last row = reduced costs, last col = rhs)."""
    rows = T.shape[0] - 1
    for _ in range(max_iter):
        enter = -1
        obj = T[-1]
        for j in eligible:
            if obj[j] > _PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = np.inf
        for i in range(rows):
            a = T[i, enter]
            if a > _PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best - _RATIO_TIE or (
                    abs(ratio - best) <= _RATIO_TIE
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise _Unbounded
        _pivot(T, basis, leave, enter)
    raise LpError("simplex pivot limit exceeded; cycling or ill-conditioned input")


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP.  Deterministic: identical inputs yield identical output."""
    c0 = lp.objective
    A0 = lp.constraint_matrix
    b0 = lp.rhs
    r, m = A0.shape

    # Power-of-two equilibration; exact in binary floating point.
    row_mag = np.maximum(np.abs(A0).max(axis=1), np.abs(b0))
    row_scale = np.exp2(np.round(np.log2(np.where(row_mag > 0, row_mag, 1.0))))
    c_mag = np.abs(c0).max()
    c_scale = np.exp2(np.round(np.log2(c_mag))) if c_mag > 0 else 1.0

    A = A0 / row_scale[:, None]
    b = b0 / row_scale
    c = c0 / c_scale

    flip = b < 0
    n_art = int(flip.sum())
    ncols = m + r + n_art

    T = np.zeros((r + 1, ncols + 1))
    T[:r, :m] = np.where(flip[:, None], -A, A)
    T[:r, m : m + r] = np.diag(np.where(flip, -1.0, 1.0))
    T[:r, -1] = np.where(flip, -b, b)
    basis = np.empty(r, dtype=np.int64)
    art_col = m + r
    for i in range(r):
        if flip[i]:
            T[i, art_col] = 1.0
            basis[i] = art_col
            art_col += 1
        else:
            basis[i] = m + i

    max_iter = 10_000 + 30 * (m + r)
    eligible = range(m + r)

    if n_art:
        # Phase 1: maximize minus the sum of artificials.
        T[-1, :] = 0.0
        for i in range(r):
            if basis[i] >= m + r:
                T[-1] += T[i]
        T[-1, m + r : -1] = 0.0
        try:
            _run_simplex(T, basis, eligible, max_iter)
        except _Unbounded as exc:  # pragma: no cover - phase 1 is bounded
            raise LpError("phase 1 reported unbounded") from exc
        if T[-1, -1] > 1e-8:
            return LpSolution(INFEASIBLE, None, None, None)
        # Drive leftover zero-level artificials out of the basis.
        for i in range(r):
            if basis[i] >= m + r:
                row = T[i, : m + r]
                cols = np.nonzero(np.abs(row) > 1e-9)[0]
                if cols.size:
                    _pivot(T, basis, i, int(cols[0]))

    # Phase 2 objective row: reduced costs of c under the current basis.
    T[-1, :] = 0.0
    T[-1, :m] = c
    for i in range(r):
        j = basis[i]
        if T[-1, j] != 0.0:
            T[-1] -= T[-1, j] * T[i]
    try:
        _run_simplex(T, basis, eligible, max_iter)
    except _Unbounded:
        return LpSolution(UNBOUNDED, None, None, None)

    x = np.zeros(ncols)
    x[basis] = T[:r, -1]
    primal = x[:m].copy()

    # Duals from the basis in original column geometry: solve B^T y = c_B.
    B = np.zeros((r, r))
    c_B = np.zeros(r)
    for i in range(r):
        j = basis[i]
        if j < m:
            B[:, i] = A[:, j]
            c_B[i] = c[j]
        elif j < m + r:
            B[j - m, i] = 1.0
        else:
            B[np.nonzero(flip)[0][j - m - r], i] = 1.0
    try:
        y = np.linalg.solve(B.T, c_B)
    except np.linalg.LinAlgError:
        y, *_ = np.linalg.lstsq(B.T, c_B, rcond=None)
    dual = np.maximum(y, 0.0) * (c_scale / row_scale)
    value = float(c0 @ primal)

    _self_check(c0, A0, b0, primal, dual, value)
    return LpSolution(OPTIMAL, primal, dual, value)


def _self_check(c, A, b, x, mu, value):
    scale = 1.0 + max(np.abs(b).max(), np.abs(c).max(), abs(value))
    tol = 1e-6 * scale
    slack = b - A @ x
    if slack.min() < -tol or x.min() < -tol:
        raise LpError("primal feasibility lost after pivoting")
    if (A.T @ mu - c).min() < -tol:
        raise LpError("dual feasibility lost after pivoting")
    if abs(b @ mu - value) > tol:
        raise LpError("strong duality violated beyond tolerance")


def solve_arrays(c, A, b) -> LpSolution:
    return solve(LinearProgram(np.asarray(c, float), np.asarray(A, float), np.asarray(b, float)))


@dataclass(frozen=True)
class ConsumerOptimum:
    value: float
    demand: np.ndarray
    mu0: float  # shadow price of the unit-mass constraint e.q <= 1
    mu1: float  # shadow price of the budget constraint p.q <= 1


def consumer_problem(u_i, p_i) -> ConsumerOptimum:
    """maximize u_i.q  s.t.  p_i.q <= 1,  e.q <= 1,  q >= 0.

    Returns one optimal lottery and the duals (mu0 for mass, mu1 for budget),
    so that mu1 * p_i^j >= u_i^j - mu0 holds for all outcomes j, with
    equality wherever q^j > 0.
    """
    u = np.asarray(u_i, dtype=float)
    p = np.asarray(p_i, dtype=float)
    _check_consumer_inputs(u, p)
    A = np.vstack([p, np.ones_like(u)])
    sol = solve_arrays(u, A, np.ones(2))
    if sol.status != OPTIMAL:  # pragma: no cover - always feasible and bounded
        raise LpError(f"consumer problem reported {sol.status}")
    return ConsumerOptimum(sol.objective_value, sol.primal, float(sol.dual[1]), float(sol.dual[0]))


def _check_consumer_inputs(u, p):
    if u.ndim != 1 or p.shape != u.shape:
        raise ValueError("utility and price rows must be 1-d and equal length")
    if u.min() < 0 or p.min() < 0:
        raise ValueError("utilities and prices must be nonnegative")
    if u.max() <= 0:
        raise ValueError("agent has no stake: utility row is all zeros")


def consumer_envelope(u_i, p_i) -> tuple[float, float]:
    """Consumer value V and the minimal cost among maximizers, in closed form.

    The consumer problem is max u.q  s.t.  p.q <= 1,  e.q <= 1,  q >= 0.
    Its lotteries map (cost, utility) = (p.q, u.q) onto the convex hull of
    the points (p_j, u_j) and the origin, so V is the maximum over cost <= 1
    of the hull's upper concave envelope, and the minimal cost is the least
    cost at which the envelope reaches V.  Only the Pareto staircase (each
    point strictly above every cheaper one) can lie on the envelope's
    rising part: when its top is affordable it gives both numbers at once;
    otherwise the envelope is strictly rising up to cost 1, so the minimal
    cost is 1 and V is the envelope's height there.  One sort, one running
    maximum and a monotone chain over the staircase: O(k log k) time and
    O(k) memory, with no slack on the utility level.
    """
    u = np.asarray(u_i, dtype=float)
    p = np.asarray(p_i, dtype=float)
    _check_consumer_inputs(u, p)
    xs = np.concatenate(([0.0], p))
    ys = np.concatenate(([0.0], u))
    order = np.lexsort((-ys, xs))  # by cost, the best utility first on ties
    xs, ys = xs[order], ys[order]
    stair = np.empty(ys.shape[0], dtype=bool)
    stair[0] = True
    stair[1:] = ys[1:] > np.maximum.accumulate(ys)[:-1]
    xs, ys = xs[stair].tolist(), ys[stair].tolist()
    if xs[-1] <= 1.0:
        return ys[-1], xs[-1]
    hull: list[tuple[float, float]] = []
    for x, y in zip(xs, ys):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) < (y1 - y0) * (x - x0):
                break
            hull.pop()  # (x1, y1) lies on or below the chord
        hull.append((x, y))
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x1 > 1.0:  # the last vertex lies beyond 1, so this always breaks
            break
    return y0 + (y1 - y0) * (1.0 - x0) / (x1 - x0), 1.0


def minimal_cost_demand(u_i, p_i):
    """Among maximizers of the consumer problem, one of minimal expenditure.

    Returns (q, cost), solved as an LP with the utility floor relaxed by
    1e-12 * (1 + |V|).  `consumer_envelope` gives the exact minimal cost
    without a lottery.
    """
    u = np.asarray(u_i, dtype=float)
    p = np.asarray(p_i, dtype=float)
    opt = consumer_problem(u, p)
    k = u.shape[0]
    scale = 1.0 + abs(opt.value)
    # minimize p.q == maximize -p.q, keeping utility at its optimum.
    rows = [np.ones(k), -u]
    rhs = [1.0, -(opt.value - 1e-12 * scale)]
    sol = solve_arrays(-p, np.vstack(rows), np.array(rhs))
    if sol.status != OPTIMAL:  # pragma: no cover
        raise LpError(f"minimal-cost refinement reported {sol.status}")
    q = np.where(np.abs(sol.primal) < 1e-11, 0.0, sol.primal)  # snap relaxation dust
    return q, float(p @ q)


def shadow_prices(u_i, p_i, q):
    """Supporting prices (c, alpha) for a minimal-cost optimum with a tight budget.

    Requires q to be a unit-mass, minimal-cost maximizer with p_i.q = 1.
    Returns c >= 0 and alpha > 0 with alpha * p_i^j >= u_i^j - c for every
    outcome j, holding with equality on the support of q.  When all support
    utilities coincide and the budget dual degenerates to zero, c is the
    largest utility among outcomes priced below one.
    """
    u = np.asarray(u_i, dtype=float)
    p = np.asarray(p_i, dtype=float)
    qv = np.asarray(q, dtype=float)
    _check_consumer_inputs(u, p)
    if qv.shape != u.shape or qv.min() < -EPS_LP:
        raise ValueError("q must be a nonnegative lottery over the outcomes")
    scale = 1.0 + max(u.max(), 1.0)
    if abs(qv.sum() - 1.0) > 1e-7:
        raise ValueError("precondition failed: q does not have unit mass")
    if abs(p @ qv - 1.0) > 1e-7:
        raise ValueError("precondition failed: budget p.q = 1 is not tight")
    opt = consumer_problem(u, p)
    if u @ qv < opt.value - 1e-7 * scale:
        raise ValueError("precondition failed: q is not a consumer optimum")
    _, min_cost = consumer_envelope(u, p)
    if p @ qv > min_cost + 1e-7 * scale:
        raise ValueError("precondition failed: q is not minimal cost")

    support = qv > EPS_SUPP
    us = u[support]
    distinct = us.max() - us.min() > 1e-9 * scale
    if distinct:
        if opt.mu1 <= EPS_LP:  # pragma: no cover - excluded by the preconditions
            raise LpError("degenerate budget dual with distinct support utilities")
        c, alpha = opt.mu0, opt.mu1
    else:
        beta = float(us.max())
        if opt.mu1 > EPS_LP:
            alpha = opt.mu1
            c = max(beta - alpha, 0.0)
        else:
            cheap = u[p < 1.0 - 1e-9]
            c = float(cheap.max()) if cheap.size else 0.0
            alpha = beta - c
            if alpha <= EPS_LP:
                raise ValueError("precondition failed: zero surplus over the cheap outcomes")

    resid = alpha * p - (u - c)
    if resid.min() < -1e-8 * scale or np.abs(resid[support]).max() > 1e-8 * scale:
        raise LpError("supporting price validation failed")
    return float(c), float(alpha)
