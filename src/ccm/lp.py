"""Small dense linear programming with primal and dual solutions.

Canonical form:  maximize c.x  subject to  A x <= b,  x >= 0,  with b >= 0.

b >= 0 makes the origin a feasible vertex, so the solver is a one-phase
tableau simplex started at the slack basis, with Bland's anti-cycling
rule and dense storage.  Rows and the objective are scaled by powers of
two before solving, which conditions pivots without introducing any
rounding of its own.

Every caller writes its LP over normals: n + 1 variables (a normal, or
the witness game's scales, and one margin w), few rows, and the origin
feasible.  They are the equitability witness LP of `solutions` (three or
more agents) and the domination-slack and efficiency LPs of `polytope`
for sets of three or more agents too large for a facet pass
(`polytope.FACET_SUBSET_LIMIT`); other sets answer from their facets.
The consumer problem, max u.q  s.t.  p.q <= 1,  e.q <= 1,  q >= 0, needs
no LP: every consumer-side quantity comes from one upper concave
envelope of the (price, utility) points and the origin.
`consumer_envelope` reads off the consumer value and the minimal cost
among maximizers for one row, `consumer_envelopes` for a stack of rows
in one call (the form every verifier uses), and `shadow_prices` the
supporting prices (c, alpha) with alpha * p >= u - c, tight on the
demand's support.  One monotone chain, `_rising_chain`, builds that
envelope and the two-agent Pareto frontier of `polytope`; it sorts a
whole stack of rows at once and walks each row's staircase in turn.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .tolerances import EPS_LP, EPS_SUPP

_PIVOT_TOL = 1e-11
_RATIO_TIE = 1e-12

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class LpError(RuntimeError):
    """Pivot limit exceeded or an ill-conditioned basis; never silent garbage."""


class _Unbounded(Exception):
    pass


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


def _run_simplex(T, basis):
    """Bland's rule on tableau T (last row = reduced costs, last col = rhs)."""
    rows, cols = T.shape[0] - 1, T.shape[1] - 1
    for _ in range(10_000 + 30 * cols):
        enter = -1
        obj = T[-1]
        for j in range(cols):
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


def solve(c, A, b) -> LpSolution:
    """maximize c.x  s.t.  A x <= b,  x >= 0,  for b >= 0.

    The origin is feasible, so one simplex phase runs from the slack basis;
    a negative entry of b raises ValueError.  The status is OPTIMAL, with
    primal, dual and objective value checked against each other, or
    UNBOUNDED.  Deterministic: identical inputs yield identical output.
    """
    c0 = np.asarray(c, dtype=float)
    A0 = np.asarray(A, dtype=float)
    b0 = np.asarray(b, dtype=float)
    if A0.ndim != 2 or c0.ndim != 1 or b0.ndim != 1:
        raise ValueError("bad LP shapes")
    r, m = A0.shape
    if r < 1 or m < 1 or c0.shape[0] != m or b0.shape[0] != r:
        raise ValueError("bad LP shapes")
    if not (np.isfinite(A0).all() and np.isfinite(b0).all() and np.isfinite(c0).all()):
        raise ValueError("LP entries must be finite")
    if (b0 < 0).any():
        raise ValueError("b must be nonnegative, so that the origin is feasible")

    # Power-of-two equilibration; exact in binary floating point.
    row_mag = np.maximum(np.abs(A0).max(axis=1), np.abs(b0))
    row_scale = np.exp2(np.round(np.log2(np.where(row_mag > 0, row_mag, 1.0))))
    c_mag = np.abs(c0).max()
    c_scale = np.exp2(np.round(np.log2(c_mag))) if c_mag > 0 else 1.0

    A = A0 / row_scale[:, None]
    b = b0 / row_scale
    c = c0 / c_scale

    # The slack basis is feasible, and its reduced costs are c itself.
    T = np.zeros((r + 1, m + r + 1))
    T[:r, :m] = A
    T[:r, m:-1] = np.eye(r)
    T[:r, -1] = b
    T[-1, :m] = c
    basis = np.arange(m, m + r)
    try:
        _run_simplex(T, basis)
    except _Unbounded:
        return LpSolution(UNBOUNDED, None, None, None)

    x = np.zeros(m + r)
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
        else:
            B[j - m, i] = 1.0
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


def _check_consumer_inputs(U, P):
    if U.ndim != 2 or P.shape != U.shape:
        raise ValueError("utility and price stacks must be 2-d and of equal shape")
    if (U < 0).any() or (P < 0).any():
        raise ValueError("utilities and prices must be nonnegative")
    if (U.max(axis=1) <= 0).any():
        raise ValueError("agent has no stake: utility row is all zeros")


def _rising_chain(xs: np.ndarray, ys: np.ndarray):
    """Vertices of the rising part of the upper concave envelope of each row's points.

    xs and ys are (R, k) stacks; row r holds the points (xs[r, j], ys[r, j]).
    Only the Pareto staircase (each point strictly above every point left
    of it) can lie on the rising part, so one sort and one running maximum
    over the whole stack, then a monotone chain (Andrew 1979) over each
    row's staircase, give the vertices: x increases from the leftmost
    point, y strictly increases, and collinear middle points are dropped.
    Yields (hx, hy) lists row by row.  O(k log k) per row.
    """
    R, k = xs.shape
    # Each row by x, the highest point first on ties, as flat indices.
    order = np.lexsort((-ys, xs)) + np.arange(0, R * k, k)[:, None]
    xs, ys = xs.take(order), ys.take(order)
    stair = np.empty((R, k), dtype=bool)
    stair[:, 0] = True
    stair[:, 1:] = ys[:, 1:] > np.maximum.accumulate(ys, axis=1)[:, :-1]
    counts = stair.sum(axis=1).tolist()
    xs, ys = xs[stair], ys[stair]
    start = 0
    for count in counts:
        end = start + count
        hx: list[float] = []
        hy: list[float] = []
        for x, y in zip(xs[start:end].tolist(), ys[start:end].tolist()):
            # Drop the last vertex while it lies on or below the chord to (x, y).
            while len(hx) >= 2 and (
                (hx[-1] - hx[-2]) * (y - hy[-2]) >= (hy[-1] - hy[-2]) * (x - hx[-2])
            ):
                hx.pop()
                hy.pop()
            hx.append(x)
            hy.append(y)
        yield hx, hy
        start = end


def _envelopes(U, P):
    """Vertices (costs, utilities) of each consumer's rising upper envelope.

    U and P are (R, k) stacks of utility and price rows.  The consumer
    problem is max u.q  s.t.  p.q <= 1,  e.q <= 1,  q >= 0.  Its lotteries
    map (cost, utility) = (p.q, u.q) onto the convex hull of the points
    (p_j, u_j) and the origin; costs increase from 0 and utilities strictly
    increase along the chain.  The whole stack is checked before any chain
    is built.
    """
    _check_consumer_inputs(U, P)
    zero = np.zeros((U.shape[0], 1))
    return _rising_chain(np.concatenate((zero, P), axis=1), np.concatenate((zero, U), axis=1))


def _envelope(u, p) -> tuple[list[float], list[float]]:
    """`_envelopes` of one utility row u and price row p."""
    if u.ndim != 1 or p.shape != u.shape:
        raise ValueError("utility and price rows must be 1-d and equal length")
    return next(_envelopes(u[None], p[None]))


def _peak(hx, hy) -> tuple[float, float]:
    """V and the least cost reaching it, from the envelope's vertices."""
    if hx[-1] <= 1.0:
        return hy[-1], hx[-1]
    j = bisect_right(hx, 1.0)  # hx[j - 1] <= 1 < hx[j]
    x0, y0, x1, y1 = hx[j - 1], hy[j - 1], hx[j], hy[j]
    return y0 + (y1 - y0) * (1.0 - x0) / (x1 - x0), 1.0


def consumer_envelope(u_i, p_i) -> tuple[float, float]:
    """Consumer value V and the minimal cost among maximizers, in closed form.

    V is the maximum over cost <= 1 of the upper concave envelope of the
    points (p_j, u_j) and the origin, and the minimal cost is the least
    cost at which the envelope reaches V.  When the envelope's top is
    affordable it gives both numbers at once; otherwise the envelope is
    strictly rising up to cost 1, so the minimal cost is 1 and V is the
    envelope's height there.  O(k log k) time and O(k) memory, with no
    slack on the utility level.
    """
    u = np.asarray(u_i, dtype=float)
    p = np.asarray(p_i, dtype=float)
    return _peak(*_envelope(u, p))


def consumer_envelopes(U, P) -> tuple[np.ndarray, np.ndarray]:
    """`consumer_envelope` of every row of the (R, k) stacks U and P, in one call.

    Returns the arrays (V, minimal cost), each of length R, equal bit for
    bit to the one-row results.  One sort covers the whole stack; only the
    monotone chain runs row by row.
    """
    U = np.asarray(U, dtype=float)
    P = np.asarray(P, dtype=float)
    chains = _envelopes(U, P)
    out = np.empty((2, U.shape[0]))
    for r, chain in enumerate(chains):
        out[:, r] = _peak(*chain)
    return out[0], out[1]


def shadow_prices(u_i, p_i, q):
    """Supporting prices (c, alpha) for a minimal-cost optimum with a tight budget.

    Requires q to be a unit-mass, minimal-cost maximizer with p_i.q = 1.
    Returns alpha > 0 and c >= 0 (up to rounding) with
    alpha * p_i^j >= u_i^j - c for every outcome j, holding with equality
    on the support of q.  The pair is the line of the consumer's upper
    concave envelope through (1, V).  Where cost 1 lies inside an envelope
    segment, that segment's intercept and slope are the unique LP duals
    (mu0, mu1).  Where cost 1 is an envelope vertex, the segment ending
    there is taken; it supports the concave envelope just as well.
    """
    u = np.asarray(u_i, dtype=float)
    p = np.asarray(p_i, dtype=float)
    qv = np.asarray(q, dtype=float)
    hx, hy = _envelope(u, p)
    if qv.shape != u.shape or qv.min() < -EPS_LP:
        raise ValueError("q must be a nonnegative lottery over the outcomes")
    scale = 1.0 + max(u.max(), 1.0)
    if abs(qv.sum() - 1.0) > 1e-7:
        raise ValueError("precondition failed: q does not have unit mass")
    if abs(p @ qv - 1.0) > 1e-7:
        raise ValueError("precondition failed: budget p.q = 1 is not tight")
    value, min_cost = _peak(hx, hy)
    if u @ qv < value - 1e-7 * scale:
        raise ValueError("precondition failed: q is not a consumer optimum")
    if p @ qv > min_cost + 1e-7 * scale:
        raise ValueError("precondition failed: q is not minimal cost")

    j = min(bisect_left(hx, 1.0), len(hx) - 1)  # hx[j - 1] < 1 <= hx[j], else the top
    # A lone vertex at cost 0 has no rising segment, hence no surplus.
    alpha = (hy[j] - hy[j - 1]) / (hx[j] - hx[j - 1]) if j else 0.0
    c = hy[j - 1] - alpha * hx[j - 1]
    if alpha <= EPS_LP:
        raise ValueError("precondition failed: zero surplus over the cheap outcomes")

    resid = alpha * p - (u - c)
    if resid.min() < -1e-8 * scale or np.abs(resid[qv > EPS_SUPP]).max() > 1e-8 * scale:
        raise LpError("supporting price validation failed")
    return float(c), float(alpha)
