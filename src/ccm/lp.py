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
whole stack of rows at once and walks each row's staircase in turn.  A
tall stack walks every row's chain in lockstep instead
(`_lockstep_peaks`), with the same float tests in the same order.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .tolerances import EPS_LP, EPS_SUPP

_PIVOT_TOL = 1e-11
_RATIO_TIE = 1e-12
# `consumer_envelopes` walks the chains of a stack of at least this many
# rows in lockstep, and of a shorter stack row by row; the crossover was
# measured at k = 6 and k = 64 outcomes (BENCH_24).
_LOCKSTEP_ROWS = 96

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


def _staircases(xs: np.ndarray, ys: np.ndarray):
    """Each row's Pareto staircase, sorted by x: the points that can lie on its rising chain.

    xs and ys are (R, k) stacks; row r holds the points (xs[r, j], ys[r, j]).
    Only a point strictly above every point left of it can lie on the
    rising part of the upper concave envelope, so one sort and one running
    maximum over the whole stack find them.  Returns their x and y in row
    order, x increasing within a row, and the count per row.
    """
    R, k = xs.shape
    # Each row by x, the highest point first on ties: x - iy sorts so.
    z = np.empty((R, k), dtype=complex)
    z.real = xs
    np.negative(ys, out=z.imag)
    z.sort(axis=1, kind="stable")
    xs, ys = z.real, np.negative(z.imag, out=z.imag)
    stair = np.empty((R, k), dtype=bool)
    stair[:, 0] = True
    stair[:, 1:] = ys[:, 1:] > np.maximum.accumulate(ys, axis=1)[:, :-1]
    return xs[stair], ys[stair], stair.sum(axis=1)


def _rising_chain(xs: np.ndarray, ys: np.ndarray):
    """Vertices of the rising part of the upper concave envelope of each row's points.

    xs and ys are (R, k) stacks.  A monotone chain (Andrew 1979) over each
    row's staircase (`_staircases`) gives the vertices: x increases from
    the leftmost point, y strictly increases, and collinear middle points
    are dropped.  Yields (hx, hy) lists row by row.  O(k log k) per row.
    """
    xs, ys, counts = (a.tolist() for a in _staircases(xs, ys))
    start = 0
    for count in counts:
        end = start + count
        hx: list[float] = []
        hy: list[float] = []
        for x, y in zip(xs[start:end], ys[start:end]):
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


def _lockstep_peaks(xs, ys, counts) -> tuple[np.ndarray, np.ndarray]:
    """`_peak` of every row's rising chain, the chains walked in lockstep.

    xs, ys and counts are `_staircases`' output.  Step t pushes each row's
    t-th staircase point, one Python step per point position and numpy
    across the rows; its pops run the row chain's test in the same float
    operations, so vertices and peaks are bit for bit the row chain's.
    Each chain is kept in place in its own points, rows by decreasing
    count, so the rows still walking are a prefix and the stack needs no
    memory of its own.
    """
    R = counts.size
    order = np.argsort(-counts, kind="stable")
    rank = np.empty(R, dtype=np.intp)
    rank[order] = np.arange(R)
    L = int(counts[order[0]])
    # X and Y are (L, R) and flat: point t of the row ranked r is at t R + r.
    at = (np.arange(xs.size) - np.repeat(np.cumsum(counts) - counts, counts)) * R
    at += np.repeat(rank, counts)
    X, Y = np.empty(L * R), np.empty(L * R)
    X[at], Y[at] = xs, ys
    del at
    walking = R - np.cumsum(np.bincount(counts))  # rows with more than t points
    # Where each chain's next vertex goes: its first two points are vertices.
    two = np.arange(2 * R, 3 * R)
    top = two - R * (2 - np.minimum(counts[order], 2))
    for t in range(2, L):
        a = walking[t]
        x, y = X[t * R : t * R + a], Y[t * R : t * R + a]
        live = np.arange(a)
        while live.size:
            # Drop the last vertex while it lies on or below the chord to (x, y).
            i1 = top[live] - R
            i0 = i1 - R
            xl, yl = x[live], y[live]
            pop = (X[i1] - X[i0]) * (yl - Y[i0]) >= (Y[i1] - Y[i0]) * (xl - X[i0])
            live = live[pop]
            top[live] -= R
            live = live[top[live] >= two[live]]  # chains of two or more
        # A vertex goes to step t's own slot or an earlier one of its row.
        X[top[:a]], Y[top[:a]] = x, y
        top[:a] += R
    value, cost = Y[top - R], X[top - R]
    over = np.flatnonzero(cost > 1.0)
    if over.size:
        # The vertices either side of cost 1: hx[j - 1] <= 1 < hx[j], as `_peak` finds them.
        slots = np.arange(0, L * R, R)[:, None] + over
        j = ((X[slots] <= 1.0) & (slots < top[over])).sum(axis=0)
        i1 = j * R + over
        i0 = i1 - R
        x0, y0, x1, y1 = X[i0], Y[i0], X[i1], Y[i1]
        value[over] = y0 + (y1 - y0) * (1.0 - x0) / (x1 - x0)
        cost[over] = 1.0
    return value[rank], cost[rank]


def _envelopes(U, P):
    """Vertices (costs, utilities) of each consumer's rising upper envelope.

    U and P are (R, k) stacks of utility and price rows.  The consumer
    problem is max u.q  s.t.  p.q <= 1,  e.q <= 1,  q >= 0.  Its lotteries
    map (cost, utility) = (p.q, u.q) onto the convex hull of the points
    (p_j, u_j) and the origin; costs increase from 0 and utilities strictly
    increase along the chain.  The whole stack is checked before any chain
    is built.
    """
    return _rising_chain(*_points(U, P))


def _points(U, P):
    """The checked stacks U and P as (cost, utility) points, the origin first: (R, k + 1) each."""
    _check_consumer_inputs(U, P)
    zero = np.zeros((U.shape[0], 1))
    return np.concatenate((zero, P), axis=1), np.concatenate((zero, U), axis=1)


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
    bit to the one-row results.  One sort covers the whole stack.  A stack
    of at least `_LOCKSTEP_ROWS` rows walks its monotone chains in lockstep
    (`_lockstep_peaks`); a shorter one walks them row by row.
    """
    U = np.asarray(U, dtype=float)
    P = np.asarray(P, dtype=float)
    if len(U) >= _LOCKSTEP_ROWS:
        return _lockstep_peaks(*_staircases(*_points(U, P)))
    out = np.array([_peak(*chain) for chain in _envelopes(U, P)]).reshape(-1, 2).T
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
    scale = u.max()  # the agent's utility unit
    if abs(qv.sum() - 1.0) > 1e-7:
        raise ValueError("precondition failed: q does not have unit mass")
    if abs(p @ qv - 1.0) > 1e-7:
        raise ValueError("precondition failed: budget p.q = 1 is not tight")
    value, min_cost = _peak(hx, hy)
    if u @ qv < value - 1e-7 * scale:
        raise ValueError("precondition failed: q is not a consumer optimum")
    if p @ qv > min_cost + 1e-7:
        raise ValueError("precondition failed: q is not minimal cost")

    j = min(bisect_left(hx, 1.0), len(hx) - 1)  # hx[j - 1] < 1 <= hx[j], else the top
    # A lone vertex at cost 0 has no rising segment, hence no surplus.
    alpha = (hy[j] - hy[j - 1]) / (hx[j] - hx[j - 1]) if j else 0.0
    c = hy[j - 1] - alpha * hx[j - 1]
    if alpha <= EPS_LP * scale:
        raise ValueError("precondition failed: zero surplus over the cheap outcomes")

    resid = alpha * p - (u - c)
    if resid.min() < -1e-8 * scale or np.abs(resid[qv > EPS_SUPP]).max() > 1e-8 * scale:
        raise LpError("supporting price validation failed")
    return float(c), float(alpha)
