"""Concave log-welfare maximization over the probability simplex.

Solves, for a batch of problems at once,

    maximize  sum_i log((C lam)_i)   over  lam in the unit simplex,

with C nonnegative and every row of C nonzero.  Offsets (disagreement
points) are handled by the callers, who subtract them from every column;
on the simplex that is the same objective.

Because sum_j lam_j phi_j == n identically (phi is the gradient), the
optimality condition is simply phi_j <= n for all j with equality on the
support, which doubles as the reported KKT residual.

For two agents the optimum lies on one segment between two columns,
so it has a closed form (`_segment_optima`, Nash 1950): every column
and every column pair is a candidate, and on the pair (a, a + d) the
product (a_0 + t d_0)(a_1 + t d_1) peaks at
t* = -(d_0 a_1 + d_1 a_0) / (2 d_0 d_1) when d_0 d_1 < 0.  Near the
peak the product is flat to second order, so products alone cannot
tell the Nash point from a column 1e-8 off it; the KKT conditions can.
A column therefore beats the segments only if it meets them within
`_TIE`.  The Nash point is unique, so candidates tie when they land
on it: among those whose point is within rounding of the best point
the shortest segment wins, and on a flat optimal face the lottery sits
on the columns nearest the Nash point.  Pairs are evaluated in blocks
of at most `_PAIR_BLOCK` (cell, pair) entries, so memory stays bounded
at any m.  A caller that knows a set's frontier chain passes its
consecutive edges as the only pairs (`solutions.nash_solution`), in
O(m) after the chain's sort.  Two agents run no ascent and no Newton
step; the KKT residual re-verifies every cell, as for any n.

For one agent, and for three or more, the method has two phases, and
convergence is decided per cell:

* A multiplicative ascent from the uniform lottery, for at most
  `warm_iters` iterations: lam_j <- lam_j phi_j / n.  This is the EM
  update for mixture weights (Dempster, Laird & Rubin 1977; Cover 1984),
  which never decreases the objective, so every step is taken.  Iterates
  stay in the relative interior.  Every 16 iterations each cell is
  tested on its own: it is done once its last gain is at most
  1e-13 (1 + |f|) or its residual meets the tolerance.  The ascent stops
  when every cell is done.  Done cells keep stepping with the rest:
  at the default cap, gathering the unfinished cells into a smaller
  batch cost more than the steps it saved.
* Newton rounds.  Every cell gets at least one, because a cell that met
  the tolerance in the ascent still has errors of that size in C lam.
  Cells that share a support pattern solve as one stacked call; a
  support of one column takes no step, since lam = 1 is exact there.
  The Newton steps are a primal active-set method and finish a cell from
  any start: a support column at zero weight that would block the step
  leaves the working set and the cell re-solves on the rest, and columns
  that coincide within a cell are solved as one.  Each round re-reads the
  support from the lottery and the gradient, so a column with phi_j > n
  enters the next round.

A cell's result depends on the other cells in its batch only through
rounding: batched reductions may sum in a different order.
Internally the cell index is the last axis (C is (n, m, cells), lam is
(m, cells)), so the reductions over agents and outcomes run across all
cells at once.
"""
from __future__ import annotations

import numpy as np

_SUPP_EPS = 1e-10
_NEWTON_SLICE = 1024
_SUPPORT_ROUNDS = 10
_NEWTON_ITERS = 40
# (cell, segment) entries per block of the two-agent closed form.
_PAIR_BLOCK = 4096
# Candidates whose point is within this relative distance of the best
# candidate's point, in every coordinate, tie with it.  A tie then meets
# the KKT tolerance whenever the best candidate does.  A column must meet
# the KKT conditions within it to beat the segments.  The 200 corpus
# sweeps keep the same certificates for any value from 4e-16 to 1e-6; at
# 1e-16 and below, rounding hides the flat faces.
_TIE = 1e-12


class ConvergenceError(RuntimeError):
    pass


def _objective(C, lam):
    x = np.einsum("nmb,mb->nb", C, lam)
    with np.errstate(divide="ignore"):
        f = np.log(x).sum(axis=0)
    return x, f


def _gradients(C, x):
    return np.einsum("nmb,nb->mb", C, 1.0 / x)


def _kkt(phi, lam, n):
    over = phi.max(axis=0) - n
    dev = np.abs(np.where(lam > _SUPP_EPS, phi - n, 0.0)).max(axis=0)
    return np.maximum(over, dev) / n


def _residuals(C, lam, x):
    phi = _gradients(C, x)
    return _kkt(phi, lam, C.shape[0]), phi


def _warm_start(C, iters, tol):
    """EM ascent from the uniform lottery: lam_j <- lam_j phi_j / n.

    Returns (lam, x).  Stops early once every cell has stalled or met `tol`.
    """
    n, m, b = C.shape
    lam = np.full((m, b), 1.0 / m)
    x, f = _objective(C, lam)
    gain = np.zeros(b)
    for it in range(iters):
        phi = _gradients(C, x)
        if it % 16 == 0 and it:
            if not ((gain > 1e-13 * (1.0 + np.abs(f))) & (_kkt(phi, lam, n) > tol)).any():
                break
        # phi >= 0, so dead columns stay at zero weight.
        phi /= n
        lam = lam * phi
        lam /= lam.sum(axis=0)
        x, fc = _objective(C, lam)
        gain = fc - f
        f = fc
    return lam, x


def _newton_group(Cg, lamS):
    """Newton steps on a shared support, with a primal active set.

    Columns that coincide within a cell are solved as one column, the
    first of them, and afterwards share its weight in their incoming
    ratio, which the multiplicative ascent keeps fixed.  A column whose
    ratio test blocks the step (it is at zero weight and the direction is
    negative) leaves the working set, and the cell re-solves on the rest.
    """
    n, s, b = Cg.shape
    cols = np.arange(s)
    rep = (Cg[:, :, None, :] == Cg[:, None, :, :]).all(axis=0).argmax(axis=1)
    member = rep[:, None, :] == cols[None, :, None]
    merged = np.einsum("trb,tb->rb", member, lamS)
    held = np.take_along_axis(merged, rep, axis=0)
    size = np.take_along_axis(member.sum(axis=0), rep, axis=0)
    share = np.where(held > 0, lamS / np.where(held > 0, held, 1.0), 1.0 / size)
    lamS = merged
    free = rep == cols[:, None]
    x, f = _objective(Cg, lamS)
    for _ in range(_NEWTON_ITERS):
        inv = 1.0 / x
        g = np.einsum("nsb,nb->sb", Cg, inv)
        # The KKT systems are (s + 1, s + 1, b), cell index last, so every
        # product below runs over contiguous cells; the solve reads them
        # transposed.  H_st = sum_i C_is C_it / x_i^2, summed over agents
        # in order, and its diagonal sum per cell in the order of a (b, s) row.
        M = np.zeros((s + 1, s + 1, b))
        H = M[:s, :s]
        W = Cg * (inv * inv)[:, None, :]
        np.multiply(W[0, :, None], Cg[0, None, :], out=H)
        for i in range(1, n):
            H += W[i, :, None] * Cg[i, None, :]
        diag = M.reshape((s + 1) ** 2, b)[: s * (s + 2) : s + 2]
        diag += 1e-13 * (diag.T.copy().sum(axis=1) / s + 1.0)
        if not free.all():
            H *= free[:, None, :] & free[None, :, :]
            diag += ~free
        M[:s, s] = free
        M[s, :s] = free
        rhs = np.zeros((s + 1, b))
        rhs[:s] = np.where(free, g - n, 0.0)
        step = np.linalg.solve(M.transpose(2, 0, 1), rhs.T[:, :, None])
        delta = np.where(free, step[:, :s, 0].T, 0.0)
        reach = np.abs(delta).max(axis=0)
        blocked = (delta < 0) & (lamS * reach <= -1e-15 * delta)
        dropped = blocked.any(axis=0)
        if dropped.any():
            free &= ~blocked
            lamS = np.where(blocked, 0.0, lamS)
            lamS = np.where(dropped, lamS / lamS.sum(axis=0), lamS)
            x, f = _objective(Cg, lamS)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(delta < 0, -lamS / np.where(delta < 0, delta, -1.0), np.inf)
        alpha = np.minimum(1.0, ratios.min(axis=0))
        moved = ~dropped & (reach * alpha > 1e-15)
        if not (moved | dropped).any():
            break
        # f sums n logs, so it is known to about eps * sum_i (|log x_i| + 1).
        slack = 1e-14 * (np.abs(np.log(x)).sum(axis=0) + n)
        for _ in range(45):
            cand = np.maximum(lamS + alpha * delta, 0.0)
            cand /= cand.sum(axis=0)
            xc, fc = _objective(Cg, cand)
            worse = moved & (fc < f - slack)
            if not worse.any():
                break
            alpha = np.where(worse, alpha * 0.5, alpha)
            moved &= alpha > 1e-18
        lamS = np.where(moved, cand, lamS)
        x = np.where(moved, xc, x)
        f = np.where(moved, fc, f)
    return np.take_along_axis(lamS, rep, axis=0) * share


def _support_groups(supp):
    """Cells (columns of supp) grouped by pattern, patterns in lexicographic order."""
    order = np.lexsort(supp[::-1])
    ranked = supp[:, order]
    return np.split(order, np.flatnonzero((ranked[:, 1:] != ranked[:, :-1]).any(axis=0)) + 1)


def _segment_points(U, J, K):
    """Peak points, products and squared lengths, and t*, of the segments (J, K) in each cell of U.

    U is (2, m, cells); the points are (2, segments, cells) and the rest
    (segments, cells).  A segment whose peak is not strictly inside it
    gets product -inf: its clipped peak is an endpoint, a column.
    """
    a = U[:, J]
    d = U[:, K] - a
    dd = d[0] * d[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -(d[0] * a[1] + d[1] * a[0]) / (2.0 * dd)
        x = a + t * d
        inside = (dd < 0) & (t > 0) & (t < 1)
        prod = np.where(inside, x[0] * x[1], -np.inf)
    return x, prod, d[0] * d[0] + d[1] * d[1], t


def _lands_on(x, at):
    """Whether the points x lie within `_TIE` of the points at in every coordinate; both (2, ...)."""
    close = np.abs(x - at) <= _TIE * at
    return close[0] & close[1]


def _pair_blocks(b, p):
    """(cells, segments) slices covering b cells by p segments, at most _PAIR_BLOCK entries each."""
    if not p:
        return
    step = min(p, _PAIR_BLOCK)
    rows = _PAIR_BLOCK // step
    for lo in range(0, b, rows):
        for s in range(0, p, step):
            yield slice(lo, lo + rows), slice(s, s + step)


def _nash_points(U, J, K):
    """Each cell's log-welfare optimum over the columns and segments (J, K) of U, as a (2, cells) point.

    A pass over the blocks finds each cell's best segment.  The best
    column takes its place when it reaches at least that product and
    meets the KKT conditions within `_TIE`; a column that reaches the
    product but fails them leaves the race, and the next column is tried.
    """
    b = U.shape[2]
    best = np.full(b, -np.inf)
    at = np.zeros((2, b))
    for cells, seg in _pair_blocks(b, len(J)):
        x, prod, _, _ = _segment_points(U[:, :, cells], J[seg], K[seg])
        k = prod.argmax(axis=0)
        r = np.flatnonzero(prod[k, np.arange(len(k))] > best[cells])
        k, rows = k[r], cells.start + r
        best[rows] = prod[k, r]
        at[:, rows] = x[:, k, r]
    single = U[0] * U[1]
    every = np.arange(b)
    live = np.ones(b, dtype=bool)
    while live.any():
        top = single.argmax(axis=0)
        value = single[top, every]
        live &= (value >= best) & (value > -np.inf)
        point = U[:, top, every]
        # phi at the column itself is 2, so the largest phi is its KKT residual.
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = live & ((U[0] / point[0] + U[1] / point[1]).max(axis=0) <= 2.0 * (1.0 + _TIE))
        best[ok] = value[ok]
        at[:, ok] = point[:, ok]
        live &= ~ok
        single[top[live], every[live]] = -np.inf
    return at


def _segment_optima(C, J, K, tol):
    """Two-agent log-welfare optima over the columns and the segments (J[p], K[p]).

    C is (2, m, cells).  Rows are scaled to a largest entry of one, so
    the pick does not depend on per-agent scale.  With each cell's best
    point from `_nash_points`, a second pass over the blocks picks, among
    the candidates that land within `_TIE` of it, the shortest: a column
    (length zero, lowest index first), else the first of the shortest
    segments, whose lottery is (1 - t*, t*).  The KKT residual
    re-verifies every cell.  Returns (lam, value, residual) as
    `maximize_log_sum_batch` does.
    """
    _, m, b = C.shape
    U = C / C.max(axis=1, keepdims=True)
    at = _nash_points(U, J, K)
    hit = _lands_on(U, at[:, None])
    lam = np.zeros((m, b))
    done = np.flatnonzero(hit.any(axis=0))
    lam[hit[:, done].argmax(axis=0), done] = 1.0
    shortest = np.full(b, np.inf)
    shortest[done] = 0.0
    pick = np.zeros(b, dtype=np.intp)
    t_pick = np.zeros(b)
    for cells, seg in _pair_blocks(b, len(J)):
        x, prod, length, t = _segment_points(U[:, :, cells], J[seg], K[seg])
        length[(prod == -np.inf) | ~_lands_on(x, at[:, None, cells])] = np.inf
        k = length.argmin(axis=0)
        r = np.flatnonzero(length[k, np.arange(len(k))] < shortest[cells])
        k, rows = k[r], cells.start + r
        shortest[rows] = length[k, r]
        pick[rows] = seg.start + k
        t_pick[rows] = t[k, r]
    paired = np.flatnonzero(shortest > 0)
    lam[J[pick[paired]], paired] = 1.0 - t_pick[paired]
    lam[K[pick[paired]], paired] = t_pick[paired]
    x, f = _objective(C, lam)
    resid, _ = _residuals(C, lam, x)
    if (resid > tol).any():
        raise _missed(tol, int((resid > tol).sum()))
    return np.ascontiguousarray(lam.T), f, resid


def _missed(tol, cells):
    return ConvergenceError(f"log-welfare maximizer missed tolerance {tol} on {cells} cell(s)")


def maximize_log_sum_batch(C, tol=1e-11, warm_iters=64):
    """Batched solve.  C has shape (cells, n, m), nonnegative, nonzero rows.

    Returns (lam, value, residual) with lam of shape (cells, m).  Raises
    ConvergenceError if any cell misses the KKT tolerance.  Two agents
    take the closed form (`_segment_optima`) and ignore `warm_iters`.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 3:
        raise ValueError("C must have shape (cells, n, m)")
    b, n, m = C.shape
    if C.min() < 0:
        raise ValueError("columns must be nonnegative")
    if np.any(C.max(axis=2) <= 0):
        raise ValueError("every agent row needs a positive entry")
    C = np.ascontiguousarray(C.transpose(1, 2, 0))
    if n == 2:
        return _segment_optima(C, *np.triu_indices(m, 1), tol)
    lam, x = _warm_start(C, warm_iters, tol)
    # Every cell gets at least one Newton round: a cell that met `tol` in
    # the ascent still carries errors of that size in C lam.
    todo = np.arange(b)
    phi = _gradients(C, x)
    f = np.empty(b)
    resid = np.empty(b)
    for _ in range(_SUPPORT_ROUNDS):
        supp = (lam[:, todo] > _SUPP_EPS) | (phi > n * (1.0 + 1e-12))
        for group in _support_groups(supp):
            S = np.nonzero(supp[:, group[0]])[0]
            members = todo[group]
            if S.size == 1:
                lam[:, members] = 0.0
                lam[S, members] = 1.0
                continue
            # Slices bound the memory of the stacked Newton systems.
            for cells in np.array_split(members, -(-members.size // _NEWTON_SLICE)):
                lamS = lam[np.ix_(S, cells)]
                lamS /= lamS.sum(axis=0)
                lam[:, cells] = 0.0
                lam[np.ix_(S, cells)] = _newton_group(C[np.ix_(np.arange(n), S, cells)], lamS)
        Ct = C[:, :, todo]
        xt, f[todo] = _objective(Ct, lam[:, todo])
        r, phi = _residuals(Ct, lam[:, todo], xt)
        resid[todo] = r
        todo, phi = todo[r > tol], phi[:, r > tol]
        if not todo.size:
            return np.ascontiguousarray(lam.T), f, resid
    raise _missed(tol, todo.size)

