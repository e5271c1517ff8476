"""Concave log-welfare maximization over the probability simplex.

Solves, for a batch of problems at once,

    maximize  sum_i log((C lam)_i)   over  lam in the unit simplex,

with C nonnegative and every row of C nonzero.  Offsets (disagreement
points) are handled by the callers, who subtract them from every column;
on the simplex that is the same objective.

Because sum_j lam_j phi_j == n identically (phi is the gradient), the
optimality condition is simply phi_j <= n for all j with equality on the
support, which doubles as the reported KKT residual.

Every n runs one working-set loop, column generation over the simplex
(simplicial decomposition: Holloway 1974; von Hohenbalken 1977).  Each
cell first keeps only its undominated columns, in column order, and of
exact twins the first (`_undominated`): a dominated column is in no
optimal support.  A cell with more than `_WORK` of them starts on the
`_WORK` of largest product, rows scaled to a largest entry of one.  Each
round solves the problem on the working set; then at most `_WORK` of the
kept columns that break the KKT conditions there (phi_j > n) join it,
the most violated first, until none does.  Only the support solve
depends on n: a closed form for two and three agents, Newton's method
for one agent and for four or more.

For two and three agents the optimum lies on a face of at most n
columns, where it has a closed form (`_support_optima`).  A cell with
one undominated column takes that column, which weakly dominates every
other one.  In the other cells every support of at most n working
columns is a candidate.  On a segment (a, a + d)
the log sum peaks where sum_i d_i / (a_i + t d_i) vanishes: for two
agents at t* = -(d_0 a_1 + d_1 a_0) / (2 d_0 d_1) when d_0 d_1 < 0
(Nash 1950), for three at a root of a quadratic.  On a triangle of
three agents' columns it peaks at x_i = 1 / (3 w_i), on the plane
w.x = 1 through them (Eisenberg & Gale 1959).  A candidate counts when
its point lies strictly inside its support.

The best candidate of the largest size sets each cell's point.  Near the
peak the log sum is flat to second order, so objective values alone
cannot tell the Nash point from a column 1e-8 off it; the KKT
conditions can.  A smaller support therefore beats a larger one only if
it meets them within `_TIE`, and only the few candidates that reach the
best value enter that race, each checked in O(m); each size is
evaluated once per round.  The Nash point is unique, so candidates tie
when they land on it: among those whose point is within rounding of the
best point the smallest support wins, then the shortest, then the first.
The race keeps up to `_NEAR` such candidates per cell for the pick; a
cell with more, or with optimal-face columns outside its last working
set, picks among every support of its face columns.  On a flat optimal
face the lottery thus sits on the fewest columns nearest the Nash point.

Candidates are evaluated in blocks of at most `_PAIR_BLOCK` (cell,
support) entries, and past `_TABLE` supports of one size the supports are
made block by block, so memory stays bounded at any m; a working set
bounds the number of supports, on the order of K^n for K columns.  A
caller that knows a two-agent set's frontier chain passes its
consecutive edges as the only segments (`solutions.nash_solution`), in
O(m) after the chain's sort.

For one agent, and for four or more, each round runs Newton steps on
the working sets, padded to one block (`_newton_optima`, `_newton_group`).
The lottery starts uniform on the first working set, which must pay
every agent: where the columns of largest product pay some agent
nothing, that agent's best column joins them.  The Newton steps are a
primal active-set method: a column at zero weight that would block the
step leaves the working set and the cell re-solves on the rest.  A cell
that misses the tolerance goes on with the columns that hold weight,
joined by the violators at zero weight, so each round starts from the
last lottery; restarting from the uniform lottery can cycle, as the ratio
test drops an entering column again.  One agent keeps one column, the
first of the row's maxima, and a one-column block takes no step, since
lam = 1 is exact there.

The KKT residual re-verifies every cell, for any n.  A cell's result
depends on the other cells in its batch only through rounding: batched
reductions may sum in a different order, and Newton's working sets are
padded to the widest in the batch.  Internally the cell index is the
last axis (C is (n, m, cells), lam is (m, cells)), so the reductions
over agents and outcomes run across all cells at once.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb

import numpy as np

_SUPP_EPS = 1e-10
_NEWTON_SLICE = 1024
_SUPPORT_ROUNDS = 10
_NEWTON_ITERS = 40
# (cell, support) entries per block of the closed form for n <= 3.
_PAIR_BLOCK = 2048
# Supports of one size in one cached table (`_subsets`), at most.
_TABLE = 1 << 16
# Candidates near its best product that `_nash_points` keeps per cell.
_NEAR = 8
# (dominator, column, cell) entries per block of the per-cell pruning.
_PRUNE_BLOCK = 1 << 16
# Candidates whose point is within this relative distance of the best
# candidate's point, in every coordinate, tie with it.  A tie then meets
# the KKT tolerance whenever the best candidate does.  A smaller support
# must meet the KKT conditions within it to beat a larger one.  The 200
# corpus sweeps keep the same certificates for any value from 1e-15 to
# 1e-6; at 4e-16 one three-agent lottery moves in the last bits, and at
# 1e-16 rounding fails true optima in the KKT test and the sweeps raise.
_TIE = 1e-12
# Columns whose phi at the best point is within this relative distance of
# n are on the optimal face.  A support that lands within `_TIE` of the
# point is made of such columns: one off the face by more than about
# `_TIE` moves the support's own point by as much.
_FACE = 1e-9
# Cells with more undominated columns than this solve on a working set of
# that many, the largest products first, and add at most that many of the
# columns that break the KKT conditions at its optimum per round (column
# generation): a cell of K columns has on the order of K^n supports, and
# a Newton step on them solves a (K + 1)-square system.
_WORK = 16


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


def _newton_group(Cg, lamS, free):
    """Newton steps on padded working sets, with a primal active set.

    Cg is (n, K, cells), lamS the (K, cells) lottery on it and free a
    (K, cells) mask of the columns that may carry weight; the rest are
    padding, held at zero.  Each step solves the KKT system of the
    log sum on the free columns.  A free column whose ratio test blocks
    the step (it is at zero weight and the direction is negative) leaves
    the working set, and the cell re-solves on the rest.
    """
    n, s, b = Cg.shape
    free = free.copy()
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
    return lamS


@lru_cache(maxsize=64)
def _subsets(k, s):
    """The s-subsets of range(k) as a read-only (s, C(k, s)) table, in `combinations` order."""
    table = np.fromiter(chain.from_iterable(combinations(range(k), s)), np.intp).reshape(-1, s).T.copy()
    table.setflags(write=False)
    return table


def _parts(k, s):
    """The s-subsets of range(k) as (s, p) tables: `_subsets` up to `_TABLE`, else `_PAIR_BLOCK` at a time."""
    if comb(k, s) <= _TABLE:
        yield _subsets(k, s)
    else:
        subsets = chain.from_iterable(combinations(range(k), s))
        while (part := np.fromiter(islice(subsets, s * _PAIR_BLOCK), np.intp)).size:
            yield part.reshape(-1, s).T


def _blocks(b, parts):
    """(cells, supports) blocks of at most `_PAIR_BLOCK` entries, each cell's supports in order."""
    for S in parts:
        for lo in range(0, S.shape[1], _PAIR_BLOCK):
            part = S[:, lo : lo + _PAIR_BLOCK]
            rows = max(1, _PAIR_BLOCK // part.shape[1])
            for cell in range(0, b, rows):
                yield slice(cell, min(cell + rows, b)), part


# The face's plane is w.x = 1 with w.C_j = 1 on its three columns, and the
# log sum peaks on it at x_i = 1 / (3 w_i) (Eisenberg & Gale 1959).  With
# k_j the cross product of the two columns after j (cyclically), that is
# c[_NEXT] * c[_LAST] - c[_LAST_NEXT] * c[_NEXT_LAST] over (agent, column),
# w = N / det for N = k_0 + k_1 + k_2 and det = C_0 . k_0, and the lottery
# is lam_j = x . k_j / det = sum_i k_ji / (3 N_i).
_NEXT, _LAST = np.ix_([1, 2, 0], [1, 2, 0]), np.ix_([2, 0, 1], [2, 0, 1])
_LAST_NEXT, _NEXT_LAST = np.ix_([2, 0, 1], [1, 2, 0]), np.ix_([1, 2, 0], [2, 0, 1])


def _candidates(U, S):
    """Stationary points of sum_i log x_i on the supports S in each cell of U.

    U is (n, m, cells) and S is (s, p) column indices.  Returns the
    stationary points (n, p, cells), their products and the lotteries on S
    (s, p, cells).  A support whose stationary point is not strictly inside
    it gets product -inf.
    """
    c = U[:, S]
    n, s = c.shape[:2]
    if s == 1:
        x = c[:, 0]
        return x, x.prod(axis=0), np.broadcast_to(1.0, (1,) + x.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if s == 3:
            k = c[_NEXT] * c[_LAST] - c[_LAST_NEXT] * c[_NEXT_LAST]
            N = k.sum(axis=1)
            det = (c[:, 0] * k[:, 0]).sum(axis=0)
            lam = (k / N[:, None]).sum(axis=0)
            inside = (N * det > 0).all(axis=0) & (lam > 0).all(axis=0)
            lam /= lam.sum(axis=0)
            x = (c * lam).sum(axis=1)
            return x, np.where(inside, x.prod(axis=0), -np.inf), lam
        a, d = c[:, 0], c[:, 1] - c[:, 0]
        if n == 2:
            # (a_0 + t d_0)(a_1 + t d_1) peaks inside the segment only if d_0 d_1 < 0.
            dd = d[0] * d[1]
            t = -(d[0] * a[1] + d[1] * a[0]) / (2.0 * dd)
            x = a + t * d
            prod = np.where((dd < 0) & (t > 0) & (t < 1), x[0] * x[1], -np.inf)
        else:
            # The stationary t solves A t^2 + B t + C0 = 0, sum_i d_i prod_(k != i) x_k
            # cleared of denominators.  Where two coordinates vanish together
            # the quadratic has a spurious root, which the positivity test and
            # the larger product reject.
            A = 3.0 * d[0] * d[1] * d[2]
            B = 2.0 * (a[0] * d[1] * d[2] + a[1] * d[0] * d[2] + a[2] * d[0] * d[1])
            C0 = a[1] * a[2] * d[0] + a[0] * a[2] * d[1] + a[0] * a[1] * d[2]
            q = -0.5 * (B + np.copysign(np.sqrt(B * B - 4.0 * A * C0), B))
            prod = np.full(A.shape, -np.inf)
            t, x = np.zeros(A.shape), np.zeros(a.shape)
            for root in (q / A, C0 / q):
                y = a + root * d
                ok = (root > 0) & (root < 1) & (y > 0).all(axis=0)
                value = np.where(ok, y.prod(axis=0), -np.inf)
                better = value > prod
                prod = np.where(better, value, prod)
                t = np.where(better, root, t)
                x = np.where(better, y, x)
    return x, prod, np.stack([1.0 - t, t])


def _lands_on(x, at):
    """Whether the points x lie within `_TIE` of the points at in every coordinate, both (n, ...)."""
    return (np.abs(x - at) <= _TIE * at).all(axis=0)


def _nash_points(U, count, sizes):
    """Each cell's log-welfare optimum over the supports of `sizes`, and the candidates near it.

    sizes[s - 1] holds the (s, p) tables of s-supports; one with a column
    at or past its cell's count is padding.  Each size is evaluated once,
    the largest first.  A smaller support enters when it reaches the best
    product (strictly, against one no larger), and the entrants take the
    KKT test within `_TIE`; the largest product that passes wins, then the
    first.  Returns the (n, cells) points; per size from 2, one chunk of
    the candidates within 4 `_TIE` of their cell's best after their block,
    (cells, supports, points, lotteries) in support order, which hold every
    one that lands on the point; and a mask of the cells that had more
    than `_NEAR`, whose later ones are dropped.
    """
    n, k, b = U.shape
    best, at, near = np.full(b, -np.inf), np.zeros((n, b)), [[] for _ in sizes]
    size, held = np.full(b, n), np.zeros(b, dtype=np.intp)
    for s in (n, *range(1, n)):
        for cells, S in _blocks(b, sizes[s - 1]):
            Ub = U[:, :, cells]
            x, prod, lam = _candidates(Ub, S)
            prod[S[-1][:, None] >= count[cells]] = -np.inf
            f = best[cells]
            enter = prod > f
            if s < n:
                enter |= (prod == f) & ((f > -np.inf) & (s < size[cells]))
            # Each cell's entrants in the order of decreasing product, then
            # increasing rank, until one passes.
            left = np.where(enter, prod, -np.inf)
            while True:
                j = left.argmax(axis=0)
                r = np.flatnonzero(left[j, np.arange(len(j))] > -np.inf)
                j, failed = j[r], False
                if s < n and r.size:
                    # phi at a support's own point is n, so the largest phi is
                    # its KKT residual; padding columns do not count.
                    with np.errstate(divide="ignore", invalid="ignore"):
                        phi = Ub[0][:, r] / x[0, j, r]
                        for i in range(1, n):
                            phi += Ub[i][:, r] / x[i, j, r]
                    phi[np.arange(k)[:, None] >= count[cells][r]] = 0.0
                    ok = phi.max(axis=0) <= n * (1.0 + _TIE)
                    failed = not ok.all()
                    if failed:
                        left[j, r] = -np.inf
                        left[:, r[ok]] = -np.inf
                        j, r = j[ok], r[ok]
                rows = cells.start + r
                best[rows], at[:, rows], size[rows] = prod[j, r], x[:, j, r], s
                if not failed:
                    break
            if s == 1:
                continue
            # A point within `_TIE` of the final one has a product within 3 `_TIE` of it.
            j, r = np.nonzero(prod >= np.maximum(best[cells] * (1.0 - 4 * _TIE), 0.0))
            held[cells] += np.bincount(r, minlength=len(f))
            if held[cells].max() > _NEAR:
                kept = held[cells][r] <= _NEAR
                j, r = j[kept], r[kept]
            near[s - 1].append((cells.start + r, S[:, j], x[:, j, r], lam[:, j, r]))
    near = [[tuple(np.concatenate(a, axis=-1) for a in zip(*found))] if found else [] for found in near]
    return at, near, held > _NEAR


def _evaluated(U, count, s, cells, at):
    """Every s-support of U's columns in `cells` that lands on `at`, block by block, as `_nash_points`' near."""
    for block, S in _blocks(len(cells), _parts(U.shape[1], s)):
        sel = cells[block]
        x, prod, lam = _candidates(U[:, :, sel], S)
        j, r = np.nonzero((prod > -np.inf) & (S[-1][:, None] < count[sel]) & _lands_on(x, at[:, None, sel]))
        yield sel[r], S[:, j], x[:, j, r], lam[:, j, r]


def _pick(U, idx, count, at, face, near, m):
    """The (m, cells) lottery on the support of U's columns (a `_gather`) whose point lands on `at`.

    Of the supports of face columns (face, an (m, cells) mask) within
    `_TIE` of `at`, the smallest wins, then the shortest, then the first:
    of `_nash_points`' candidates near or, if near is None, of them all.
    """
    n, k, b = U.shape
    lam = np.zeros((m, b))
    # A column is its own point, on the face if it lands (`_FACE`); the first settles its cell.
    hit = _lands_on(U, at[:, None]) & (np.arange(k)[:, None] < count)
    open_ = ~hit.any(axis=0)
    cells = np.flatnonzero(~open_)
    lam[idx[hit[:, cells].argmax(axis=0), cells], cells] = 1.0
    for s in range(2, n + 1):
        if not open_.any():
            break
        chunks = near[s - 1] if near is not None else _evaluated(U, count, s, np.flatnonzero(open_), at)
        short = np.full(b, np.inf)
        for cells, S, x, w in chunks:
            cols = idx[S, cells]
            ok = open_[cells] & face[cols, cells].all(axis=0) & _lands_on(x, at[:, cells])
            cells, S, cols, w = cells[ok], S[:, ok], cols[:, ok], w[:, ok]
            # Squared lengths around the closed edge cycle: a segment's edge
            # counts twice.  The sort is stable, so of equals the first wins,
            # and one of a later block wins only if it is shorter.
            c = U[:, S, cells]
            e = c - c[:, np.arange(s) - 1]
            length = (e * e).sum(axis=0).sum(axis=0)
            order = np.lexsort((length, cells))
            first = np.ones(order.size, dtype=bool)
            first[1:] = cells[order[1:]] != cells[order[:-1]]
            top = order[first]
            top = top[length[top] < short[cells[top]]]
            lam[:, cells[top]] = 0.0
            short[cells[top]] = length[top]
            lam[cols[:, top], cells[top]] = w[:, top]
        open_ &= short == np.inf
    return lam


def _undominated(C):
    """(m, cells) mask of the columns no other column of their cell dominates.

    Column k dominates column j when C_k >= C_j in every row and either
    C_k != C_j or k < j, so of exact twins the first stays.  A dominated
    column is in no optimal support.  Blocks hold at most about
    `_PRUNE_BLOCK` (dominator, column, cell) entries.
    """
    n, m, b = C.shape
    keep = np.ones((m, b), dtype=bool)
    earlier = np.arange(m)[:, None, None] < np.arange(m)[:, None]
    rows = max(1, _PRUNE_BLOCK // (m * m))
    step = max(1, _PRUNE_BLOCK // (m * rows))
    for lo in range(0, b, rows):
        Cb = C[:, :, lo : lo + rows]
        for k in range(0, m, step):
            top = Cb[:, k : k + step, None]
            ge = (top >= Cb[:, None]).all(axis=0)
            gt = (top > Cb[:, None]).any(axis=0)
            keep[:, lo : lo + rows] &= ~(ge & (gt | earlier[k : k + step])).any(axis=0)
    return keep


def _support_optima(C, tol, edges=None):
    """Log-welfare optima of n <= 3 agents over supports of at most n columns.

    C is (n, m, cells).  Each cell keeps its undominated columns, in
    column order (`_undominated`), and every support of at most n of them
    is a candidate.  A caller that knows a two-agent set's frontier chain
    passes its edges (J, K) instead: then the columns and those segments
    are the candidates.  Rows are scaled to a largest entry of one, so the
    pick does not depend on per-agent scale.  A cell with one kept column
    takes it; in the others `_race` finds the optimum and the support
    that reaches it.  The KKT residual re-verifies every cell.  Returns
    (lam, value, residual) as `maximize_log_sum_batch` does.
    """
    n, m, b = C.shape
    scale = C.max(axis=1, keepdims=True)
    keep = _undominated(C) if edges is None else np.ones((m, b), dtype=bool)
    one = keep.sum(axis=0) == 1
    if one.any():
        # A lone kept column weakly dominates every other one, so it is the
        # optimum, as `_pick` would find it; only the other cells race.
        lam = np.zeros((m, b))
        lam[keep[:, one].argmax(axis=0), np.flatnonzero(one)] = 1.0
        if not one.all():
            many = ~one
            lam[:, many] = _race(C[:, :, many], scale[:, :, many], keep[:, many], edges)
    else:
        lam = _race(C, scale, keep, edges)
    x, f = _objective(C, lam)
    resid, _ = _residuals(C, lam, x)
    missed = ~(resid <= tol)
    if missed.any():
        raise _missed(tol, int(missed.sum()))
    return np.ascontiguousarray(lam.T), f, resid


def _race(C, scale, keep, edges):
    """The (m, cells) lottery on the support `_pick` picks at the optimum over the kept columns.

    The optimum is `_nash_points`' on working sets of the kept columns,
    padded to the batch's largest, grown as the module docstring says.
    """
    n = C.shape[0]
    work = keep
    if edges is None and keep.sum(axis=0).max() > _WORK:
        work = _largest((C / scale).prod(axis=0), keep)
    while True:
        U, idx, count = _gather(C, scale, work)
        sizes = [_parts(U.shape[1], s) for s in range(1, n + 1)]
        if edges is not None:
            sizes[1] = [np.vstack(edges)]
        at, near, over = _nash_points(U, count, sizes)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = _gradients(C, at * scale[:, 0])
        # A working set with no positive point (all its products zero)
        # leaves at = 0, where phi is infinite or NaN: the largest violation.
        phi[np.isnan(phi)] = np.inf
        grow = keep & ~work & (phi > n * (1.0 + _TIE))
        if not grow.any():
            face = keep & (phi >= n * (1.0 - _FACE))
            lam = _pick(U, idx, count, at, face, near, C.shape[1])
            a = np.flatnonzero(over | (face & ~work).any(axis=0))
            if a.size:
                lam[:, a] = _pick(*_gather(C[..., a], scale[..., a], face[:, a]), at[:, a], face[:, a], None, C.shape[1])
            return lam
        work = work | _largest(phi, grow)


def _largest(score, mask):
    """(m, cells) mask of each cell's `_WORK` entries of mask with the largest score."""
    top = np.argsort(np.where(mask, -score, np.inf), axis=0, kind="stable")[:_WORK]
    out = np.zeros_like(mask)
    np.put_along_axis(out, top, True, axis=0)
    return out & mask


def _gather(C, scale, keep):
    """Each cell's kept columns of C / scale in column order (`_compact`): (U, idx, count)."""
    idx, count = _compact(keep)
    return np.take_along_axis(C, idx[None], axis=1) / scale, idx, count


def _compact(keep):
    """(K, cells) indices of each cell's kept columns in column order, and their counts.

    keep is an (m, cells) mask and K the largest count, at least one;
    shorter cells are padded with column 0.
    """
    cells, cols = np.nonzero(keep.T)
    count = np.bincount(cells, minlength=keep.shape[1])
    first = np.cumsum(count) - count
    idx = np.zeros((max(count.max(), 1), keep.shape[1]), dtype=np.intp)
    idx[np.arange(len(cells)) - first[cells], cells] = cols
    return idx, count


def _missed(tol, cells):
    return ConvergenceError(f"log-welfare maximizer missed tolerance {tol} on {cells} cell(s)")


def _newton_optima(C, tol):
    """Log-welfare optima of one agent or of four or more, by Newton on working sets.

    C is (n, m, cells).  The working sets start as the module docstring
    says; each round solves them, padded to one (n, K, cells) block of
    which `free` marks the real columns, by `_newton_group`.  Returns
    (lam, value, residual) as `maximize_log_sum_batch` does.
    """
    n, _, b = C.shape
    keep = _undominated(C)
    work = keep.copy()
    if keep.sum(axis=0).max() > _WORK:
        work = _largest((C / C.max(axis=1, keepdims=True)).prod(axis=0), keep)
        agents, cells = np.nonzero(~(C * work).any(axis=1))
        work[np.where(keep, C, -1.0).argmax(axis=1)[agents, cells], cells] = True
    lam = work / work.sum(axis=0)
    todo = np.arange(b)
    f = np.empty(b)
    resid = np.empty(b)
    for _ in range(_SUPPORT_ROUNDS):
        idx, count = _compact(work[:, todo])
        Ct = C[:, :, todo]
        if idx.shape[0] > 1:
            free = np.arange(idx.shape[0])[:, None] < count
            U = np.take_along_axis(Ct, idx[None], axis=1)
            lamW = np.where(free, np.take_along_axis(lam[:, todo], idx, axis=0), 0.0)
            # Slices bound the memory of the stacked Newton systems.
            for lo in range(0, todo.size, _NEWTON_SLICE):
                cells = slice(lo, lo + _NEWTON_SLICE)
                lamW[:, cells] = _newton_group(U[:, :, cells], lamW[:, cells], free[:, cells])
            rows, cols = np.nonzero(free)
            lam[:, todo] = 0.0
            lam[idx[rows, cols], todo[cols]] = lamW[rows, cols]
        xt, f[todo] = _objective(Ct, lam[:, todo])
        r, phi = _residuals(Ct, lam[:, todo], xt)
        resid[todo] = r
        held = lam[:, todo] > 0
        grow = keep[:, todo] & ~held & (phi > n * (1.0 + _TIE))
        left = r > tol
        todo = todo[left]
        if not todo.size:
            return np.ascontiguousarray(lam.T), f, resid
        work[:, todo] = held[:, left] | _largest(phi[:, left], grow[:, left])
    raise _missed(tol, todo.size)


def maximize_log_sum_batch(C, tol=1e-11):
    """Batched solve.  C has shape (cells, n, m), nonnegative, nonzero rows.

    Returns (lam, value, residual) with lam of shape (cells, m).  Raises
    ConvergenceError if any cell misses the KKT tolerance.  Two and three
    agents take the closed form (`_support_optima`), any other number
    Newton's method (`_newton_optima`).
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 3:
        raise ValueError("C must have shape (cells, n, m)")
    n = C.shape[1]
    # Cells last, the layout every kernel below reads; a caller that holds
    # an (n, m, cells) array passes its transposed view and no copy is made.
    C = np.ascontiguousarray(C.transpose(1, 2, 0))
    if C.min() < 0:
        raise ValueError("columns must be nonnegative")
    if np.any(C.max(axis=1) <= 0):
        raise ValueError("every agent row needs a positive entry")
    if n in (2, 3):
        return _support_optima(C, tol)
    return _newton_optima(C, tol)
