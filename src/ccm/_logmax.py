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
best value are checked, each in O(m).  The Nash point is unique, so
candidates tie when they land on it: among those whose point is within
rounding of the best point the smallest support wins, then the
shortest, then the first.  Only columns on the optimal face can be in
such a support, so the pick takes its candidates from them.  On a flat
optimal face the lottery thus sits on the fewest columns nearest the
Nash point.

Candidates are evaluated in blocks of at most `_PAIR_BLOCK` (cell,
support) entries, so memory stays bounded at any m; a working set bounds
the number of supports, on the order of K^n for K columns.  A caller
that knows a two-agent set's frontier chain passes its consecutive edges
as the only segments (`solutions.nash_solution`), in O(m) after the
chain's sort.

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

from functools import partial

import numpy as np

_SUPP_EPS = 1e-10
_NEWTON_SLICE = 1024
_SUPPORT_ROUNDS = 10
_NEWTON_ITERS = 40
# (cell, support) entries per block of the closed form for n <= 3.
_PAIR_BLOCK = 2048
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


def _subsets(k, s):
    """The s-subsets of range(k), s <= 3, in lexicographic order.

    Yields (s, count) groups, one per first element.
    """
    if s == 1:
        yield np.arange(k)[None]
        return
    for i in range(k - s + 1):
        if s == 2:
            rest = np.arange(i + 1, k)[None]
        else:
            rest = np.array(np.triu_indices(k - 1 - i, 1)) + i + 1
        yield np.vstack([np.full(rest.shape[1], i), rest])


def _blocks(b, groups):
    """(first rank, cells, supports) blocks over b cells and the supports of `groups`.

    A block holds at most `_PAIR_BLOCK` (cell, support) entries.  Supports
    keep their order, and their rank counts across `groups`.
    """
    first = 0
    for g in groups:
        for lo in range(0, g.shape[1], _PAIR_BLOCK):
            S = g[:, lo : lo + _PAIR_BLOCK]
            rows = max(1, _PAIR_BLOCK // S.shape[1])
            for cell in range(0, b, rows):
                yield first + lo, slice(cell, min(cell + rows, b)), S
        first += g.shape[1]


def _candidates(U, S):
    """Stationary points of sum_i log x_i on the supports S in each cell of U.

    U is (n, m, cells) and S is (s, p) column indices.  Returns the
    supports' columns (n, s, p, cells), their stationary points (n, p,
    cells), the points' products and the lotteries on S (s, p, cells).  A
    support whose stationary point is not strictly inside it gets product
    -inf.
    """
    c = U[:, S]
    n, s = c.shape[:2]
    if s == 1:
        x = c[:, 0]
        return c, x, x.prod(axis=0), np.broadcast_to(1.0, (1,) + x.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if s == 3:
            # The face's plane is w.x = 1 with w.C_j = 1 on its three columns,
            # and the log sum peaks on it at x_i = 1 / (3 w_i) (Eisenberg & Gale
            # 1959).  With k_j the cross product of the two columns after j
            # (cyclically), w = N / det for N = k_0 + k_1 + k_2 and
            # det = C_0 . k_0, and the lottery is lam_j = x . k_j / det =
            # sum_i k_ji / (3 N_i).
            i, j = [1, 2, 0], [2, 0, 1]
            k = c[np.ix_(i, i)] * c[np.ix_(j, j)] - c[np.ix_(j, i)] * c[np.ix_(i, j)]
            N = k.sum(axis=1)
            det = (c[:, 0] * k[:, 0]).sum(axis=0)
            lam = (k / N[:, None]).sum(axis=0)
            inside = (N * det > 0).all(axis=0) & (lam > 0).all(axis=0)
            lam /= lam.sum(axis=0)
            x = (c * lam).sum(axis=1)
            return c, x, np.where(inside, x.prod(axis=0), -np.inf), lam
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
    return c, x, prod, np.stack([1.0 - t, t])


def _lands_on(x, at):
    """Whether the points x lie within `_TIE` of the points at in every coordinate, both (n, ...)."""
    return (np.abs(x - at) <= _TIE * at).all(axis=0)


def _tops(U, count, groups, ceiling):
    """Each cell's support of highest product, the first of equals, that comes after `ceiling`.

    Supports with a column at or past the cell's count are padding and do
    not count.  ceiling, if given, is a (product, rank) pair per cell; a
    support comes after it in the order of decreasing product, then
    increasing rank.  Returns (product, point, rank) per cell.
    """
    n, _, b = U.shape
    best = np.full(b, -np.inf)
    at = np.zeros((n, b))
    rank = np.full(b, -1)
    for first, cells, S in _blocks(b, groups):
        _, x, prod, _ = _candidates(U[:, :, cells], S)
        out = S[-1][:, None] >= count[cells]
        if ceiling is not None:
            r = np.arange(first, first + S.shape[1])[:, None]
            f, k = ceiling[0][cells], ceiling[1][cells]
            out |= (prod > f) | ((prod == f) & (r <= k))
        prod[out] = -np.inf
        k = prod.argmax(axis=0)
        r = np.flatnonzero(prod[k, np.arange(len(k))] > best[cells])
        k, rows = k[r], cells.start + r
        best[rows] = prod[k, r]
        at[:, rows] = x[:, k, r]
        rank[rows] = first + k
    return best, at, rank


def _nash_points(U, count, levels):
    """Each cell's log-welfare optimum over the supports of `levels`, as an (n, cells) point.

    levels[s - 1]() yields the supports of s columns.  The best support of
    the largest size sets the point.  A smaller support takes its place
    when it reaches at least that product (strictly, against a support no
    larger than itself) and meets the KKT conditions within `_TIE`; one
    that reaches it but fails them leaves the race, and the next is tried.
    """
    n, _, b = U.shape
    best, at, _ = _tops(U, count, levels[-1](), None)
    size = np.full(b, len(levels))
    for s in range(1, len(levels)):
        live, ceiling = np.arange(b), None
        while live.size:
            sub = slice(None) if ceiling is None else live
            Ul = U[:, :, sub]
            f, x, r = _tops(Ul, count[sub], levels[s - 1](), ceiling)
            race = (f > -np.inf) & ((f > best[sub]) | ((f == best[sub]) & (s < size[sub])))
            # phi at the support's own point is n, so the largest phi is its
            # KKT residual; padding columns do not count.
            with np.errstate(divide="ignore", invalid="ignore"):
                phi = Ul[0] / x[0]
                for i in range(1, n):
                    phi += Ul[i] / x[i]
            phi[np.arange(len(phi))[:, None] >= count[sub]] = 0.0
            ok = race & (phi.max(axis=0) <= n * (1.0 + _TIE))
            won = live[ok]
            best[won], at[:, won], size[won] = f[ok], x[:, ok], s
            race &= ~ok
            live, ceiling = live[race], (f[race], r[race])
    return at


def _shortest(U, count, s, groups, at, cells):
    """For each of `cells`, the shortest s-support landing within `_TIE` of `at`.

    The first of equals wins.  Returns (settled, supports, lotteries): a
    mask over `cells`, and (s, len(cells)) arrays.
    """
    b = len(cells)
    shortest = np.full(b, np.inf)
    supp, weight = np.zeros((s, b), dtype=np.intp), np.zeros((s, b))
    for _, block, S in _blocks(b, groups):
        sel = cells[block]
        c, x, prod, w = _candidates(U[:, :, sel], S)
        lands = (prod > -np.inf) & (S[-1][:, None] < count[sel]) & _lands_on(x, at[:, None, sel])
        # Squared lengths around the closed edge cycle: a segment's edge counts twice.
        e = c - c[:, np.arange(s) - 1]
        length = np.where(lands, (e * e).sum(axis=0).sum(axis=0), np.inf)
        k = length.argmin(axis=0)
        r = np.flatnonzero(length[k, np.arange(len(k))] < shortest[block])
        k, rows = k[r], block.start + r
        shortest[rows] = length[k, r]
        supp[:, rows] = S[:, k]
        weight[:, rows] = w[:, k, r]
    return shortest < np.inf, supp, weight


def _pick(U, idx, count, at, m):
    """The (m, cells) lottery on the support of U's columns that lands on `at`.

    U holds each cell's columns on the optimal face (`_FACE`), the only
    ones a landing support can use, and idx maps them to columns of the
    lottery.  Of the supports that land, the smallest wins, then the
    shortest, then the first.  Sizes are tried in increasing order, each
    on the cells no smaller support settled.
    """
    n, k, b = U.shape
    lam = np.zeros((m, b))
    # A column is its own point: the first that lands settles its cell.
    hit = _lands_on(U, at[:, None]) & (np.arange(k)[:, None] < count)
    done = hit.any(axis=0)
    cells = np.flatnonzero(done)
    lam[idx[hit[:, cells].argmax(axis=0), cells], cells] = 1.0
    open_ = np.flatnonzero(~done)
    for s in range(2, n + 1):
        if not open_.size:
            break
        done, supp, weight = _shortest(U, count, s, _subsets(k, s), at, open_)
        cells = open_[done]
        lam[idx[supp[:, done], cells], cells] = weight[:, done]
        open_ = open_[~done]
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
    takes it; in the others `_nash_face` finds the optimum and `_pick`
    the support that reaches it (`_race`).  The KKT residual re-verifies
    every cell.  Returns (lam, value, residual) as
    `maximize_log_sum_batch` does.
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
    """The (m, cells) lottery of `_nash_face`'s optimum on the support `_pick` picks."""
    at, face = _nash_face(C, scale, keep, edges)
    return _pick(*_gather(C, scale, face), at, C.shape[1])


def _nash_face(C, scale, keep, edges):
    """Each cell's optimum over its kept columns (n, cells), and a mask of those on its face.

    The optimum is `_nash_points`' on a working set of the kept columns,
    padded to the batch's largest count.  A cell with more than `_WORK`
    starts from the `_WORK` of largest product, and each round adds at
    most `_WORK` of the kept columns that break the KKT conditions at the
    optimum, the most violated first, until none does (column generation).
    """
    n = C.shape[0]
    work = keep
    if edges is None and keep.sum(axis=0).max() > _WORK:
        work = _largest((C / scale).prod(axis=0), keep)
    while True:
        U, _, count = _gather(C, scale, work)
        levels = [partial(_subsets, U.shape[1], s) for s in range(1, n + 1)]
        if edges is not None:
            levels[1] = lambda: [np.vstack(edges)]
        at = _nash_points(U, count, levels)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = _gradients(C, at * scale[:, 0])
        # A working set with no positive point (all its products zero)
        # leaves at = 0, where phi is infinite or NaN: the largest violation.
        phi[np.isnan(phi)] = np.inf
        grow = keep & ~work & (phi > n * (1.0 + _TIE))
        if not grow.any():
            return at, keep & (phi >= n * (1.0 - _FACE))
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
