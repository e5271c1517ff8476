"""Concave log-welfare maximization over the probability simplex.

Solves, for a batch of problems at once,

    maximize  sum_i log((C lam)_i)   over  lam in the unit simplex,

with C nonnegative and every row of C nonzero.  Offsets (disagreement
points) are handled by the callers, who subtract them from every column;
on the simplex that is the same objective.

Because sum_j lam_j phi_j == n identically (phi is the gradient), the
optimality condition is simply phi_j <= n for all j with equality on the
support, which doubles as the reported KKT residual.

The method has two phases, and convergence is decided per cell:

* A damped multiplicative ascent (proportional-response dynamics) from
  the uniform lottery, for at most `warm_iters` iterations.  Iterates
  stay in the relative interior.  Every 16 iterations each cell is
  tested on its own: it is done once its last gain is at most
  1e-13 (1 + |f|) or its residual meets the tolerance.  The ascent stops
  when every cell is done.  Done cells keep stepping with the rest:
  at the default cap, gathering the unfinished cells into a smaller
  batch cost more than the steps it saved.
* Newton rounds.  Every cell gets at least one, because a cell that met
  the tolerance in the ascent still has errors of that size in C lam.  Cells that share a support pattern solve as one stacked call.
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
    """Damped multiplicative ascent from the uniform lottery.

    Returns (lam, x).  Stops early once every cell has stalled or met `tol`.
    """
    n, m, b = C.shape
    lam = np.full((m, b), 1.0 / m)
    x, f = _objective(C, lam)
    beta = np.ones(b)
    gain = np.zeros(b)
    for it in range(iters):
        phi = _gradients(C, x)
        if it % 16 == 0 and it:
            if not ((gain > 1e-13 * (1.0 + np.abs(f))) & (_kkt(phi, lam, n) > tol)).any():
                break
        # phi >= 0, and 0 ** beta == 0 keeps dead columns at zero weight.
        cand = phi
        cand /= n
        cand **= beta
        cand *= lam
        cand /= cand.sum(axis=0)
        xc, fc = _objective(C, cand)
        accept = fc >= f - 1e-14 * np.abs(f)
        lam = np.where(accept, cand, lam)
        x = np.where(accept, xc, x)
        gain = np.where(accept, fc - f, 0.0)
        f = np.where(accept, fc, f)
        beta = np.where(accept, np.minimum(1.0, beta * 1.2), np.maximum(beta * 0.5, 1e-4))
    return lam, x


def _newton_group(Cg, lamS, iters):
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
    for _ in range(iters):
        inv = 1.0 / x
        g = np.einsum("nsb,nb->sb", Cg, inv)
        M = np.zeros((b, s + 1, s + 1))
        H = M[:, :s, :s]
        np.einsum("nsb,nb,ntb->bst", Cg, inv * inv, Cg, out=H)
        H[:, cols, cols] += 1e-13 * (H[:, cols, cols].sum(axis=1) / s + 1.0)[:, None]
        H *= (free[:, None, :] & free[None, :, :]).transpose(2, 0, 1)
        H[:, cols, cols] += ~free.T
        M[:, :s, s] = free.T
        M[:, s, :s] = free.T
        rhs = np.zeros((b, s + 1, 1))
        rhs[:, :s, 0] = np.where(free, g - n, 0.0).T
        delta = np.where(free, np.linalg.solve(M, rhs)[:, :s, 0].T, 0.0)
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


def maximize_log_sum_batch(C, tol=1e-11, warm_iters=64):
    """Batched solve.  C has shape (cells, n, m), nonnegative, nonzero rows.

    Returns (lam, value, residual) with lam of shape (cells, m).  Raises
    ConvergenceError if any cell misses the KKT tolerance.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 3:
        raise ValueError("C must have shape (cells, n, m)")
    b, n, m = C.shape
    if C.min() < 0:
        raise ValueError("columns must be nonnegative")
    if np.any(C.max(axis=2) <= 0):
        raise ValueError("every agent row needs a positive entry")
    if m == 1:
        lam = np.ones((b, 1))
        _, f = _objective(C.transpose(1, 2, 0), lam.T)
        return lam, f, np.zeros(b)

    C = np.ascontiguousarray(C.transpose(1, 2, 0))
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
            # Slices bound the memory of the stacked Newton systems.
            for cells in np.array_split(members, -(-members.size // _NEWTON_SLICE)):
                lamS = lam[np.ix_(S, cells)]
                lamS /= lamS.sum(axis=0)
                lam[:, cells] = 0.0
                lam[np.ix_(S, cells)] = _newton_group(C[np.ix_(np.arange(n), S, cells)], lamS, iters=40)
        Ct = C[:, :, todo]
        xt, f[todo] = _objective(Ct, lam[:, todo])
        r, phi = _residuals(Ct, lam[:, todo], xt)
        resid[todo] = r
        todo, phi = todo[r > tol], phi[:, r > tol]
        if not todo.size:
            return np.ascontiguousarray(lam.T), f, resid
    raise ConvergenceError(
        f"log-welfare maximizer missed tolerance {tol} on {todo.size} cell(s)"
    )


def maximize_log_sum(C, tol=1e-11):
    """Single-problem convenience wrapper; C has shape (n, m)."""
    C = np.asarray(C, dtype=float)
    lam, value, resid = maximize_log_sum_batch(C[None], tol=tol)
    return lam[0], float(value[0]), float(resid[0])
