"""Discrete-goods exchange without transfers, and commodification.

An economy hands each agent one unit of fiat money; consumption is a
lottery over bundles, prices may be package (non-additive), and the firm
sells a revenue-maximal partition of the goods.  Walrasian equilibria of
the economy embed into Lindahl equilibria of the collective problem whose
outcomes are the feasible allocations.  In the other direction, any
normalized bargaining polytope can be realized as the feasible-payoff set
of a constructed economy: additively for two agents (frontier-difference
goods), and in general with ladder goods plus throttled copies for
minimally inconsistent payoff combinations.

Bundles are bitmasks over the good list; utility tables and price tables
are arrays indexed by mask.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import lp
from .market import CollectiveProblem, Verdict, Violation, consumer_violations, verify_lindahl
from .polytope import Polytope, _slacks, coco_hull, contains, is_pareto_efficient
from .solutions import equitable_set_2d
from .tolerances import EPS_GEOM, EPS_LP, EPS_SUPP

_ALLOC_GUARD = 2_000_000
_GOODS_GUARD = 16
_FIRM_GUARD = 12
_CANDIDATE_GUARD = 20_000


def _additive_table(weights: np.ndarray) -> np.ndarray:
    """Additive values over all 2^r bundle masks; weights has shape (..., r)."""
    r = weights.shape[-1]
    table = np.zeros(weights.shape[:-1] + (1 << r,))
    for b in range(r):
        masks = np.nonzero(np.arange(1 << r) & (1 << b))[0]
        table[..., masks] += weights[..., b, None]
    return table


@dataclass(frozen=True)
class Economy:
    """Monotone bundle utilities for n agents over goods named `names`."""

    n: int
    names: tuple[str, ...]
    kind: str  # "additive" | "table"
    weights: np.ndarray | None = None
    tables: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one agent")
        r = len(self.names)
        if r < 1:
            raise ValueError("need at least one good")
        if len(set(self.names)) != r:
            raise ValueError("good names must be distinct")
        if self.kind == "additive":
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.n, r) or not np.isfinite(w).all() or w.min() < 0:
                raise ValueError("additive weights must be a nonnegative (n, r) matrix")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "tables", None)
        elif self.kind == "table":
            t = np.asarray(self.tables, dtype=float)
            if t.shape != (self.n, 1 << r) or not np.isfinite(t).all() or t.min() < 0:
                raise ValueError("tables must be a nonnegative (n, 2^r) matrix")
            if np.abs(t[:, 0]).max() > 0:
                raise ValueError("the empty bundle must be worth zero")
            for b in range(r):
                masks = np.nonzero(np.arange(1 << r) & (1 << b))[0]
                if np.any(t[:, masks] < t[:, masks ^ (1 << b)] - 1e-12):
                    raise ValueError("bundle utilities must be monotone")
            t = t.copy()
            t.setflags(write=False)
            object.__setattr__(self, "tables", t)
            object.__setattr__(self, "weights", None)
        else:
            raise ValueError("kind must be 'additive' or 'table'")
        full = self.value_table()[:, -1]
        if np.any(full <= 0):
            raise ValueError("agent with no stake: zero value for the full bundle")

    @property
    def r(self) -> int:
        return len(self.names)

    def value_table(self) -> np.ndarray:
        """Per-agent values over all 2^r bundle masks."""
        if self.kind == "table":
            return self.tables
        return _additive_table(self.weights)

    def value(self, agent: int, mask: int) -> float:
        return float(self.value_table()[agent, mask])


def economy_from_bundle_values(n: int, names, bundles) -> Economy:
    """Table economy from sparse bundle values with free disposal.

    `bundles` lists (agent, goods, value) triples; a bundle is worth the
    best listed sub-bundle it contains.  The result is monotone by
    construction.  An agent outside 0..n-1 or a good index outside
    0..len(names)-1 raises ValueError.
    """
    names = tuple(names)
    r = len(names)
    if r > _GOODS_GUARD:
        raise ValueError(f"at most {_GOODS_GUARD} goods")
    index = {g: i for i, g in enumerate(names)}
    tables = np.zeros((n, 1 << r))
    for agent, goods, value in bundles:
        if not 0 <= agent < n:
            raise ValueError(f"bundle agent {agent} is out of range for {n} agents")
        mask = 0
        for g in goods:
            j = index[g] if g in index else int(g)
            if not 0 <= j < r:
                raise ValueError(f"bundle good {g!r} is out of range for {r} goods")
            mask |= 1 << j
        if float(value) < tables[agent, mask]:
            continue
        tables[agent, mask] = float(value)
    for b in range(r):
        masks = np.nonzero(np.arange(1 << r) & (1 << b))[0]
        tables[:, masks] = np.maximum(tables[:, masks], tables[:, masks ^ (1 << b)])
    return Economy(n=n, names=names, kind="table", tables=tables)


@dataclass(frozen=True)
class PackagePrices:
    """Prices over bundles; either additive in singletons or a full table."""

    names: tuple[str, ...]
    additive: np.ndarray | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        r = len(self.names)
        if self.additive is not None:
            p = np.asarray(self.additive, dtype=float)
            if p.shape != (r,) or p.min() < 0 or not np.isfinite(p).all():
                raise ValueError("additive prices must be a nonnegative length-r vector")
            p = p.copy()
            p.setflags(write=False)
            object.__setattr__(self, "additive", p)
        elif self.table is not None:
            t = np.asarray(self.table, dtype=float)
            if t.shape != (1 << r,) or t.min() < 0 or not np.isfinite(t).all():
                raise ValueError("price table must be nonnegative over all bundles")
            if t[0] != 0:
                raise ValueError("the empty bundle is free")
            t = t.copy()
            t.setflags(write=False)
            object.__setattr__(self, "table", t)
        else:
            raise ValueError("provide additive or table prices")

    def price_vector(self) -> np.ndarray:
        if self.table is not None:
            return self.table
        return _additive_table(self.additive)


@dataclass(frozen=True)
class RandomAllocation:
    """Lottery over feasible allocations (tuples of pairwise disjoint masks)."""

    weights: tuple[float, ...]
    allocations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        allocs = tuple(tuple(int(m) for m in a) for a in self.allocations)
        if len(w) != len(allocs) or not w:
            raise ValueError("weights and allocations must align and be nonempty")
        if min(w) < 0 or abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("weights must be a probability distribution")
        for a in allocs:
            taken = 0
            for mask in a:
                if taken & mask:
                    raise ValueError("allocation bundles must be pairwise disjoint")
                taken |= mask
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "allocations", allocs)

    def marginal(self, agent: int, r: int) -> np.ndarray:
        out = np.zeros(1 << r)
        for w, a in zip(self.weights, self.allocations):
            out[a[agent]] += w
        return out


def _assignment_digits(n: int, r: int) -> np.ndarray:
    """(count, r) matrix of owner codes; owner n means unassigned."""
    count = (n + 1) ** r
    codes = np.arange(count, dtype=np.int64)
    digits = np.empty((count, r), dtype=np.int64)
    for g in range(r):
        digits[:, g] = (codes // (n + 1) ** (r - 1 - g)) % (n + 1)
    return digits


def enumerate_allocations(E: Economy) -> list[tuple[int, ...]]:
    """All allocations (goods may stay unassigned), in assignment order."""
    return [tuple(a) for a in _allocation_masks(E).tolist()]


def allocation_index(E: Economy, masks) -> int:
    """Index of an allocation in assignment order."""
    idx = 0
    for g in range(E.r):
        owner = E.n
        for i, mask in enumerate(masks):
            if mask >> g & 1:
                owner = i
                break
        idx = idx * (E.n + 1) + owner
    return idx


def _allocation_masks(E: Economy) -> np.ndarray:
    """(count, n) matrix of each agent's bundle mask, allocations in assignment order.

    Assignment order reads each allocation as the base-(n+1) number whose
    digit g, most significant first, is the owner of good g (n for
    unassigned); `allocation_index` inverts it.
    """
    if (E.n + 1) ** E.r > _ALLOC_GUARD:
        raise ValueError("allocation enumeration guard exceeded: (n+1)^r too large")
    digits = _assignment_digits(E.n, E.r)
    masks = np.zeros((digits.shape[0], E.n), dtype=np.int64)
    for g in range(E.r):
        for i in range(E.n):
            masks[:, i] |= (digits[:, g] == i).astype(np.int64) << g
    return masks


def _allocation_payoffs(E: Economy) -> np.ndarray:
    """(count, n) payoff matrix over all allocations, vectorized."""
    return E.value_table()[np.arange(E.n), _allocation_masks(E)]


def bargaining_of_economy(E: Economy) -> Polytope:
    """Feasible payoff set: coco of all allocation payoffs plus the origin."""
    payoffs = _allocation_payoffs(E)
    uniq = np.unique(payoffs, axis=0)
    return coco_hull(np.vstack([uniq, np.zeros(E.n)]))


def to_collective_exchange(E: Economy) -> CollectiveProblem:
    """Collective problem whose outcomes are the allocations, in assignment order."""
    return CollectiveProblem(_allocation_payoffs(E).T)


def partition_revenue(prices: PackagePrices, r: int) -> float:
    """Max total price over partitions of the goods, by subset dynamic programming."""
    if r > _FIRM_GUARD:
        raise ValueError(f"firm check guard: at most {_FIRM_GUARD} goods")
    pv = prices.price_vector()
    best = np.zeros(1 << r)
    for mask in range(1, 1 << r):
        low = mask & (-mask)
        sub = mask
        acc = -np.inf
        while sub:
            if sub & low:
                val = pv[sub] + best[mask ^ sub]
                if val > acc:
                    acc = val
            sub = (sub - 1) & mask
        best[mask] = acc
    return float(best[-1])


def verify_walras_exchange(
    E: Economy, prices: PackagePrices, theta: RandomAllocation, tol: float = EPS_LP
) -> Verdict:
    """Check the package-price equilibrium conditions.

    Every consumer's bundle lottery must be a minimal-cost utility
    maximizer under budget one; every supported allocation must collect
    the partition-maximal revenue.
    """
    if prices.names != E.names:
        raise ValueError("price and economy good lists differ")
    pv = prices.price_vector()
    table = E.value_table()
    demand = [theta.marginal(i, E.r) for i in range(E.n)]
    violations = consumer_violations(table, [pv] * E.n, demand, tol)

    revenue = partition_revenue(prices, E.r)
    for w, alloc in zip(theta.weights, theta.allocations):
        if w <= EPS_SUPP:
            continue
        got = float(sum(pv[mask] for mask in alloc))
        if revenue - got > tol * E.n:
            violations.append(Violation("firm_revenue", None, revenue - got))
            break
    return Verdict(not violations, violations)


def walras_to_lindahl_exchange(
    E: Economy, prices: PackagePrices, theta: RandomAllocation, tol: float = EPS_LP
):
    """Embed a verified exchange equilibrium into the collective problem.

    Outcome prices are the package prices of the agent's own bundle in
    that outcome; the allocation lottery passes through unchanged.
    """
    verdict = verify_walras_exchange(E, prices, theta, tol)
    if not verdict.passed:
        raise ValueError(f"input is not a Walrasian equilibrium: {verdict.violations}")
    p = prices.price_vector()[_allocation_masks(E).T]
    q = np.zeros(p.shape[1])
    for w, alloc in zip(theta.weights, theta.allocations):
        q[allocation_index(E, alloc)] += w
    P = to_collective_exchange(E)
    out = verify_lindahl(P, p, q, tol)
    if not out.passed:  # pragma: no cover - implied by the exchange equilibrium
        raise lp.LpError(f"converted equilibrium failed verification: {out.violations}")
    return p, q


def _require_normalized(B: Polytope):
    if np.abs(B.disagreement).max() > EPS_GEOM:
        raise ValueError("bargaining set must have its disagreement point at the origin")
    if not B.full_dimensional:
        raise ValueError("bargaining set must be full dimensional")


def commodify_two(B: Polytope) -> Economy:
    """Additive two-agent economy whose feasible payoffs reproduce B.

    Each frontier segment becomes one good carrying the payoff increments
    of its endpoints; padding goods absorb a frontier that starts above
    zero for agent 1 or ends above zero for agent 2.
    """
    if B.dim != 2:
        raise ValueError("commodify_two needs a two-agent set")
    _require_normalized(B)
    chain = B.frontier
    names: list[str] = []
    w1: list[float] = []
    w2: list[float] = []
    if chain[0][0] > EPS_GEOM:
        names.append("pad_lo")
        w1.append(float(chain[0][0]))
        w2.append(0.0)
    for h in range(len(chain) - 1):
        names.append(f"seg{h + 1}")
        w1.append(float(chain[h + 1][0] - chain[h][0]))
        w2.append(float(chain[h][1] - chain[h + 1][1]))
    if chain[-1][1] > EPS_GEOM:
        names.append("pad_hi")
        w1.append(0.0)
        w2.append(float(chain[-1][1]))
    economy = Economy(n=2, names=tuple(names), kind="additive", weights=np.array([w1, w2]))
    _assert_same_coco(bargaining_of_economy(economy), B)
    return economy


def _assert_same_coco(Bv: Polytope, B: Polytope, tol: float = 1e-7):
    ok = all(
        np.all(Y >= P.disagreement - tol) and _slacks(P, Y).min() >= -tol
        for P, Y in ((B, Bv.generators), (Bv, B.generators))
    )
    if not ok:
        raise lp.LpError("commodified economy does not reproduce the bargaining set")


def _efficient_vertices(B: Polytope) -> np.ndarray:
    gens = B.generators
    keep = []
    for i, g in enumerate(gens):
        others = np.delete(gens, i, axis=0)
        if others.size and contains(Polytope(others), g, EPS_GEOM):
            continue
        if is_pareto_efficient(B, g, EPS_GEOM):
            keep.append(g)
    return np.array(keep)


def commodify_general(B: Polytope) -> Economy:
    """Table economy reproducing B for any number of agents.

    Goods are one "ladder" copy of every distinct positive payoff value
    per agent, plus d(x) copies of every minimally inconsistent partial
    payoff vector x (one fewer than its defined coordinates).  An agent
    reaches payoff level y only with her whole ladder up to y and one
    copy of every minimally inconsistent vector pinning her at y, so
    infeasible payoff combinations are throttled by the copy counts.
    """
    _require_normalized(B)
    X = _efficient_vertices(B)
    n = B.dim
    values = [sorted({float(v) for v in X[:, i] if v > EPS_GEOM}) for i in range(n)]

    def consistent(partial) -> bool:
        for y in X:
            if all(p is None or abs(p - y[i]) <= 1e-12 for i, p in enumerate(partial)):
                return True
        return False

    mipps = []
    for combo in product(*[[None] + vals for vals in values]):
        defined = [i for i, p in enumerate(combo) if p is not None]
        if len(defined) < 2 or consistent(combo):
            continue
        deletions_ok = all(
            consistent(tuple(None if i == j else p for i, p in enumerate(combo)))
            for j in defined
        )
        if deletions_ok:
            mipps.append((combo, len(defined) - 1))

    names: list[str] = []
    ladder_bits: dict[tuple[int, float], int] = {}
    for i in range(n):
        for v in values[i]:
            ladder_bits[(i, v)] = len(names)
            names.append(f"lvl_{i}_{v:g}")
    mipp_bits: list[tuple[tuple, np.ndarray]] = []
    for m_idx, (combo, delta) in enumerate(mipps):
        copies = []
        for cnum in range(delta):
            copies.append(len(names))
            names.append(f"mix{m_idx}_{cnum}")
        mipp_bits.append((combo, np.array(copies)))
    r = len(names)
    if r > _GOODS_GUARD:
        raise ValueError(f"construction needs {r} goods; guard is {_GOODS_GUARD}")

    masks = np.arange(1 << r, dtype=np.int64)
    tables = np.zeros((n, 1 << r))
    for i in range(n):
        for y in values[i]:  # ascending, higher levels overwrite
            ladder = 0
            for v in values[i]:
                if v <= y:
                    ladder |= 1 << ladder_bits[(i, v)]
            cond = (masks & ladder) == ladder
            for combo, copies in mipp_bits:
                if combo[i] is not None and abs(combo[i] - y) <= 1e-12:
                    ymask = int(np.bitwise_or.reduce([1 << int(b) for b in copies]))
                    cond &= (masks & ymask) != 0
            tables[i] = np.where(cond, y, tables[i])

    economy = Economy(n=n, names=tuple(names), kind="table", tables=tables)
    if (n + 1) ** r <= _ALLOC_GUARD:
        Bv = bargaining_of_economy(economy)
    else:
        Bv = achievable_payoff_polytope(economy)
    _assert_same_coco(Bv, B)
    return economy


def _minimal_bundles(table_row: np.ndarray, level: float, r: int) -> list[int]:
    sel = table_row >= level - 1e-12
    masks = np.arange(1 << r, dtype=np.int64)
    has_smaller = np.zeros(1 << r, dtype=bool)
    for b in range(r):
        withbit = (masks >> b & 1) == 1
        has_smaller[withbit] |= sel[masks[withbit] ^ (1 << b)]
    return [int(m) for m in masks[sel & ~has_smaller]]


def achievable_payoff_polytope(E: Economy) -> Polytope:
    """The feasible payoff set without enumerating allocations.

    Candidate payoff tuples come from the per-agent value ranges; each is
    achievable iff minimal witness bundles can be packed disjointly.
    Agrees with bargaining_of_economy wherever both are in range.
    """
    table = E.value_table()
    ranges = [sorted({float(v) for v in row}) for row in table]
    total = int(np.prod([len(x) for x in ranges]))
    if total > _CANDIDATE_GUARD:
        raise ValueError("candidate payoff guard exceeded")
    witness = {
        (i, lvl): _minimal_bundles(table[i], lvl, E.r)
        for i in range(E.n)
        for lvl in ranges[i]
        if lvl > 0
    }

    def packable(levels, agent, used):
        if agent == E.n:
            return True
        lvl = levels[agent]
        if lvl <= 0:
            return packable(levels, agent + 1, used)
        for mask in witness[(agent, lvl)]:
            if not (mask & used) and packable(levels, agent + 1, used | mask):
                return True
        return False

    feasible = [list(c) for c in product(*ranges) if packable(c, 0, 0)]
    return coco_hull(np.vstack([np.array(feasible), np.zeros(E.n)]))


def walras_from_equitable_two(B: Polytope, x):
    """Exchange equilibrium with payoff x, for any equitable two-agent point.

    Commodifies B, then prices the marginal frontier good so both agents
    are exactly marginal on it and interpolates the remaining prices
    inside their optimality intervals until both budgets bind.  Returns
    (economy, prices, allocation lottery); the result verifies and pays x.
    """
    if B.dim != 2:
        raise ValueError("two-agent construction")
    _require_normalized(B)
    x = np.asarray(x, dtype=float)
    segments = equitable_set_2d(B)
    if not _on_segments(segments, x, 1e-9):
        raise ValueError("x is not in the equitable set")
    E = commodify_two(B)
    chain = B.frontier
    K = len(chain)
    names = list(E.names)
    w1, w2 = E.weights

    if K == 1:
        theta = RandomAllocation((1.0,), ((_mask_of(names, ["pad_lo"]), _mask_of(names, ["pad_hi"])),))
        prices = PackagePrices(names=E.names, additive=np.ones(len(names)))
        _finish_check(E, prices, theta, x)
        return E, prices, theta

    m, t = _locate(chain, x)
    good_of_seg = {h: names.index(f"seg{h}") for h in range(1, K)}
    gm = good_of_seg[m]
    rho = w2[gm] / w1[gm]
    b1, b2 = chain[-1][0], chain[0][1]
    lam_lo = max(b1 - x[0], (b2 - x[1]) / rho, x[0] - chain[m - 1][0])
    lam_hi = min(x[0], x[1] / rho)
    if lam_lo > lam_hi + 1e-9:
        raise lp.LpError("could not bind both budgets; no price multiplier fits")
    lam1 = 0.5 * (max(lam_lo, 1e-12) + lam_hi)
    lam2 = rho * lam1

    price = np.zeros(len(names))
    price[gm] = w1[gm] / lam1
    low = [names.index("pad_lo")] if "pad_lo" in names else []
    low += [good_of_seg[h] for h in range(1, m)]
    high = [good_of_seg[h] for h in range(m + 1, K)]
    high += [names.index("pad_hi")] if "pad_hi" in names else []

    _fill_side(price, low, w2 / lam2, w1 / lam1, 1.0 - t * price[gm])
    _fill_side(price, high, w1 / lam1, w2 / lam2, 1.0 - (1.0 - t) * price[gm])

    bundle1_a = low + [gm]
    bundle2_a = high
    bundle1_b = low
    bundle2_b = high + [gm]
    alloc_a = (_bits(bundle1_a), _bits(bundle2_a))
    alloc_b = (_bits(bundle1_b), _bits(bundle2_b))
    if t >= 1.0 - 1e-12:
        theta = RandomAllocation((1.0,), (alloc_a,))
    elif t <= 1e-12:
        theta = RandomAllocation((1.0,), (alloc_b,))
    else:
        theta = RandomAllocation((t, 1.0 - t), (alloc_a, alloc_b))
    prices = PackagePrices(names=E.names, additive=price)
    _finish_check(E, prices, theta, x)
    return E, prices, theta


def _bits(indices) -> int:
    mask = 0
    for b in indices:
        mask |= 1 << b
    return mask


def _mask_of(names, wanted) -> int:
    return _bits([names.index(w) for w in wanted if w in names])


def _on_segments(segments, x, tol) -> bool:
    for a, b in segments:
        d = b - a
        denom = float(d @ d)
        t = 0.0 if denom <= tol * tol else float(np.clip((x - a) @ d / denom, 0.0, 1.0))
        if np.abs(a + t * d - x).max() <= 1e-7:
            return True
    return False


def _locate(chain, x):
    for m in range(1, len(chain)):
        run = chain[m][0] - chain[m - 1][0]
        t = (x[0] - chain[m - 1][0]) / run
        if -1e-9 <= t <= 1.0 + 1e-9:
            t = min(max(t, 0.0), 1.0)
            interp = (1 - t) * chain[m - 1] + t * chain[m]
            if np.abs(interp - x).max() <= 1e-7:
                return m, t
    raise ValueError("x is not on the frontier")


def _fill_side(price, goods, lower_rates, upper_rates, budget):
    if not goods:
        if budget > 1e-7:
            raise lp.LpError("no goods left to absorb the remaining budget")
        return
    lo = np.array([lower_rates[g] for g in goods])
    hi = np.array([upper_rates[g] for g in goods])
    lo_sum, hi_sum = float(lo.sum()), float(hi.sum())
    if budget < lo_sum - 1e-7 or budget > hi_sum + 1e-7:
        raise lp.LpError("budget does not fit inside the price intervals")
    tau = 0.0 if hi_sum - lo_sum <= 1e-12 else (budget - lo_sum) / (hi_sum - lo_sum)
    tau = min(max(tau, 0.0), 1.0)
    for g, plo, phi in zip(goods, lo, hi):
        price[g] = (1 - tau) * plo + tau * phi


def _finish_check(E, prices, theta, x):
    verdict = verify_walras_exchange(E, prices, theta)
    if not verdict.passed:
        raise lp.LpError(f"constructed exchange equilibrium failed: {verdict.violations}")
    table = E.value_table()
    payoff = np.array([float(table[i] @ theta.marginal(i, E.r)) for i in range(E.n)])
    if np.abs(payoff - x).max() > 1e-8 * (1.0 + np.abs(x).max()):
        raise lp.LpError("constructed equilibrium pays the wrong vector")
