"""Independent oracles used to freeze expected values in the tests.

Everything here avoids the library's own solution paths: LPs are checked
by brute-force vertex enumeration (and scipy), log-welfare optima by fine
grid search over the frontier, and equitability witnesses by the direct
grid search over candidate simplex-game translations.  The one exception
is the consumer problem's LP path (`consumer_problem`,
`minimal_cost_demand`, `consumer_lp_path`), built on the library's
tableau `lp.solve`.  It is the oracle for the closed-form
`lp.consumer_envelope` that the verifiers use and for the supporting
prices of `lp.shadow_prices`.

Lindahl certificates have a per-shift assembly here
(`shift_certificate`): the shifted problem is built and validated, and
its prices formed, one shift at a time.  The library builds them as
arrays, all of a sweep's certificates at once.

The matching and exchange conversions have loop forms here that walk
the matchings (or goods) one agent at a time; the library computes the
same arrays as gathers and scatters over a stored index.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog

from ccm import lp
from ccm import market


def lp_vertex_enum(c, A, b):
    """Max of c.x over {Ax <= b, x >= 0} by enumerating basic solutions.

    Returns (value, argmax) or (None, None) when infeasible.  Suitable for
    a handful of variables only.
    """
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    r, m = A.shape
    rows = np.vstack([A, -np.eye(m)])
    rhs = np.concatenate([b, np.zeros(m)])
    best, arg = None, None
    for active in combinations(range(r + m), m):
        M = rows[list(active)]
        v = rhs[list(active)]
        try:
            x = np.linalg.solve(M, v)
        except np.linalg.LinAlgError:
            continue
        if np.all(rows @ x <= rhs + 1e-9):
            val = float(c @ x)
            if best is None or val > best + 1e-12:
                best, arg = val, x
    return best, arg


def lp_scipy(c, A, b):
    """scipy HiGHS solve of maximize c.x s.t. Ax <= b, x >= 0."""
    res = linprog(-np.asarray(c, float), A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if res.status == 2:
        return "infeasible", None, None
    if res.status == 3:
        return "unbounded", None, None
    return "optimal", -res.fun, res.x


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
    lp._check_consumer_inputs(u, p)
    A = np.vstack([p, np.ones_like(u)])
    sol = lp.solve(u, A, np.ones(2))
    if sol.status != lp.OPTIMAL:  # pragma: no cover - always feasible and bounded
        raise lp.LpError(f"consumer problem reported {sol.status}")
    return ConsumerOptimum(sol.objective_value, sol.primal, float(sol.dual[1]), float(sol.dual[0]))


def minimal_cost_demand(u_i, p_i):
    """Among maximizers of the consumer problem, one of minimal expenditure.

    Returns (q, cost), solved as an LP with the utility floor relaxed by
    1e-12 * (1 + |V|).  `lp.consumer_envelope` gives the exact minimal cost
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
    sol = lp.solve(-p, np.vstack(rows), np.array(rhs))
    if sol.status != lp.OPTIMAL:  # pragma: no cover
        raise lp.LpError(f"minimal-cost refinement reported {sol.status}")
    q = np.where(np.abs(sol.primal) < 1e-11, 0.0, sol.primal)  # snap relaxation dust
    return q, float(p @ q)


def consumer_lp_path(u, p):
    """(V, minimal cost) of the consumer problem by tableau LPs.

    V comes from `consumer_problem`; the cost from `minimal_cost_demand`,
    whose utility floor is relaxed by 1e-12 * (1 + |V|).  This is the path the
    verifiers took before `lp.consumer_envelope`; it has the same signature,
    so a test can patch it in to get the LP-path verdict.
    """
    value = consumer_problem(u, p).value
    _, cost = minimal_cost_demand(u, p)
    return value, cost


def frontier_points_2d(generators, steps=2000):
    """Dense sample of the efficient frontier of coco(generators), n = 2."""
    gens = np.asarray(generators, float)
    keep = []
    for i, g in enumerate(gens):
        if not any(
            np.all(h >= g - 1e-15) and np.any(h > g + 1e-12)
            for j, h in enumerate(gens)
            if j != i
        ):
            keep.append(g)
    pts = sorted(map(tuple, keep))
    chain = []
    for p in pts:
        p = np.array(p)
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            if (p[0] - a[0]) * (b[1] - a[1]) - (b[0] - a[0]) * (p[1] - a[1]) <= 1e-12:
                chain.pop()
            else:
                break
        chain.append(p)
    out = []
    for a, b in zip(chain[:-1], chain[1:]):
        ts = np.linspace(0, 1, steps)
        out.append(a[None, :] + ts[:, None] * (b - a)[None, :])
    if not out:
        return np.array(chain)
    return np.vstack([np.array(chain)] + out)


def nash_point_grid_2d(generators, steps=4000):
    """Grid-search maximizer of log(x1-d1) + log(x2-d2) on the frontier."""
    gens = np.asarray(generators, float)
    d = gens.min(axis=0)
    pts = frontier_points_2d(gens, steps)
    shifted = pts - d
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where((shifted > 0).all(axis=1), np.log(shifted).sum(axis=1), -np.inf)
    return pts[int(np.argmax(vals))]


def nash_allocation_grid_1d(u, steps=200001):
    """Grid maximizer of sum_i log(u_i . q) for two outcomes (q, 1-q)."""
    u = np.asarray(u, float)
    qs = np.linspace(0.0, 1.0, steps)
    Q = np.stack([qs, 1 - qs])
    vals = np.log(np.maximum(u @ Q, 1e-300)).sum(axis=0)
    j = int(np.argmax(vals))
    return np.array([qs[j], 1 - qs[j]])


def witness_grid_search(generators, x, steps=64, refine=True):
    """Direct grid search for a simplex-game translation certifying x.

    Searches c on a grid over prod_i [d_i, x_i), accepting when every
    generator y satisfies sum_i max(y_i - c_i, 0) / (n (x_i - c_i)) <= 1,
    with one local refinement pass around the best near-feasible cell.
    Returns c or None.  This is the geometric definition evaluated
    directly, used as an oracle for the LP-based decision.
    """
    gens = np.asarray(generators, float)
    x = np.asarray(x, float)
    d = gens.min(axis=0)
    n = x.shape[0]

    def scan(lo, hi, npts):
        axes = [lo[i] + (hi[i] - lo[i]) * np.arange(npts) / npts for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        cs = np.stack([m.ravel() for m in mesh], axis=1)
        cs = cs[np.all(cs < x - 1e-12, axis=1)]
        if cs.size == 0:
            return None, None, np.inf
        loads = np.zeros(len(cs))
        for y in gens:
            num = np.maximum(y[None, :] - cs, 0.0)
            den = n * (x[None, :] - cs)
            loads = np.maximum(loads, (num / den).sum(axis=1))
        best = int(np.argmin(loads))
        ok = loads <= 1.0 + 1e-9
        if ok.any():
            return cs[np.nonzero(ok)[0][0]], cs[best], float(loads[best])
        return None, cs[best], float(loads[best])

    hit, near, load = scan(d, x, steps)
    if hit is not None:
        return hit
    if refine and load < 1.1:
        span = (x - d) / steps
        lo = np.maximum(near - span, d)
        hi = np.minimum(near + span, x)
        hit, _, _ = scan(lo, hi, 16)
        if hit is not None:
            return hit
    return None


def random_collective(rng, n=None, kmax=6):
    """Uniform-grid random utilities with every agent holding a stake."""
    if n is None:
        n = int(rng.integers(2, 4))
    while True:
        k = int(rng.integers(2, kmax + 1))
        u = rng.integers(0, 9, size=(n, k)) / 8.0
        if np.all(u.max(axis=1) > 0):
            return u


def random_normalized_polytope(rng, n=2, max_vertices=6):
    """Random full-dimensional comprehensive set with origin disagreement."""
    while True:
        m = int(rng.integers(1, max_vertices + 1))
        pts = rng.integers(1, 17, size=(m, n)) / 8.0
        gens = np.vstack([pts, np.zeros(n)])
        if np.all(gens.max(axis=0) > 0):
            return gens


def matching_gather(matchings, a):
    """out[i, col] = a[i, partner of i in matching col].

    Utilities of the collective form from partner weights, and outcome
    prices from partner prices.
    """
    n = len(a)
    out = np.empty((n, len(matchings)))
    for col, j in enumerate(matchings):
        for i in range(n):
            out[i, col] = a[i][j[i]]
    return out


def matching_partner_prices(matchings, p):
    """pi[i, m]: the cheapest price p[i, col] over matchings col pairing i with m."""
    n = len(p)
    pi = np.zeros((n, n))
    for i in range(n):
        for m in {j[i] for j in matchings} - {i}:
            pi[i, m] = min(p[i][col] for col, j in enumerate(matchings) if j[i] == m)
    return pi


def matching_demand(matchings, q, n):
    """xi[i, m]: probability that i is matched with m under the lottery q."""
    xi = np.zeros((n, n))
    for col, j in enumerate(matchings):
        for i in range(n):
            xi[i, j[i]] += q[col]
    return xi


def matching_price_lints(matchings, p, q, supp):
    """(matching, agent) pairs whose price exceeds the cheapest delivery of that partner."""
    cheapest = matching_partner_prices(matchings, p)
    lints = []
    for col, j in enumerate(matchings):
        if q[col] <= supp:
            continue
        for i in range(len(p)):
            m = j[i]
            if m != i and p[i][col] > cheapest[i, m] + 1e-9:
                lints.append(f"matching {col} overprices pair ({i}, {m})")
    return lints


def exchange_allocations(n, r):
    """Every allocation of r goods to n agents, goods left unassigned allowed.

    The owner of good 0 varies slowest; owner n means unassigned.
    """
    out = []
    for assign in product(range(n + 1), repeat=r):
        masks = [0] * n
        for g, owner in enumerate(assign):
            if owner < n:
                masks[owner] |= 1 << g
        out.append(tuple(masks))
    return out


def shift_certificate(P, c, q):
    """The certificate of lottery q at shift c, assembled from the shifted problem."""
    c = np.asarray(c, dtype=float)
    shifted = market.shifted_utilities(P, c)
    alpha = shifted.u @ q
    p = shifted.u / alpha[:, None]
    return market.LindahlCertificate(p=p, q=q, payoffs=alpha + c, alpha=alpha, c=c.copy())
