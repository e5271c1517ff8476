"""Independent oracles used to freeze expected values in the tests.

Everything here avoids the library's own solution paths: LPs are checked
by brute-force vertex enumeration (and scipy), log-welfare optima by fine
grid search over the frontier, and equitability witnesses by the direct
grid search over candidate simplex-game translations.  The one exception
is `consumer_problem`, built on the library's tableau `lp.solve` (its
right-hand side is nonnegative, as `lp.solve` requires).  With
`minimal_cost_demand` (on scipy, since its utility floor is a negative
right-hand side) it forms the consumer problem's LP path
(`consumer_lp_path`), the oracle for the closed-form
`lp.consumer_envelope` that the verifiers use and for the supporting
prices of `lp.shadow_prices`.  Every other LP here runs on scipy's HiGHS
(`lp_scipy`).

Lindahl certificates have a per-shift assembly here
(`shift_certificate`): the shifted problem is built and validated, and
its prices formed, one shift at a time.  The library builds them as
arrays, all of a sweep's certificates at once.

The two-agent frontier chain has its old tolerance-based form here
(`frontier_chain_tol`), and the two-agent supporting normal its LP form
(`supporting_normal_lp`); the library reads both off one exact monotone
chain.

The log-welfare solver's ascent has its old damped form here
(`damped_warm_start`), which takes a step only if it does not lower the
objective and records the steps it rejects; the library takes every step.
Its Newton steps have their einsum-assembled form here (`newton_group`);
the library assembles the same KKT systems in contiguous arrays.

The consumer envelope has its one-row form here (`rising_chain_row`,
`consumer_envelope_row`): one sort and one monotone chain per row, where
the library sorts a whole stack of rows at once.  Sweep de-duplication
has its quadratic first-hit loop here (`first_hits_loop`), one vector pass
per kept row, where the library compares near pairs only.

The n >= 3 equitability witness LP has its slack-variable form here
(`witness_lp_slack`): raw payoff units, one slack per (generator, agent)
for the positive parts.  The library writes the same LP as subset rows
over the maximal generators, normalized by x - d, in n + 1 variables,
and generates only the rows it needs.

The polytope predicates of sets without facets have their LP forms over
the m generator weights here (`domination_slack_lp`,
`is_pareto_efficient_lp`).  The library solves their LP duals, over
normals in n + 1 variables, with the maximal generators joining as rows
one at a time.

The matching and exchange conversions have loop forms here that walk
the matchings (or goods) one agent at a time; the library computes the
same arrays as gathers and scatters over a stored index.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog

from ccm import _logmax, lp
from ccm import market, polytope, solutions
from ccm.tolerances import EPS_GEOM


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
    """scipy HiGHS solve of maximize c.x s.t. Ax <= b, x >= 0.

    HiGHS's presolve can report an unbounded LP as infeasible, so that
    verdict is checked again without presolve.
    """
    res = linprog(-np.asarray(c, float), A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if res.status == 2:
        res = linprog(
            -np.asarray(c, float), A_ub=A, b_ub=b, bounds=(0, None), method="highs",
            options={"presolve": False},
        )
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
    if u.ndim != 1 or p.shape != u.shape:
        raise ValueError("utility and price rows must be 1-d and equal length")
    lp._check_consumer_inputs(u[None], p[None])
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
    status, _, q = lp_scipy(-p, np.vstack(rows), np.array(rhs))
    if status != lp.OPTIMAL:  # pragma: no cover
        raise lp.LpError(f"minimal-cost refinement reported {status}")
    q = np.where(np.abs(q) < 1e-11, 0.0, q)  # snap relaxation dust
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


def frontier_chain_tol(generators, tol=EPS_GEOM):
    """The two-agent frontier chain by tolerance tests, as a list of points.

    A generator is dropped when another one is at least as good up to
    1e-15 and better by more than 1e-12 somewhere; points whose first
    coordinates agree to 1e-12 keep the highest; a middle point within
    tol (1 + |p|_inf) of the chord is dropped.  `polytope._frontier_chain`
    builds the same chain exactly, by one monotone chain.
    """
    G = np.asarray(generators, float)
    covers = (G[None, :, :] >= G[:, None, :] - 1e-15).all(axis=2)
    exceeds = (G[None, :, :] > G[:, None, :] + 1e-12).any(axis=2)
    keep = G[~(covers & exceeds).any(axis=1)]
    pts = sorted(keep, key=lambda p: (p[0], -p[1]))
    dedup = []
    for p in pts:
        if dedup and abs(p[0] - dedup[-1][0]) <= 1e-12:
            continue
        dedup.append(np.array(p))
    chain: list[np.ndarray] = []
    for p in dedup:
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            cross = (p[0] - a[0]) * (b[1] - a[1]) - (b[0] - a[0]) * (p[1] - a[1])
            if cross <= tol * (1.0 + np.abs(p).max()):
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def supporting_normal_lp(B, x):
    """A supporting normal at x of the two-agent set B with the largest min_i a_i, by LP.

    Maximizes s subject to a.(g - x) <= slack for every generator g,
    sum a = 1 and s <= a_i; raises `lp.LpError` unless s > EPS_GEOM.
    """
    G = B.generators
    m, n = G.shape
    slack = EPS_GEOM * (1.0 + np.abs(G).max())
    A = np.zeros((m + 2 + n, n + 1))
    A[:m, :n] = G - x
    A[m, :n] = 1.0
    A[m + 1, :n] = -1.0
    for i in range(n):
        A[m + 2 + i, i] = -1.0
        A[m + 2 + i, n] = 1.0
    b = np.concatenate([np.full(m, slack), [1.0, -1.0], np.zeros(n)])
    c = np.zeros(n + 1)
    c[n] = 1.0
    status, value, z = lp_scipy(c, A, b)
    if status != lp.OPTIMAL or value <= EPS_GEOM:
        raise lp.LpError("no strictly positive supporting normal; point is not efficient")
    return z[:n]


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


def frontier_mixes(B, rng, count):
    """Convex combinations of 1-3 maximal generators of B."""
    V = polytope._maximal_rows(B.generators)
    for _ in range(count):
        idx = rng.choice(len(V), size=min(int(rng.integers(1, 4)), len(V)), replace=False)
        yield rng.dirichlet(np.ones(len(idx))) @ V[idx]


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


def damped_warm_start(C, iters, tol):
    """The damped multiplicative ascent of `_logmax._warm_start`, recording rejections.

    C is (n, m, cells).  A step raises phi_j / n to a per-cell power beta
    and is taken only if the objective f does not fall by more than
    1e-14 |f|; a rejected step halves beta.  Returns (lam, x, drops):
    drops holds, for each rejected cell-step, the fall of f divided by
    sum_i (|log x_i| + 1), the scale of f's rounding error.
    """
    n, m, b = C.shape
    lam = np.full((m, b), 1.0 / m)
    x, f = _logmax._objective(C, lam)
    beta = np.ones(b)
    gain = np.zeros(b)
    drops = []
    for it in range(iters):
        phi = _logmax._gradients(C, x)
        if it % 16 == 0 and it:
            moving = gain > 1e-13 * (1.0 + np.abs(f))
            if not (moving & (_logmax._kkt(phi, lam, n) > tol)).any():
                break
        cand = phi
        cand /= n
        cand **= beta
        cand *= lam
        cand /= cand.sum(axis=0)
        xc, fc = _logmax._objective(C, cand)
        accept = fc >= f - 1e-14 * np.abs(f)
        scale = (np.abs(np.log(x)) + 1.0).sum(axis=0)
        drops.extend(((f - fc) / scale)[~accept])
        lam = np.where(accept, cand, lam)
        x = np.where(accept, xc, x)
        gain = np.where(accept, fc - f, 0.0)
        f = np.where(accept, fc, f)
        beta = np.where(accept, np.minimum(1.0, beta * 1.2), np.maximum(beta * 0.5, 1e-4))
    return lam, x, np.array(drops)


def rising_chain_row(xs, ys):
    """The rising chain of one row of points, sorted and walked on its own."""
    order = np.lexsort((-ys, xs))
    xs, ys = xs[order], ys[order]
    stair = np.empty(ys.shape[0], dtype=bool)
    stair[0] = True
    stair[1:] = ys[1:] > np.maximum.accumulate(ys)[:-1]
    hx, hy = [], []
    for x, y in zip(xs[stair].tolist(), ys[stair].tolist()):
        while len(hx) >= 2 and (
            (hx[-1] - hx[-2]) * (y - hy[-2]) >= (hy[-1] - hy[-2]) * (x - hx[-2])
        ):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return hx, hy


def consumer_envelope_row(u, p):
    """(V, minimal cost) of one consumer row through `rising_chain_row`."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    return lp._peak(*rising_chain_row(np.concatenate(([0.0], p)), np.concatenate(([0.0], u))))


def first_hits_loop(payoffs, tol):
    """First-hit de-duplication in the max norm, one vector pass per kept row."""
    rows = np.arange(len(payoffs))
    kept = []
    while rows.size:
        kept.append(int(rows[0]))
        rows = rows[np.abs(payoffs[rows] - payoffs[rows[0]]).max(axis=1) > tol]
    return kept


def newton_group(Cg, lamS):
    """`_logmax._newton_group` with its KKT systems assembled by a 3-operand einsum
    into a strided view, and the working set applied by masks at every step."""
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
    x, f = _logmax._objective(Cg, lamS)
    for _ in range(_logmax._NEWTON_ITERS):
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
            x, f = _logmax._objective(Cg, lamS)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(delta < 0, -lamS / np.where(delta < 0, delta, -1.0), np.inf)
        alpha = np.minimum(1.0, ratios.min(axis=0))
        moved = ~dropped & (reach * alpha > 1e-15)
        if not (moved | dropped).any():
            break
        slack = 1e-14 * (np.abs(np.log(x)).sum(axis=0) + n)
        for _ in range(45):
            cand = np.maximum(lamS + alpha * delta, 0.0)
            cand /= cand.sum(axis=0)
            xc, fc = _logmax._objective(Cg, cand)
            worse = moved & (fc < f - slack)
            if not worse.any():
                break
            alpha = np.where(worse, alpha * 0.5, alpha)
            moved &= alpha > 1e-18
        lamS = np.where(moved, cand, lamS)
        x = np.where(moved, xc, x)
        f = np.where(moved, fc, f)
    return np.take_along_axis(lamS, rep, axis=0) * share


def reaches_witness_lp(B, x, tol=EPS_GEOM):
    """The screens `solutions.equitable_contains` runs before its n >= 3 witness LP."""
    return (
        np.all(x - B.disagreement > tol)
        and np.all(x >= solutions.random_dictator_point(B) - tol)
        and polytope.is_pareto_efficient(B, x, tol)
    )


def witness_lp_slack(B, x, tol):
    """The witness LP in raw payoff units, with one slack variable per (generator, agent).

    Variables (t - 1/(x - d), s, v) >= 0: minimize v subject to
    s_gi >= (y_gi - x_i) t_i + 1 and sum_i s_gi - v <= n for every
    generator y_g, so sum_i s_gi models sum_i max((y_gi - x_i) t_i + 1, 0).
    Returns (feasible, c, v) like `solutions._witness_lp`.
    """
    G = B.generators
    m, n = G.shape
    d = B.disagreement
    tmin = 1.0 / (x - d)
    nv = n + m * n + 1
    rows = []
    rhs = []
    for g_idx in range(m):
        y = G[g_idx]
        for i in range(n):
            row = np.zeros(nv)
            row[i] = y[i] - x[i]
            row[n + g_idx * n + i] = -1.0
            rows.append(row)
            rhs.append(-1.0 - (y[i] - x[i]) * tmin[i])
        row = np.zeros(nv)
        row[n + g_idx * n : n + (g_idx + 1) * n] = 1.0
        row[-1] = -1.0
        rows.append(row)
        rhs.append(float(n))
    c_obj = np.zeros(nv)
    c_obj[-1] = -1.0
    status, _, z = lp_scipy(c_obj, np.vstack(rows), np.array(rhs))
    if status != lp.OPTIMAL:
        raise lp.LpError(f"witness LP reported {status}")
    violation = float(z[-1])
    t = tmin + z[:n]
    c = x - 1.0 / t
    return violation <= tol * n, np.maximum(c, d), violation


def domination_slack_lp(B, x):
    """`polytope.domination_slack` as an LP over the m generator weights.

    Variables (lambda, t+, t-): maximize t = t+ - t- subject to
    G^T lambda >= x + t and sum lambda = 1.
    """
    G = B.generators
    m, n = G.shape
    A = np.zeros((n + 2, m + 2))
    A[:n, :m] = -G.T
    A[:n, m] = 1.0
    A[:n, m + 1] = -1.0
    A[n, :m] = 1.0
    A[n + 1, :m] = -1.0
    b = np.concatenate([-x, [1.0, -1.0]])
    c = np.zeros(m + 2)
    c[m] = 1.0
    c[m + 1] = -1.0
    status, value, _ = lp_scipy(c, A, b)
    if status != lp.OPTIMAL:  # pragma: no cover - bounded and feasible by construction
        raise lp.LpError(f"domination LP reported {status}")
    return float(value)


def is_pareto_efficient_lp(B, x, tol=EPS_GEOM):
    """`polytope.is_pareto_efficient` by the generator-weight LP: the maximal
    coordinate sum over {y in B, y >= x} must not exceed x's by more than
    tol (1 + |sum x|)."""
    G = B.generators
    m, n = G.shape
    A = np.zeros((n + 2, m))
    A[:n] = -G.T
    A[n] = 1.0
    A[n + 1] = -1.0
    b = np.concatenate([-x, [1.0, -1.0]])
    status, value, _ = lp_scipy(G.sum(axis=1), A, b)
    if status != lp.OPTIMAL:
        raise lp.LpError(f"efficiency LP reported {status}")
    gap = value - float(x.sum())
    return gap <= tol * (1.0 + abs(float(x.sum())))
