"""Independent output checks, in numpy, sharing no code with ccm.

Each check returns a list of failure messages; an empty list means the
output passed.  The checks evaluate definitions directly: consumer optima
by enumerating the basic solutions of the two-constraint consumer LP,
Pareto efficiency through the equilibrium's own welfare weights, set
domination by the simplex-game load inequality, and two-agent frontiers
by an upper concave chain.
"""
from __future__ import annotations

from itertools import product

import numpy as np

TOL = 1e-8
NASH_TOL = 1e-8
# Equitability witnesses are certified by ccm at 1e-7 (solutions._certify).
WITNESS_TOL = 1e-7


def consumer_value(u, p) -> float:
    """max u.q  s.t.  p.q <= 1, 1.q <= 1, q >= 0, by vertex enumeration.

    A basic solution of two constraints has at most two nonzero weights:
    q = 0, a single outcome at min(1, 1/p_j), or two outcomes with both
    constraints tight.
    """
    u = np.asarray(u, float)
    p = np.asarray(p, float)
    with np.errstate(divide="ignore"):
        single = np.where(p > 1.0, 1.0 / p, 1.0)
    best = max(0.0, float((u * single).max()))
    j, l = np.triu_indices(u.shape[0], 1)
    dp = p[j] - p[l]
    ok = dp != 0
    j, l, dp = j[ok], l[ok], dp[ok]
    qj = (1.0 - p[l]) / dp
    feasible = (qj >= 0.0) & (qj <= 1.0)
    if feasible.any():
        vals = u[j] * qj + u[l] * (1.0 - qj)
        best = max(best, float(vals[feasible].max()))
    return best


def check_lindahl(u, p, q, payoffs, tol=TOL) -> list[str]:
    """Equilibrium conditions for prices p and lottery q on utilities u."""
    u = np.asarray(u, float)
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    x = np.asarray(payoffs, float)
    n, k = u.shape
    if p.shape != (n, k) or q.shape != (k,) or x.shape != (n,):
        return [f"shape mismatch: p {p.shape}, q {q.shape}, payoffs {x.shape} for u {u.shape}"]
    scale = 1.0 + max(float(u.max()), 1.0)
    errs = []
    if q.min() < -tol or abs(q.sum() - 1.0) > tol:
        errs.append(f"lottery not a unit-mass distribution (sum {q.sum()!r}, min {q.min()!r})")
    for i in range(n):
        if p[i] @ q > 1.0 + tol * scale:
            errs.append(f"agent {i} over budget: {p[i] @ q!r}")
        gap = consumer_value(u[i], p[i]) - u[i] @ q
        if gap > tol * scale:
            errs.append(f"agent {i} not at a consumer optimum: gap {gap!r}")
    revenue = p.sum(axis=0)
    if revenue.max() - revenue @ q > tol * scale * n:
        errs.append(f"firm revenue below its maximum by {revenue.max() - revenue @ q!r}")
    if np.abs(u @ q - x).max() > tol * scale:
        errs.append("payoffs differ from u @ q")
    return errs


def check_weighted_efficiency(u, payoffs, alpha, tol=TOL) -> list[str]:
    """Pareto efficiency through the positive weights 1/alpha.

    x is efficient in coco(columns of u, 0) when it maximizes the weighted
    sum sum_i x_i / alpha_i over the outcomes.
    """
    alpha = np.asarray(alpha, float)
    if alpha.min() <= 0:
        return ["nonpositive alpha"]
    w = 1.0 / alpha
    best = float((w @ np.asarray(u, float)).max())
    own = float(w @ np.asarray(payoffs, float))
    if best > own + tol * (1.0 + abs(own)):
        return [f"weighted welfare {own!r} below the best outcome {best!r}"]
    return []


def check_distinct(payoffs, dedup) -> list[str]:
    """Every pair of payoff vectors is more than `dedup` apart in max-norm."""
    X = np.asarray(payoffs, float)
    if len(X) < 2:
        return []
    dist = np.abs(X[:, None, :] - X[None, :, :]).max(axis=2)
    dist[np.diag_indices(len(X))] = np.inf
    if dist.min() <= dedup:
        return [f"payoffs {dist.min()!r} apart, not more than {dedup!r}"]
    return []


def frontier_chain_2d(points) -> np.ndarray:
    """Vertices of the strictly efficient frontier of coco(points), n = 2.

    Ordered by increasing first coordinate (so decreasing second).
    """
    pts = sorted({(float(a), float(b)) for a, b in np.asarray(points, float)})
    hull: list[tuple[float, float]] = []
    for pt in pts:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax) >= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    top = max(range(len(hull)), key=lambda i: (hull[i][1], hull[i][0]))
    return np.array(hull[top:])


def below_chain(chain, x, tol=TOL) -> bool:
    """x is weakly dominated by a point of the chain's comprehensive hull."""
    x0, x1 = float(x[0]), float(x[1])
    if x0 > chain[-1, 0] + tol:
        return False
    if x0 <= chain[0, 0]:
        return x1 <= chain[0, 1] + tol
    return x1 <= float(np.interp(x0, chain[:, 0], chain[:, 1])) + tol


def on_chain(chain, x, tol=TOL) -> bool:
    x0 = float(x[0])
    if x0 < chain[0, 0] - tol or x0 > chain[-1, 0] + tol:
        return False
    return abs(float(np.interp(x0, chain[:, 0], chain[:, 1])) - float(x[1])) <= tol


def check_two_agent_payoffs(generators, payoffs, tol=TOL) -> list[str]:
    """Two-agent equilibrium payoffs: on the frontier, above the random dictator."""
    G = np.asarray(generators, float)
    chain = frontier_chain_2d(G)
    d = G.min(axis=0)
    rd = d + (G.max(axis=0) - d) / 2.0
    errs = []
    for x in np.asarray(payoffs, float):
        if not on_chain(chain, x, tol):
            errs.append(f"payoff {x.tolist()} is off the efficient frontier")
        if np.any(x < rd - tol):
            errs.append(f"payoff {x.tolist()} below the random-dictator point {rd.tolist()}")
    return errs


def check_witness(generators, x, scale, base, tol=WITNESS_TOL) -> list[str]:
    """The simplex game coco{c, c + n a_i e^i} dominates B and has fair point x.

    A point y is weakly dominated by the game iff
    sum_i max(y_i - c_i, 0) / (n a_i) <= 1; comprehensiveness reduces
    set domination to the generators plus c >= d.
    """
    G = np.asarray(generators, float)
    x = np.asarray(x, float)
    a = np.asarray(scale, float)
    c = np.asarray(base, float)
    n = x.shape[0]
    if a.shape != (n,) or c.shape != (n,):
        return ["witness has the wrong dimension"]
    if a.min() <= 0:
        return ["witness scale is not positive"]
    errs = []
    if np.any(c < G.min(axis=0) - tol):
        errs.append("witness base lies below the disagreement point")
    loads = (np.maximum(G - c, 0.0) / (n * a)).sum(axis=1)
    if loads.max() > 1.0 + tol:
        errs.append(f"witness does not dominate B: load {loads.max()!r}")
    if np.abs(a + c - x).max() > tol * (1.0 + np.abs(x).max()):
        errs.append("witness fair point differs from the query")
    return errs


def collective_nash_residual(u, q) -> float:
    """Optimality residual of q for max sum_i log(u_i . q) on the simplex."""
    u = np.asarray(u, float)
    q = np.asarray(q, float)
    n = u.shape[0]
    phi = (u / (u @ q)[:, None]).sum(axis=0)
    on = np.abs(np.where(q > 1e-8, phi - n, 0.0)).max()
    return float(max(phi.max() - n, on) / n)


def point_nash_residual(generators, x, d) -> float:
    """Optimality residual of x for max sum_i log(x_i - d_i) over coco(generators)."""
    G = np.asarray(generators, float)
    x = np.asarray(x, float)
    d = np.asarray(d, float)
    if np.any(x <= d):
        return float("inf")
    n = x.shape[0]
    phi = ((G - d) / (x - d)).sum(axis=1)
    return float((phi.max() - n) / n)


# Problem documents, read independently of ccm.cli.


def _matrix(rows) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows], dtype=float)


def economy_payoffs(doc) -> np.ndarray:
    """(n, (n+1)^r) allocation payoffs in assignment order (good 0 most significant)."""
    goods = doc["goods"]
    r = len(goods)
    if doc["kind"] == "additive":
        W = _matrix(doc["weights"])
        n = W.shape[0]

        def value(i, bundle):
            return float(sum(W[i, g] for g in bundle))

    else:
        n = doc.get("agents") or 1 + max(b["agent"] for b in doc["bundles"])
        listed = [(b["agent"], frozenset(b["items"]), float(b["value"])) for b in doc["bundles"]]

        def value(i, bundle):
            have = frozenset(bundle)
            return max([v for a, s, v in listed if a == i and s <= have] + [0.0])

    cols = []
    for owners in product(range(n + 1), repeat=r):
        cols.append([value(i, [g for g in range(r) if owners[g] == i]) for i in range(n)])
    return np.array(cols).T


def utilities_of(doc) -> np.ndarray:
    """(n, k) utilities of a problem document's collective form, in outcome order."""
    kind = doc["type"]
    if kind == "collective":
        return _matrix(doc["utilities"])
    if kind == "matching":
        w = _matrix(doc["weights"])
        js = doc["matchings"]
        return np.array([[w[i, j[i]] if j[i] != i else 0.0 for j in js] for i in range(w.shape[0])])
    if kind == "economy":
        return economy_payoffs(doc)
    raise ValueError(f"no collective form for {kind!r}")


def generators_of(doc) -> np.ndarray:
    """Generators of the feasible-payoff set of a problem document."""
    if doc["type"] == "bargaining":
        return _matrix(doc["generators"])
    u = utilities_of(doc)
    return np.vstack([u.T, np.zeros(u.shape[0])])
