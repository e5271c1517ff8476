"""One-to-one matching without transfers as a market for partners.

A matching problem lists feasible matchings (involutions) and per-partner
utilities.  It maps to a collective choice problem (one outcome per
matching) and, in the other direction, its competitive partner market
prices pairs (i, m) directly.  The two equilibrium notions convert into
each other with payoffs preserved exactly; both conversions re-verify
their output.  Every conversion between the two forms is a gather or a
scatter through one stored index: agent i's partner in matching j.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from . import lp
from .market import CollectiveProblem, Verdict, Violation, consumer_violations, verify_lindahl
from .tolerances import EPS_LP, EPS_SUPP


@dataclass(frozen=True)
class MatchingProblem:
    """Feasible matchings (each an involution) and utilities w[i, m].

    Being unmatched yields zero, every listed matching is individually
    rational, and w[i, m] is zero for infeasible partners.  Agents whose
    feasible partners all yield zero are allowed here but rejected by
    `to_collective` (they have no stake in the collective problem).

    `partner[i, j]` is agent i's partner in matching j, and
    `feasible[i, m]` says whether some matching pairs i with m.
    """

    matchings: tuple[tuple[int, ...], ...]
    w: np.ndarray
    groups: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    partner: np.ndarray = field(init=False, repr=False, compare=False)
    feasible: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        n = w.shape[0]
        if w.shape != (n, n) or not np.isfinite(w).all():
            raise ValueError("w must be a finite (n, n) matrix")
        matchings = tuple(tuple(int(m) for m in j) for j in self.matchings)
        if not matchings:
            raise ValueError("at least one feasible matching is required")
        # A matching of the wrong length becomes a column of -1s, which fails the checks below.
        partner = np.array([j if len(j) == n else (-1,) * n for j in matchings], dtype=int).T
        rows = np.arange(n)[:, None]
        perm = (np.sort(partner, axis=0) == rows).all(axis=0)
        back = np.take_along_axis(partner, np.where(perm, partner, rows), axis=0)
        bad = ~(perm & (back == rows).all(axis=0))
        if bad.any():
            raise ValueError(f"not an involution on {n} agents: {matchings[int(bad.argmax())]}")
        if (w[rows, partner] < 0).any():
            raise ValueError("matchings must be individually rational (w >= 0)")
        feasible = np.zeros((n, n), dtype=bool)
        feasible[rows, partner] = True
        w = np.where(feasible, w, 0.0)
        w[np.arange(n), np.arange(n)] = 0.0
        for name, value in (("w", w), ("partner", partner), ("feasible", feasible)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "matchings", matchings)
        if self.groups is not None:
            g1, g2 = (tuple(g) for g in self.groups)
            if sorted(g1 + g2) != list(range(n)):
                raise ValueError("groups must partition the agents")
            object.__setattr__(self, "groups", (g1, g2))

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def k(self) -> int:
        return len(self.matchings)

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index of cell (i, partner[i, j]) of an (n, n) array, shaped (n, k)."""
        return np.arange(self.n)[:, None], self.partner


def all_involutions(n: int) -> list[tuple[int, ...]]:
    """Every matching on n agents (including partially unmatched ones)."""
    if n > 8:
        raise ValueError("involution enumeration is desk scale (n <= 8)")

    def rec(avail):
        if not avail:
            return [{}]
        i = avail[0]
        rest = avail[1:]
        out = [{i: i, **m} for m in rec(rest)]
        for m_idx, partner in enumerate(rest):
            sub = rest[:m_idx] + rest[m_idx + 1 :]
            out.extend({i: partner, partner: i, **m} for m in rec(sub))
        return out

    maps = rec(tuple(range(n)))
    return sorted(tuple(m[i] for i in range(n)) for m in maps)


def two_sided_matchings(group1, group2) -> list[tuple[int, ...]]:
    """All matchings that only pair agents across the two groups."""
    g1, g2 = tuple(group1), tuple(group2)
    n = len(g1) + len(g2)
    if sorted(g1 + g2) != list(range(n)):
        raise ValueError("groups must partition 0..n-1")
    out = []
    for size in range(min(len(g1), len(g2)) + 1):
        for left in combinations(g1, size):
            for right_perm in permutations(g2, size):
                j = list(range(n))
                for a, b in zip(left, right_perm):
                    j[a], j[b] = b, a
                out.append(tuple(j))
    return sorted(set(out))


def to_collective(M: MatchingProblem) -> CollectiveProblem:
    """One outcome per feasible matching; u[i, j] = w[i, partner of i in j]."""
    return CollectiveProblem(M.w[M.pairs])


def prices_to_partner(p, M: MatchingProblem) -> np.ndarray:
    """pi[i, m]: cheapest matching that delivers partner m to agent i."""
    p = np.asarray(p, dtype=float)
    if p.shape != (M.n, M.k):
        raise ValueError("price profile has the wrong shape")
    pi = np.full((M.n, M.n), np.inf)
    np.minimum.at(pi, M.pairs, p)
    pi[~M.feasible | np.eye(M.n, dtype=bool)] = 0.0
    return pi


def allocation_to_demand(q, M: MatchingProblem) -> np.ndarray:
    """xi[i, m]: probability that i is matched with m under the lottery q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (M.k,):
        raise ValueError("lottery has the wrong length")
    xi = np.zeros((M.n, M.n))
    # np.add.at adds into each cell in matching order, so the sums are reproducible.
    np.add.at(xi, M.pairs, np.broadcast_to(q, M.partner.shape))
    return xi


def verify_walras_matching(M: MatchingProblem, pi, xi, q, tol: float = EPS_LP) -> Verdict:
    """Check the partner-market equilibrium conditions.

    Each demand row must be a minimal-cost maximizer over the partner
    simplex under budget one, the lottery must maximize matching revenue
    over the unit simplex, and demands must equal the lottery's implied
    partner distribution.  A lint flags supported matchings that deliver
    a partner at a strictly higher price than an alternative matching.
    """
    pi = np.asarray(pi, dtype=float)
    xi = np.asarray(xi, dtype=float)
    q = np.asarray(q, dtype=float)
    n = M.n
    if pi.shape != (n, n) or xi.shape != (n, n) or q.shape != (M.k,):
        raise ValueError("shape mismatch")
    if pi.min() < -tol or np.abs(np.diag(pi)).max() > tol:
        raise ValueError("partner prices must be nonnegative with free self-matching")
    xi = np.where(xi > EPS_SUPP, xi, 0.0)
    stray = np.where(M.feasible, 0.0, xi).max(axis=1)
    violations = [
        Violation("demand_support", i, float(stray[i])) for i in range(n) if stray[i] > tol
    ]
    # Prices down to -tol pass the check above; the consumer kernel needs them nonnegative.
    violations += consumer_violations(M.w, np.maximum(pi, 0.0), xi, tol)

    rev = pi[M.pairs].sum(axis=0)
    mass = abs(float(q.sum()) - 1.0)
    if mass > tol:
        violations.append(Violation("lottery_mass", None, mass))
    rev_gap = float(rev.max() - rev @ q)
    if rev_gap > tol * n:
        violations.append(Violation("firm_revenue", None, rev_gap))

    implied = allocation_to_demand(q, M)
    np.fill_diagonal(implied, 0.0)
    clearing = float(np.abs(np.where(implied > EPS_SUPP, implied, 0.0) - xi).max())
    if clearing > max(tol, EPS_SUPP):
        violations.append(Violation("market_clearing", None, clearing))

    return Verdict(not violations, violations, [])


def price_coherence_lint(M: MatchingProblem, p, q) -> list[str]:
    """Supported matchings must not overprice a deliverable partner.

    At a verified equilibrium, if two matchings give agent i the same
    partner and one is strictly cheaper, the costlier one carries no
    probability.  Returns the offending (matching, agent) pairs.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cheapest = prices_to_partner(p, M)[M.pairs]
    paired = M.partner != np.arange(M.n)[:, None]
    over = (q > EPS_SUPP) & paired & (p > cheapest + 1e-9)
    return [
        f"matching {col} overprices pair ({i}, {M.partner[i, col]})"
        for col, i in zip(*np.nonzero(over.T))
    ]


def lindahl_to_walras(M: MatchingProblem, p, q, tol: float = EPS_LP):
    """Convert a Lindahl equilibrium of the collective form to a partner-market one.

    The lottery passes through unchanged, so payoffs are preserved bit for
    bit.  The output is re-verified before being returned.
    """
    P = to_collective(M)
    verdict = verify_lindahl(P, p, q, tol)
    if not verdict.passed:
        raise ValueError(f"input is not a Lindahl equilibrium: {verdict.violations}")
    pi = prices_to_partner(p, M)
    xi = allocation_to_demand(q, M)
    np.fill_diagonal(xi, 0.0)
    out = verify_walras_matching(M, pi, xi, q, tol)
    if not out.passed:  # pragma: no cover - guaranteed by the equivalence
        raise lp.LpError(f"converted equilibrium failed verification: {out.violations}")
    return pi, xi, q


def walras_to_lindahl(M: MatchingProblem, pi, xi, q, tol: float = EPS_LP):
    """Convert a partner-market equilibrium to a Lindahl equilibrium.

    Each matching is priced at the sum of its delivered-partner prices for
    the agent in question: p[i, j] = pi[i, j(i)].  The lottery passes
    through unchanged.
    """
    verdict = verify_walras_matching(M, pi, xi, q, tol)
    if not verdict.passed:
        raise ValueError(f"input is not a Walrasian equilibrium: {verdict.violations}")
    p = np.asarray(pi, dtype=float)[M.pairs]
    P = to_collective(M)
    out = verify_lindahl(P, p, np.asarray(q, dtype=float), tol)
    if not out.passed:  # pragma: no cover
        raise lp.LpError(f"converted equilibrium failed verification: {out.violations}")
    return p, np.asarray(q, dtype=float)
