"""Comprehensive convex polytopes in payoff space.

A bargaining set is stored by its generator vertices only; the set it
denotes is the smallest convex and comprehensive superset of them (all
points between the componentwise minimum of the generators and the convex
hull).  Each set computes the facets of conv(G) - R^n_+ once, on first
use, and caches them (`Polytope.facets`): rows a >= 0 summing to one and
b = max_g a.g.  Membership, efficiency and the set-domination order are
then closed-form reads of (a, b).  Two-agent facets are the edges of the
Pareto frontier chain (`_frontier_chain`, one sort and a monotone chain)
plus e_1 and e_2, so two-agent sets have facets at every size and run no
LP.  With three or more agents the facets come from subsets of the
maximal generators; sets whose pass would cost more than
`FACET_SUBSET_LIMIT` candidate normals have no facets and are decided by
small LPs over normals instead: n + 1 variables, with the maximal
generators joining as rows one at a time.  Affine images of the unit
simplex ("simplex games") get closed forms of their own.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import lp
from .tolerances import DEDUP_SIG_DIGITS, EPS_GEOM

# Points are plain float vectors.
Point = np.ndarray

# Largest C(|V| + n, n) for which a set of n >= 3 agents enumerates its
# facets, where V are its Pareto-maximal generators; above it the
# predicates solve LPs.  Two-agent sets read theirs off the frontier chain.
FACET_SUBSET_LIMIT = 5000


class DegenerateSetError(ValueError):
    """The operation needs a full-dimensional set and the input is flat."""


def as_point(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError("a point must be a 1-d vector")
    if not np.isfinite(v).all():
        raise ValueError("point coordinates must be finite")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def _round_sig(a: np.ndarray, digits: int = DEDUP_SIG_DIGITS) -> np.ndarray:
    out = a.copy()
    nz = out != 0
    if nz.any():
        mag = np.floor(np.log10(np.abs(out[nz])))
        factor = 10.0 ** (digits - 1 - mag)
        out[nz] = np.round(out[nz] * factor) / factor
    return out


@dataclass(frozen=True)
class Polytope:
    """coco of the generator rows: comp(conv(generators))."""

    generators: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
            raise ValueError("generators must be a nonempty (m, n) array")
        if not np.isfinite(g).all():
            raise ValueError("generators must be finite")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "generators", g)

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    @property
    def disagreement(self) -> np.ndarray:
        return self.generators.min(axis=0)

    @property
    def bliss(self) -> np.ndarray:
        return self.generators.max(axis=0)

    @property
    def full_dimensional(self) -> bool:
        return bool(np.all(self.bliss - self.disagreement > EPS_GEOM))

    @cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(A, b): conv(generators) - R^n_+ = {y : A y <= b}; None for n >= 3 above the limit.

        Rows of A are nonnegative and sum to one, and b_k = max_g A_k.g.
        """
        if self.dim == 2:
            return _chain_facets(self.frontier)
        return _facets(self.generators)

    @cached_property
    def frontier(self) -> np.ndarray:
        """The two-agent Pareto frontier as a read-only (r, 2) chain (`_frontier_chain`)."""
        if self.dim != 2:
            raise ValueError("the frontier chain needs a two-agent set")
        chain = _frontier_chain(self.generators)
        chain.setflags(write=False)
        return chain


def _maximal_rows(G: np.ndarray) -> np.ndarray:
    """The distinct rows of G that no other row weakly dominates.

    In lexicographically decreasing order the first remaining row is
    maximal; it and every row below it leave.  O(m |V|) for |V| results.
    """
    rest = G[np.lexsort(G.T)[::-1]]
    top = []
    while len(rest):
        top.append(rest[0])
        rest = rest[(rest > rest[0]).any(axis=1)]
    return np.array(top)


def _frontier_chain(G: np.ndarray) -> np.ndarray:
    """The two-agent Pareto frontier of conv(G) as an (r, 2) upper concave chain.

    Mirroring x -> -x turns the frontier into a rising chain; read back, its
    vertices are distinct Pareto-maximal generators with x increasing and y
    strictly decreasing.  Collinear middle points are dropped.  Exact: no
    tolerance shapes the chain.
    """
    hx, hy = next(lp._rising_chain(-G[None, :, 0], G[None, :, 1]))
    return np.column_stack([np.negative(hx), hy])[::-1]


@lru_cache(maxsize=64)
def _subsets(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-subsets of k generators and n directions that hold a generator.

    Also returns, for each j < n, the n - 1 columns of the j-th cofactor.
    """
    s = np.array(list(combinations(range(k + n), n)), dtype=np.intp).reshape(-1, n)
    # Generators come first, so a subset holds one iff its first index does.
    s = s[s[:, 0] < k]
    minor_cols = np.array([[c for c in range(n) if c != j] for j in range(n)], dtype=np.intp)
    s.setflags(write=False)
    return s, minor_cols.reshape(n, n - 1)


def _facets(G: np.ndarray):
    """Facet rows of conv(G) - R^n_+ for three or more agents, by subsets of the maximal rows."""
    return _subset_facets(_maximal_rows(G))


def _chain_facets(C: np.ndarray):
    """Each edge of the two-agent frontier chain C gives a facet, and so do e_1 and e_2."""
    D = np.column_stack([C[:-1, 1] - C[1:, 1], C[1:, 0] - C[:-1, 0]])
    N = D / D.sum(axis=1, keepdims=True)
    edge_b = np.maximum((N * C[:-1]).sum(axis=1), (N * C[1:]).sum(axis=1))
    return _sorted_facets(np.vstack([np.eye(2), N]), np.concatenate([[C[-1, 0], C[0, 1]], edge_b]))


def _subset_facets(V: np.ndarray):
    """Facets from the n-subsets of the maximal rows V and the -e_i; None above the limit.

    Each subset holds a generator g0 and n - 1 of: other generators (as
    differences from g0) and unit directions; the cofactors of those n - 1
    rows give the normal they span.  A normal is kept when it is
    nonnegative and its hyperplane supports the set at every generator of
    its subset.
    """
    k, n = V.shape
    if comb(k + n, n) > FACET_SUBSET_LIMIT:
        return None
    subsets, minor_cols = _subsets(k, n)
    rest = subsets[:, 1:]
    W = np.vstack([V, np.eye(n)])
    M = W[rest] - np.where((rest < k)[..., None], V[subsets[:, 0]][:, None, :], 0.0)
    r = np.linalg.det(M[:, :, minor_cols].transpose(0, 2, 1, 3))
    r[:, 1::2] *= -1.0
    total = r.sum(axis=1)
    A = r / np.where(total == 0.0, 1.0, total)[:, None]
    ok = (np.abs(total) > 1e-12 * np.abs(r).sum(axis=1)) & (A.min(axis=1) >= -1e-12)
    A, subsets = np.maximum(A[ok], 0.0), subsets[ok]
    A /= A.sum(axis=1, keepdims=True)
    values = A @ V.T
    b = values.max(axis=1)
    at = values[np.arange(len(values))[:, None], np.minimum(subsets, k - 1)]
    supports = ((at >= b[:, None] - 1e-10 * (1.0 + np.abs(V).max())) | (subsets >= k)).all(axis=1)
    return _sorted_facets(A[supports], b[supports])


def _sorted_facets(A: np.ndarray, b: np.ndarray):
    """Distinct rows (to 12 decimals) in lexicographic order, read-only."""
    key = np.round(A, 12)
    order = np.lexsort(key.T)
    first = np.concatenate([[True], (key[order[1:]] != key[order[:-1]]).any(axis=1)])
    A, b = A[order[first]], b[order[first]]
    A.setflags(write=False)
    b.setflags(write=False)
    return A, b


def coco_hull(points) -> Polytope:
    """Comprehensive convex hull of the given points.

    Generators are deduplicated after rounding to 12 significant digits so
    that certificates reproduce across platforms.  Degenerate (flat) inputs
    are accepted; the `full_dimensional` flag reports them.
    """
    pts = np.atleast_2d(np.asarray(list(points), dtype=float))
    if pts.size == 0:
        raise ValueError("coco_hull needs at least one point")
    if pts.ndim != 2:
        raise ValueError("points must share one dimension")
    rounded = _round_sig(pts)
    _, idx = np.unique(rounded, axis=0, return_index=True)
    return Polytope(pts[np.sort(idx)])


def domination_slack(B: Polytope, x) -> float:
    """max t such that some convex combination of generators covers x + t.

    Nonnegative iff x is below the convex hull of the generators; the
    magnitude is a margin usable against tolerances.  With facets (A, b)
    this is min_k (b_k - A_k.x), since every row of A sums to one.
    """
    x = as_point(x, B.dim)
    return float(_slacks(B, x[None, :])[0])


def _slacks(B: Polytope, Y: np.ndarray) -> np.ndarray:
    """domination_slack of every row of Y."""
    F = B.facets
    if F is None:
        return np.array([_domination_slack_lp(B, y) for y in Y])
    A, b = F
    return (b - Y @ A.T).min(axis=1)


def _max_w(D: np.ndarray, r: np.ndarray, bound: np.ndarray, beta: float) -> float:
    """maximize w s.t. D_g.z + w <= r_g for every g, bound.(z, w) <= beta, (z, w) >= 0.

    r >= 0 and beta >= 0, so the origin is feasible.  Rows are generated
    (Kelley's cutting planes, 1960).  The first are the rows most violated
    at w = 0 and z = 1 or a unit vector; then the current solution's most
    violated row joins, one at a time, while it exceeds every row in.
    Each LP is a relaxation, so the solution is optimal once none joins,
    and no row joins twice.  Every row has a unit coefficient on w, so
    none is all rounding dust.  Returns the optimal w.
    """
    Z = np.vstack([np.ones(D.shape[1]), np.eye(D.shape[1])])
    rows = list(dict.fromkeys(np.argmax(D @ Z.T - r[:, None], axis=0).tolist()))
    while True:
        A = np.vstack([np.column_stack([D[rows], np.ones(len(rows))]), bound])
        sol = lp.solve(np.eye(len(bound))[-1], A, np.r_[r[rows], beta])
        if sol.status != lp.OPTIMAL:  # pragma: no cover - the rows in bound w
            raise lp.LpError(f"normal LP reported {sol.status}")
        z, w = sol.primal[:-1], float(sol.primal[-1])
        excess = D @ z + w - r
        g = int(np.argmax(excess))
        if excess[g] <= max(0.0, excess[rows].max()):
            return w
        rows.append(g)


def _domination_slack_lp(B: Polytope, x: np.ndarray) -> float:
    """domination_slack without facets: min over normals mu in the simplex of max_g mu.(g - x).

    g runs over the maximal generators V.  With sigma the largest entry of
    V - x, every row g - x - sigma is <= 0, and the slack is sigma - w for
    the largest w with mu.(g - x - sigma) + w <= 0 and sum mu <= 1 (the
    minimum of the homogeneous max over sum mu <= 1 lies on sum mu = 1).
    """
    E = _maximal_rows(B.generators) - x
    sigma = float(E.max())
    return sigma - _max_w(E - sigma, np.zeros(len(E)), np.r_[np.ones(B.dim), 0.0], 1.0)


def contains(B: Polytope, x, tol: float = EPS_GEOM) -> bool:
    """True iff x lies in the comprehensive convex hull."""
    x = as_point(x, B.dim)
    if np.any(x < B.disagreement - tol):
        return False
    return domination_slack(B, x) >= -tol


def _tight_normals(F, x: np.ndarray, tol: float) -> np.ndarray:
    """The facet normals whose slack at x is at most tol (1 + |x|_inf)."""
    A, b = F
    return A[b - A @ x <= tol * (1.0 + np.abs(x).max())]


def is_pareto_efficient(B: Polytope, x, tol: float = EPS_GEOM) -> bool:
    """True iff no point of B weakly dominates x with strict improvement.

    The normal cone at x is generated by the facet normals tight at x, and
    x is efficient iff that cone holds a strictly positive vector, that is
    iff the tight normals sum to a strictly positive vector.  Without
    facets, x moves down onto B's boundary first when it lies outside by
    at most tol.
    """
    x = as_point(x, B.dim)
    slack = domination_slack(B, x)
    if np.any(x < B.disagreement - tol) or slack < -tol:
        raise ValueError("x must be a member of B")
    F = B.facets
    if F is None:
        return _is_pareto_efficient_lp(B, x + min(slack, 0.0), tol)
    return bool(np.all(_tight_normals(F, x, tol).sum(axis=0) > 0))


def _is_pareto_efficient_lp(B: Polytope, x: np.ndarray, tol: float) -> bool:
    """The efficiency gap of x in B must not exceed tol (1 + |sum x|).

    The gap, the largest coordinate sum over {y in B, y >= x} less x's, is
    by LP duality min over nu >= 0 of max_g (1 + nu).(g - x), g over the
    maximal generators.  With h0 = max_g sum(g - x), its value at nu = 0,
    the gap is h0 - w for the largest w with nu.(g - x) + w <= h0 -
    sum(g - x) and w <= h0.  x must lie in B, or the minimum is unbounded.
    """
    E = _maximal_rows(B.generators) - x
    s = E.sum(axis=1)
    h0 = float(s.max())
    limit = tol * (1.0 + abs(float(x.sum())))
    if h0 <= limit:
        return True
    return h0 - _max_w(E, h0 - s, np.eye(B.dim + 1)[-1], h0) <= limit


def dominates(A: Polytope, B: Polytope, tol: float = EPS_GEOM) -> bool:
    """The set-domination order A >= B.

    Checks (i) every generator of B is weakly dominated by a point of A and
    (ii) the disagreement point of A is at least B's.  Comprehensiveness
    makes (ii) equivalent to "every point of A dominates some point of B".
    """
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    if np.any(A.disagreement < B.disagreement - tol):
        return False
    return bool(_slacks(A, B.generators).min() >= -tol)


@dataclass(frozen=True)
class SimplexGame:
    """The affine simplex image coco{d, d + n*a_1 e^1, ..., d + n*a_n e^n}."""

    scale: np.ndarray  # a, strictly positive
    base: np.ndarray  # d

    def __post_init__(self):
        a = as_point(self.scale)
        d = as_point(self.base, a.shape[0])
        if np.any(a <= 0):
            raise ValueError("simplex game scale must be strictly positive")
        a = a.copy()
        d = d.copy()
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "scale", a)
        object.__setattr__(self, "base", d)

    @property
    def dim(self) -> int:
        return self.scale.shape[0]

    def as_polytope(self) -> Polytope:
        n = self.dim
        gens = np.vstack([self.base, self.base + n * np.diag(self.scale)])
        return Polytope(gens)


def fair_outcome(A: SimplexGame) -> np.ndarray:
    """The equal-division image a + d (the center of the frontier face)."""
    return A.scale + A.base


def as_simplex_game(B: Polytope, tol: float = EPS_GEOM) -> SimplexGame | None:
    """Recognize B as a simplex game, or return None.

    B equals coco{d + s_i e^i} with s = bliss - disagreement iff every
    generator lies under that simplex and every apex lies in B.
    """
    d = B.disagreement
    s = B.bliss - d
    if np.any(s <= tol):
        return None
    shifted = B.generators - d
    loads = (shifted / s).sum(axis=1)
    if loads.max() > 1.0 + tol:
        return None
    # Every apex d + s_i e^i is in B: the generator attaining bliss_i dominates it.
    return SimplexGame(s / B.dim, d)


def simplex_dominates(A: SimplexGame, B: Polytope, tol: float = EPS_GEOM) -> bool:
    """Closed-form domination test for a simplex game dominator.

    Equivalent to dominates(A.as_polytope(), B): the positive part of each
    generator, measured in apex units above A's base, must fit under the
    unit simplex, and A's base must sit above B's disagreement point.
    Both are judged in apex units: tol is relative to each apex length n a_i.
    """
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    apex = A.dim * A.scale
    if (A.base < B.disagreement - tol * apex).any():
        return False
    loads = np.maximum(B.generators - A.base, 0.0) / apex
    return bool(loads.sum(axis=1).max() <= 1.0 + tol)
