"""Bargaining solution concepts over comprehensive polytopes.

The equitable set of a bargaining polytope B collects the points that are
the fair outcome of some simplex game dominating B.  Membership is
decided exactly: witness existence is one LP in n + 1 variables over the
witness game's subset inequalities (its facets), written in coordinates
normalized by x - d, so its input does not depend on per-agent scale.
For two agents the frontier characterization (Pareto efficiency plus
midpoint domination) is used instead and doubles as an independent
cross-check; its witness reads the supporting normal off B's cached
facets, which two-agent sets have at every size, so no two-agent path
runs an LP.  The n >= 3 witness LP is the only LP on the equitability
path (apart from sets too large for a facet pass, see
`polytope.FACET_SUBSET_LIMIT`).
Every verdict is exact: a member with a re-validated certificate, or a
certified non-member.

Also provided: the Nash bargaining point (log-welfare maximizer), the
supporting simplex at that point, Nash sustainability (which coincides
with equitability), and a property harness for the solution axioms.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from ._logmax import maximize_log_sum_batch
from .polytope import (
    DegenerateSetError,
    Polytope,
    SimplexGame,
    _frontier_chain,
    _maximal_rows,
    _tight_normals,
    as_point,
    contains,
    dominates,
    fair_outcome,
    is_pareto_efficient,
    simplex_dominates,
)
from .tolerances import EPS_GEOM, EPS_OPT

MEMBER = "member_with_certificate"
NON_MEMBER = "non_member_certified"


@dataclass(frozen=True)
class EquitabilityCertificate:
    witness: SimplexGame
    fair_point: np.ndarray


@dataclass(frozen=True)
class EquitableVerdict:
    status: str
    certificate: EquitabilityCertificate | None

    @property
    def is_member(self) -> bool:
        return self.status == MEMBER


def random_dictator_point(B: Polytope) -> np.ndarray:
    """Expected payoff when a uniformly random agent dictates: d + (b - d)/n.

    For two agents this is the midpoint benchmark d + (b - d)/2.
    """
    n = B.dim
    return B.disagreement + (B.bliss - B.disagreement) / n


def _require_full_dimensional(B: Polytope):
    if not B.full_dimensional:
        raise DegenerateSetError("operation needs a full-dimensional bargaining set")


def nash_solution(B: Polytope) -> np.ndarray:
    """The payoff vector maximizing sum_i log(x_i - d_i) over B."""
    _require_full_dimensional(B)
    d = B.disagreement
    lam, _, _ = maximize_log_sum_batch((B.generators - d).T[None], tol=EPS_OPT)
    return B.generators.T @ lam[0]


def supporting_simplex(B: Polytope, tol: float = EPS_GEOM) -> SimplexGame:
    """The simplex game touching B at its Nash point with the gradient normal.

    With x the Nash point and d the disagreement point, the game is
    coco{d, d + n (x_i - d_i) e^i}; it dominates B and has x as its fair
    outcome.
    """
    _require_full_dimensional(B)
    x = nash_solution(B)
    A = SimplexGame(x - B.disagreement, B.disagreement)
    if not simplex_dominates(A, B, max(tol, 1e-7)):
        raise lp.LpError("supporting simplex failed its domination postcondition")
    if not contains(A.as_polytope(), x, max(tol, 1e-7)):
        raise lp.LpError("supporting simplex does not contain the Nash point")
    return A


def _supporting_normal(B: Polytope, x: np.ndarray) -> np.ndarray:
    """A strictly positive normal a with a.x >= a.y - tol for all y in B (n = 2).

    The normals of B at x, scaled to sum one, are the segment between its
    tight facet normals; the point of it nearest (1/2, 1/2) maximizes min_i a_i.
    """
    tight = _tight_normals(B.facets, x, EPS_GEOM)[:, 0]
    a1 = float(np.clip(0.5, tight.min(), tight.max())) if len(tight) else 0.0
    a = np.array([a1, 1.0 - a1])
    if a.min() <= EPS_GEOM:
        raise lp.LpError("no strictly positive supporting normal; point is not efficient")
    return a


def _two_agent_witness(B: Polytope, x: np.ndarray) -> SimplexGame:
    """Witness construction for n = 2 members (efficient + midpoint dominating).

    Put the witness frontier on a supporting line at x: with normal a, the
    translation c = x - s*/a with s* = min_i a_i (x_i - d_i) keeps c >= d,
    and midpoint domination guarantees set domination.
    """
    d = B.disagreement
    a = _supporting_normal(B, x)
    s_star = float(np.min(a * (x - d)))
    c = x - s_star / a
    c = np.maximum(c, d)  # clip float dust; exact at the binding coordinate
    return SimplexGame(x - c, c)


def _witness_lp(B: Polytope, x: np.ndarray, tol: float):
    """Exact witness feasibility as one scale-free LP in n + 1 variables.

    In coordinates normalized by x - d (x -> 1, d -> 0), let Y hold the
    maximal generators (a dominated one has a smaller a_gi in every
    coordinate) and tau_i = (x_i - d_i)/(x_i - c_i) >= 1 for a witness
    base c.  The simplex game with fair point x and base c dominates B iff
    sum_{i in S} a_gi <= n, a_gi = (Y_gi - 1) tau_i + 1, for every g and
    nonempty S (the game's facets); minimize v, the worst excess over n.
    Rows are generated, as there are up to 2^n per generator: at the
    current tau (first tau = 1), g's most violated S is {i : a_gi > 0},
    and it joins if its excess exceeds v over the rows in.  Each LP is a
    relaxation, so v is optimal once none joins; a joining row exceeds
    every row in, so none joins twice.  The LP, in (tau - 1, w) >= 0 with
    w = v0 - v and v0 the rows' worst excess at tau = 1, maximizes w
    subject to sum_{i in S} (Y_gi - 1)(tau_i - 1) + w <= v0 + n -
    sum_{i in S} Y_gi and w <= v0; 0 is feasible, as `lp.solve` requires.
    v is dimensionless, so x is a member iff v <= tol * n.  The base is
    c = d + (x - d)(tau - 1)/tau, exactly d at tau = 1.
    """
    n = B.dim
    d = B.disagreement
    Y = (_maximal_rows(B.generators) - d) / (x - d)
    g = np.zeros(0, dtype=np.int64)
    S = np.zeros((0, n), dtype=bool)
    tau1 = np.zeros(n)
    while True:
        a = (Y - 1.0) * tau1 + Y
        violation = float(np.max(np.where(S, a[g], 0.0).sum(axis=1) - n, initial=0.0))
        worst = a > 0.0
        fresh = np.where(worst, a, 0.0).sum(axis=1) - n > violation
        if not fresh.any():
            break
        g = np.r_[g, np.flatnonzero(fresh)]
        S = np.vstack([S, worst[fresh]])
        YS = np.where(S, Y[g], 0.0)
        b = n - YS.sum(axis=1)
        v0 = max(0.0, -b.min())
        A = np.vstack([np.column_stack([YS - S, np.ones(len(g))]), np.eye(n + 1)[n]])
        sol = lp.solve(np.eye(n + 1)[n], A, np.r_[b + v0, v0])
        if sol.status != lp.OPTIMAL:  # pragma: no cover - 0 is feasible, w <= v0
            raise lp.LpError(f"witness LP reported {sol.status}")
        tau1 = sol.primal[:n]
    c = d + (x - d) * (tau1 / (1.0 + tau1))
    return violation <= tol * n, np.maximum(c, d), violation


def equitable_contains(B: Polytope, x, tol: float = EPS_GEOM) -> EquitableVerdict:
    """Decide whether x is a fair outcome of some simplex game dominating B.

    The decision is exact.  Members come with a certificate that
    re-validates through independent code paths.
    """
    x = as_point(x, B.dim)
    _require_full_dimensional(B)
    if not contains(B, x, tol):
        raise ValueError("x lies outside the bargaining set")
    d = B.disagreement
    n = B.dim

    # Necessary conditions with direct certificates.
    if np.any(x - d <= tol):
        return EquitableVerdict(NON_MEMBER, None)
    if np.any(x < random_dictator_point(B) - tol):
        return EquitableVerdict(NON_MEMBER, None)
    if not is_pareto_efficient(B, x, tol):
        return EquitableVerdict(NON_MEMBER, None)

    if n == 2:
        # Efficiency plus midpoint domination already checked above: member.
        witness = _two_agent_witness(B, x)
        cert = _certify(B, x, witness, tol)
        return EquitableVerdict(MEMBER, cert)

    feasible, c, _ = _witness_lp(B, x, tol)
    if not feasible:
        return EquitableVerdict(NON_MEMBER, None)
    witness = SimplexGame(x - c, c)
    cert = _certify(B, x, witness, tol)
    return EquitableVerdict(MEMBER, cert)


def _certify(B, x, witness, tol) -> EquitabilityCertificate:
    check_tol = max(tol, 1e-7)
    ok = simplex_dominates(witness, B, check_tol) and dominates(
        witness.as_polytope(), B, check_tol
    )
    if not ok or np.abs(fair_outcome(witness) - x).max() > check_tol:
        raise lp.LpError("equitability witness failed re-validation")
    return EquitabilityCertificate(witness, fair_outcome(witness))


def validate_certificate(B: Polytope, x, cert: EquitabilityCertificate, tol: float = 1e-7) -> bool:
    """Re-validate a certificate by paths independent of its construction."""
    x = as_point(x, B.dim)
    if np.abs(fair_outcome(cert.witness) - x).max() > tol:
        return False
    if not contains(B, x, tol):
        return False
    poly = cert.witness.as_polytope()
    return dominates(poly, B, tol) and simplex_dominates(cert.witness, B, tol)


def nash_sustainable_contains(B: Polytope, x, tol: float = EPS_GEOM) -> EquitableVerdict:
    """Membership in the Nash-sustainable set (equal to the equitable set).

    Delegates to the equitable test; for members the witness is re-checked
    as a Nash witness by solving for the witness game's own Nash point,
    which must coincide with x.
    """
    verdict = equitable_contains(B, x, tol=tol)
    if verdict.is_member:
        eta = nash_solution(verdict.certificate.witness.as_polytope())
        if np.abs(eta - as_point(x, B.dim)).max() > 1e-6 * (1.0 + np.abs(eta).max()):
            raise lp.LpError("witness Nash point does not match the queried payoff")
    return verdict


def equitable_set_2d(B: Polytope, tol: float = EPS_GEOM):
    """The equitable set for two agents, as segments of the Pareto frontier.

    Intersects the efficient frontier polyline with the box above the
    midpoint benchmark; returns a list of (start, end) pairs ordered by
    the first coordinate.  A single point comes back as a degenerate
    segment.  The frontier chain is exact; `tol` only widens the box at
    the clipping step.
    """
    if B.dim != 2:
        raise ValueError("equitable_set_2d needs a two-agent set")
    _require_full_dimensional(B)
    chain = _frontier_chain(B.generators)
    lo = random_dictator_point(B)
    clipped = _clip_chain(chain, lo, tol)
    if clipped is None:
        return []
    return [(clipped[i], clipped[i + 1]) for i in range(len(clipped) - 1)] or [
        (clipped[0], clipped[0])
    ]


def _clip_chain(chain, lo, tol):
    def interp(p, q, axis, level):
        t = (level - p[axis]) / (q[axis] - p[axis])
        return p + t * (q - p)

    pts = [p.copy() for p in chain]
    # Clip the front by x1 >= lo[0] (first coordinate is increasing).
    while len(pts) >= 2 and pts[1][0] <= lo[0]:
        pts.pop(0)
    if pts and pts[0][0] < lo[0] - tol:
        if len(pts) >= 2:
            pts[0] = interp(pts[0], pts[1], 0, lo[0])
        else:
            return None
    # Clip the back by x2 >= lo[1] (second coordinate is decreasing).
    while len(pts) >= 2 and pts[-2][1] <= lo[1]:
        pts.pop()
    if pts and pts[-1][1] < lo[1] - tol:
        if len(pts) >= 2:
            pts[-1] = interp(pts[-2], pts[-1], 1, lo[1])
        else:
            return None
    if not pts:
        return None
    if pts[0][0] < lo[0] - tol or pts[-1][1] < lo[1] - tol:
        return None
    return pts


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    detail: dict
    ok: bool


@dataclass(frozen=True)
class AxiomReport:
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def axiom_suite(B: Polytope, sample_points, transforms, tol: float = EPS_GEOM) -> AxiomReport:
    """Property-test the solution axioms on B.

    Scale invariance: membership verdicts commute with the supplied
    positive-affine transforms.  Symmetry: on the unit simplex only the
    equal split is a member.  Consistency: the fair point of a dominating
    simplex game that lies in B is a member of B's equitable set.
    Justifiability: every member's certificate validates independently.
    """
    checks: list[AxiomCheck] = []
    samples = [as_point(p, B.dim) for p in sample_points]

    for a, z in transforms:
        a = as_point(a, B.dim)
        z = as_point(z, B.dim)
        if np.any(a <= 0):
            raise ValueError("transform scale must be strictly positive")
        mapped = Polytope(B.generators * a + z)
        for x in samples:
            s0 = equitable_contains(B, x, tol=tol).status
            s1 = equitable_contains(mapped, a * x + z, tol=tol).status
            checks.append(
                AxiomCheck(
                    "scale_invariance",
                    {"x": x.tolist(), "a": a.tolist(), "z": z.tolist(), "base": s0, "mapped": s1},
                    s0 == s1,
                )
            )

    n = B.dim
    gens = B.generators
    is_unit_simplex = (
        np.abs(B.disagreement).max() <= tol
        and np.abs(B.bliss - 1.0).max() <= tol
        and all(contains(Polytope(np.vstack([np.zeros(n), np.eye(n)])), g, tol) for g in gens)
    )
    if is_unit_simplex:
        center = np.full(n, 1.0 / n)
        ok = equitable_contains(B, center, tol=tol).is_member
        vertex_ok = all(
            equitable_contains(B, v, tol=tol).status == NON_MEMBER for v in np.eye(n)
        )
        checks.append(AxiomCheck("symmetry", {"center_member": ok}, ok and vertex_ok))

    A_sup = supporting_simplex(B)
    x_sup = fair_outcome(A_sup)
    verdict = equitable_contains(B, x_sup, tol=tol)
    checks.append(
        AxiomCheck("consistency", {"x": x_sup.tolist(), "status": verdict.status}, verdict.is_member)
    )

    for x in samples:
        v = equitable_contains(B, x, tol=tol)
        if v.is_member:
            checks.append(
                AxiomCheck(
                    "justifiability",
                    {"x": x.tolist()},
                    validate_certificate(B, x, v.certificate),
                )
            )
    return AxiomReport(checks)
