"""Collective choice markets with equal fiat budgets.

Agents hold one unit of fiat money each and face personalized prices over
the social outcomes; the firm supplies a revenue-maximal lottery.  This
module verifies Lindahl equilibria, constructs them from Nash allocations
of utility-shifted problems, sweeps the shift space to enumerate the
payoff set, and bridges to the bargaining-set view (the feasible-payoff
polytope and equitability witnesses).  A sweep re-verifies all its
certificates in one batched equilibrium check, with no thread pool.
"""
from __future__ import annotations

# Unused; perfbench's tracer patches the name, so it goes when the tracer stops.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np

from . import lp
from ._logmax import maximize_log_sum_batch
from .polytope import Polytope, SimplexGame, coco_hull, fair_outcome, simplex_dominates
from .tolerances import EPS_LP, EPS_SUPP, PAYOFF_DEDUP


@dataclass(frozen=True)
class CollectiveProblem:
    """n agents, k outcomes, nonnegative utilities; every agent has a stake."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] < 1:
            raise ValueError("utilities must form an (n, k) matrix")
        if not np.isfinite(u).all() or u.min() < 0:
            raise ValueError("utilities must be finite and nonnegative")
        if np.any(u.max(axis=1) <= 0):
            raise ValueError("agent with no stake: a utility row is all zeros")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def k(self) -> int:
        return self.u.shape[1]


def validate_lottery(q, k: int, tol: float = EPS_LP) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (k,):
        raise ValueError("lottery has the wrong length")
    if q.min() < -tol or q.sum() > 1.0 + 1e-7:
        raise ValueError("lottery weights must be nonnegative with mass at most one")
    return q


@dataclass(frozen=True)
class LindahlCertificate:
    """A verified equilibrium: prices, lottery, payoffs, and the (alpha, c) split."""

    p: np.ndarray
    q: np.ndarray
    payoffs: np.ndarray
    alpha: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class Violation:
    condition: str
    agent: int | None
    residual: float


@dataclass(frozen=True)
class Verdict:
    passed: bool
    violations: list[Violation] = field(default_factory=list)
    lints: list[str] = field(default_factory=list)


def bargaining_of(P: CollectiveProblem) -> Polytope:
    """Feasible payoff set: coco of the outcome payoff columns plus the origin."""
    cols = P.u.T
    return coco_hull(np.vstack([cols, np.zeros(P.n)]))


def shifted_utilities(P: CollectiveProblem, c) -> CollectiveProblem:
    """Rows max(u_i - c_i, 0); requires 0 <= c_i < max_j u_i^j."""
    c = np.asarray(c, dtype=float)
    if c.shape != (P.n,):
        raise ValueError("shift vector has the wrong length")
    if np.any(c < 0) or np.any(c >= P.u.max(axis=1)):
        raise ValueError("shift must satisfy 0 <= c_i < max_j u_i^j")
    return CollectiveProblem(np.maximum(P.u - c[:, None], 0.0))


def utility_shift_embed(P: CollectiveProblem, lam) -> CollectiveProblem:
    """Add a constant lam_i >= 0 to every entry of agent i's row."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (P.n,) or np.any(lam < 0):
        raise ValueError("shift must be a nonnegative length-n vector")
    return CollectiveProblem(P.u + lam[:, None])


def _unique_columns(U: np.ndarray):
    """First-occurrence representatives of identical columns."""
    seen: dict[bytes, int] = {}
    reps: list[int] = []
    inverse = np.empty(U.shape[1], dtype=int)
    for j in range(U.shape[1]):
        key = U[:, j].tobytes()
        if key not in seen:
            seen[key] = len(reps)
            reps.append(j)
        inverse[j] = seen[key]
    return np.array(reps), inverse


def nash_allocation(P: CollectiveProblem, tol: float = 1e-11) -> np.ndarray:
    """A lottery maximizing sum_i log(u_i . q) over the full unit simplex.

    The returned lottery is the solver's deterministic limit; when the
    optimal face is flat the payoff vector is still unique.  First-order
    residuals are checked before returning.
    """
    reps, _ = _unique_columns(P.u)
    lam, _, _ = maximize_log_sum_batch(P.u[None, :, reps], tol=tol)
    q = np.zeros(P.k)
    q[reps] = lam[0]
    return q


def admissible(P: CollectiveProblem, c, q, tol: float = EPS_LP) -> bool:
    """True iff every supported outcome gives each agent at least c_i."""
    c = np.asarray(c, dtype=float)
    q = np.asarray(q, dtype=float)
    support = q > EPS_SUPP
    if not support.any():
        return True
    return bool(np.all(P.u[:, support] >= c[:, None] - tol))


def lindahl_from_nash(P: CollectiveProblem, c, tol: float = EPS_LP) -> LindahlCertificate | None:
    """Equilibrium from the Nash allocation of the shifted problem.

    Prices are the shifted utilities normalized by their own expected
    value, so each agent's budget binds exactly.  Returns None when the
    shift is inadmissible at `tol`; otherwise the certificate is
    re-verified at `tol` before it is returned.
    """
    c = np.array(c, dtype=float)
    q = nash_allocation(shifted_utilities(P, c))
    if not admissible(P, c, q, tol):
        return None
    (cert,), _ = _certificates(P, c[None], q[None])
    verdict = verify_lindahl(P, cert.p, cert.q, tol)
    if not verdict.passed:  # pragma: no cover - the construction is exact
        raise lp.LpError(f"constructed equilibrium failed verification: {verdict.violations}")
    return cert


def _certificates(P, C, Q) -> tuple[list[LindahlCertificate], np.ndarray]:
    """Certificates at shifts C (K, n) with lotteries Q (K, k), and their prices (K, n, k)."""
    S = np.maximum(P.u[None] - C[:, :, None], 0.0)
    alpha = np.matmul(S, Q[..., None])[..., 0]
    p = S / alpha[..., None]
    return [LindahlCertificate(*row) for row in zip(p, Q, alpha + C, alpha, C)], p


def consumer_violations(U, P, X, tol: float, scale: float) -> list[Violation]:
    """Consumer-side violations of agents with utility, price and demand rows.

    U is an (n, k) array; P and X hold n rows of length k each.  Per
    agent i: the demand X[i] attains the consumer value of (U[i], P[i]),
    respects the budget, and is minimal cost among optima.  An agent with
    no stake gains nothing from spending, so any cost above the tolerance
    is a minimal-cost violation.
    """
    violations: list[Violation] = []
    for i, (u, p, x, stake) in enumerate(zip(U, P, X, U.max(axis=1) > 0)):
        value = float(u @ x)
        cost = float(p @ x)
        if stake:
            best, min_cost = lp.consumer_envelope(u, p)
            cost_slack = 10 * tol * scale
        else:
            best, min_cost, cost_slack = value, 0.0, tol * scale
        if best - value > tol * scale:
            violations.append(Violation("consumer_optimality", i, best - value))
        if cost - 1.0 > tol * scale:
            violations.append(Violation("budget", i, cost - 1.0))
        if cost - min_cost > cost_slack:
            violations.append(Violation("minimal_cost", i, cost - min_cost))
    return violations


def verify_lindahl(P: CollectiveProblem, p, q, tol: float = EPS_LP) -> Verdict:
    """Check the equilibrium conditions and report violations with slacks.

    Per agent: the lottery attains the consumer optimum, respects the
    budget, and is minimal cost among optima.  Firm side: unit mass and
    revenue equal to the best single outcome's revenue.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (P.n, P.k):
        raise ValueError("price profile has the wrong shape")
    if p.min() < 0:
        raise ValueError("prices must be nonnegative")
    q = validate_lottery(q, P.k)
    violations = _lindahl_violations(P, p[None], q[None], tol)[0]
    return Verdict(not violations, violations)


def _lindahl_violations(P: CollectiveProblem, p, q, tol: float) -> list[list[Violation]]:
    """`verify_lindahl`'s violations for K certificates: p is (K, n, k), q is (K, k)."""
    K, n, k = p.shape
    scale = 1.0 + max(P.u.max(), 1.0)
    U, X = np.tile(P.u, (K, 1)), np.repeat(q, n, axis=0)
    out: list[list[Violation]] = [[] for _ in range(K)]
    for v in consumer_violations(U, p.reshape(K * n, k), X, tol, scale):
        out[v.agent // n].append(Violation(v.condition, v.agent % n, v.residual))

    mass = np.abs(q.sum(axis=1) - 1.0)
    revenue = p.sum(axis=1)
    rev_gap = revenue.max(axis=1) - np.matmul(revenue[:, None, :], q[:, :, None])[:, 0, 0]
    for r in np.nonzero(mass > tol)[0]:
        out[r].append(Violation("lottery_mass", None, float(mass[r])))
    for r in np.nonzero(rev_gap > tol * scale * n)[0]:
        out[r].append(Violation("firm_revenue", None, float(rev_gap[r])))
    return out


def _shift_grid(P: CollectiveProblem, steps: int) -> np.ndarray:
    """Lexicographic grid over prod_i [0, max_j u_i^j), `steps` points per axis."""
    axes = [np.arange(steps) * (P.u[i].max() / steps) for i in range(P.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _first_hits(payoffs: np.ndarray, tol: float) -> list[int]:
    """Rows kept by first-hit de-duplication in the max norm.

    A row is kept when no earlier kept row lies within `tol` of it.  Each
    pass keeps the earliest live row and drops every row within `tol` of
    it, so the cost is one vectorized test per kept row.
    """
    rows = np.arange(len(payoffs))
    kept: list[int] = []
    while rows.size:
        kept.append(int(rows[0]))
        rows = rows[np.abs(payoffs[rows] - payoffs[rows[0]]).max(axis=1) > tol]
    return kept


def sweep_lindahl_payoffs(
    P: CollectiveProblem, grid_steps: int = 32, tol: float = EPS_LP
) -> list[LindahlCertificate]:
    """Enumerate equilibrium payoffs over a grid of admissible utility shifts.

    All grid cells are solved as one batched Nash computation; admissible
    cells become certificates, payoffs are deduplicated (first hit in
    lexicographic shift order wins), and the surviving certificates are
    re-verified in one batched check before being returned.
    """
    if P.n > 4:
        raise ValueError("sweep cost grows as steps**n; n <= 4 only")
    grid = _shift_grid(P, grid_steps)
    reps, _ = _unique_columns(P.u)
    Ured = P.u[:, reps]
    shifted = np.maximum(Ured[None, :, :] - grid[:, :, None], 0.0)
    lam, _, _ = maximize_log_sum_batch(shifted, tol=1e-11)

    below = Ured[None, :, :] < grid[:, :, None] - tol
    live = np.nonzero(~((lam > EPS_SUPP) & below.any(axis=1)).any(axis=1))[0]
    payoffs = (np.matmul(shifted, lam[:, :, None])[:, :, 0] + grid)[live]
    kept = live[_first_hits(payoffs, PAYOFF_DEDUP)]

    Q = np.zeros((kept.size, P.k))
    Q[:, reps] = lam[kept]
    certs, p = _certificates(P, grid[kept], Q)
    for cert, found in zip(certs, _lindahl_violations(P, p, Q, tol)):
        if found:
            c = cert.c.tolist()
            raise lp.LpError(f"sweep certificate at shift c = {c} failed verification: {found}")
    return certs


def equitable_witness_from_lindahl(P: CollectiveProblem, p, q, tol: float = EPS_LP):
    """Simplex-game witness showing that an equilibrium payoff is equitable.

    Agents with budget slack first get their bliss outcomes repriced to
    one (which preserves the equilibrium and makes every budget bind);
    then per-agent shadow prices (c_i, alpha_i) aggregate into the game
    n*alpha (x) Delta + c whose fair outcome is the payoff vector.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    verdict = verify_lindahl(P, p, q, tol)
    if not verdict.passed:
        raise ValueError(f"not a Lindahl equilibrium: {verdict.violations}")
    p_bar = p.copy()
    for i in range(P.n):
        if p[i] @ q < 1.0 - 1e-9:
            bliss = P.u[i] >= P.u[i].max() - 1e-12
            p_bar[i, bliss] = 1.0
    c = np.empty(P.n)
    alpha = np.empty(P.n)
    for i in range(P.n):
        c[i], alpha[i] = lp.shadow_prices(P.u[i], p_bar[i], q)
    witness = SimplexGame(alpha, c)
    payoffs = P.u @ q
    B = bargaining_of(P)
    if not simplex_dominates(witness, B, 1e-7):
        raise lp.LpError("equilibrium witness failed the domination check")
    if np.abs(fair_outcome(witness) - payoffs).max() > 1e-7 * (1.0 + payoffs.max()):
        raise lp.LpError("equilibrium witness fair point mismatch")
    return witness, payoffs
