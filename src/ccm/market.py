"""Collective choice markets with equal fiat budgets.

Agents hold one unit of fiat money each and face personalized prices over
the social outcomes; the firm supplies a revenue-maximal lottery.  This
module verifies Lindahl equilibria, constructs them from Nash allocations
of utility-shifted problems, sweeps the shift space to enumerate the
payoff set, and bridges to the bargaining-set view (the feasible-payoff
polytope and equitability witnesses).  Two- and three-agent Nash
allocations are closed form (`_logmax`): the smallest, then shortest,
best support of at most n outcomes, so on a flat optimal face the
lottery sits on the fewest outcomes nearest the Nash point.  For two
agents those are admissible whenever any optimal lottery is, up to
twins (`_admit_twins`).  A sweep drops, before its solve, every cell
whose outcomes all pay some agent less than its shift, and holds the
other cells' shifted utilities cells last, (n, m, cells), the layout
`_logmax` solves in, through the twin check and the payoffs.  It
re-verifies all its certificates in one batched equilibrium check, with
no thread pool: one consumer-envelope call covers every (certificate,
agent) row.  Its first-hit payoff de-duplication compares only near
pairs: one lexicographic sort collapses exact duplicates, by comparing
adjacent rows, and near pairs are found in that order.
"""
from __future__ import annotations

# Unused; perfbench's tracer patches the name, so it goes when the tracer stops.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np

from . import lp
from ._logmax import maximize_log_sum_batch
from .polytope import Polytope, SimplexGame, coco_hull, fair_outcome
from .solutions import EquitabilityCertificate, validate_certificate
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


_CONSUMER_CONDITIONS = ("consumer_optimality", "budget", "minimal_cost")


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


def _distinct_rows(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A's distinct rows in lexicographic order, and the index of each one's first occurrence.

    One stable sort; a row is new where it differs from the row before it.
    """
    first = np.lexsort(A.T[::-1])
    rows = A[first]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new], first[new]


def _unique_columns(U: np.ndarray) -> np.ndarray:
    """First-occurrence representatives of identical columns, in column order."""
    return np.sort(_distinct_rows(U.T)[1])


def nash_allocation(P: CollectiveProblem) -> np.ndarray:
    """A lottery maximizing sum_i log(u_i . q) over the full unit simplex.

    The returned lottery is the solver's deterministic pick; when the
    optimal face is flat the payoff vector is still unique (for two and
    three agents the lottery is then the fewest outcomes nearest it).
    First-order residuals are checked before returning.
    """
    reps = _unique_columns(P.u)
    lam, _, _ = maximize_log_sum_batch(P.u[None, :, reps])
    q = np.zeros(P.k)
    q[reps] = lam[0]
    return q


def admissible(P: CollectiveProblem, c, q, tol: float = EPS_LP) -> bool:
    """True iff every supported outcome gives each agent at least c_i, judged in its units."""
    c = np.asarray(c, dtype=float)
    q = np.asarray(q, dtype=float)
    return not _below(P.u, c[:, None], tol)[q > EPS_SUPP, 0].any()


def lindahl_from_nash(P: CollectiveProblem, c, tol: float = EPS_LP) -> LindahlCertificate | None:
    """Equilibrium from the Nash allocation of the shifted problem.

    Prices are the shifted utilities normalized by their own expected
    value, so each agent's budget binds exactly.  Weight on an
    inadmissible column moves to an admissible twin as in the sweep
    (`_admit_twins`).  Returns None when the shift is still inadmissible
    at `tol`; otherwise the certificate is re-verified at `tol` before it
    is returned.
    """
    c = np.array(c, dtype=float)
    shifted = shifted_utilities(P, c)
    q = nash_allocation(shifted)
    if not _admit_twins(shifted.u[:, :, None], q[:, None], _below(P.u, c[:, None], tol))[0]:
        return None
    (cert,), _ = _certificates(P, c[None], q[None])
    verdict = verify_lindahl(P, cert.p, cert.q, tol)
    if not verdict.passed:  # pragma: no cover - the construction is exact
        raise lp.LpError(f"constructed equilibrium failed verification: {verdict.violations}")
    return cert


def _below(U, C, tol: float) -> np.ndarray:
    """(m, K) mask of the columns of U (n, m) that give some agent less than its shift.

    The shifts C are (n, K); column j is below at shift k when
    U_ij < C_ik - tol max_j U_ij for some agent i, judged in i's units.
    """
    return (U[:, :, None] < (C - tol * U.max(axis=1)[:, None])[:, None, :]).any(axis=0)


def _admit_twins(S, Q, below) -> np.ndarray:
    """Which of K shifts are admissible, after moving weight onto admissible twins.

    The shifted utilities S are (n, m, K), the lotteries Q and the `_below`
    mask are (m, K), cells last.  A supported column that is below its
    shift is inadmissible, but the solver splits weight between twins
    (columns identical after the shift): its weight moves, in place in Q,
    to the first twin that is not below, if there is one.  Payoffs and
    alpha stay as they are.  Returns a length-K mask of the shifts whose
    support is then admissible.
    """
    bad = (Q > EPS_SUPP) & below
    j, b = np.nonzero(bad)
    # One agent at a time: an (n, m, entries) comparison would set the
    # sweep's memory high-water.
    twins = ~below[:, b]
    for i in range(S.shape[0]):
        twins &= S[i][:, b] == S[i, j, b]
    found = twins.any(axis=0)
    j, b = j[found], b[found]
    np.add.at(Q, (twins[:, found].argmax(axis=0), b), Q[j, b])
    Q[j, b] = 0.0
    bad[j, b] = False
    return ~bad.any(axis=0)


def _certificates(P, C, Q) -> tuple[list[LindahlCertificate], np.ndarray]:
    """Certificates at shifts C (K, n) with lotteries Q (K, k), and their prices (K, n, k)."""
    S = np.maximum(P.u[None] - C[:, :, None], 0.0)
    alpha = np.matmul(S, Q[..., None])[..., 0]
    p = S / alpha[..., None]
    return [LindahlCertificate(*row) for row in zip(p, Q, alpha + C, alpha, C)], p


def consumer_violations(U, P, X, tol: float) -> list[Violation]:
    """Consumer-side violations of agents with utility, price and demand rows.

    U is an (n, k) array; P and X hold n rows of length k each.  Per
    agent i: the demand X[i] attains the consumer value of (U[i], P[i])
    within tol max_j U[i, j], and in money it respects the budget within
    tol and is minimal cost among optima within 10 tol.  An agent with no
    stake gains nothing from spending, so any cost above tol is a
    minimal-cost violation.  One `lp.consumer_envelopes` call serves
    every agent with a stake.  Violations are ordered by agent, then by
    condition.
    """
    U = np.asarray(U, dtype=float)
    P = np.asarray(P, dtype=float)
    X = np.asarray(X, dtype=float)
    value = np.matmul(U[:, None, :], X[:, :, None])[:, 0, 0]
    cost = np.matmul(P[:, None, :], X[:, :, None])[:, 0, 0]
    stake = U.max(axis=1) > 0
    best, min_cost = value.copy(), np.zeros(len(U))
    best[stake], min_cost[stake] = lp.consumer_envelopes(U[stake], P[stake])
    gaps = np.stack([best - value, cost - 1.0, cost - min_cost], axis=1)
    limits = tol * np.column_stack([U.max(axis=1), np.ones(len(U)), np.where(stake, 10.0, 1.0)])
    rows, conds = np.nonzero(gaps > limits)
    return [
        Violation(_CONSUMER_CONDITIONS[j], i, float(gaps[i, j]))
        for i, j in zip(rows.tolist(), conds.tolist())
    ]


def verify_lindahl(P: CollectiveProblem, p, q, tol: float = EPS_LP) -> Verdict:
    """Check the equilibrium conditions and report violations with slacks.

    Per agent: the lottery attains the consumer optimum, respects the
    budget, and is minimal cost among optima.  Firm side: unit mass and
    revenue equal to the best single outcome's revenue.  Gaps are judged
    as `consumer_violations` judges them; the revenue gap within tol * n.
    """
    p, q = _lindahl_inputs(P, p, q)
    violations = _lindahl_violations(P, p[None], q[None], tol)[0]
    return Verdict(not violations, violations)


def _lindahl_inputs(P: CollectiveProblem, p, q) -> tuple[np.ndarray, np.ndarray]:
    """The price profile and lottery `verify_lindahl` checks, as arrays; raises on bad input."""
    p = np.asarray(p, dtype=float)
    if p.shape != (P.n, P.k):
        raise ValueError("price profile has the wrong shape")
    if p.min() < 0:
        raise ValueError("prices must be nonnegative")
    return p, validate_lottery(q, P.k)


def _lindahl_violations(P: CollectiveProblem, p, q, tol: float) -> list[list[Violation]]:
    """`verify_lindahl`'s violations for K certificates: p is (K, n, k), q is (K, k)."""
    K, n, k = p.shape
    U, X = np.tile(P.u, (K, 1)), np.repeat(q, n, axis=0)
    out: list[list[Violation]] = [[] for _ in range(K)]
    for v in consumer_violations(U, p.reshape(K * n, k), X, tol):
        out[v.agent // n].append(Violation(v.condition, v.agent % n, v.residual))

    mass = np.abs(q.sum(axis=1) - 1.0)
    revenue = p.sum(axis=1)
    rev_gap = revenue.max(axis=1) - np.matmul(revenue[:, None, :], q[:, :, None])[:, 0, 0]
    for r in np.nonzero(mass > tol)[0]:
        out[r].append(Violation("lottery_mass", None, float(mass[r])))
    for r in np.nonzero(rev_gap > tol * n)[0]:
        out[r].append(Violation("firm_revenue", None, float(rev_gap[r])))
    return out


def _shift_grid(P: CollectiveProblem, steps: int) -> np.ndarray:
    """Lexicographic grid over prod_i [0, max_j u_i^j), `steps` points per axis."""
    axes = [np.arange(steps) * (P.u[i].max() / steps) for i in range(P.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _first_hits(payoffs: np.ndarray, tol: float) -> list[int]:
    """Rows kept by first-hit de-duplication in the max norm, in row order.

    A row is kept when no earlier kept row lies within `tol` of it.  A
    row's fate depends only on the earlier kept rows, and exact duplicates
    share every distance, so each distinct row (`_distinct_rows`) stands
    for its first occurrence, and only rows with a neighbour within `tol`
    need the ordered pass.  In the distinct rows' lexicographic order
    every such pair shows up at some offset d, and the offsets stop at
    the first d where no two rows are within `tol` in coordinate 0.
    The pairs are then walked in order of their earlier row: a pair drops
    its later row while its earlier row is kept.
    """
    if not len(payoffs):
        return []
    rows, first = _distinct_rows(payoffs)
    earlier, later = [], []
    for d in range(1, len(rows)):
        gap = np.abs(rows[d:] - rows[:-d])
        if not (gap[:, 0] <= tol).any():
            break
        near = np.nonzero(gap.max(axis=1) <= tol)[0]
        a, b = first[near], first[near + d]
        earlier.append(np.minimum(a, b))
        later.append(np.maximum(a, b))
    kept = set(first.tolist())
    if earlier:
        earlier, later = np.concatenate(earlier), np.concatenate(later)
        order = np.lexsort((later, earlier))
        for e, r in zip(earlier[order].tolist(), later[order].tolist()):
            if e in kept:
                kept.discard(r)
    return sorted(kept)


def sweep_lindahl_payoffs(
    P: CollectiveProblem, grid_steps: int = 32, tol: float = EPS_LP
) -> list[LindahlCertificate]:
    """Enumerate equilibrium payoffs over a grid of admissible utility shifts.

    A cell whose every column is below its shift for some agent (`_below`)
    is dropped before the solve: any lottery of unit mass supports one of
    those columns, and none has a twin that is not below, so the cell
    could never be admissible.  The other cells are solved as one batched
    Nash computation on the shifted utilities, built once as (n, m, cells)
    and kept in that layout through `_admit_twins` and the payoffs.
    Admissible cells become certificates, payoffs are deduplicated in each
    agent's units (first hit in lexicographic shift order wins), and the
    surviving certificates are re-verified in one batched check before
    being returned.
    """
    if P.n > 4:
        raise ValueError("sweep cost grows as steps**n; n <= 4 only")
    grid = _shift_grid(P, grid_steps)
    reps = _unique_columns(P.u)
    Ured = P.u[:, reps]
    below = _below(Ured, grid.T, tol)
    # The zero shift is never dropped, so the batch is never empty.
    solved = ~below.all(axis=0)
    grid, below = grid[solved], below[:, solved]
    shifted = np.maximum(Ured[:, :, None] - grid.T[:, None, :], 0.0)
    lam, _, _ = maximize_log_sum_batch(shifted.transpose(2, 0, 1), tol=1e-11)
    live = np.nonzero(_admit_twins(shifted, lam.T, below))[0]
    payoffs = (np.einsum("nmb,mb->bn", shifted, lam.T) + grid)[live]
    kept = live[_first_hits(payoffs / P.u.max(axis=1), PAYOFF_DEDUP)]

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
    n*alpha (x) Delta + c whose fair outcome is the payoff vector, as
    `solutions.validate_certificate` checks.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    verdict = verify_lindahl(P, p, q, tol)
    if not verdict.passed:
        raise ValueError(f"not a Lindahl equilibrium: {verdict.violations}")
    bliss = P.u >= P.u.max(axis=1, keepdims=True) * (1.0 - 1e-12)
    p_bar = np.where((p @ q < 1.0 - 1e-9)[:, None] & bliss, 1.0, p)
    c, alpha = np.array([lp.shadow_prices(u, row, q) for u, row in zip(P.u, p_bar)]).T
    witness = SimplexGame(alpha, c)
    payoffs = P.u @ q
    cert = EquitabilityCertificate(witness, fair_outcome(witness))
    if not validate_certificate(bargaining_of(P), payoffs, cert):
        raise lp.LpError("equilibrium witness failed re-validation")
    return witness, payoffs
