"""Numerical tolerances shared across the package.

All defaults are calibrated for inputs of magnitude at most 1e3.  Two of
them take a per-call override: `EPS_GEOM` through the `tol` argument of
the polytope and equitability predicates (`contains`, `dominates`,
`equitable_contains`, ...), and `EPS_LP` through the `tol` argument of
the equilibrium verifiers and constructors (`verify_lindahl`,
`lindahl_from_nash`, `sweep_lindahl_payoffs`, ...) and through
`ccm solve --tol` and `ccm verify --tol`.  `EPS_OPT`, `EPS_SUPP`,
`PAYOFF_DEDUP` and `DEDUP_SIG_DIGITS` are fixed: no public function takes
an override for them.
"""

# Geometric predicates on polytopes (membership, domination, efficiency).
EPS_GEOM = 1e-9

# LP residuals: primal/dual feasibility, complementary slackness, duality gap.
EPS_LP = 1e-9

# Relative KKT residual accepted from the log-welfare maximizer.
EPS_OPT = 1e-10

# A lottery weight below this threshold counts as "not in the support".
EPS_SUPP = 1e-8

# Generator deduplication rounds coordinates to this many significant digits.
DEDUP_SIG_DIGITS = 12

# Payoff vectors closer than this (max-norm) collapse to one sweep result.
PAYOFF_DEDUP = 1e-6
