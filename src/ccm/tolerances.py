"""Numerical tolerances shared across the package, and the units that judge them.

A certificate check compares each gap with a tolerance in the gap's own
units, so per-agent positive rescaling changes no verdict.  A gap in
agent i's utility or payoff units is compared with tol times i's scale:
its largest utility in the market checks and the sweep's payoff
de-duplication, its spread bliss_i - d_i in the equitability screens,
and its apex length n a_i for a simplex-game witness
(`solutions.validate_certificate`).  A gap in money (budget, cost,
revenue; every budget is 1) or in probability is compared with tol
itself, a revenue gap over n budgets with n tol.  Still absolute: the
polytope predicates (`contains`, `dominates`, `is_pareto_efficient`,
`domination_slack`), whose facet slacks mix agents' units.  `lp.solve`'s
self-check is relative to its own LP.

Two defaults take a per-call override: `EPS_GEOM` through the `tol`
argument of the polytope and equitability predicates, and `EPS_LP`
through the `tol` argument of the equilibrium verifiers and constructors
and through `ccm solve --tol` and `ccm verify --tol`.  `EPS_OPT`,
`EPS_SUPP`, `PAYOFF_DEDUP` and `DEDUP_SIG_DIGITS` are fixed.
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

# Sweep payoffs closer than this (max-norm, in utility units) collapse to one result.
PAYOFF_DEDUP = 1e-6
