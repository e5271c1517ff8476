"""Per-agent rescaling of utilities, from 1e-6 to 1e6, changes no result.

The sample is `_oracles.scaled_sample`: 30 three-agent problems whose
rows are multiplied by exp(U(-2, 2)) per agent and by a common base.  Sweeps,
Nash lotteries and equitability verdicts must agree across bases, and
the equilibrium verifier must catch the same forgeries at every base.
"""
from functools import lru_cache

import numpy as np
import pytest

from ccm import market as mk
from ccm import solutions as sol

from _oracles import scaled_sample

BASES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
STEPS = 6


@lru_cache(maxsize=None)
def _sample(base: float) -> tuple[mk.CollectiveProblem, ...]:
    return tuple(mk.CollectiveProblem(u) for u in scaled_sample(base))


@lru_cache(maxsize=None)
def _nash_certificates(base: float) -> tuple[mk.LindahlCertificate, ...]:
    return tuple(mk.lindahl_from_nash(P, np.zeros(P.n)) for P in _sample(base))


def _kept_cells(P):
    """The grid cells of the sweep's certificates, as integer shift indices."""
    unit = P.u.max(axis=1) / STEPS
    certs = mk.sweep_lindahl_payoffs(P, STEPS)
    return [tuple(np.rint(cert.c / unit).astype(int).tolist()) for cert in certs]


def test_sweeps_keep_the_same_cells_at_every_base():
    reference = [_kept_cells(P) for P in _sample(1.0)]
    assert sum(map(len, reference)) == 331
    for base in BASES:
        assert [_kept_cells(P) for P in _sample(base)] == reference, base


def test_nash_lotteries_agree_across_bases():
    reference = np.concatenate([cert.q for cert in _nash_certificates(1.0)])
    for base in BASES:
        q = np.concatenate([cert.q for cert in _nash_certificates(base)])
        assert np.abs(q - reference).max() <= 1e-12, base


@pytest.mark.parametrize("s", [1e-12, 1e-10])
def test_equitability_verdicts_agree_across_bases(s):
    verdicts = {}
    for base in BASES:
        certs = _nash_certificates(base)
        verdicts[base] = [
            sol.equitable_contains(mk.bargaining_of(P), cert.payoffs * (1.0 - s)).status
            for P, cert in zip(_sample(base), certs)
        ]
    assert all(v == verdicts[1.0] for v in verdicts.values())
    assert verdicts[1.0] == [sol.MEMBER] * 30


def test_budget_overspent_by_a_ten_thousandth_fails_at_large_base():
    for P, cert in zip(_sample(1e6), _nash_certificates(1e6)):
        p = cert.p.copy()
        p[0] *= 1.0 + 1e-4
        found = mk.verify_lindahl(P, p, cert.q).violations
        assert ("budget", 0) in [(v.condition, v.agent) for v in found]


def test_lost_consumer_value_fails_at_small_base():
    # A thousandth of the mass moves to agent 0's least-valued outcome; where
    # that costs agent 0 value (agent 0 is not indifferent), the verifier says so.
    losing = 0
    for P, cert in zip(_sample(1e-6), _nash_certificates(1e-6)):
        q = cert.q * (1.0 - 1e-3)
        q[np.argmin(P.u[0])] += 1e-3
        if P.u[0] @ (cert.q - q) <= 1e-6 * P.u[0].max():
            continue
        losing += 1
        found = mk.verify_lindahl(P, cert.p, q).violations
        assert ("consumer_optimality", 0) in [(v.condition, v.agent) for v in found]
    assert losing >= 25
