"""The matching and exchange conversions against their loop forms.

The library computes each conversion as a gather or scatter over a
stored index; `_oracles` walks the matchings (or goods) agent by agent.
Outputs must agree exactly, not just within a tolerance.
"""
import numpy as np
import pytest

from ccm import exchange as ex
from ccm import market as mk
from ccm import matching as mt
from ccm.tolerances import EPS_SUPP

import _oracles as orc


def random_matching_problems(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 6))
        K = mt.all_involutions(n)
        keep = [j for j in K if rng.uniform() < 0.6] or [K[int(rng.integers(len(K)))]]
        w = rng.uniform(0.0, 3.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.8)
        yield mt.MatchingProblem(matchings=tuple(keep), w=w)


def test_matching_conversions_equal_loop_forms():
    rng = np.random.default_rng(6)
    for M in random_matching_problems(rng, 60):
        u = orc.matching_gather(M.matchings, M.w)
        if np.all(u.max(axis=1) > 0):
            assert np.array_equal(mt.to_collective(M).u, u)
        else:
            with pytest.raises(ValueError, match="no stake"):
                mt.to_collective(M)
        # Prices with ties, so the cheapest delivery is not always unique.
        p = rng.integers(0, 4, size=(M.n, M.k)) * rng.uniform(0.5, 2.0)
        q = rng.dirichlet(np.ones(M.k)) * (rng.uniform(size=M.k) < 0.7)
        assert np.array_equal(mt.prices_to_partner(p, M), orc.matching_partner_prices(M.matchings, p))
        assert np.array_equal(mt.allocation_to_demand(q, M), orc.matching_demand(M.matchings, q, M.n))
        assert mt.price_coherence_lint(M, p, q) == orc.matching_price_lints(M.matchings, p, q, EPS_SUPP)


def test_walras_to_lindahl_price_map_equals_loop_form():
    rng = np.random.default_rng(7)
    done = 0
    for M in random_matching_problems(rng, 200):
        try:
            P = mt.to_collective(M)
        except ValueError:
            continue
        cert = mk.lindahl_from_nash(P, np.zeros(M.n))
        pi, xi, q = mt.lindahl_to_walras(M, cert.p, cert.q)
        p, _ = mt.walras_to_lindahl(M, pi, xi, q)
        assert np.array_equal(p, orc.matching_gather(M.matchings, pi))
        done += 1
        if done == 25:
            break
    assert done == 25


def random_economies(rng, count):
    for _ in range(count):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 5))
        names = tuple(f"g{b}" for b in range(r))
        if rng.uniform() < 0.5:
            weights = rng.integers(0, 5, size=(n, r)) / 4.0
            weights[:, int(rng.integers(r))] += 0.25
            yield ex.Economy(n=n, names=names, kind="additive", weights=weights)
        else:
            bundles = [
                (i, [b for b in range(r) if mask >> b & 1], float(rng.integers(1, 9)))
                for i in range(n)
                for mask in rng.integers(1, 1 << r, size=3)
            ]
            yield ex.economy_from_bundle_values(n, names, bundles)


def test_enumerate_allocations_equals_product_order():
    rng = np.random.default_rng(8)
    for E in random_economies(rng, 40):
        allocs = ex.enumerate_allocations(E)
        assert allocs == orc.exchange_allocations(E.n, E.r)
        assert all(type(m) is int for a in allocs[:3] for m in a)
        assert [ex.allocation_index(E, a) for a in allocs] == list(range(len(allocs)))
