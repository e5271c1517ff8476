from unittest import mock

import numpy as np
import pytest

from ccm import lp
from ccm import market as mk

from _oracles import (
    consumer_envelope_row,
    consumer_lp_path,
    consumer_problem,
    lp_scipy,
    lp_vertex_enum,
    minimal_cost_demand,
    random_collective,
)


def test_town_consumer_lp_against_vertex_enumeration():
    c = [1.0, 0.0]
    A = [[2.0, 0.0], [1.0, 1.0]]
    b = [1.0, 1.0]
    expect, _ = lp_vertex_enum(c, A, b)
    assert expect == pytest.approx(0.5, abs=1e-12)
    sol = lp.solve(c, A, b)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(sol.dual, [0.5, 0.0], atol=1e-9)


def test_zero_objective_and_unbounded():
    sol = lp.solve([0.0], [[1.0]], [1.0])
    assert sol.status == lp.OPTIMAL and sol.objective_value == 0.0
    assert lp.solve([1.0], [[-1.0]], [1.0]).status == lp.UNBOUNDED


def test_infeasible():
    # b >= 0 keeps the origin feasible, so an LP that would need phase 1
    # is refused, whether it is infeasible or not.
    with pytest.raises(ValueError, match="nonnegative"):
        lp.solve([0.0], [[1.0], [-1.0]], [1.0, -3.0])
    with pytest.raises(ValueError, match="nonnegative"):
        lp.solve([1.0], [[1.0], [-1.0]], [3.0, -1.0])


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 2, (4, 5))
    b = rng.uniform(0.5, 2, 4)
    c = rng.uniform(-1, 2, 5)
    s1 = lp.solve(c, A, b)
    s2 = lp.solve(c, A, b)
    assert np.array_equal(s1.primal, s2.primal)
    assert np.array_equal(s1.dual, s2.dual)
    assert s1.objective_value == s2.objective_value


@pytest.mark.parametrize("seed", range(8))
def test_random_lps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        m = int(rng.integers(1, 7))
        r = int(rng.integers(1, 6))
        A = rng.uniform(-1, 2, (r, m))
        b = rng.uniform(0, 2, r)
        c = rng.uniform(-1, 2, m)
        ours = lp.solve(c, A, b)
        status, val, _ = lp_scipy(c, A, b)
        assert ours.status == status
        if status == lp.OPTIMAL:
            assert ours.objective_value == pytest.approx(val, abs=1e-7)


def test_duality_and_complementary_slackness_residuals():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        r = int(rng.integers(1, 5))
        A = rng.uniform(0, 2, (r, m))
        b = rng.uniform(0.1, 2, r)
        c = rng.uniform(0, 2, m)
        sol = lp.solve(c, A, b)
        assert sol.status == lp.OPTIMAL
        gap = abs(c @ sol.primal - b @ sol.dual)
        assert gap <= 1e-9 * (1 + abs(sol.objective_value))
        cs = np.abs(sol.dual * (b - A @ sol.primal))
        assert cs.max() <= 1e-9 * (1 + np.abs(b).max())


class TestConsumerProblem:
    def test_town_agent(self):
        opt = consumer_problem([1.0, 0.0], [2.0, 0.0])
        assert opt.value == pytest.approx(0.5, abs=1e-9)
        assert opt.mu0 == pytest.approx(0.0, abs=1e-9)
        assert opt.mu1 == pytest.approx(0.5, abs=1e-9)

    def test_single_outcome(self):
        opt = consumer_problem([5.0], [1.0])
        assert opt.value == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(opt.demand, [1.0], atol=1e-9)

    def test_free_goods_budget_slack(self):
        opt = consumer_problem([3.0, 1.0], [0.0, 0.0])
        assert opt.value == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(opt.demand, [1.0, 0.0], atol=1e-9)
        assert opt.mu1 == pytest.approx(0.0, abs=1e-9)

    def test_rejects_zero_stake(self):
        with pytest.raises(ValueError, match="no stake"):
            consumer_problem([0.0, 0.0], [1.0, 1.0])

    def test_dual_supports_utilities(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            u = rng.integers(0, 9, size=k) / 8.0
            if u.max() == 0:
                u[int(rng.integers(0, k))] = 1.0
            p = rng.integers(0, 5, size=k) / 2.0
            opt = consumer_problem(u, p)
            # mu1 * p >= u - mu0 everywhere, equality on the support.
            resid = opt.mu1 * p - (u - opt.mu0)
            assert resid.min() >= -1e-9
            on = opt.demand > 1e-8
            if on.any():
                assert np.abs(resid[on]).max() <= 1e-8


def _dyadic_row(rng, k, kind):
    """Utilities in eighths, prices in eighths: frequent ties and zeros.

    kind 0 draws prices independently, kind 1 prices outcomes roughly by
    their utility (so the best outcome is unaffordable and V falls on a
    chord at cost 1), kind 2 makes every outcome free.
    """
    u = rng.integers(0, 9, size=k) / 8.0
    if u.max() == 0:
        u[int(rng.integers(0, k))] = 1.0
    if kind == 0:
        p = rng.integers(0, 25, size=k) / 8.0
    elif kind == 1:
        p = 2.0 * u + rng.integers(0, 3, size=k) / 8.0
    else:
        p = np.zeros(k)
    return u, p


def _corpus_consumer_rows(count):
    """Per corpus problem, the (utility, price) rows of every (certificate, agent) of its sweep."""
    rng = np.random.default_rng(2026)
    for t in range(count):
        n = 2 if t % 2 == 0 else 3
        M = mk.CollectiveProblem(random_collective(rng, n=n))
        certs = mk.sweep_lindahl_payoffs(M, 64 if n == 2 else 8)
        yield np.tile(M.u, (len(certs), 1)), np.concatenate([c.p for c in certs])


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _tied_rows(rng, rows, k):
    """Utility and price rows on a coarse grid: ties, zero prices and a duplicated column."""
    U = rng.integers(0, 5, size=(rows, k)) / 4.0
    P = rng.integers(0, 5, size=(rows, k)) / 4.0 * (rng.random((rows, k)) > 0.3)
    dup = rng.integers(0, k, size=rows)
    U[:, -1], P[:, -1] = U[np.arange(rows), dup], P[np.arange(rows), dup]
    U[U.max(axis=1) == 0, 0] = 1.0
    return U, P


class TestBatchedEnvelope:
    """`lp.consumer_envelopes` against the one-row sort and chain of `_oracles`.

    Stacks of at least `lp._LOCKSTEP_ROWS` rows take the lockstep chain,
    shorter ones the row chain; `_check` asserts which one ran.
    """

    def _check(self, U, P):
        with mock.patch.object(lp, "_lockstep_peaks", wraps=lp._lockstep_peaks) as lockstep:
            values, costs = lp.consumer_envelopes(U, P)
        assert lockstep.called == (len(U) >= lp._LOCKSTEP_ROWS)
        expect = np.array([consumer_envelope_row(u, p) for u, p in zip(U, P)])
        assert _same_bits(values, expect[:, 0]) and _same_bits(costs, expect[:, 1])
        for u, p, e in zip(U, P, expect):
            assert _same_bits(lp.consumer_envelope(u, p), e)

    def test_corpus_sweep_rows(self):
        rows = 0
        for U, P in _corpus_consumer_rows(40):
            self._check(U, P)
            rows += len(U)
        assert rows > 6000

    def test_random_rows_with_ties_zero_prices_and_duplicates(self):
        rng = np.random.default_rng(33)
        for k in (1, 2, 3, 5, 8, 40):
            self._check(*_tied_rows(rng, 300, k))
        U = rng.uniform(0, 1, size=(500, 6))
        self._check(U, U / rng.uniform(0.2, 2.0, size=(500, 1)))

    @pytest.mark.parametrize("k", [6, 64])
    def test_stacks_either_side_of_the_crossover(self, k):
        rng = np.random.default_rng(k)
        for rows in (lp._LOCKSTEP_ROWS - 1, lp._LOCKSTEP_ROWS, 8 * lp._LOCKSTEP_ROWS):
            self._check(*_tied_rows(rng, rows, k))
            # Prices on a grid: many chains have a vertex at cost exactly 1.
            self._check(rng.uniform(0, 1, size=(rows, k)), rng.integers(0, 9, size=(rows, k)) / 4.0)
            # Sweep-like rows: prices are shifted utilities over their mean,
            # so many points lie on each chain and many chains cross cost 1.
            U = rng.integers(1, 9, size=(rows, k)) / 8.0
            c = rng.uniform(0, 0.9, size=(rows, 1)) * U.max(axis=1, keepdims=True)
            S = np.maximum(U - c, 0)
            self._check(U, S / S.mean(axis=1, keepdims=True) / rng.uniform(0.2, 1.5, size=(rows, 1)))

    def test_empty_stack(self):
        values, costs = lp.consumer_envelopes(np.zeros((0, 3)), np.zeros((0, 3)))
        assert values.shape == costs.shape == (0,)

    def test_rejects_bad_stacks(self):
        U = np.ones((3, 2))
        with pytest.raises(ValueError, match="no stake"):
            lp.consumer_envelopes(np.array([[1.0, 0.0], [0.0, 0.0]]), U[:2])
        with pytest.raises(ValueError, match="nonnegative"):
            lp.consumer_envelopes(U, np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="nonnegative"):
            lp.consumer_envelopes(-U, U)
        with pytest.raises(ValueError, match="equal shape"):
            lp.consumer_envelopes(U, U[:2])
        with pytest.raises(ValueError, match="2-d"):
            lp.consumer_envelopes(U[0], U[0])


class TestConsumerEnvelope:
    def test_known_values(self):
        assert lp.consumer_envelope([1.0, 0.0], [2.0, 0.0]) == (0.5, 1.0)
        assert lp.consumer_envelope([3.0, 1.0], [0.0, 0.0]) == (3.0, 0.0)
        assert lp.consumer_envelope([5.0], [4.0]) == (1.25, 1.0)
        assert lp.consumer_envelope([4.0], [0.0]) == (4.0, 0.0)
        # Equal utilities: the cheaper outcome sets the minimal cost.
        assert lp.consumer_envelope([1.0, 1.0], [1.0, 2.0]) == (1.0, 1.0)
        # Mixing a free outcome with a dear one: (0.5 + 1) / 2 at cost 1.
        assert lp.consumer_envelope([0.5, 1.0, 0.25], [0.0, 2.0, 0.5]) == (0.75, 1.0)

    def test_minimal_cost_is_exact_at_small_scale(self):
        # The LP path relaxes the utility floor by about 1e-12, which at this
        # scale buys a visibly cheaper lottery; the envelope does not.
        u = np.array([1.0, 0.0, 0.5]) * 1e-6
        p = np.array([1.0, 0.0, 0.5]) / 0.75
        value, cost = lp.consumer_envelope(u, p)
        assert value == pytest.approx(0.75e-6, rel=1e-12)
        assert cost == pytest.approx(1.0, abs=1e-15)
        assert consumer_lp_path(u, p)[1] < 1.0 - 1e-7

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="no stake"):
            lp.consumer_envelope([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            lp.consumer_envelope([1.0, 0.0], [-1.0, 1.0])
        with pytest.raises(ValueError, match="equal length"):
            lp.consumer_envelope([1.0, 0.0], [1.0])

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 1024])
    def test_matches_lp_path_on_dyadic_rows(self, k):
        rng = np.random.default_rng(100 + k)
        for t in range(3 if k > 8 else 150):
            u, p = _dyadic_row(rng, k, t % 3)
            value, cost = lp.consumer_envelope(u, p)
            lp_value, lp_cost = consumer_lp_path(u, p)
            assert isinstance(value, float) and isinstance(cost, float)
            tol = 1e-9 * (1.0 + abs(value))
            assert abs(value - lp_value) <= tol
            assert abs(cost - lp_cost) <= tol

    def test_matches_lp_path_on_continuous_rows(self):
        # On a nearly flat envelope the LP path's relaxed utility floor lowers
        # its cost by slack / slope (about 1e-8 on such rows), so its cost is
        # only a lower bound; the exact cost is checked by vertex enumeration.
        rng = np.random.default_rng(17)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            u = rng.uniform(0, 1, k) * (rng.random(k) > 0.2)
            p = rng.uniform(0, 3, k) * (rng.random(k) > 0.2)
            if u.max() == 0:
                u[0] = 1.0
            value, cost = lp.consumer_envelope(u, p)
            lp_value, lp_cost = consumer_lp_path(u, p)
            tol = 1e-9 * (1.0 + abs(value))
            assert abs(value - lp_value) <= tol
            assert lp_cost <= cost + tol
            neg_cost, _ = lp_vertex_enum(-p, [np.ones(k), -u], [1.0, -value])
            assert abs(cost + neg_cost) <= tol


class TestMinimalCostDemand:
    def test_equal_utilities_pick_cheap_outcome(self):
        q, cost = minimal_cost_demand([1.0, 1.0], [1.0, 2.0])
        assert np.allclose(q, [1.0, 0.0], atol=1e-9)
        assert cost == pytest.approx(1.0, abs=1e-9)

    def test_town_minimal_cost(self):
        q, cost = minimal_cost_demand([1.0, 0.0], [2.0, 0.0])
        assert cost == pytest.approx(1.0, abs=1e-9)
        assert q[0] == pytest.approx(0.5, abs=1e-9)

    def test_free_single_good(self):
        q, cost = minimal_cost_demand([4.0], [0.0])
        assert np.allclose(q, [1.0])
        assert cost == 0.0

    def test_cost_never_exceeds_consumer_cost(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            k = int(rng.integers(2, 6))
            u = rng.integers(1, 9, size=k) / 8.0
            p = rng.integers(0, 5, size=k) / 2.0
            opt = consumer_problem(u, p)
            q, cost = minimal_cost_demand(u, p)
            assert u @ q == pytest.approx(opt.value, abs=1e-8)
            assert cost <= p @ opt.demand + 1e-8


class TestShadowPrices:
    def test_town_case(self):
        c, a = lp.shadow_prices([1.0, 0.0], [2.0, 0.0], [0.5, 0.5])
        assert (c, a) == (pytest.approx(0.0, abs=1e-9), pytest.approx(0.5, abs=1e-9))

    def test_equal_utilities_unit_prices(self):
        c, a = lp.shadow_prices([2.0, 2.0], [1.0, 1.0], [0.5, 0.5])
        assert c == pytest.approx(0.0, abs=1e-9)
        assert a == pytest.approx(2.0, abs=1e-9)

    def test_single_outcome(self):
        c, a = lp.shadow_prices([5.0], [1.0], [1.0])
        assert (c, a) == (pytest.approx(0.0), pytest.approx(5.0))

    def test_cheap_outcome_rule(self):
        # Equal support utilities and one cheap outcome: cost 1 is an envelope
        # vertex, and the segment ending there, from (0.5, 1.5) to (1, 2), gives
        # the pair.
        u = [2.0, 2.0, 1.5]
        p = [1.0, 1.0, 0.5]
        q = [0.5, 0.5, 0.0]
        c, a = lp.shadow_prices(u, p, q)
        assert (c, a) == (1.0, 1.0)
        resid = a * np.asarray(p) - (np.asarray(u) - c)
        assert resid.min() >= -1e-8
        assert abs(resid[0]) <= 1e-8 and abs(resid[1]) <= 1e-8

    def test_vertex_at_cost_one_takes_the_segment_ending_there(self):
        # Envelope (0, 0), (1, 1), (2, 1.5): both segments at the vertex (1, 1)
        # support it; the rule takes the one ending there, not (0.5, 0.5).
        c, a = lp.shadow_prices([1.0, 1.5], [1.0, 2.0], [1.0, 0.0])
        assert (c, a) == (0.0, 1.0)

    def test_precondition_violations_are_reported(self):
        with pytest.raises(ValueError, match="unit mass"):
            lp.shadow_prices([1.0, 0.0], [2.0, 0.0], [0.5, 0.0])
        with pytest.raises(ValueError, match="budget"):
            lp.shadow_prices([1.0, 1.0], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="not a consumer optimum"):
            lp.shadow_prices([1.0, 2.0], [2.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="not minimal cost"):
            lp.shadow_prices([1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.5, 0.5, 0.0])


@pytest.fixture(scope="module")
def equilibrium_rows():
    """(u_i, p_i, q) rows of verified equilibria with tight budgets.

    Acceptance criterion 7's instances (zero-shift equilibria of 60 random
    problems, numpy seed 17) and the sweep certificates of the first six
    seed-2026 corpus problems.
    """
    rows = []
    rng = np.random.default_rng(17)
    for _ in range(60):
        P = mk.CollectiveProblem(random_collective(rng))
        cert = mk.lindahl_from_nash(P, np.zeros(P.n))
        rows += [(P.u[i], cert.p[i], cert.q) for i in range(P.n)]
    rng = np.random.default_rng(2026)
    for t in range(6):
        n = 2 if t % 2 == 0 else 3
        P = mk.CollectiveProblem(random_collective(rng, n=n))
        for cert in mk.sweep_lindahl_payoffs(P, 64 if n == 2 else 8):
            rows += [(P.u[i], cert.p[i], cert.q) for i in range(P.n)]
    return rows


class TestShadowPricesOnEquilibria:
    def test_support_every_row_and_bind_on_the_support(self, equilibrium_rows):
        for u, p, q in equilibrium_rows:
            c, a = lp.shadow_prices(u, p, q)
            assert a > 0 and c >= 0
            resid = a * p - (u - c)
            assert resid.min() >= -1e-12
            assert np.abs(resid[q > 1e-8]).max() <= 1e-12

    def test_equal_the_lp_duals_inside_an_envelope_segment(self, equilibrium_rows):
        # Where cost 1 lies strictly inside an envelope segment the LP dual
        # (mu0, mu1) is unique, so both paths must give the same pair.
        inside = 0
        for u, p, q in equilibrium_rows:
            costs, _ = lp._envelope(u, p)
            if costs[-1] <= 1.0 or 1.0 in costs:
                continue
            c, a = lp.shadow_prices(u, p, q)
            opt = consumer_problem(u, p)
            assert abs(c - opt.mu0) <= 1e-12 * (1.0 + abs(c))
            assert abs(a - opt.mu1) <= 1e-12 * (1.0 + a)
            inside += 1
        assert inside >= 0.9 * len(equilibrium_rows)
