import numpy as np
import pytest

from ccm import market as mk
from ccm import matching as mt
from ccm import polytope as pt
from ccm import solutions as sol


def mutual_pair():
    return mt.MatchingProblem(matchings=((0, 1), (1, 0)), w=[[0, 1], [1, 0]])


def roommate_triangle():
    K = tuple(mt.all_involutions(3))
    w = np.ones((3, 3)) - np.eye(3)
    return mt.MatchingProblem(matchings=K, w=w)


class TestConstruction:
    def test_involution_validation(self):
        with pytest.raises(ValueError, match="involution"):
            mt.MatchingProblem(matchings=((1, 2, 0),), w=np.zeros((3, 3)))

    def test_individual_rationality(self):
        with pytest.raises(ValueError, match="individually rational"):
            mt.MatchingProblem(matchings=((1, 0),), w=[[0, -1], [1, 0]])

    def test_infeasible_partner_weights_zeroed(self):
        M = mt.MatchingProblem(matchings=((0, 1, 2), (1, 0, 2)), w=np.ones((3, 3)))
        assert M.w[0, 2] == 0.0  # agent 2 is never matched with agent 0
        assert M.w[0, 1] == 1.0

    def test_all_involutions_count(self):
        # 1, 2, 4, 10, 26 matchings on 1..5 agents.
        assert [len(mt.all_involutions(n)) for n in range(1, 6)] == [1, 2, 4, 10, 26]

    def test_two_sided_matchings(self):
        out = mt.two_sided_matchings([0], [1, 2])
        assert (0, 1, 2) in out and (1, 0, 2) in out and (2, 1, 0) in out
        assert len(out) == 3


class TestToCollective:
    def test_pair(self):
        P = mt.to_collective(mutual_pair())
        assert np.allclose(P.u, [[0, 1], [0, 1]])

    def test_roommate_triangle_rows(self):
        M = roommate_triangle()
        P = mt.to_collective(M)
        # One column per matching; each row marks the matchings where the
        # agent is matched.
        assert P.k == 4
        assert sorted(P.u.sum(axis=0).tolist()) == [0.0, 2.0, 2.0, 2.0]

    def test_identity_only_rejected(self):
        M = mt.MatchingProblem(matchings=((0, 1), (1, 0)), w=[[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="no stake"):
            mt.to_collective(M)


class TestConversions:
    def test_prices_to_partner_takes_cheapest_delivery(self):
        M = roommate_triangle()
        p = np.zeros((3, 4))
        cols_match_01 = [c for c, j in enumerate(M.matchings) if j[0] == 1]
        assert len(cols_match_01) == 1
        p[0, cols_match_01[0]] = 2.0
        pi = mt.prices_to_partner(p, M)
        assert pi[0, 1] == 2.0
        assert pi[0, 2] == 0.0

    def test_allocation_to_demand(self):
        M = mutual_pair()
        xi = mt.allocation_to_demand(np.array([0.5, 0.5]), M)
        assert xi[0, 1] == pytest.approx(0.5)
        assert xi[0, 0] == pytest.approx(0.5)
        assert np.allclose(mt.allocation_to_demand(np.zeros(2), M), 0)


class TestVerifyWalras:
    def test_pair_equilibrium_passes(self):
        M = mutual_pair()
        pi = np.array([[0.0, 1.0], [1.0, 0.0]])
        xi = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = np.array([0.0, 1.0])
        assert mt.verify_walras_matching(M, pi, xi, q).passed

    def test_unaffordable_demand_fails(self):
        M = mutual_pair()
        pi = np.array([[0.0, 3.0], [3.0, 0.0]])
        xi = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = np.array([0.0, 1.0])
        v = mt.verify_walras_matching(M, pi, xi, q)
        assert not v.passed
        assert "budget" in {x.condition for x in v.violations}

    def test_revenue_slack_fails(self):
        M = mutual_pair()
        pi = np.array([[0.0, 0.5], [0.0, 0.0]])
        xi = np.zeros((2, 2))
        q = np.array([1.0, 0.0])  # identity matching despite positive swap revenue
        v = mt.verify_walras_matching(M, pi, xi, q)
        assert not v.passed
        conditions = {x.condition for x in v.violations}
        assert "firm_revenue" in conditions or "consumer_optimality" in conditions

    def test_zero_stake_agent_must_not_pay(self):
        # Agent 1 values nobody, so any cost above tol (1e-9, in money) is a
        # minimal-cost violation; the 10 * tol slack of agents with a stake
        # does not apply.
        M = mt.MatchingProblem(matchings=((0, 1), (1, 0)), w=[[0, 1], [0, 0]])
        xi = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = np.array([0.0, 1.0])
        for cost, passed in ((0.5e-9, True), (5e-9, False), (1.5e-8, False)):
            pi = np.array([[0.0, 1.0], [cost, 0.0]])
            v = mt.verify_walras_matching(M, pi, xi, q)
            assert v.passed is passed
            if not passed:
                assert [(x.condition, x.agent) for x in v.violations] == [("minimal_cost", 1)]
                assert v.violations[0].residual == cost

    def test_prices_within_tolerance_below_zero_are_accepted(self):
        # The input check allows prices down to -tol; they once reached the
        # consumer kernel and raised "utilities and prices must be nonnegative".
        M = mutual_pair()
        pi = np.array([[0.0, 1.0], [1.0, -1e-12]])
        xi = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert mt.verify_walras_matching(M, pi, xi, np.array([0.0, 1.0])).passed


class TestTheoremThreePipelines:
    def test_pair_round_trip(self):
        M = mutual_pair()
        P = mt.to_collective(M)
        cert = mk.lindahl_from_nash(P, np.zeros(2))
        pi, xi, q = mt.lindahl_to_walras(M, cert.p, cert.q)
        assert pi[0, 1] == pytest.approx(1.0, abs=1e-9)
        p2, q2 = mt.walras_to_lindahl(M, pi, xi, q)
        assert np.array_equal(P.u @ q2, P.u @ cert.q)

    def test_asymmetric_interest(self):
        M = mt.MatchingProblem(matchings=((0, 1), (1, 0)), w=[[0, 1], [0.5, 0]])
        P = mt.to_collective(M)
        cert = mk.lindahl_from_nash(P, np.zeros(2))
        pi, xi, q = mt.lindahl_to_walras(M, cert.p, cert.q)
        assert mt.verify_walras_matching(M, pi, xi, q).passed
        assert not mt.price_coherence_lint(M, cert.p, cert.q)

    def test_rejects_non_equilibrium_input(self):
        M = mutual_pair()
        with pytest.raises(ValueError, match="not a Lindahl equilibrium"):
            mt.lindahl_to_walras(M, np.zeros((2, 2)), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="not a Walrasian equilibrium"):
            mt.walras_to_lindahl(
                M, np.array([[0.0, 3.0], [3.0, 0.0]]), np.zeros((2, 2)), np.array([0.0, 1.0])
            )

    def test_random_problems_round_trip_and_exist(self):
        rng = np.random.default_rng(31)
        done = 0
        while done < 20:
            n = int(rng.integers(2, 5))
            K = mt.all_involutions(n)
            keep = [j for j in K if rng.uniform() < 0.8]
            w = rng.integers(0, 5, size=(n, n)) / 2.0
            np.fill_diagonal(w, 0.0)
            try:
                M = mt.MatchingProblem(matchings=tuple(keep) or tuple(K), w=w)
                P = mt.to_collective(M)
            except ValueError:
                continue
            cert = mk.lindahl_from_nash(P, np.zeros(n))
            pi, xi, q = mt.lindahl_to_walras(M, cert.p, cert.q)
            p2, q2 = mt.walras_to_lindahl(M, pi, xi, q)
            assert np.array_equal(P.u @ q2, P.u @ cert.q)
            done += 1

    def test_converted_payoffs_are_equitable(self):
        M = roommate_triangle()
        P = mt.to_collective(M)
        cert = mk.lindahl_from_nash(P, np.zeros(3))
        pi, xi, q = mt.lindahl_to_walras(M, cert.p, cert.q)
        B = mk.bargaining_of(P)
        pay = P.u @ q
        assert sol.equitable_contains(B, pay).is_member
        assert pt.is_pareto_efficient(B, pay, 1e-7)
