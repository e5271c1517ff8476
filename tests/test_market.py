import numpy as np
import pytest

from ccm import _logmax, lp
from ccm import market as mk
from ccm import polytope as pt
from ccm import solutions as sol

from _oracles import (
    admissible_reach,
    corpus_problem,
    first_hits_loop,
    full_grid_sweep,
    nash_allocation_grid_1d,
    nash_point_on_chain,
    random_collective,
    shift_certificate,
)

TOWN = mk.CollectiveProblem([[1, 0], [0, 1]])
CAKE_MARKET = mk.CollectiveProblem([[1, 0.5, 0], [0, 1, 1]])


def _assert_same_bytes(a, b):
    for name in ("p", "q", "payoffs", "alpha", "c"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_problem_validation():
    with pytest.raises(ValueError, match="no stake"):
        mk.CollectiveProblem([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        mk.CollectiveProblem([[1, -1]])


class TestBargainingOf:
    def test_town_is_unit_simplex(self):
        B = mk.bargaining_of(TOWN)
        sg = pt.as_simplex_game(B)
        assert sg is not None and np.allclose(sg.scale, [0.5, 0.5])

    def test_cake_market_matches_cake_set(self):
        B = mk.bargaining_of(CAKE_MARKET)
        cake = pt.coco_hull([[0, 0], [1, 0], [0.5, 1], [0, 1]])
        assert all(pt.contains(cake, g) for g in B.generators)
        assert all(pt.contains(B, g) for g in cake.generators)

    def test_single_outcome(self):
        B = mk.bargaining_of(mk.CollectiveProblem([[2], [3]]))
        assert np.allclose(B.bliss, [2, 3]) and np.allclose(B.disagreement, [0, 0])


class TestVerifyLindahl:
    def test_town_equilibrium_passes(self):
        v = mk.verify_lindahl(TOWN, [[2, 0], [0, 2]], [0.5, 0.5])
        assert v.passed

    def test_wrong_lottery_fails_consumer_optimality(self):
        v = mk.verify_lindahl(TOWN, [[2, 0], [0, 2]], [1.0, 0.0])
        assert not v.passed
        assert "consumer_optimality" in {x.condition for x in v.violations}

    def test_single_outcome_passes(self):
        P = mk.CollectiveProblem([[5], [3]])
        assert mk.verify_lindahl(P, [[1], [1]], [1.0]).passed

    def test_tampered_price_fails(self):
        v = mk.verify_lindahl(TOWN, [[2, 0.5], [0, 2]], [0.5, 0.5])
        assert not v.passed


def test_shifted_utilities():
    P = mk.CollectiveProblem([[10, 4, 2], [1, 1, 1]])
    S = mk.shifted_utilities(P, [3, 0])
    assert np.allclose(S.u[0], [7, 1, 0])
    assert np.allclose(S.u[1], [1, 1, 1])
    assert np.allclose(mk.shifted_utilities(P, [0, 0]).u, P.u)
    with pytest.raises(ValueError):
        mk.shifted_utilities(P, [10, 0])


def test_utility_shift_embed_and_reverification():
    # A valid equilibrium stays valid after adding a constant to a row,
    # with the payoff shifted by the same constant.
    lam = np.array([1.0, 0.0])
    V = mk.utility_shift_embed(TOWN, lam)
    assert np.allclose(V.u[0], [2, 1])
    v = mk.verify_lindahl(V, [[2, 0], [0, 2]], [0.5, 0.5])
    assert v.passed
    assert np.allclose(V.u @ np.array([0.5, 0.5]), [1.5, 0.5])


class TestNashAllocation:
    def test_town_symmetric(self):
        assert np.allclose(mk.nash_allocation(TOWN), [0.5, 0.5], atol=1e-10)

    def test_skewed_two_outcomes_against_grid(self):
        u = [[2, 1], [1, 3]]
        oracle = nash_allocation_grid_1d(u)
        assert np.allclose(oracle, [0.25, 0.75], atol=1e-4)
        q = mk.nash_allocation(mk.CollectiveProblem(u))
        assert np.allclose(q, [0.25, 0.75], atol=1e-9)
        assert np.allclose(np.asarray(u) @ q, [1.25, 2.5], atol=1e-9)

    @pytest.mark.parametrize("delta", [1e-9, 1e-7, 1e-5])
    def test_column_next_to_an_interior_optimum_keeps_a_small_weight(self, delta):
        # The columns (1, 1) and (0, 2 + delta): the Nash lottery puts
        # t = delta / (2 (1 + delta)) on the second, where the product is
        # flat to about delta^2 against the first alone.
        u = np.array([[1.0, 0.0], [1.0, 2.0 + delta]])
        q = mk.nash_allocation(mk.CollectiveProblem(u))
        t = delta / (2.0 * (1.0 + delta))
        assert np.abs(q - [1.0 - t, t]).max() <= 1e-15

    def test_many_two_agent_outcomes_pair_only_the_undominated(self, monkeypatch):
        # 4096 random outcomes, of which K = 10 no other outcome dominates.
        # The best point evaluates the K (K - 1) / 2 pairs of those, not the
        # 8.4 million pairs of all outcomes; the Nash point is one outcome,
        # which the pick finds among the columns.
        u = np.random.default_rng(0).uniform(0, 1, (2, 4096))
        K = sum(not ((u >= u[:, [j]]).all(axis=0) & (u != u[:, [j]]).any(axis=0)).any() for j in range(4096))
        pairs = []
        candidates = _logmax._candidates

        def recorded(U, S):
            if len(S) == 2:
                assert S.max() < K
                pairs.append(S.shape[1] * U.shape[2])
            return candidates(U, S)

        monkeypatch.setattr(_logmax, "_candidates", recorded)
        q = mk.nash_allocation(mk.CollectiveProblem(u))
        assert K == 10 and sum(pairs) <= K * (K - 1) // 2 and np.count_nonzero(q) == 1
        assert np.abs(u @ q - nash_point_on_chain(u.T, np.zeros(2))).max() <= 1e-12

    def test_cake_market_concentrates_on_split_column(self):
        q = mk.nash_allocation(CAKE_MARKET)
        assert np.allclose(CAKE_MARKET.u @ q, [0.5, 1.0], atol=1e-9)
        assert q[1] == pytest.approx(1.0, abs=1e-8)

    def test_first_order_conditions(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            P = mk.CollectiveProblem(random_collective(rng))
            q = mk.nash_allocation(P)
            x = P.u @ q
            phi = (P.u / x[:, None]).sum(axis=0)
            assert phi.max() <= P.n + 1e-9
            on = q > 1e-8
            assert np.abs(phi[on] - P.n).max() <= 1e-9


class TestAdmissible:
    def test_zero_shift_always_admissible(self):
        assert mk.admissible(TOWN, [0, 0], [0.5, 0.5])

    def test_support_check(self):
        P = mk.CollectiveProblem([[10, 1]])
        assert not mk.admissible(P, [5], [0, 1])
        assert mk.admissible(P, [5], [1, 0])


class TestLindahlFromNash:
    def test_town_zero_shift(self):
        cert = mk.lindahl_from_nash(TOWN, [0, 0])
        assert np.allclose(cert.p, [[2, 0], [0, 2]], atol=1e-9)
        assert np.allclose(cert.q, [0.5, 0.5], atol=1e-9)
        assert np.allclose(cert.payoffs, [0.5, 0.5], atol=1e-9)

    def test_zero_shift_always_yields_certificate(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            P = mk.CollectiveProblem(random_collective(rng))
            cert = mk.lindahl_from_nash(P, np.zeros(P.n))
            assert cert is not None
            assert np.allclose(cert.payoffs, cert.alpha + cert.c)
            assert np.allclose(cert.payoffs, P.u @ cert.q, atol=1e-9)

    def test_inadmissible_shift_returns_none(self):
        P = mk.CollectiveProblem([[10, 1], [1, 10]])
        # Shifting agent 1 close to her maximum forces the lottery onto her
        # favorite outcome, where agent 2 falls below his own shift.
        assert mk.lindahl_from_nash(P, [9.5, 9.5]) is None

    def test_certificate_supports_shadow_price_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            P = mk.CollectiveProblem(random_collective(rng))
            cert = mk.lindahl_from_nash(P, np.zeros(P.n))
            # alpha_i p_i^j >= u_i^j - c_i with equality on the support.
            for i in range(P.n):
                resid = cert.alpha[i] * cert.p[i] - (P.u[i] - cert.c[i])
                assert resid.min() >= -1e-9
                on = cert.q > 1e-8
                assert np.abs(resid[on]).max() <= 1e-9

    def test_cake_market_half_shift_lands_on_equitable_segment(self):
        cert = mk.lindahl_from_nash(CAKE_MARKET, [0.5, 0.0])
        assert cert is not None
        (a, b), = sol.equitable_set_2d(mk.bargaining_of(CAKE_MARKET))
        d = b - a
        t = float((cert.payoffs - a) @ d / (d @ d))
        assert 0 <= t <= 1
        assert np.abs(a + t * d - cert.payoffs).max() <= 1e-9

    def test_firm_revenue_equals_agent_count(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            P = mk.CollectiveProblem(random_collective(rng))
            cert = mk.lindahl_from_nash(P, np.zeros(P.n))
            assert cert.p.sum(axis=0) @ cert.q == pytest.approx(P.n, abs=1e-8)


class TestSweep:
    def test_town_collapses_to_equal_split(self):
        certs = mk.sweep_lindahl_payoffs(TOWN, 16)
        assert len(certs) == 1
        assert np.allclose(certs[0].payoffs, [0.5, 0.5], atol=1e-9)

    def test_single_outcome(self):
        P = mk.CollectiveProblem([[2], [3]])
        certs = mk.sweep_lindahl_payoffs(P, 8)
        assert len(certs) == 1
        assert np.allclose(certs[0].payoffs, [2, 3], atol=1e-9)

    def test_cake_market_covers_equitable_segment(self):
        certs = mk.sweep_lindahl_payoffs(CAKE_MARKET, 64)
        pays = np.array([c.payoffs for c in certs])
        B = mk.bargaining_of(CAKE_MARKET)
        (a, b), = sol.equitable_set_2d(B)
        for t in np.linspace(0, 1, 9):
            target = a + t * (b - a)
            assert np.abs(pays - target).max(axis=1).min() <= 2e-2

    def test_twin_columns_reach_the_end_of_the_equitable_segment(self):
        # At c = (0.5, 0) outcomes 1 and 2 both shift to (0, 1), and outcome
        # 2 pays agent 0 less than c_0, so the weight must end on outcome 1.
        certs = mk.sweep_lindahl_payoffs(CAKE_MARKET, 8)
        (a, b), = sol.equitable_set_2d(mk.bargaining_of(CAKE_MARKET))
        assert np.allclose(b, [0.75, 0.5], rtol=0, atol=1e-12)
        (cert,) = [c for c in certs if np.abs(c.payoffs - b).max() <= 1e-9]
        assert np.array_equal(cert.c, [0.5, 0.0]) and cert.q[2] == 0.0
        assert np.allclose(cert.q, [0.5, 0.5, 0.0], rtol=0, atol=1e-12)
        assert mk.verify_lindahl(CAKE_MARKET, cert.p, cert.q).passed

    @pytest.mark.parametrize("c1", [0.0, 0.125, 0.25])
    def test_lindahl_from_nash_moves_weight_onto_an_admissible_twin(self, c1):
        # Corpus problem 12 (seed 2026): at c = (0.75, c1) outcomes 0 and 2
        # both shift to (0, 1 - c1), and outcome 0 pays agent 0 less than c_0.
        P = mk.CollectiveProblem(
            [[0.375, 0.125, 0.75, 0.5, 1.0], [1.0, 0.875, 1.0, 0.625, 0.25]]
        )
        cert = mk.lindahl_from_nash(P, [0.75, c1])
        assert cert is not None and cert.q[0] == 0.0 and cert.q[2] > 0
        assert mk.verify_lindahl(P, cert.p, cert.q).passed
        assert mk.admissible(P, cert.c, cert.q)
        sweep = np.array([c.payoffs for c in mk.sweep_lindahl_payoffs(P, 64)])
        assert np.abs(sweep - cert.payoffs).max(axis=1).min() <= mk.PAYOFF_DEDUP

    def test_a_flat_optimal_face_keeps_its_nearest_admissible_pair(self):
        # Corpus problem 34 at 64 steps, cell 3456: c = (27/32, 0) shifts
        # outcomes 3, 4 and 5 to (1/32, 3/4), (5/32, 1/4) and (0, 7/8), on
        # the line y = 7/8 - 4x through the Nash point (7/64, 7/16).  Outcome
        # 5 pays agent 0 less than c_0; the pair nearest the Nash point,
        # outcomes 3 and 4, is admissible.
        P = mk.CollectiveProblem(corpus_problem(34))
        c = mk._shift_grid(P, 64)[3456]
        assert np.array_equal(c, [27 / 32, 0.0])
        S = mk.shifted_utilities(P, c).u
        assert np.array_equal(S[:, 3:].T, [[1 / 32, 3 / 4], [5 / 32, 1 / 4], [0, 7 / 8]])
        kept = [cert for cert in mk.sweep_lindahl_payoffs(P, 64) if np.array_equal(cert.c, c)]
        cert = mk.lindahl_from_nash(P, c)
        assert len(kept) == 1 and cert is not None
        for q in (kept[0].q, cert.q):
            assert np.flatnonzero(q).tolist() == [3, 4]
        assert np.allclose(cert.payoffs - c, [7 / 64, 7 / 16], rtol=0, atol=1e-15)

    def test_a_flat_three_agent_face_keeps_its_smallest_admissible_support(self):
        # Corpus problem 121 at 8 steps, c = (3/8, 7k/64, 7k/64) for k = 1..4:
        # outcome 3 shifts to the midpoint of outcomes 0 and 4, all three
        # paying agent 0 nothing, and the Nash point mixes outcome 1 with that
        # line.  Outcomes 0 and 4 pay agent 0 less than c_0; the smallest
        # support, outcomes 1 and 3, is admissible.
        P = mk.CollectiveProblem(corpus_problem(121))
        kept = {tuple(cert.c): cert for cert in mk.sweep_lindahl_payoffs(P, 8)}
        for k in range(1, 5):
            c = np.array([3 / 8, 7 * k / 64, 7 * k / 64])
            S = mk.shifted_utilities(P, c).u
            assert np.array_equal(S[:, 3], (S[:, 0] + S[:, 4]) / 2) and S[0, [0, 3, 4]].max() == 0
            cert = mk.lindahl_from_nash(P, c)
            assert tuple(c) in kept and cert is not None
            for q in (kept[tuple(c)].q, cert.q):
                assert np.flatnonzero(q).tolist() == [1, 3]
            assert mk.verify_lindahl(P, cert.p, cert.q).passed
            assert np.abs(cert.payoffs - kept[tuple(c)].payoffs).max() <= 1e-15

    @pytest.mark.parametrize("index", [34, 172])
    def test_every_rejected_shift_has_no_admissible_nash_lottery(self, index, monkeypatch):
        # A shift the sweep drops, before the solve or after it, must have no
        # admissible lottery at all that pays its Nash point, by an LP over
        # the admissible outcomes.
        P = mk.CollectiveProblem(corpus_problem(index))
        masks = []
        admit = mk._admit_twins
        monkeypatch.setattr(mk, "_admit_twins", lambda *a: masks.append(admit(*a)) or masks[-1])
        mk.sweep_lindahl_payoffs(P, 64)
        grid = mk._shift_grid(P, 64)
        # Only cells with a column paying every agent its shift, in its
        # units, are solved; `_admit_twins` judges those.
        floor = grid[:, :, None] - mk.EPS_LP * P.u.max(axis=1)[:, None]
        solved = np.flatnonzero((P.u[None] >= floor).all(axis=1).any(axis=1))
        (admitted,) = masks
        assert admitted.shape == solved.shape and solved.size < len(grid)
        live = np.zeros(len(grid), dtype=bool)
        live[solved[admitted]] = True

        def reach(c):
            x = nash_point_on_chain(np.maximum(P.u - c[:, None], 0.0).T, np.zeros(2))
            return admissible_reach(P.u, c, x, mk.EPS_LP)

        assert (~live).sum() > 1000
        assert max(reach(c) for c in grid[~live]) < 1.0 - 1e-9
        assert min(reach(c) for c in grid[live][::64]) >= 1.0 - 1e-12

    def test_all_sweep_payoffs_are_equitable(self):
        rng = np.random.default_rng(25)
        for _ in range(6):
            P = mk.CollectiveProblem(random_collective(rng, n=2))
            B = mk.bargaining_of(P)
            for cert in mk.sweep_lindahl_payoffs(P, 24):
                assert sol.equitable_contains(B, cert.payoffs).is_member

    def test_guard_on_agent_count(self):
        with pytest.raises(ValueError):
            mk.sweep_lindahl_payoffs(mk.CollectiveProblem(np.eye(5) + 0.1), 4)


def test_scale_invariance_of_equilibrium_lottery():
    rng = np.random.default_rng(26)
    for _ in range(10):
        P = mk.CollectiveProblem(random_collective(rng))
        beta = float(rng.uniform(0.5, 3.0))
        scaled = mk.CollectiveProblem(P.u * np.concatenate([[beta], np.ones(P.n - 1)])[:, None])
        c1 = mk.lindahl_from_nash(P, np.zeros(P.n))
        c2 = mk.lindahl_from_nash(scaled, np.zeros(P.n))
        assert np.allclose(c1.q, c2.q, atol=1e-8)
        assert c2.payoffs[0] == pytest.approx(beta * c1.payoffs[0], abs=1e-8)
        assert np.allclose(c2.payoffs[1:], c1.payoffs[1:], atol=1e-8)


def test_lindahl_from_nash_at_micro_scale():
    # The minimal-cost check once relaxed the utility floor by an absolute
    # 1e-12, a relative 1e-6 here, and rejected this exact equilibrium.
    P = mk.CollectiveProblem(np.array([[1, 0, 0.5], [0, 1, 0.6]]) * 1e-6)
    cert = mk.lindahl_from_nash(P, np.zeros(2))
    assert cert is not None
    assert mk.verify_lindahl(P, cert.p, cert.q).passed
    assert np.allclose(cert.payoffs, [0.5e-6, 0.6e-6], rtol=1e-8, atol=0)


def test_lindahl_from_nash_on_per_agent_rescaled_sample():
    # 30 problems, each agent's row scaled by exp(U(-2, 2)) * 1e-6.
    rng = np.random.default_rng(11)
    raised = []
    for t in range(30):
        u = random_collective(rng)
        factors = np.exp(rng.uniform(-2, 2, u.shape[0])) * 1e-6
        P = mk.CollectiveProblem(u * factors[:, None])
        try:
            mk.lindahl_from_nash(P, np.zeros(P.n))
        except lp.LpError as exc:
            raised.append((t, str(exc)))
    assert raised == []


def test_lindahl_payoffs_are_pareto_efficient():
    rng = np.random.default_rng(27)
    for _ in range(25):
        P = mk.CollectiveProblem(random_collective(rng))
        cert = mk.lindahl_from_nash(P, np.zeros(P.n))
        assert pt.is_pareto_efficient(mk.bargaining_of(P), cert.payoffs, 1e-7)


def test_equitable_witness_from_lindahl():
    w, pay = mk.equitable_witness_from_lindahl(
        TOWN, np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([0.5, 0.5])
    )
    assert np.allclose(pt.fair_outcome(w), [0.5, 0.5], atol=1e-9)
    assert pt.simplex_dominates(w, mk.bargaining_of(TOWN))


def test_equitable_witness_with_budget_slack_agent():
    # Agent 1 is indifferent across outcomes and underspends at these
    # prices, triggering the bliss-outcome repricing path.
    P = mk.CollectiveProblem([[1, 1], [0, 1]])
    p = np.array([[0.5, 0.5], [0.0, 1.0]])
    q = np.array([0.0, 1.0])
    assert mk.verify_lindahl(P, p, q).passed
    assert p[0] @ q < 1  # genuine slack
    w, pay = mk.equitable_witness_from_lindahl(P, p, q)
    assert np.allclose(pay, [1.0, 1.0])
    assert np.allclose(pt.fair_outcome(w), pay, atol=1e-9)


def test_equitable_witness_from_lindahl_on_corpus_sweeps():
    rng = np.random.default_rng(2026)
    checked = 0
    for t in range(16):
        n = 2 if t % 2 == 0 else 3
        P = mk.CollectiveProblem(random_collective(rng, n=n))
        B = mk.bargaining_of(P)
        for cert in mk.sweep_lindahl_payoffs(P, 16 if n == 2 else 6):
            w, pay = mk.equitable_witness_from_lindahl(P, cert.p, cert.q)
            witness = sol.EquitabilityCertificate(w, pt.fair_outcome(w))
            assert sol.validate_certificate(B, pay, witness)
            checked += 1
    assert checked >= 200


def test_sweep_of_a_four_agent_matching_problem():
    # At shift cell 11, columns 1 and 7 both clip to [0, 1, 1.5, 0]; the
    # log-welfare solver once raised ConvergenceError on this sweep.
    P = mk.CollectiveProblem(
        [
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 1.5, 0, 1, 1, 0, 0, 1.5],
            [0, 1.5, 0, 0, 1.5, 0.5, 0, 1.5],
            [0, 0, 2, 0, 2, 0, 1, 1],
        ]
    )
    certs = mk.sweep_lindahl_payoffs(P, 3)
    assert len(certs) == 2
    for cert in certs:
        assert mk.verify_lindahl(P, cert.p, cert.q).passed
        _assert_same_bytes(cert, shift_certificate(P, cert.c, cert.q))


def test_first_hit_dedup_matches_the_pairwise_loop():
    rng = np.random.default_rng(12)
    for _ in range(20):
        centers = rng.integers(0, 4, size=(6, 3)) / 4.0
        pays = centers[rng.integers(0, 6, size=300)] + rng.uniform(-1e-6, 1e-6, size=(300, 3))
        expect = []
        for r, pay in enumerate(pays):  # the quadratic loop the sweep used to run
            if not any(np.abs(pay - pays[s]).max() <= 1e-6 for s in expect):
                expect.append(r)
        assert mk._first_hits(pays, 1e-6) == expect
    assert mk._first_hits(np.empty((0, 2)), 1e-6) == []


@pytest.mark.parametrize(
    "rows, expect",
    [
        # a ~ b ~ c with a not within tol of c: b goes with a, c stays.
        ([[0, 0], [0.6e-6, 0], [1.2e-6, 0]], [0, 2]),
        # The middle row first: it takes both ends.
        ([[0.6e-6, 0], [0, 0], [1.2e-6, 0]], [0]),
        # Chained in the second coordinate only.
        ([[1, 0], [1, 0.7e-6], [1, 1.4e-6], [1, 2.1e-6]], [0, 2]),
        # Exact duplicates, of a kept row and of a dropped row.
        ([[1, 2], [1, 2], [1, 2 + 0.5e-6], [1, 2 + 0.5e-6], [1, 2]], [0]),
        ([[3, 3]], [0]),
        # Rows 0 and 2 are near; sorted on the last coordinate, row 1 would part them.
        ([[0, 0], [5, 1e-7], [1e-7, 2e-7]], [0, 1]),
    ],
    ids=["chain", "middle_first", "second_coordinate", "duplicates", "one_row", "coordinate_0_first"],
)
def test_first_hits_cases(rows, expect):
    rows = np.array(rows, dtype=float)
    assert first_hits_loop(rows, 1e-6) == expect
    assert mk._first_hits(rows, 1e-6) == expect


def test_first_hits_on_a_vertical_edge():
    # Many rows share coordinate 0, as on a vertical frontier edge, so near
    # pairs show up at large offsets of the sort.
    rng = np.random.default_rng(4)
    for _ in range(20):
        rows = np.zeros((200, 2))
        rows[:, 0] = rng.integers(0, 3, size=200) * 0.5
        rows[:, 1] = np.cumsum(rng.uniform(0, 1e-6, size=200)) * rng.choice([1, -1])
        rows = rows[rng.permutation(200)]
        assert mk._first_hits(rows, 1e-6) == first_hits_loop(rows, 1e-6)


def test_first_hits_on_duplicate_heavy_rows():
    same = np.full((4096, 3), 0.25)
    assert mk._first_hits(same, 1e-6) == first_hits_loop(same, 1e-6) == [0]
    # Rows that differ only in their last coordinate, with many exact
    # duplicates and chains of near neighbours.
    rng = np.random.default_rng(21)
    last = np.ones((4096, 3))
    last[:, 2] = rng.integers(0, 600, size=4096) * 0.4e-6
    kept = mk._first_hits(last, 1e-6)
    assert kept == first_hits_loop(last, 1e-6) and 1 < len(kept) < 600


def test_first_hits_equal_the_loop_on_corpus_sweeps(monkeypatch):
    first_hits = mk._first_hits
    seen = []

    def checked(payoffs, tol):
        kept = first_hits(payoffs, tol)
        assert kept == first_hits_loop(payoffs, tol)
        seen.append(len(payoffs) - len(kept))
        return kept

    monkeypatch.setattr(mk, "_first_hits", checked)
    rng = np.random.default_rng(2026)
    for t in range(200):
        n = 2 if t % 2 == 0 else 3
        mk.sweep_lindahl_payoffs(mk.CollectiveProblem(random_collective(rng, n=n)), 64 if n == 2 else 8)
    assert len(seen) == 200 and sum(seen) > 0


def test_sweep_is_byte_deterministic():
    certs = mk.sweep_lindahl_payoffs(CAKE_MARKET, 12)
    certs2 = mk.sweep_lindahl_payoffs(CAKE_MARKET, 12)
    assert len(certs) == len(certs2)
    for a, b in zip(certs, certs2):
        _assert_same_bytes(a, b)


def _solved_and_certificates(P, steps, monkeypatch):
    """The cells the sweep solves, and its certificates."""
    solve, sizes = mk.maximize_log_sum_batch, []

    def counted(C, **kwargs):
        sizes.append(len(C))
        return solve(C, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(mk, "maximize_log_sum_batch", counted)
        certs = mk.sweep_lindahl_payoffs(P, steps)
    (solved,) = sizes
    return solved, certs


def _assert_sweep_is_the_full_grid_sweep(P, steps, monkeypatch):
    solved, certs = _solved_and_certificates(P, steps, monkeypatch)
    assert solved < steps**P.n  # some cells go before the solve
    reference = full_grid_sweep(P, steps)
    assert len(certs) == len(reference) > 0
    for a, b in zip(certs, reference):
        _assert_same_bytes(a, b)
    return solved


@pytest.mark.parametrize("index", [34, 121, 172, 0, 1, 2, 3, 4, 7, 8, 12, 13, 14, 17])
def test_sweep_equals_the_full_grid_sweep_on_corpus_problems(index, monkeypatch):
    P = mk.CollectiveProblem(corpus_problem(index))
    _assert_sweep_is_the_full_grid_sweep(P, 64 if P.n == 2 else 8, monkeypatch)


def test_sweep_equals_the_full_grid_sweep_on_four_agents(monkeypatch):
    rng = np.random.default_rng(7)
    sample = [random_collective(rng, n=4) for _ in range(5)]
    for u in sample[:2] + sample[3:]:  # problem 2 drops no cell at 6 steps
        _assert_sweep_is_the_full_grid_sweep(mk.CollectiveProblem(u), 6, monkeypatch)


@pytest.mark.parametrize("scale", [[1e-6, 1e6], [1e6, 1e-6]])
def test_sweep_drops_cells_in_each_agents_units(scale, monkeypatch):
    # Every positive utility lowered by half a tolerance in its agent's
    # units lies just below the grid shifts it used to equal, and is not
    # below them.  Rows rescaled by 1e-6 and 1e6 must drop the same cells
    # as the unit rows; a drop judged in absolute units drops more.
    u = corpus_problem(172)
    u = np.where(u > 0, u - 0.5 * mk.EPS_LP * u.max(axis=1)[:, None], 0.0)
    unit, _ = _solved_and_certificates(mk.CollectiveProblem(u), 64, monkeypatch)
    scaled = mk.CollectiveProblem(u * np.array(scale)[:, None])
    assert _assert_sweep_is_the_full_grid_sweep(scaled, 64, monkeypatch) == unit


def _summary(violations):
    return not violations, {(v.condition, v.agent) for v in violations}


@pytest.fixture(scope="module")
def corpus_sweeps():
    """Sweeps of the first 12 problems of the seed-2026 acceptance corpus."""
    rng = np.random.default_rng(2026)
    out = []
    for t in range(12):
        n = 2 if t % 2 == 0 else 3
        P = mk.CollectiveProblem(random_collective(rng, n=n))
        out.append((P, mk.sweep_lindahl_payoffs(P, 64 if n == 2 else 8)))
    return out


def test_certificates_equal_the_per_shift_assembly(corpus_sweeps):
    for P, certs in corpus_sweeps:
        for cert in certs + [mk.lindahl_from_nash(P, np.zeros(P.n))]:
            _assert_same_bytes(cert, shift_certificate(P, cert.c, cert.q))


def test_batched_check_is_verify_lindahl(corpus_sweeps):
    failed = 0
    for P, certs in corpus_sweeps:
        p = [c.p for c in certs]
        q = [c.q for c in certs]
        for agent in range(P.n):
            for c in certs:
                doubled = c.p.copy()
                doubled[agent] *= 2.0
                p.append(doubled)
                q.append(c.q)
        batched = mk._lindahl_violations(P, np.array(p), np.array(q), mk.EPS_LP)
        for p_r, q_r, violations in zip(p, q, batched):
            verdict = mk.verify_lindahl(P, p_r, q_r)
            assert _summary(violations) == (verdict.passed, _summary(verdict.violations)[1])
            assert [v.residual for v in violations] == [v.residual for v in verdict.violations]
            failed += not verdict.passed
    assert failed > 0


@pytest.mark.parametrize(
    "move, expected",
    [
        # Prices built from the lottery's own shifted utilities leave every
        # consumer optimal, so a lottery moved within the simplex fails on
        # the firm side.
        (lambda lam: 0.5 * lam + 0.5 * np.eye(lam.size)[0], [("firm_revenue", None)]),
        # Half the mass: the agent with a positive shift could buy more.
        (lambda lam: 0.5 * lam, [("consumer_optimality", 0), ("lottery_mass", None)]),
    ],
    ids=["within_simplex", "half_mass"],
)
def test_sweep_raises_on_a_certificate_off_its_optimum(monkeypatch, move, expected):
    last = mk.sweep_lindahl_payoffs(CAKE_MARKET, 12)[-1]
    assert last.c[0] > 0
    solve = mk.maximize_log_sum_batch

    def moved(C, **kwargs):
        # The batch holds only the cells solved: find the last certificate's
        # row by its shifted utilities (CAKE_MARKET has no twin outcomes).
        (cell,) = np.flatnonzero((C == mk.shifted_utilities(CAKE_MARKET, last.c).u).all(axis=(1, 2)))
        lam, value, resid = solve(C, **kwargs)
        lam[cell] = move(lam[cell])
        return lam, value, resid

    monkeypatch.setattr(mk, "maximize_log_sum_batch", moved)
    with pytest.raises(lp.LpError) as info:
        mk.sweep_lindahl_payoffs(CAKE_MARKET, 12)
    message = str(info.value)
    assert f"shift c = {last.c.tolist()}" in message
    for condition, agent in expected:
        assert f"condition='{condition}', agent={agent}," in message
