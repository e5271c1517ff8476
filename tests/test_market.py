import numpy as np
import pytest

from ccm import lp
from ccm import market as mk
from ccm import polytope as pt
from ccm import solutions as sol

from _oracles import nash_allocation_grid_1d, random_collective, shift_certificate

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


def test_sweep_is_byte_deterministic():
    certs = mk.sweep_lindahl_payoffs(CAKE_MARKET, 12)
    certs2 = mk.sweep_lindahl_payoffs(CAKE_MARKET, 12)
    assert len(certs) == len(certs2)
    for a, b in zip(certs, certs2):
        _assert_same_bytes(a, b)


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
    cell = int(np.nonzero((mk._shift_grid(CAKE_MARKET, 12) == last.c).all(axis=1))[0][0])
    solve = mk.maximize_log_sum_batch

    def moved(C, **kwargs):
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
