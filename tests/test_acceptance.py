"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The random corpora are session fixtures so the certificate
audits (criterion 6) cover everything produced elsewhere in the suite.
"""
import json
import time

import numpy as np
import pytest

from ccm import cli
from ccm import exchange as ex
from ccm import lp
from ccm import market as mk
from ccm import matching as mt
from ccm import polytope as pt
from ccm import solutions as sol

from _oracles import consumer_problem, random_collective, random_normalized_polytope

CAKE = pt.coco_hull([[0, 0], [1, 0], [0.5, 1], [0, 1]])
THREE_PERSON = pt.coco_hull([[0, 0, 0], [1, 1, 0.5], [1 / 3, 1 / 3, 1]])

# Certificates produced anywhere in this suite, audited by criterion 6.
CERT_REGISTRY: list[tuple[mk.CollectiveProblem, np.ndarray]] = []


def _register(P, payoffs):
    CERT_REGISTRY.append((P, np.asarray(payoffs, float)))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sweep_corpus():
    """200 random collective problems with their equilibrium sweeps."""
    rng = np.random.default_rng(2026)
    corpus = []
    start = time.time()
    for t in range(200):
        n = 2 if t % 2 == 0 else 3
        P = mk.CollectiveProblem(random_collective(rng, n=n))
        steps = 64 if n == 2 else 8
        certs = mk.sweep_lindahl_payoffs(P, steps)
        corpus.append((P, certs))
        for c in certs:
            _register(P, c.payoffs)
    return corpus, time.time() - start


def test_criterion_1_town_example():
    start = time.time()
    P = mk.CollectiveProblem([[1, 0], [0, 1]])
    cert = mk.lindahl_from_nash(P, np.zeros(2))
    elapsed = time.time() - start
    _register(P, cert.payoffs)
    ok = (
        np.abs(cert.payoffs - 0.5).max() <= 1e-6
        and np.abs(cert.q - 0.5).max() <= 1e-6
        and np.abs(cert.p - np.array([[2, 0], [0, 2]])).max() <= 1e-6
        and elapsed < 1.0
    )
    report(1, ok, f"town solve in {elapsed * 1000:.0f} ms, payoffs {cert.payoffs.tolist()}")


def test_criterion_2_cake_example():
    eta = sol.nash_solution(CAKE)
    ok_nash = np.abs(eta - np.array([0.5, 1.0])).max() <= 1e-6

    segs = sol.equitable_set_2d(CAKE)
    ok_seg = (
        len(segs) == 1
        and np.abs(segs[0][0] - np.array([0.5, 1.0])).max() <= 1e-6
        and np.abs(segs[0][1] - np.array([0.75, 0.5])).max() <= 1e-6
    )

    v_pm = sol.equitable_contains(CAKE, [0.75, 0.5])
    ok_pm = v_pm.is_member and sol.validate_certificate(CAKE, [0.75, 0.5], v_pm.certificate)

    v_nash = sol.equitable_contains(CAKE, [0.5, 1.0])
    named = pt.SimplexGame([0.5, 1.0], [0.0, 0.0])  # renders as coco{(0,0),(1,0),(0,2)}
    named_cert = sol.EquitabilityCertificate(named, pt.fair_outcome(named))
    ok_named = v_nash.is_member and sol.validate_certificate(CAKE, [0.5, 1.0], named_cert)

    ok = ok_nash and ok_seg and ok_pm and ok_named
    report(2, ok, f"nash {eta.tolist()}, segment {segs[0][0].tolist()}..{segs[0][1].tolist()}")


def test_criterion_3_three_person_separation():
    x = np.array([1 / 3, 1 / 3, 1.0])
    verdict = sol.equitable_contains(THREE_PERSON, x)
    efficient = pt.is_pareto_efficient(THREE_PERSON, x)
    benchmark = sol.random_dictator_point(THREE_PERSON)
    midpoint_ok = bool(np.all(x >= benchmark - 1e-9))
    ok = verdict.status == sol.NON_MEMBER and efficient and midpoint_ok
    report(
        3,
        ok,
        f"status={verdict.status} (exact decision), efficient={efficient}, "
        f"dictator-lottery benchmark {np.round(benchmark, 6).tolist()} dominated={midpoint_ok}",
    )


@pytest.fixture(scope="module")
def office_economies():
    E1 = ex.economy_from_bundle_values(
        3,
        ("o1", "o2", "o3"),
        [
            (0, [0], 10), (0, [1], 4), (0, [2], 2),
            (1, [0], 10), (1, [1], 7), (1, [2], 3),
            (2, [0], 10), (2, [1], 5), (2, [2], 1),
        ],
    )
    E2 = ex.economy_from_bundle_values(
        3,
        ("o1", "o2", "o3", "desk_good", "desk_prem"),
        [
            (0, [0, 4], 10), (0, [0, 3], 4), (0, [0], 2),
            (1, [1, 4], 10), (1, [1, 3], 7), (1, [1], 3),
            (2, [2, 4], 10), (2, [2, 3], 5), (2, [2], 1),
        ],
    )
    return E1, E2


def test_criterion_4_office_example(office_economies):
    E1, E2 = office_economies
    prices = ex.PackagePrices(names=E1.names, additive=np.array([2.0, 1.0, 0.0]))
    theta = ex.RandomAllocation((0.5, 0.5), ((1, 2, 4), (4, 2, 1)))
    verdict = ex.verify_walras_exchange(E1, prices, theta)
    table = E1.value_table()
    pay = np.array([table[i] @ theta.marginal(i, 3) for i in range(3)])
    ok_we = verdict.passed and np.abs(pay - np.array([6, 7, 5.5])).max() <= 1e-6

    p, q = ex.walras_to_lindahl_exchange(E1, prices, theta)
    P1 = ex.to_collective_exchange(E1)
    le = mk.verify_lindahl(P1, p, q)
    ok_le = le.passed and np.abs(P1.u @ q - pay).max() <= 1e-6
    _register(P1, P1.u @ q)

    P2 = ex.to_collective_exchange(E2)
    certs = mk.sweep_lindahl_payoffs(P2, 6)
    for c in certs:
        _register(P2, c.payoffs)
    ok_sweep = len(certs) >= 3

    ok = ok_we and ok_le and ok_sweep
    report(4, ok, f"WE payoffs {pay.tolist()}, converted LE ok={ok_le}, sweep count {len(certs)}")


def test_criterion_5_equivalence_property_suite(sweep_corpus):
    corpus, sweep_time = sweep_corpus
    start = time.time()
    n_payoffs = 0
    non_members = []
    for P, certs in corpus:
        B = mk.bargaining_of(P)
        for cert in certs:
            v = sol.equitable_contains(B, cert.payoffs)
            n_payoffs += 1
            if not v.is_member:
                non_members.append((P.u.tolist(), cert.payoffs.tolist(), v.status))

    worst_gap = 0.0
    for P, certs in corpus:
        if P.n != 2:
            continue
        pays = np.array([c.payoffs for c in certs])
        for a, b in sol.equitable_set_2d(mk.bargaining_of(P)):
            mid = (np.asarray(a) + np.asarray(b)) / 2
            worst_gap = max(worst_gap, float(np.abs(pays - mid).max(axis=1).min()))
    elapsed = sweep_time + (time.time() - start)
    ok = not non_members and worst_gap <= 2e-2 and elapsed < 300
    report(
        5,
        ok,
        f"{n_payoffs} sweep payoffs all equitable ({len(non_members)} failures), "
        f"worst midpoint gap {worst_gap:.4f}, runtime {elapsed:.0f} s",
    )


def test_criterion_6_all_certificates_efficient(sweep_corpus):
    del sweep_corpus  # ensures the corpus certificates are registered
    bad = 0
    for P, payoffs in CERT_REGISTRY:
        if not pt.is_pareto_efficient(mk.bargaining_of(P), payoffs, 1e-7):
            bad += 1
    ok = bad == 0 and len(CERT_REGISTRY) > 200
    report(6, ok, f"{len(CERT_REGISTRY)} certificates audited, {bad} inefficient")


def test_criterion_7_duality_and_shadow_price_numerics():
    rng = np.random.default_rng(7)
    worst_gap = worst_cs = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        u = rng.integers(0, 9, size=k) / 8.0
        if u.max() == 0:
            u[int(rng.integers(0, k))] = 0.5
        p = rng.integers(0, 7, size=k) / 2.0
        opt = consumer_problem(u, p)
        A = np.vstack([p, np.ones(k)])
        duals = np.array([opt.mu1, opt.mu0])  # row order: budget, mass
        worst_gap = max(worst_gap, abs(opt.value - duals.sum()))
        worst_cs = max(worst_cs, float(np.abs(duals * (np.ones(2) - A @ opt.demand)).max()))

    worst_shadow = 0.0
    rng2 = np.random.default_rng(17)
    for _ in range(60):
        P = mk.CollectiveProblem(random_collective(rng2))
        cert = mk.lindahl_from_nash(P, np.zeros(P.n))
        for i in range(P.n):
            c, a = lp.shadow_prices(P.u[i], cert.p[i], cert.q)
            resid = a * cert.p[i] - (P.u[i] - c)
            worst_shadow = max(worst_shadow, -float(resid.min()))
            on = cert.q > 1e-8
            worst_shadow = max(worst_shadow, float(np.abs(resid[on]).max()))
    ok = worst_gap <= 1e-9 and worst_cs <= 1e-9 and worst_shadow <= 1e-8
    report(
        7,
        ok,
        f"duality gap {worst_gap:.2e}, slackness {worst_cs:.2e}, shadow residual {worst_shadow:.2e}",
    )


def test_criterion_8_matching_round_trips():
    rng = np.random.default_rng(8)
    done = bitwise_ok = 0
    while done < 100:
        n = int(rng.integers(2, 6))
        K = mt.all_involutions(n)
        keep = tuple(j for j in K if rng.uniform() < 0.75) or tuple(K)
        w = rng.integers(0, 5, size=(n, n)) / 2.0
        np.fill_diagonal(w, 0.0)
        try:
            M = mt.MatchingProblem(matchings=keep, w=w)
            P = mt.to_collective(M)
        except ValueError:
            continue
        cert = mk.lindahl_from_nash(P, np.zeros(n))
        pi, xi, q = mt.lindahl_to_walras(M, cert.p, cert.q)  # verifies internally
        p2, q2 = mt.walras_to_lindahl(M, pi, xi, q)  # verifies internally
        if np.array_equal(P.u @ q2, P.u @ cert.q):
            bitwise_ok += 1
        _register(P, cert.payoffs)
        done += 1
    ok = bitwise_ok == 100
    report(8, ok, f"100 problems: both conversions verified, {bitwise_ok} bitwise payoff matches")


def test_criterion_9_commodification_soundness():
    rng = np.random.default_rng(9)

    def coco_equal(A, B, tol):
        return all(pt.contains(B, g, tol) for g in A.generators) and all(
            pt.contains(A, g, tol) for g in B.generators
        )

    two_ok = 0
    grid_worst = 0.0
    grid_points = 0
    for _ in range(50):
        B = pt.Polytope(random_normalized_polytope(rng, n=2, max_vertices=6))
        E = ex.commodify_two(B)
        if coco_equal(ex.bargaining_of_economy(E), B, 1e-9):
            two_ok += 1
        segs = sol.equitable_set_2d(B)
        targets = []
        for a, b in segs:
            for t in np.linspace(0, 1, max(2, 16 // len(segs))):
                targets.append(a + t * (b - a))
        for x in targets[:16]:
            _, prices, theta = ex.walras_from_equitable_two(B, x)
            tbl = E.value_table()
            pay = np.array([tbl[i] @ theta.marginal(i, E.r) for i in range(2)])
            grid_worst = max(grid_worst, float(np.abs(pay - x).max()))
            grid_points += 1

    gen_ok = gen_done = 0
    while gen_done < 20:
        B = pt.Polytope(random_normalized_polytope(rng, n=3, max_vertices=2))
        try:
            E = ex.commodify_general(B)
        except ValueError:
            continue
        oracle = (
            ex.bargaining_of_economy(E)
            if (E.n + 1) ** E.r <= 2_000_000
            else ex.achievable_payoff_polytope(E)
        )
        if coco_equal(oracle, B, 1e-9):
            gen_ok += 1
        gen_done += 1

    ok = two_ok == 50 and gen_ok == 20 and grid_worst <= 1e-6
    report(
        9,
        ok,
        f"two-agent {two_ok}/50, general {gen_ok}/20, {grid_points} frontier points "
        f"worst payoff error {grid_worst:.2e}",
    )


def test_criterion_10_axiom_evidence():
    rng = np.random.default_rng(10)
    disagreements = 0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        B = pt.Polytope(random_normalized_polytope(rng, n=n))
        a = rng.uniform(0.25, 3.0, n)
        z = rng.uniform(0.0, 1.0, n)
        mapped = pt.Polytope(B.generators * a + z)
        pts = [g for g in B.generators] + [B.generators.mean(axis=0)]
        for x in pts:
            if not pt.contains(B, x):
                continue
            try:
                s0 = sol.equitable_contains(B, x).status
                s1 = sol.equitable_contains(mapped, a * x + z).status
            except ValueError:
                continue
            if s0 != s1:
                disagreements += 1

    simplex3 = pt.coco_hull(np.vstack([np.zeros(3), np.eye(3)]))
    sym = sol.equitable_contains(simplex3, np.full(3, 1 / 3)).is_member and all(
        sol.equitable_contains(simplex3, v).status == sol.NON_MEMBER for v in np.eye(3)
    )

    consistency_fails = 0
    for _ in range(20):
        B = pt.Polytope(random_normalized_polytope(rng, n=2))
        A_sup = sol.supporting_simplex(B)
        x = pt.fair_outcome(A_sup)
        if not sol.equitable_contains(B, x).is_member:
            consistency_fails += 1

    ok = disagreements == 0 and sym and consistency_fails == 0
    report(
        10,
        ok,
        f"scale-invariance disagreements {disagreements}, symmetry exact {sym}, "
        f"consistency failures {consistency_fails}",
    )
