import sys

import numpy as np
import pytest

from ccm import _logmax
from ccm import market as mk
from ccm import polytope as pt
from ccm import solutions as sol
from ccm.tolerances import EPS_GEOM

from _oracles import (
    frontier_mixes,
    nash_point_grid_2d,
    nash_point_on_chain,
    random_collective,
    random_normalized_polytope,
    reaches_witness_lp,
    scaled_sample,
    witness_grid_search,
    witness_lp_slack,
)

UNIT_SIMPLEX = pt.coco_hull([[0, 0], [1, 0], [0, 1]])
CAKE = pt.coco_hull([[0, 0], [1, 0], [0.5, 1], [0, 1]])
THREE_PERSON = pt.coco_hull([[0, 0, 0], [1, 1, 0.5], [1 / 3, 1 / 3, 1]])


class TestNashSolution:
    def test_cake_set(self):
        assert np.allclose(sol.nash_solution(CAKE), [0.5, 1.0], atol=1e-8)

    def test_unit_simplex_symmetry(self):
        assert np.allclose(sol.nash_solution(UNIT_SIMPLEX), [0.5, 0.5], atol=1e-9)
        s3 = pt.coco_hull(np.vstack([np.zeros(3), np.eye(3)]))
        assert np.allclose(sol.nash_solution(s3), np.full(3, 1 / 3), atol=1e-9)

    def test_right_triangle_against_frontier_grid(self):
        gens = [[0, 0], [2, 0], [0, 6]]
        oracle = nash_point_grid_2d(gens, steps=20000)
        assert np.allclose(oracle, [1.0, 3.0], atol=1e-3)
        assert np.allclose(sol.nash_solution(pt.coco_hull(gens)), [1.0, 3.0], atol=1e-8)

    def test_maximizes_log_welfare_over_random_frontiers(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            gens = random_normalized_polytope(rng, n=2)
            B = pt.Polytope(gens)
            eta = sol.nash_solution(B)
            pts = np.vstack([nash_point_grid_2d(gens, steps=3000)[None, :], eta[None, :]])
            with np.errstate(divide="ignore"):
                vals = np.log(np.maximum(pts - B.disagreement, 1e-300)).sum(axis=1)
            assert vals[1] >= vals[0] - 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            gens = random_normalized_polytope(rng, n=2)
            a = rng.uniform(0.3, 2.5, 2)
            z = rng.uniform(-1, 1, 2)
            eta = sol.nash_solution(pt.Polytope(gens))
            eta2 = sol.nash_solution(pt.Polytope(gens * a + z))
            assert np.allclose(eta2, a * eta + z, atol=1e-7)

    def test_degenerate_set_rejected(self):
        with pytest.raises(pt.DegenerateSetError):
            sol.nash_solution(pt.coco_hull([[1, 1]]))

    @pytest.mark.parametrize("m", [250, 400, 1000, 4000])
    def test_large_quarter_circles_against_the_chain_edges(self, monkeypatch, m):
        # Only the frontier chain's edges are candidates, so m = 4000 stays
        # fast; every pair of points would be 8 million candidates.
        t = np.linspace(0.0, np.pi / 2, m)
        G = np.column_stack([np.cos(t), np.sin(t)])
        B = pt.Polytope(G)
        seen = []
        support_optima = sol._support_optima

        def recorded(C, tol, edges):
            seen.append((C.shape[1], len(edges[0])))
            return support_optima(C, tol, edges)

        monkeypatch.setattr(sol, "_support_optima", recorded)
        x = sol.nash_solution(B)
        assert seen == [(len(B.frontier), len(B.frontier) - 1)]
        assert np.abs(x - nash_point_on_chain(G, G.min(axis=0))).max() <= 1e-12

    @pytest.mark.parametrize("m", [400, 800])
    def test_many_points_of_the_sphere_octant(self, monkeypatch, m):
        # No point dominates another, so every triple of the m points would
        # be a candidate; the working sets evaluate a few hundred triangles.
        # The KKT conditions at the returned point certify it.
        G = np.abs(np.random.default_rng(0).normal(size=(m, 3)))
        G = np.vstack([G / np.linalg.norm(G, axis=1, keepdims=True), np.zeros(3)])
        triangles = []
        candidates = _logmax._candidates

        def recorded(U, S):
            if len(S) == 3:
                triangles.append(S.shape[1] * U.shape[2])
            return candidates(U, S)

        monkeypatch.setattr(_logmax, "_candidates", recorded)
        x = sol.nash_solution(pt.Polytope(G))
        assert (G / x).sum(axis=1).max() <= 3.0 * (1.0 + 1e-12)
        assert 0 < sum(triangles) <= 10**4

    @pytest.mark.parametrize("delta", [1e-9, 1e-7, 1e-5])
    def test_vertex_next_to_an_interior_optimum_does_not_tie(self, delta):
        # On the edge (1 - t, 1 + t (1 + delta)) the product peaks at
        # t = delta / (2 (1 + delta)), about delta / 2 from the vertex (1, 1),
        # where the product is flat to about delta^2.
        G = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0 + delta]])
        t = delta / (2.0 * (1.0 + delta))
        for x in (sol.nash_solution(pt.coco_hull(G)), nash_point_on_chain(G, G.min(axis=0))):
            assert np.abs(x - [1.0 - t, 1.0 + t * (1.0 + delta)]).max() <= 1e-15


class TestSupportingSimplex:
    def test_unit_simplex_supports_itself(self):
        A = sol.supporting_simplex(UNIT_SIMPLEX)
        assert np.allclose(A.scale, [0.5, 0.5], atol=1e-8)
        assert np.allclose(A.base, [0, 0])

    def test_cake_set_gives_justifying_game(self):
        A = sol.supporting_simplex(CAKE)
        # Rendered as a polytope this is coco{(0,0),(1,0),(0,2)}.
        assert np.allclose(A.scale, [0.5, 1.0], atol=1e-8)
        assert np.allclose(A.base, [0.0, 0.0])
        assert pt.dominates(A.as_polytope(), CAKE)

    def test_triangle_supports_itself(self):
        B = pt.coco_hull([[0, 0], [2, 0], [0, 6]])
        A = sol.supporting_simplex(B)
        assert np.allclose(A.scale, [1.0, 3.0], atol=1e-7)
        assert np.allclose(A.base, [0, 0])


class TestEquitableContains:
    def test_cake_perles_maschler_point(self):
        v = sol.equitable_contains(CAKE, [0.75, 0.5])
        assert v.is_member
        # The stated justification: translation (1/2, 0), apexes (1,0), (1/2,1).
        assert np.allclose(v.certificate.witness.base, [0.5, 0.0], atol=1e-9)
        assert np.allclose(v.certificate.witness.scale, [0.25, 0.5], atol=1e-9)
        assert sol.validate_certificate(CAKE, [0.75, 0.5], v.certificate)

    def test_cake_nash_point_and_named_witness(self):
        v = sol.equitable_contains(CAKE, [0.5, 1.0])
        assert v.is_member
        assert sol.validate_certificate(CAKE, [0.5, 1.0], v.certificate)
        named = pt.SimplexGame([0.5, 1.0], [0.0, 0.0])  # coco{(0,0),(1,0),(0,2)}
        cert = sol.EquitabilityCertificate(named, pt.fair_outcome(named))
        assert sol.validate_certificate(CAKE, [0.5, 1.0], cert)

    def test_unit_simplex_center(self):
        v = sol.equitable_contains(UNIT_SIMPLEX, [0.5, 0.5])
        assert v.is_member

    def test_three_person_blocked_point(self):
        v = sol.equitable_contains(THREE_PERSON, [1 / 3, 1 / 3, 1.0])
        assert v.status == sol.NON_MEMBER
        # The direct grid search agrees: no translation works at depth 64.
        assert witness_grid_search(THREE_PERSON.generators, [1 / 3, 1 / 3, 1.0], 64) is None

    def test_inefficient_point_certified_out(self):
        v = sol.equitable_contains(CAKE, [0.5, 0.5])
        assert v.status == sol.NON_MEMBER

    def test_outside_point_raises(self):
        with pytest.raises(ValueError, match="outside"):
            sol.equitable_contains(CAKE, [1.2, 1.2])

    def test_zero_coordinate_vertex_excluded(self):
        s3 = pt.coco_hull(np.vstack([np.zeros(3), np.eye(3)]))
        v = sol.equitable_contains(s3, [1.0, 0.0, 0.0])
        assert v.status == sol.NON_MEMBER

    def test_lp_decision_matches_grid_oracle_n3(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(25):
            B = pt.Polytope(random_normalized_polytope(rng, n=3, max_vertices=4))
            # Probe efficient points: vertices and pair midpoints.
            pts = [g for g in B.generators if pt.is_pareto_efficient(B, g)]
            for x in pts:
                if np.any(x - B.disagreement <= 1e-9):
                    continue
                v = sol.equitable_contains(B, x)
                oracle = witness_grid_search(B.generators, x, steps=48)
                if v.is_member:
                    assert sol.validate_certificate(B, x, v.certificate)
                else:
                    assert oracle is None
                checked += 1
        assert checked >= 20

    def test_members_match_lemma_characterization_2d(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            B = pt.Polytope(random_normalized_polytope(rng, n=2))
            mid = sol.random_dictator_point(B)
            segs = sol.equitable_set_2d(B)
            for a, b in segs:
                for t in (0.0, 0.33, 1.0):
                    x = a + t * (b - a)
                    v = sol.equitable_contains(B, x)
                    assert v.is_member
                    assert np.all(x >= mid - 1e-9)


class TestEquitableSet2d:
    def test_cake_segment_endpoints(self):
        segs = sol.equitable_set_2d(CAKE)
        assert len(segs) == 1
        a, b = segs[0]
        assert np.allclose(a, [0.5, 1.0], atol=1e-9)
        assert np.allclose(b, [0.75, 0.5], atol=1e-9)

    def test_unit_simplex_single_point(self):
        segs = sol.equitable_set_2d(UNIT_SIMPLEX)
        assert len(segs) == 1
        a, b = segs[0]
        assert np.allclose(a, [0.5, 0.5]) and np.allclose(b, [0.5, 0.5])

    def test_skewed_triangle_single_point(self):
        segs = sol.equitable_set_2d(pt.coco_hull([[0, 0], [4, 0], [0, 2]]))
        a, b = segs[0]
        assert np.allclose(a, [2.0, 1.0], atol=1e-9)
        assert np.allclose(b, [2.0, 1.0], atol=1e-9)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            sol.equitable_set_2d(THREE_PERSON)


class TestNashSustainable:
    def test_equals_equitable_on_examples(self):
        v = sol.nash_sustainable_contains(CAKE, [0.5, 1.0])
        assert v.is_member
        v = sol.nash_sustainable_contains(THREE_PERSON, [1 / 3, 1 / 3, 1.0])
        assert v.status == sol.NON_MEMBER

    def test_statuses_match_equitable_on_random_points(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            n = int(rng.integers(2, 4))
            B = pt.Polytope(random_normalized_polytope(rng, n=n))
            for g in B.generators:
                if np.any(g <= B.disagreement + 1e-9) or not pt.contains(B, g):
                    continue
                s1 = sol.equitable_contains(B, g).status
                s2 = sol.nash_sustainable_contains(B, g).status
                assert s1 == s2


class TestAxiomSuite:
    def test_cake_scale_invariance_and_consistency(self):
        a, z = np.array([2.0, 1.0]), np.array([1.0, 0.0])
        mapped = pt.Polytope(CAKE.generators * a + z)
        members = 0
        for x in np.array([[0.5, 1.0], [0.75, 0.5], [0.25, 0.5]]):
            verdict = sol.equitable_contains(CAKE, x)
            # Scale invariance: the verdict commutes with a positive affine map.
            assert sol.equitable_contains(mapped, a * x + z).status == verdict.status
            # Justifiability: every member's certificate validates on its own.
            if verdict.is_member:
                members += 1
                assert sol.validate_certificate(CAKE, x, verdict.certificate)
        assert members
        # Consistency: the fair point of the supporting simplex game is a member.
        assert sol.equitable_contains(CAKE, pt.fair_outcome(sol.supporting_simplex(CAKE))).is_member

    def test_simplex_symmetry(self):
        # On the unit simplex the equal split is a member and no vertex is.
        assert sol.equitable_contains(UNIT_SIMPLEX, [0.5, 0.5]).is_member
        for vertex in np.eye(2):
            assert sol.equitable_contains(UNIT_SIMPLEX, vertex).status == sol.NON_MEMBER


def test_three_by_four_lindahl_payoff_is_a_member():
    # At this Nash payoff the witness LP once raised "primal feasibility
    # lost after pivoting".
    P = mk.CollectiveProblem(
        [
            [0, 0.9536591167658266, 0.4768295583829133, 2.86097735029748],
            [0.07045017975754432, 0.42270107854526595, 0, 0.21135053927263298],
            [0.3276646891450957, 0.21844312609673047, 0.43688625219346094, 0.05461078152418262],
        ]
    )
    cert = mk.lindahl_from_nash(P, np.zeros(3))
    assert sol.equitable_contains(mk.bargaining_of(P), cert.payoffs).status == sol.MEMBER


def _witness_queries():
    """(B, x) pairs: on every fourth three-agent problem among the first 100 of
    the seed-2026 corpus, the sweep payoffs, their consecutive midpoints and
    convex combinations of 1-3 maximal generators; and the Nash points and
    four such combinations of random sets with 4 to 6 agents."""
    corpus = np.random.default_rng(2026)
    pick = np.random.default_rng(1)
    for t in range(100):
        u = random_collective(corpus, n=2 if t % 2 == 0 else 3)
        if t % 8 != 1:
            continue
        P = mk.CollectiveProblem(u)
        B = mk.bargaining_of(P)
        pay = np.array([c.payoffs for c in mk.sweep_lindahl_payoffs(P, 8)])
        for x in [*pay, *(0.5 * (pay[1:] + pay[:-1])), *frontier_mixes(B, pick, 20)]:
            yield B, x
    sets = np.random.default_rng(5)
    for n in (4, 5, 6):
        for _ in range(8):
            B = pt.Polytope(random_normalized_polytope(sets, n=n, max_vertices=8))
            if B.full_dimensional:
                yield B, sol.nash_solution(B)
                yield from ((B, x) for x in frontier_mixes(B, pick, 4))


def _spy_witness_lps(monkeypatch):
    """Record the shape of every LP that `_witness_lp` solves."""
    shapes = []
    real = sol.lp.solve

    def spy(c, A, b):
        if sys._getframe(1).f_code.co_name == "_witness_lp":
            shapes.append(np.shape(A))
        return real(c, A, b)

    monkeypatch.setattr(sol.lp, "solve", spy)
    return shapes


class TestWitnessLp:
    def test_equals_the_slack_variable_lp(self, monkeypatch):
        shapes = _spy_witness_lps(monkeypatch)
        counts = {True: 0, False: 0}
        lps = {}
        for B, x in _witness_queries():
            if not reaches_witness_lp(B, x):
                continue
            before = len(shapes)
            ok, c, v = sol._witness_lp(B, x, EPS_GEOM)
            lps[B.dim] = lps.get(B.dim, 0) + len(shapes) - before
            assert all(cols == B.dim + 1 for _, cols in shapes[before:])
            ok_ref, _, v_ref = witness_lp_slack(B, x, EPS_GEOM)
            assert ok == ok_ref
            assert abs(v - v_ref) <= 1e-12
            if ok:
                cert = sol._certify(B, x, pt.SimplexGame(x - c, c), EPS_GEOM)
                assert sol.validate_certificate(B, x, cert)
            counts[ok] += 1
        assert counts[True] > 1000 and counts[False] > 50
        assert sorted(lps) == [3, 4, 5, 6] and min(lps.values()) > 0

    def test_rows_join_until_every_subset_holds(self, monkeypatch):
        shapes = _spy_witness_lps(monkeypatch)
        # At the Nash point (1, 1, .5) every subset row holds at tau = 1:
        # no LP runs, and the base is d exactly.
        v = sol.equitable_contains(THREE_PERSON, [1.0, 1.0, 0.5])
        assert v.is_member and shapes == []
        assert np.array_equal(v.certificate.witness.base, np.zeros(3))
        # In units of x - d = (5/6, 5/6, 5/8) the maximal generators are
        # (1.2, 1.2, .8) and (.4, .4, 1.6).  At tau = 1 only the first
        # exceeds n, by .2 over S = {0, 1, 2}; the LP raises tau_2, which
        # pushes the second over n, so its row joins in a second round.
        # Each LP has n + 1 columns and one row more than it has subsets.
        x = [5 / 6, 5 / 6, 5 / 8]
        v = sol.equitable_contains(THREE_PERSON, x)
        assert v.is_member and shapes == [(2, 4), (3, 4)]
        assert sol.validate_certificate(THREE_PERSON, x, v.certificate)

    @pytest.mark.parametrize("n", [10, 12])
    def test_rows_stay_few_at_many_agents(self, n, monkeypatch):
        # Enumerated, the subset rows that can bind would number 776-2160
        # per query at n = 10 and 1273-7552 at n = 12.  Generated, they
        # stay below the slack-variable LP's m (n + 1) rows over the m
        # maximal generators.
        B = pt.Polytope(random_normalized_polytope(np.random.default_rng(5), n=n, max_vertices=3 * n))
        m = len(pt._maximal_rows(B.generators))
        mixes = frontier_mixes(B, np.random.default_rng(1), 60)
        queries = [x for x in mixes if reaches_witness_lp(B, x)][:8]
        assert len(queries) == 8
        shapes = _spy_witness_lps(monkeypatch)
        members = 0
        for x in [sol.nash_solution(B), *queries]:
            ok, c, v = sol._witness_lp(B, x, EPS_GEOM)
            ok_ref, _, v_ref = witness_lp_slack(B, x, EPS_GEOM)
            assert ok == ok_ref and abs(v - v_ref) <= 1e-12
            if ok:
                cert = sol._certify(B, x, pt.SimplexGame(x - c, c), EPS_GEOM)
                assert sol.validate_certificate(B, x, cert)
                members += 1
        assert members >= 1 and shapes
        assert all(rows <= m * (n + 1) and cols == n + 1 for rows, cols in shapes)


def _corpus_25_payoff():
    rng = np.random.default_rng(2026)
    for t in range(26):
        u = random_collective(rng, n=2 if t % 2 == 0 else 3)
    P = mk.CollectiveProblem(u)
    return mk.bargaining_of(P), mk.lindahl_from_nash(P, np.array([0.25, 0.0, 0.25])).payoffs


@pytest.mark.parametrize("eps", [1e-11, 1e-10, 1e-9])
def test_perturbed_corpus_25_payoffs_are_certified_members(eps):
    # The slack-variable witness LP raised "phase 1 reported unbounded" on
    # 1, 9 and 7 of these draws.
    B, x0 = _corpus_25_payoff()
    assert np.allclose(x0, [0.70814563, 0.67703641, 0.73981797], atol=1e-8)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = x0 + rng.uniform(-eps, eps, 3)
        v = sol.equitable_contains(B, x)
        assert v.is_member
        assert sol.validate_certificate(B, x, v.certificate)


def test_generators_pushed_out_by_up_to_tol_keep_their_verdict():
    # `contains` admits a maximal generator pushed up to tol outside B.  The
    # witness LP at such a point raised "primal feasibility lost after
    # pivoting" on 8 of these 748 points, and 12 more got a verdict unlike
    # their generator's; it now runs on B's boundary below the point.
    rng = np.random.default_rng(0)
    for t in range(100):
        B = pt.Polytope(random_normalized_polytope(rng, n=3 + t % 3, max_vertices=8))
        for g in pt._maximal_rows(B.generators):
            status = sol.equitable_contains(B, g).status
            for u in (0.5, 0.9):
                x = g + u * EPS_GEOM
                v = sol.equitable_contains(B, x)
                assert v.status == status, (t, g, u)
                if v.is_member:
                    assert sol.validate_certificate(B, x, v.certificate)


@pytest.mark.parametrize("base", [1e5, 1e6])
def test_scaled_sweep_payoffs_are_certified_members(base):
    # The slack-variable witness LP raised on 36 and 69 of these 331
    # payoffs, mostly "primal feasibility lost after pivoting".
    checked = 0
    for u in scaled_sample(base):
        P = mk.CollectiveProblem(u)
        B = mk.bargaining_of(P)
        for cert in mk.sweep_lindahl_payoffs(P, 6):
            v = sol.equitable_contains(B, cert.payoffs)
            assert v.is_member
            assert sol.validate_certificate(B, cert.payoffs, v.certificate)
            checked += 1
    assert checked == 331
