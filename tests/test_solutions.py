import numpy as np
import pytest

from ccm import polytope as pt
from ccm import solutions as sol

from _oracles import (
    nash_point_grid_2d,
    random_normalized_polytope,
    witness_grid_search,
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
        report = sol.axiom_suite(
            CAKE,
            sample_points=[[0.5, 1.0], [0.75, 0.5], [0.25, 0.5]],
            transforms=[([2.0, 1.0], [1.0, 0.0])],
        )
        assert report.passed
        names = {c.name for c in report.checks}
        assert {"scale_invariance", "consistency", "justifiability"} <= names

    def test_simplex_symmetry(self):
        report = sol.axiom_suite(UNIT_SIMPLEX, sample_points=[[0.5, 0.5]], transforms=[])
        sym = [c for c in report.checks if c.name == "symmetry"]
        assert sym and sym[0].ok

    def test_rejects_nonpositive_transform(self):
        with pytest.raises(ValueError):
            sol.axiom_suite(CAKE, sample_points=[], transforms=[([1.0, -1.0], [0.0, 0.0])])
