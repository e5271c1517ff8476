"""The cached facets of a bargaining set against the LP forms of its predicates.

`Polytope.facets` turns domination slack, membership, set domination,
efficiency and the two-agent supporting normal into closed-form reads.
The LP forms stay in `polytope` and `solutions` for sets above
`FACET_SUBSET_LIMIT`; here they are the reference, on the corpus
bargaining sets, random sets with duplicated, dominated and flat
generators, singletons and one set above the limit.
"""
import numpy as np
import pytest

from ccm import lp
from ccm import market as mk
from ccm import polytope as pt
from ccm import solutions as sol
from ccm.tolerances import EPS_GEOM

from _oracles import random_collective, random_normalized_polytope


def _lp_contains(B, x, tol=EPS_GEOM):
    return bool(np.all(x >= B.disagreement - tol)) and pt._domination_slack_lp(B, x) >= -tol


def _lp_dominates(A, B, tol=EPS_GEOM):
    return bool(np.all(A.disagreement >= B.disagreement - tol)) and all(
        pt._domination_slack_lp(A, y) >= -tol for y in B.generators
    )


def _queries(B, rng, count=4):
    """Generators, random box points and their pushes onto the boundary."""
    d, top = B.disagreement, B.bliss
    box = d + rng.uniform(-0.1, 1.1, (count, B.dim)) * (top - d)
    w = rng.dirichlet(np.ones(len(B.generators)), count)
    inner = w @ B.generators - rng.uniform(0, 0.2, (count, B.dim)) * (top - d)
    pts = np.vstack([B.generators, box, inner])
    pushed = [y + pt._domination_slack_lp(B, y) for y in pts]
    return np.vstack([pts, pushed])


def _check_structure(B):
    A, b = B.facets
    assert A.ndim == 2 and A.shape == (len(b), B.dim)
    assert np.all(A >= 0)
    assert np.allclose(A.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(b, (B.generators @ A.T).max(axis=0), rtol=0, atol=1e-12)


def _check_predicates(B, X):
    """Every facet read agrees with its LP form on the points X."""
    _check_structure(B)
    for x in X:
        slack = pt._domination_slack_lp(B, x)
        assert abs(pt.domination_slack(B, x) - slack) <= 1e-12 * (1.0 + np.abs(x).max())
        member = pt.contains(B, x)
        assert member == _lp_contains(B, x)
        if member:
            assert pt.is_pareto_efficient(B, x) == pt._is_pareto_efficient_lp(B, x, EPS_GEOM), x


def _check_equitable(B, X, monkeypatch):
    """equitable_contains gives the verdicts of the all-LP route, with valid witnesses."""
    for x in X:
        if not pt.contains(B, x):
            continue
        verdict = sol.equitable_contains(B, x)
        with monkeypatch.context() as m:
            m.setattr(pt, "FACET_SUBSET_LIMIT", 0)
            reference = sol.equitable_contains(pt.Polytope(B.generators), x)
        assert verdict.status == reference.status, x
        if verdict.is_member:
            assert sol.validate_certificate(B, x, verdict.certificate)


def _corpus_sets(count):
    rng = np.random.default_rng(2026)
    return [
        mk.bargaining_of(mk.CollectiveProblem(random_collective(rng, n=2 if t % 2 == 0 else 3)))
        for t in range(count)
    ]


def test_corpus_sets_agree_with_lp_forms(monkeypatch):
    rng = np.random.default_rng(0)
    for t, B in enumerate(_corpus_sets(200)):
        X = _queries(B, rng, count=2)
        _check_predicates(B, X)
        shrunk = pt.Polytope(B.disagreement + 0.9 * (B.generators - B.disagreement))
        assert pt.dominates(B, shrunk) and _lp_dominates(B, shrunk)
        assert pt.dominates(shrunk, B) == _lp_dominates(shrunk, B)
        if t % 10 == 0 and B.full_dimensional:
            _check_equitable(B, np.vstack([X[len(X) // 2 :], sol.nash_solution(B)]), monkeypatch)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_sets_with_duplicated_dominated_and_flat_generators(n, monkeypatch):
    rng = np.random.default_rng(10 + n)
    for trial in range(25):
        G = random_normalized_polytope(rng, n=n, max_vertices=7)
        extra = [G[: int(rng.integers(1, len(G) + 1))]]  # duplicates
        extra.append(G[:2] * rng.uniform(0.3, 1.0, (min(2, len(G)), n)))  # dominated
        if trial % 3 == 0:  # flat: one coordinate constant
            G = G.copy()
            G[:, int(rng.integers(0, n))] = 0.5
        G = np.vstack([G, *extra])
        B = pt.Polytope(G[rng.permutation(len(G))])
        X = _queries(B, rng)
        _check_predicates(B, X)
        other = pt.Polytope(random_normalized_polytope(rng, n=n))
        assert pt.dominates(other, B) == _lp_dominates(other, B)
        assert pt.dominates(B, other) == _lp_dominates(B, other)
        if n >= 2 and B.full_dimensional and trial % 5 == 0:
            _check_equitable(B, X[len(X) // 2 :], monkeypatch)


def test_singletons_and_boxes():
    for g in ([[2.0, 2.0]], [[1.0, 2.0, 3.0]], [[0.5]], [[0.0, 1.0], [1.0, 1.0]]):
        B = pt.coco_hull(g)
        shift = np.eye(B.dim)[0] * 0.1
        G = B.generators
        X = np.vstack([G, G - 0.25, G + shift, G - shift])
        _check_predicates(B, X)
    box = pt.coco_hull([[0.0, 0.0], [1.0, 1.0]])
    assert pt.contains(box, [0.5, 1.0])
    assert not pt.is_pareto_efficient(box, [0.5, 1.0])
    assert pt.is_pareto_efficient(box, [1.0, 1.0])


def test_two_agent_supporting_normal_supports():
    rng = np.random.default_rng(5)
    for B in _corpus_sets(40)[::2]:
        for x in _queries(B, rng):
            if np.any(x <= B.disagreement) or not pt.contains(B, x):
                continue
            if not pt.is_pareto_efficient(B, x):
                continue
            a = sol._supporting_normal(B, x)
            ref = sol._supporting_normal_lp(B, x)
            assert np.all(a > EPS_GEOM) and abs(a.sum() - 1.0) <= 1e-12
            assert np.all((B.generators - x) @ a <= 1e-9 * (1.0 + np.abs(x).max()))
            # The max-min normal; the LP's constraint slack lets it tilt a little further.
            assert min(a) >= min(ref) - 1e-6


def test_set_above_the_limit_takes_the_lp_route(monkeypatch):
    rng = np.random.default_rng(3)
    V = np.abs(rng.normal(size=(60, 3)))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    B = pt.coco_hull(V)
    assert B.facets is None
    calls = []
    original = lp.solve
    monkeypatch.setattr(lp, "solve", lambda *a: calls.append(1) or original(*a))
    X = _queries(B, rng, count=3)[::4]
    flags = [(pt.contains(B, x), pt.domination_slack(B, x)) for x in X]
    assert len(calls) >= len(X)
    monkeypatch.setattr(lp, "solve", original)
    with monkeypatch.context() as m:
        m.setattr(pt, "FACET_SUBSET_LIMIT", 10**6)
        big = pt.Polytope(B.generators)
        assert big.facets is not None
    for x, (member, slack) in zip(X, flags):
        assert pt.contains(big, x) == member
        assert abs(pt.domination_slack(big, x) - slack) <= 1e-12
        if member:
            assert pt.is_pareto_efficient(big, x) == pt.is_pareto_efficient(B, x)


def test_facets_are_built_once_per_instance(monkeypatch):
    seen = []
    original = pt._facets
    monkeypatch.setattr(pt, "_facets", lambda G: seen.append(G) or original(G))
    B = pt.coco_hull([[0, 0, 0], [1, 1, 0.5], [1 / 3, 1 / 3, 1]])
    x = sol.nash_solution(B)
    assert pt.contains(B, x) and pt.is_pareto_efficient(B, x)
    assert pt.dominates(B, B)
    assert sol.equitable_contains(B, x).is_member
    pt.domination_slack(B, x)
    assert B.facets is B.facets
    assert sum(G is B.generators for G in seen) == 1


def test_pareto_mask_matches_pairwise_definition():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        G = rng.integers(0, 5, size=(int(rng.integers(1, 12)), n)) / 4.0
        G = np.vstack([G, G[:3] + rng.choice([0, 1e-13, -1e-13, 5e-16], size=G[:3].shape)])
        want = [
            not any(
                j != i and np.all(h >= g - 1e-15) and np.any(h > g + 1e-12)
                for j, h in enumerate(G)
            )
            for i, g in enumerate(G)
        ]
        assert pt._pareto_mask(G, 1e-15, 1e-12).tolist() == want
        exact = pt._maximal_rows(G)
        assert len(np.unique(exact, axis=0)) == len(exact)
        assert all(not np.any(np.all(G >= v, axis=1) & np.any(G > v, axis=1)) for v in exact)
