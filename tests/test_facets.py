"""The cached facets of a bargaining set against the LP forms of its predicates.

`Polytope.facets` turns domination slack, membership, set domination,
efficiency and the two-agent supporting normal into closed-form reads.
Sets of three or more agents above `FACET_SUBSET_LIMIT` have no facets
and solve LPs over normals (`polytope._domination_slack_lp`,
`polytope._is_pareto_efficient_lp`).  Here the generator-weight LP forms
(`_oracles.domination_slack_lp`, `_oracles.is_pareto_efficient_lp`) are
the reference for both routes, on the corpus bargaining sets, random sets
with duplicated, dominated and flat generators, singletons and sets
above the limit, among them an 8-agent matching set.  Two-agent sets
read their facets off the frontier chain at every size; the subset pass,
the tolerance-based frontier chain (`_oracles.frontier_chain_tol`) and
the LP supporting normal (`_oracles.supporting_normal_lp`) are their
references, on the sets above, quarter circles, the fixtures and one
two-agent set far above the limit.
"""
import json
import os
import sys
from math import comb

import numpy as np
import pytest

from ccm import cli
from ccm import lp
from ccm import market as mk
from ccm import matching as mt
from ccm import polytope as pt
from ccm import solutions as sol
from ccm.tolerances import EPS_GEOM

from _oracles import (
    domination_slack_lp,
    frontier_chain_tol,
    frontier_mixes,
    is_pareto_efficient_lp,
    random_collective,
    random_normalized_polytope,
    supporting_normal_lp,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def _lp_contains(B, x, tol=EPS_GEOM):
    return bool(np.all(x >= B.disagreement - tol)) and domination_slack_lp(B, x) >= -tol


def _lp_dominates(A, B, tol=EPS_GEOM):
    return bool(np.all(A.disagreement >= B.disagreement - tol)) and all(
        domination_slack_lp(A, y) >= -tol for y in B.generators
    )


def _queries(B, rng, count=4):
    """Generators, random box points and their pushes onto the boundary."""
    d, top = B.disagreement, B.bliss
    box = d + rng.uniform(-0.1, 1.1, (count, B.dim)) * (top - d)
    w = rng.dirichlet(np.ones(len(B.generators)), count)
    inner = w @ B.generators - rng.uniform(0, 0.2, (count, B.dim)) * (top - d)
    pts = np.vstack([B.generators, box, inner])
    pushed = [y + pt.domination_slack(B, y) for y in pts]
    return np.vstack([pts, pushed])


def _check_structure(B):
    A, b = B.facets
    assert A.ndim == 2 and A.shape == (len(b), B.dim)
    assert np.all(A >= 0)
    assert np.allclose(A.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(b, (B.generators @ A.T).max(axis=0), rtol=0, atol=1e-12)


def _facet_free(B):
    """A copy of B without facets, so that its predicates solve LPs at every n."""
    free = pt.Polytope(B.generators)
    free.__dict__["facets"] = None
    return free


def _check_predicates(B, X):
    """Every facet read agrees with the LP over normals and the generator-weight LP on X."""
    _check_structure(B)
    free = _facet_free(B)
    for x in X:
        slack = pt.domination_slack(B, x)
        reference = domination_slack_lp(B, x)
        bound = 1e-12 * (1.0 + np.abs(x).max())
        assert abs(reference - slack) <= bound
        assert abs(pt.domination_slack(free, x) - slack) <= bound
        member = pt.contains(B, x)
        lp_member = bool(np.all(x >= B.disagreement - EPS_GEOM)) and reference >= -EPS_GEOM
        assert member == lp_member == pt.contains(free, x)
        if member:
            efficient = pt.is_pareto_efficient(B, x)
            assert efficient == is_pareto_efficient_lp(B, x) == pt.is_pareto_efficient(free, x), x


def _two_agent_lp_status(B, x, tol=EPS_GEOM):
    """The two-agent verdict by LP: efficiency, midpoint domination, an LP-normal witness."""
    d = B.disagreement
    assert _lp_contains(B, x)
    if np.any(x - d <= tol) or np.any(x < sol.random_dictator_point(B) - tol):
        return sol.NON_MEMBER
    if not is_pareto_efficient_lp(B, x, tol):
        return sol.NON_MEMBER
    a = supporting_normal_lp(B, x)
    c = np.maximum(x - float(np.min(a * (x - d))) / a, d)
    witness = pt.SimplexGame(x - c, c)
    cert = sol.EquitabilityCertificate(witness, pt.fair_outcome(witness))
    assert sol.validate_certificate(B, x, cert), x
    return sol.MEMBER


def _check_equitable(B, X, monkeypatch):
    """equitable_contains gives the verdicts of the all-LP route, with valid witnesses.

    Two-agent sets have facets at every size, so their LP route is spelled
    out in `_two_agent_lp_status`; larger sets take it with no facets.
    """
    for x in X:
        if not pt.contains(B, x):
            continue
        verdict = sol.equitable_contains(B, x)
        if B.dim == 2:
            reference = _two_agent_lp_status(B, x)
        else:
            with monkeypatch.context() as m:
                m.setattr(pt, "FACET_SUBSET_LIMIT", 0)
                reference = sol.equitable_contains(pt.Polytope(B.generators), x).status
        assert verdict.status == reference, x
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


def _random_set(rng, n, trial):
    """A random set with duplicated and dominated generators, flat on every third trial."""
    G = random_normalized_polytope(rng, n=n, max_vertices=7)
    extra = [G[: int(rng.integers(1, len(G) + 1))]]  # duplicates
    extra.append(G[:2] * rng.uniform(0.3, 1.0, (min(2, len(G)), n)))  # dominated
    if trial % 3 == 0:  # flat: one coordinate constant
        G = G.copy()
        G[:, int(rng.integers(0, n))] = 0.5
    G = np.vstack([G, *extra])
    return pt.Polytope(G[rng.permutation(len(G))])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_sets_with_duplicated_dominated_and_flat_generators(n, monkeypatch):
    rng = np.random.default_rng(10 + n)
    for trial in range(25):
        B = _random_set(rng, n, trial)
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
            ref = supporting_normal_lp(B, x)
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


def _spy_lp_calls(monkeypatch):
    """Record (columns, least right-hand side) of every `lp.solve` call made from the package."""
    calls = []
    original = lp.solve

    def spy(c, A, b):
        if sys._getframe(1).f_globals["__name__"].startswith("ccm."):
            calls.append((np.shape(A)[1], float(np.min(b))))
        return original(c, A, b)

    monkeypatch.setattr(lp, "solve", spy)
    return calls


def _set_above_the_limit(rng, n, near):
    """A random set of n agents without facets; with `near`, four of its
    maximal generators also appear moved by 1e-16 to 1e-13."""
    while True:
        G = random_normalized_polytope(rng, n=n, max_vertices=12 * n)
        if near:
            V = pt._maximal_rows(G)[:4]
            step = rng.choice([1e-16, 1e-15, 1e-14, 1e-13], (len(V), 1))
            G = np.vstack([G, V + step * rng.uniform(-1.0, 1.0, V.shape)])
        B = pt.Polytope(G)
        if B.facets is None:
            return B


@pytest.mark.parametrize("n", [4, 5])
def test_sets_above_the_limit_agree_with_their_facets(n, monkeypatch):
    # The same generators decided by LPs over normals (default limit) and by
    # facets (limit 10**6).  Points pushed up to tol outside B still count
    # as members; the efficiency LP then runs at x moved onto B's boundary.
    # equitable_contains is compared on the points not pushed out: at a
    # maximal generator pushed out, `_witness_lp` itself can raise
    # "primal feasibility lost after pivoting" on either route.
    rng = np.random.default_rng(40 + n)
    calls = _spy_lp_calls(monkeypatch)
    seen = {"efficient": 0, "inefficient": 0, sol.MEMBER: 0, sol.NON_MEMBER: 0}
    for trial in range(4):
        B = _set_above_the_limit(rng, n, near=trial % 2 == 1)
        with monkeypatch.context() as m:
            m.setattr(pt, "FACET_SUBSET_LIMIT", 10**6)
            big = pt.Polytope(B.generators)
            assert big.facets is not None
        pts = np.vstack([_queries(B, rng, count=3), list(frontier_mixes(B, rng, 12))])
        out = np.array([y + pt.domination_slack(B, y) for y in pts])
        out += rng.uniform(0.0, 0.9 * EPS_GEOM, (len(pts), 1))
        inside = np.vstack([pts, sol.nash_solution(B)])
        for j, x in enumerate(np.vstack([inside, out])):
            slack = pt.domination_slack(big, x)
            assert abs(pt.domination_slack(B, x) - slack) <= 1e-12 * (1.0 + np.abs(x).max())
            member = pt.contains(big, x)
            assert pt.contains(B, x) == member
            if not member:
                continue
            efficient = pt.is_pareto_efficient(big, x)
            assert pt.is_pareto_efficient(B, x) is efficient, x
            seen["efficient" if efficient else "inefficient"] += 1
            if j >= len(inside):
                continue
            verdict = sol.equitable_contains(B, x)
            assert sol.equitable_contains(big, x).status == verdict.status, x
            seen[verdict.status] += 1
            if verdict.is_member:
                assert sol.validate_certificate(B, x, verdict.certificate)
    assert min(seen.values()) > 0, seen
    assert calls and all(cols == n + 1 and least >= 0.0 for cols, least in calls)


def _eight_agent_matching_set():
    w = np.random.default_rng(3).uniform(0, 1, (8, 8))
    np.fill_diagonal(w, 0.0)
    return mk.bargaining_of(mt.to_collective(mt.MatchingProblem(mt.all_involutions(8), w)))


def test_eight_agent_matching_points_are_screened(monkeypatch):
    # The generator-weight efficiency LP, run by the tableau simplex,
    # exceeded its pivot limit on 11 of these 40 points.
    B = _eight_agent_matching_set()
    V = pt._maximal_rows(B.generators)
    assert B.facets is None and V.shape == (69, 8)
    calls = _spy_lp_calls(monkeypatch)
    r = np.random.default_rng(1)
    seen = {sol.MEMBER: 0, sol.NON_MEMBER: 0}
    for _ in range(40):
        k = r.integers(1, 4)
        idx = r.choice(69, k, replace=False)
        x = r.dirichlet(np.ones(k)) @ V[idx]
        verdict = sol.equitable_contains(B, x)
        seen[verdict.status] += 1
        if verdict.is_member:
            assert sol.validate_certificate(B, x, verdict.certificate)
        if k > 1:
            assert pt.is_pareto_efficient(B, x) == is_pareto_efficient_lp(B, x), x
    assert min(seen.values()) > 0, seen
    assert all(cols == 9 and least >= 0.0 for cols, least in calls)


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


def test_maximal_rows_match_pairwise_definition():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        G = rng.integers(0, 5, size=(int(rng.integers(1, 12)), n)) / 4.0
        G = np.vstack([G, G[:3] + rng.choice([0, 1e-13, -1e-13, 5e-16], size=G[:3].shape)])
        exact = pt._maximal_rows(G)
        assert len(np.unique(exact, axis=0)) == len(exact)
        assert all(not np.any(np.all(G >= v, axis=1) & np.any(G > v, axis=1)) for v in exact)


def _quarter_circle(m):
    theta = np.linspace(0.0, np.pi / 2, m)
    return pt.Polytope(np.column_stack([np.cos(theta), np.sin(theta)]))


def _two_agent_sets():
    """Corpus, random, quarter-circle and fixture sets with two agents."""
    sets = _corpus_sets(400)[::2]
    rng = np.random.default_rng(12)
    sets += [_random_set(rng, 2, trial) for trial in range(200)]
    sets += [_quarter_circle(m) for m in (5, 6, 12, 30, 64, 90)]
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name)) as fh:
            B = cli._bargaining_of(json.load(fh))
        if B.dim == 2:
            sets.append(B)
    return sets


def test_two_agent_facets_equal_the_subset_pass():
    sets = _two_agent_sets()
    assert len(sets) > 400
    for B in sets:
        G = B.generators
        A, b = B.facets
        A0, b0 = pt._subset_facets(pt._maximal_rows(G))
        assert A.shape == A0.shape, G
        assert np.abs(A - A0).max() <= 1e-12 and np.abs(b - b0).max() <= 1e-12, G
        chain = pt._frontier_chain(G)
        assert chain.shape[1] == 2
        assert np.array_equal(chain, np.array(frontier_chain_tol(G))), G


def test_two_agent_set_above_the_subset_limit_runs_no_lp(monkeypatch):
    m = 400
    assert comb(m + 2, 2) > pt.FACET_SUBSET_LIMIT
    B = _quarter_circle(m)
    assert B.facets is not None
    rng = np.random.default_rng(4)
    G = B.generators
    box = rng.uniform(-0.1, 1.1, (4, 2))
    inner = rng.dirichlet(np.ones(m), 4) @ G - rng.uniform(0, 0.2, (4, 2))
    pts = np.vstack([G[::50], box, inner])
    X = np.vstack([pts, [y + domination_slack_lp(B, y) for y in pts]])
    _check_predicates(B, X)
    # Arc points above and below the midpoint benchmark (0.5, 0.5).
    probes = G[[200, 150, 20, 390]]
    verdicts = [sol.equitable_contains(B, x).status for x in probes]
    assert verdicts == [sol.MEMBER, sol.MEMBER, sol.NON_MEMBER, sol.NON_MEMBER]
    assert verdicts == [_two_agent_lp_status(B, x) for x in probes]

    def no_lp(*args):
        raise AssertionError("a two-agent set ran an LP")

    monkeypatch.setattr(lp, "solve", no_lp)
    fresh = _quarter_circle(m)
    assert [sol.equitable_contains(fresh, x).status for x in probes] == verdicts
    for x in X:
        if pt.contains(fresh, x):
            pt.is_pareto_efficient(fresh, x)
    assert pt.dominates(fresh, B) and pt.dominates(B, fresh)
    assert not pt.dominates(pt.Polytope(0.9 * G), fresh)
    assert sol.equitable_set_2d(fresh)
