"""The verifiers' closed-form consumer kernel against the LP path.

Each case runs a verifier twice on the same input: as shipped, and with
the batched kernel `lp.consumer_envelopes` replaced by a row loop over
the tableau LP path kept in tests/_oracles.py.  Both runs must give the same `passed` flag and the
same set of (condition, agent) pairs.  Cases are sweep certificates of
corpus problems, the certificates `ccm solve` writes for the fixtures,
and copies of both with one agent's prices doubled.
"""
import json
import os

import numpy as np
import pytest

from ccm import cli, lp
from ccm import exchange as ex
from ccm import market as mk
from ccm import matching as mt

from _oracles import consumer_lp_path, random_collective

DATA = os.path.join(os.path.dirname(__file__), "data")
CORPUS = 12  # first problems of the seed-2026 acceptance corpus


def _summary(verdict):
    return verdict.passed, {(v.condition, v.agent) for v in verdict.violations}


def _same_verdict(verify, *args):
    """The shipped verdict summary, after checking it against the LP path's."""
    shipped = _summary(verify(*args))
    calls = []

    def lp_rows(U, P):
        """`lp.consumer_envelopes` as a row loop over the LP path."""
        calls.append(len(U))
        rows = [consumer_lp_path(u, p) for u, p in zip(U, P)]
        value, cost = np.array(rows, dtype=float).reshape(-1, 2).T
        return value, cost

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "consumer_envelopes", lp_rows)
        oracle = _summary(verify(*args))
    assert calls, "the verifier never reached the consumer kernel"
    assert shipped == oracle
    return shipped


def _doubled(prices, agent):
    out = np.array(prices, dtype=float)
    out[agent] *= 2.0
    return out


@pytest.fixture(scope="module")
def corpus_sweeps():
    rng = np.random.default_rng(2026)
    out = []
    for t in range(CORPUS):
        n = 2 if t % 2 == 0 else 3
        P = mk.CollectiveProblem(random_collective(rng, n=n))
        out.append((P, mk.sweep_lindahl_payoffs(P, 64 if n == 2 else 8)))
    return out


def test_verify_lindahl_on_corpus_sweeps(corpus_sweeps):
    for P, certs in corpus_sweeps:
        for t, c in enumerate(certs):
            assert _same_verdict(mk.verify_lindahl, P, c.p, c.q) == (True, set())
            agent = t % P.n
            passed, pairs = _same_verdict(mk.verify_lindahl, P, _doubled(c.p, agent), c.q)
            assert not passed and ("budget", agent) in pairs


def test_verify_walras_matching_on_swept_matching_problems():
    rng = np.random.default_rng(8)
    done = 0
    while done < 12:
        n = int(rng.integers(2, 5))
        K = mt.all_involutions(n)
        keep = tuple(j for j in K if rng.uniform() < 0.75) or tuple(K)
        w = rng.integers(0, 5, size=(n, n)) / 2.0
        np.fill_diagonal(w, 0.0)
        try:
            M = mt.MatchingProblem(matchings=keep, w=w)
            P = mt.to_collective(M)
        except ValueError:
            continue
        for t, c in enumerate(mk.sweep_lindahl_payoffs(P, {2: 32, 3: 8, 4: 3}[n])):
            pi, xi, q = mt.lindahl_to_walras(M, c.p, c.q)
            assert _same_verdict(mt.verify_walras_matching, M, pi, xi, q) == (True, set())
            agent = t % n
            passed, pairs = _same_verdict(mt.verify_walras_matching, M, _doubled(pi, agent), xi, q)
            assert not passed and ("budget", agent) in pairs
        done += 1


def test_verify_walras_exchange_on_corpus_payoffs(corpus_sweeps):
    checked = 0
    for P, certs in corpus_sweeps:
        if P.n != 2:
            continue
        B = mk.bargaining_of(P)
        for c in certs[:: max(1, len(certs) // 6)]:
            E, prices, theta = ex.walras_from_equitable_two(B, c.payoffs)
            assert _same_verdict(ex.verify_walras_exchange, E, prices, theta) == (True, set())
            dear = ex.PackagePrices(names=E.names, additive=2.0 * prices.additive)
            passed, pairs = _same_verdict(ex.verify_walras_exchange, E, dear, theta)
            assert not passed and {("budget", 0), ("budget", 1)} <= pairs
            checked += 1
    assert checked >= 20


def test_verify_walras_exchange_on_office_equilibrium():
    E = ex.economy_from_bundle_values(
        3,
        ("o1", "o2", "o3"),
        [
            (0, [0], 10), (0, [1], 4), (0, [2], 2),
            (1, [0], 10), (1, [1], 7), (1, [2], 3),
            (2, [0], 10), (2, [1], 5), (2, [2], 1),
        ],
    )
    theta = ex.RandomAllocation((0.5, 0.5), ((1, 2, 4), (4, 2, 1)))
    for price, expect in (([2.0, 1.0, 0.0], True), ([4.0, 2.0, 0.0], False), ([0.0] * 3, False)):
        prices = ex.PackagePrices(names=E.names, additive=np.array(price))
        assert _same_verdict(ex.verify_walras_exchange, E, prices, theta)[0] is expect


@pytest.mark.parametrize(
    "fixture", ["town.json", "cakes.json", "pair.json", "office1.json", "office2.json"]
)
def test_verifiers_on_fixture_solve_certificates(fixture, tmp_path, capsys):
    path = os.path.join(DATA, fixture)
    out = tmp_path / "cert.json"
    assert cli.main(["solve", path, "--out", str(out)]) == 0
    capsys.readouterr()
    cert = json.loads(out.read_text())
    doc, _ = cli._load_problem(path)
    P = cli._collective_of(doc)
    p, q = np.array(cert["p"]), np.array(cert["q"])
    assert _same_verdict(mk.verify_lindahl, P, p, q) == (True, set())
    for agent in range(P.n):
        passed, pairs = _same_verdict(mk.verify_lindahl, P, _doubled(p, agent), q)
        assert not passed and ("budget", agent) in pairs
    if cert["kind"] == "walras_matching":
        M = cli._matching_of(doc)
        pi, xi = np.array(cert["pi"]), np.array(cert["xi"])
        assert _same_verdict(mt.verify_walras_matching, M, pi, xi, q) == (True, set())
        for agent in range(M.n):
            passed, pairs = _same_verdict(mt.verify_walras_matching, M, _doubled(pi, agent), xi, q)
            assert not passed and ("budget", agent) in pairs
