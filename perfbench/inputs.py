"""Input generators for the benchmark, built with numpy alone.

The sweep and audit problems are the seed-2026 acceptance corpus, drawn
exactly as the acceptance suite draws it (problem t has 2 agents when t
is even and 3 when t is odd; sweeps use 64 steps per axis for 2 agents
and 8 for 3).  The CLI problem files are fixed draws from their own
streams plus the fixtures in tests/data.

The run seed never changes a mathematical instance.  It relabels each
generated problem (outcome columns, matching order, good order, generator
order) and orders the items, so every seed does the same work on
differently written inputs.
"""
from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

CORPUS_SEED = 2026
CLI_SEED = 2027
FIXTURES = (
    "town.json",
    "cakes.json",
    "pair.json",
    "office1.json",
    "office2.json",
    "cakes-bargaining.json",
    "3person.json",
)


def random_collective(rng, n=None, kmax=6):
    """Uniform-grid utilities in eighths; every agent holds a stake.

    Consumes draws exactly as the acceptance corpus generator does.
    """
    if n is None:
        n = int(rng.integers(2, 4))
    while True:
        k = int(rng.integers(2, kmax + 1))
        u = rng.integers(0, 9, size=(n, k)) / 8.0
        if np.all(u.max(axis=1) > 0):
            return u


def corpus(count: int) -> list[np.ndarray]:
    """The first `count` utility matrices of the seed-2026 corpus."""
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_collective(rng, n=2 if t % 2 == 0 else 3) for t in range(count)]


def sweep_steps(n: int) -> int:
    return 64 if n == 2 else 8


def relabel_columns(u: np.ndarray, rng) -> np.ndarray:
    return u[:, rng.permutation(u.shape[1])]


def _two_sided_matchings(g1, g2) -> list[list[int]]:
    n = len(g1) + len(g2)
    out = set()
    for size in range(min(len(g1), len(g2)) + 1):
        for left in combinations(g1, size):
            for right in permutations(g2, size):
                j = list(range(n))
                for a, b in zip(left, right):
                    j[a], j[b] = b, a
                out.add(tuple(j))
    return [list(j) for j in sorted(out)]


def cli_documents(seed: int) -> dict[str, dict]:
    """Generated problem documents for the cli workload, keyed by file stem.

    The instances are fixed draws; `seed` only relabels them.
    """
    fixed = np.random.default_rng(CLI_SEED)
    relabel = np.random.default_rng([CLI_SEED, seed])
    docs: dict[str, dict] = {}

    for name, u in zip(("gen-collective-2", "gen-collective-3"), corpus(2)):
        docs[name] = {"type": "collective", "utilities": relabel_columns(u, relabel).tolist()}

    g1, g2 = (0, 1), (2, 3)
    w = np.zeros((4, 4))
    for a in g1:
        for b in g2:
            w[a, b] = fixed.integers(1, 9) / 4.0
            w[b, a] = fixed.integers(1, 9) / 4.0
    matchings = _two_sided_matchings(g1, g2)
    order = relabel.permutation(len(matchings))
    docs["gen-matching"] = {
        "type": "matching",
        "weights": w.tolist(),
        "matchings": [matchings[j] for j in order],
        "groups": [list(g1), list(g2)],
    }

    weights = fixed.integers(1, 9, size=(2, 3)) / 8.0
    goods = np.array(["g0", "g1", "g2"])
    order = relabel.permutation(3)
    docs["gen-economy"] = {
        "type": "economy",
        "kind": "additive",
        "goods": goods[order].tolist(),
        "weights": weights[:, order].tolist(),
    }

    for name, n, m in (("gen-bargaining-2", 2, 4), ("gen-bargaining-3", 3, 3)):
        pts = fixed.integers(1, 17, size=(m, n)) / 8.0
        gens = np.vstack([pts, np.zeros(n)])
        docs[name] = {"type": "bargaining", "generators": gens[relabel.permutation(m + 1)].tolist()}

    # Three roommates: every matching of three agents (at most one pair).
    w = np.zeros((3, 3))
    for a, b in combinations(range(3), 2):
        w[a, b] = fixed.integers(1, 9) / 4.0
        w[b, a] = fixed.integers(1, 9) / 4.0
    matchings = [[0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]]
    docs["gen-roommates"] = {
        "type": "matching",
        "weights": w.tolist(),
        "matchings": [matchings[j] for j in relabel.permutation(4)],
    }
    return docs
