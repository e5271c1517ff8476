"""Direct tests of the batched log-welfare solver in `ccm._logmax`."""
import numpy as np
import pytest

from ccm import _logmax
from ccm import market as mk

from _oracles import random_collective

# Corpus problem 1 (seed 2026), shift cell 84 at 8 steps per axis.  Its
# warm start leaves a support column at zero weight that the Newton step
# wants to push negative.
BLOCKED = np.array(
    [
        [41 / 64, 1 / 64, 49 / 64, 33 / 64, 0, 9 / 64],
        [0, 3 / 4, 1 / 2, 3 / 4, 0, 3 / 8],
        [3 / 16, 5 / 16, 0, 1 / 16, 3 / 16, 7 / 16],
    ]
)


def _corpus_batch(index, steps):
    """The shifted utilities `sweep_lindahl_payoffs` solves for a corpus problem."""
    rng = np.random.default_rng(2026)
    for t in range(index + 1):
        u = random_collective(rng, n=2 if t % 2 == 0 else 3)
    P = mk.CollectiveProblem(u)
    reps, _ = mk._unique_columns(P.u)
    grid = mk._shift_grid(P, steps)
    return np.maximum(P.u[:, reps][None, :, :] - grid[:, :, None], 0.0)


def _kkt_residual(C, lam):
    """max_j phi_j - n and |phi_j - n| on the support, over n; recomputed here."""
    n = C.shape[1]
    x = np.einsum("bnm,bm->bn", C, lam)
    phi = np.einsum("bnm,bn->bm", C, 1.0 / x)
    over = phi.max(axis=1) - n
    dev = np.abs(np.where(lam > 1e-10, phi - n, 0.0)).max(axis=1)
    return np.maximum(over, dev) / n


def test_blocked_column_converges_without_the_long_warm_start(monkeypatch):
    assert np.array_equal(_corpus_batch(1, 8)[84], BLOCKED)
    calls = []
    warm_start = _logmax._warm_start

    def recorded(C, iters, tol):
        calls.append(iters)
        return warm_start(C, iters, tol)

    monkeypatch.setattr(_logmax, "_warm_start", recorded)
    lam, _, resid = _logmax.maximize_log_sum_batch(BLOCKED[None], warm_iters=40)
    assert calls == [40]
    assert resid[0] <= 1e-11 and _kkt_residual(BLOCKED[None], lam)[0] <= 1e-11
    assert np.nonzero(lam[0] > 1e-8)[0].tolist() == [3, 5]


def test_a_cells_lottery_does_not_depend_on_its_batch():
    C = _corpus_batch(1, 8)
    lam, value, _ = _logmax.maximize_log_sum_batch(C)
    order = np.random.default_rng(3).permutation(len(C))
    shuffled, _, _ = _logmax.maximize_log_sum_batch(C[order])
    assert np.abs(shuffled - lam[order]).max() <= 1e-12
    for cell in [84, *range(0, len(C), 37)]:
        alone, alone_value, _ = _logmax.maximize_log_sum_batch(C[cell : cell + 1])
        assert np.abs(alone[0] - lam[cell]).max() <= 1e-12
        assert alone_value[0] == pytest.approx(value[cell], abs=1e-12)


@pytest.mark.parametrize("warm_iters", [300, 0])
def test_residual_within_tolerance_on_random_batches(warm_iters):
    # warm_iters=0 hands every cell to the Newton phase from the uniform lottery.
    rng = np.random.default_rng(41)
    seen_single = seen_duplicate = False
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 8))
        u = rng.integers(0, 9, size=(n, m)) / 8.0
        if m > 2 and rng.uniform() < 0.5:
            u[:, -1] = u[:, 0]
            seen_duplicate = True
        seen_single |= m == 1
        u[:, 0] = np.maximum(u[:, 0], 0.125)
        shifts = rng.uniform(0, 1, size=(int(rng.integers(1, 40)), n)) * u.max(axis=1)
        C = np.maximum(u[None] - shifts[:, :, None], 0.0)
        C = C[(C.max(axis=2) > 0).all(axis=1)]
        if not len(C):
            continue
        lam, value, resid = _logmax.maximize_log_sum_batch(C, warm_iters=warm_iters)
        assert lam.shape == (len(C), m) and lam.min() >= 0
        assert np.abs(lam.sum(axis=1) - 1).max() <= 1e-12
        assert resid.max() <= 1e-11
        assert _kkt_residual(C, lam).max() <= 1e-11
        x = np.einsum("bnm,bm->bn", C, lam)
        assert np.allclose(value, np.log(x).sum(axis=1), rtol=0, atol=1e-12)
    assert seen_single and seen_duplicate


@pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
def test_support_groups_equal_unique_columns(m):
    rng = np.random.default_rng(m)
    masks = [
        rng.random((m, 4096)) < 0.3,
        rng.random((m, 50)) < 0.5,
        np.tile(rng.random((m, 1)) < 0.5, (1, 40)),  # every cell alike
        np.ones((m, 1), dtype=bool),
        np.unique(rng.random((m, 64)) < 0.5, axis=1),  # every cell distinct
    ]
    for supp in masks:
        groups = _logmax._support_groups(supp)
        patterns, inverse = np.unique(supp.T, axis=0, return_inverse=True)
        assert len(groups) == len(patterns)
        for g, (cells, pattern) in enumerate(zip(groups, patterns)):
            # Each group lists its cells in ascending order, as a mask would.
            assert np.array_equal(cells, np.flatnonzero(inverse.ravel() == g))
            assert np.array_equal(supp[:, cells[0]], pattern)
