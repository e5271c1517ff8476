"""Direct tests of the batched log-welfare solver in `ccm._logmax`."""
import json
import os
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ccm import _logmax, cli
from ccm import market as mk

from _oracles import corpus_problem, newton_group, random_collective

# Corpus problem 1 (seed 2026), shift cell 84 at 8 steps per axis.  With a
# fourth agent who values every outcome alike (the optimum stays put),
# Newton starts uniform on the five undominated columns, and three of them
# leave the working set on the way to the optimum on columns 3 and 5.
BLOCKED = np.array(
    [
        [41 / 64, 1 / 64, 49 / 64, 33 / 64, 0, 9 / 64],
        [0, 3 / 4, 1 / 2, 3 / 4, 0, 3 / 8],
        [3 / 16, 5 / 16, 0, 1 / 16, 3 / 16, 7 / 16],
    ]
)
BLOCKED_FOUR = np.vstack([BLOCKED, np.ones(6)])


def _shift_batch(u, steps):
    """The shifted utilities `sweep_lindahl_payoffs` solves for utilities u."""
    P = mk.CollectiveProblem(u)
    reps = mk._unique_columns(P.u)
    grid = mk._shift_grid(P, steps)
    return np.maximum(P.u[:, reps][None, :, :] - grid[:, :, None], 0.0)


def _corpus_batch(index, steps):
    return _shift_batch(corpus_problem(index), steps)


def _kkt_residual(C, lam):
    """max_j phi_j - n and |phi_j - n| on the support, over n; recomputed here."""
    n = C.shape[1]
    x = np.einsum("bnm,bm->bn", C, lam)
    phi = np.einsum("bnm,bn->bm", C, 1.0 / x)
    over = phi.max(axis=1) - n
    dev = np.abs(np.where(lam > 1e-10, phi - n, 0.0)).max(axis=1)
    return np.maximum(over, dev) / n


def test_two_agent_cells_run_no_iterative_solve(monkeypatch):
    def forbidden(*args):
        raise AssertionError("two-agent cells take the closed form")

    monkeypatch.setattr(_logmax, "_newton_group", forbidden)
    P = mk.CollectiveProblem(corpus_problem(34))
    assert len(mk.sweep_lindahl_payoffs(P, 64)) > 100
    assert mk.lindahl_from_nash(P, [0.5, 0.25]) is not None
    lam, value, resid = _logmax.maximize_log_sum_batch(_corpus_batch(34, 64), tol=1e-11)
    assert resid.max() <= 1e-11 and np.abs(lam.sum(axis=1) - 1).max() <= 1e-15


@pytest.mark.parametrize("block", [1, 7, 64])
def test_two_agent_blocks_do_not_change_the_pick(monkeypatch, block):
    # 30 outcomes give 435 pairs, so small blocks split one cell's pairs and
    # the tie pick runs across blocks.  Twins and collinear outcomes make ties.
    rng = np.random.default_rng(8)
    u = rng.integers(0, 17, size=(2, 30)) / 16.0
    u[:, 10:14] = u[:, 0:4]
    u[:, 14] = (u[:, 1] + u[:, 2]) / 2
    shifts = rng.uniform(0, 0.5, size=(200, 2))
    C = np.maximum(u[None] - shifts[:, :, None], 0.0)
    C = C[(C.max(axis=2) > 0).all(axis=1)]
    whole = _logmax.maximize_log_sum_batch(C)
    monkeypatch.setattr(_logmax, "_PAIR_BLOCK", block)
    for a, b in zip(whole, _logmax.maximize_log_sum_batch(C)):
        assert a.tobytes() == b.tobytes()


def test_three_agent_cells_run_no_iterative_solve(monkeypatch):
    def forbidden(*args):
        raise AssertionError("three-agent cells take the closed form")

    monkeypatch.setattr(_logmax, "_newton_group", forbidden)
    P = mk.CollectiveProblem(corpus_problem(121))
    certs = mk.sweep_lindahl_payoffs(P, 8)
    assert len(certs) > 50
    assert all(mk.lindahl_from_nash(P, cert.c) is not None for cert in certs[::10])
    lam, value, resid = _logmax.maximize_log_sum_batch(_corpus_batch(1, 8), tol=1e-11)
    assert resid.max() <= 1e-11 and np.abs(lam.sum(axis=1) - 1).max() <= 1e-15


@pytest.mark.parametrize("block", [1, 7, 64])
def test_three_agent_blocks_do_not_change_the_pick(monkeypatch, block):
    # Small blocks split one cell's segments and triangles, so the race and
    # the tie pick run across blocks.  Outcomes 0-3 are coplanar, 3 at the
    # centre of the others; 4 and 5 are twins of 0 and 3; 6-8 lie below
    # the plane.  Every cell's optimum is on the plane, where 4 or 6
    # triangles land on it, twins counted.
    u = np.array([[3, 2, 1], [1, 3, 2], [2, 1, 3], [2, 2, 2], [3, 2, 1], [2, 2, 2]]).T / 4.0
    u = np.hstack([u, np.array([[3.6, 1.2, 0.4], [0.4, 3.6, 1.2], [1.2, 0.4, 3.6]]).T / 4.0])
    shifts = np.random.default_rng(9).uniform(0, 0.25, size=(60, 3))
    C = np.maximum(u[None] - shifts[:, :, None], 0.0)
    whole = _logmax.maximize_log_sum_batch(C)
    assert ((whole[0] > 0).sum(axis=1) == 3).all()
    monkeypatch.setattr(_logmax, "_PAIR_BLOCK", block)
    for a, b in zip(whole, _logmax.maximize_log_sum_batch(C)):
        assert a.tobytes() == b.tobytes()


def test_working_sets_give_the_pick_of_every_support(monkeypatch):
    # Cells with more than _WORK undominated columns solve on working sets
    # grown by the columns that break the KKT conditions; a working set as
    # large as the cell takes every support at once.  The octant batch has
    # 52-60 undominated columns per cell.  In the cluster, the 20 columns
    # of largest product lie just below the plane through three far
    # columns, whose centre is the Nash point.  In the arc, every column
    # pays some agent nothing, and the first working set none of agent 0.
    rng = np.random.default_rng(12)
    sphere = np.abs(rng.normal(size=(3, 60)))
    sphere /= np.linalg.norm(sphere, axis=0)
    octant = np.maximum(sphere[None] - rng.uniform(0, 0.3, size=(40, 3, 1)), 0.0)
    near = 1 / 3 + rng.uniform(-0.02, 0.02, size=(3, 20))
    near -= (near.sum(axis=0) - 0.99) / 3
    far = np.array([[18, 1, 1], [1, 18, 1], [1, 1, 18]]) / 20
    cluster = np.hstack([near, far])[None]
    t = np.linspace(0, np.pi / 2, 20)
    arc = np.hstack([[np.zeros(20), np.cos(t), np.sin(t)], [[1.0], [0.0], [0.0]]])[None]
    rounds = []
    nash_points = _logmax._nash_points

    def recorded(U, count, levels):
        rounds.append(U.shape[1])
        return nash_points(U, count, levels)

    monkeypatch.setattr(_logmax, "_nash_points", recorded)
    for C in (octant, cluster, arc):
        rounds.clear()
        grown = _logmax.maximize_log_sum_batch(C)
        assert len(rounds) > 1 and rounds[0] == _logmax._WORK
        with monkeypatch.context() as m:
            m.setattr(_logmax, "_WORK", C.shape[2])
            for a, b in zip(grown, _logmax.maximize_log_sum_batch(C)):
                assert a.tobytes() == b.tobytes()
        if C is cluster:
            assert np.abs(C[0] @ grown[0][0] - 1 / 3).max() <= 1e-15
    assert grown[0][0, -1] == pytest.approx(1 / 3, abs=1e-15)


def test_support_tables_are_the_combinations(monkeypatch):
    for k in range(1, 41):
        for s in (1, 2, 3):
            table = _logmax._subsets(k, s)
            want = np.array(list(combinations(range(k), s)), dtype=np.intp).reshape(-1, s).T
            assert table.shape == want.shape and np.array_equal(table, want)
            assert not table.flags.writeable and _logmax._subsets(k, s) is table
    # Past _TABLE supports, the parts come _PAIR_BLOCK at a time, in the same order.
    monkeypatch.setattr(_logmax, "_TABLE", 100)
    monkeypatch.setattr(_logmax, "_PAIR_BLOCK", 64)
    for k in (2, 9, 30):
        for s in (1, 2, 3):
            parts = list(_logmax._parts(k, s))
            assert np.array_equal(np.hstack(parts), _logmax._subsets(k, s))
            if comb(k, s) <= 100:
                assert len(parts) == 1 and parts[0] is _logmax._subsets(k, s)
            else:
                assert len(parts) == -(-comb(k, s) // 64) and max(p.shape[1] for p in parts) == 64


def _fixture_cells():
    """Each fixture's one-cell problem: a market's distinct outcome columns, or a set's generators less d."""
    data = os.path.join(os.path.dirname(__file__), "data")
    cells = {}
    for name in sorted(os.listdir(data)):
        doc = json.load(open(os.path.join(data, name)))
        if doc["type"] == "bargaining":
            B = cli._bargaining_of(doc)
            cells[name] = (B.generators - B.disagreement).T
        else:
            u = cli._collective_of(doc).u
            cells[name] = u[:, mk._unique_columns(u)]
    return cells


@pytest.mark.parametrize("block", [1, 7, 64])
def test_a_fixtures_one_cell_solve_is_its_cell_in_a_batch(monkeypatch, block):
    # The cell sits between 30 shifted copies of itself; its lottery may
    # not depend on the blocks or on the other cells.
    monkeypatch.setattr(_logmax, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(5)
    for name, C in _fixture_cells().items():
        shifted = np.maximum(C[None] - rng.uniform(0, 0.6, (30, len(C), 1)) * C.max(axis=1)[:, None], 0.0)
        batch = np.concatenate([shifted[:15], C[None], shifted[15:]])
        batch = batch[(batch.max(axis=2) > 0).all(axis=1)]
        at = next(i for i in range(len(batch)) if np.array_equal(batch[i], C))
        alone, alone_value, _ = _logmax.maximize_log_sum_batch(C[None])
        lam, value, _ = _logmax.maximize_log_sum_batch(batch)
        assert lam[at].tobytes() == alone[0].tobytes(), name
        assert value[at] == pytest.approx(alone_value[0], abs=1e-12)


def _cluster_cell():
    """20 columns just below the plane through three far columns, whose centre is the Nash point."""
    near = 1 / 3 + np.random.default_rng(12).uniform(-0.02, 0.02, size=(3, 20))
    near -= (near.sum(axis=0) - 0.99) / 3
    return np.hstack([near, np.array([[18, 1, 1], [1, 18, 1], [1, 1, 18]]) / 20])


@pytest.mark.parametrize("cell", ["office2", "cluster"])
def test_one_cell_solves_evaluate_each_size_once_per_round(monkeypatch, cell):
    # office2 has six undominated outcomes and takes one round.  The
    # cluster's first working set is _WORK of its 20 near columns, and the
    # far ones join in a second round.  Each round evaluates each support
    # size in one call, and the pick evaluates none.
    C = _fixture_cells()["office2.json"] if cell == "office2" else _cluster_cell()
    rounds, outside, racing = [], [], []
    candidates, nash_points = _logmax._candidates, _logmax._nash_points

    def counted(U, S):
        (rounds[-1] if racing else outside).append(len(S))
        return candidates(U, S)

    def recorded(U, count, tables):
        rounds.append([])
        racing.append(True)
        try:
            return nash_points(U, count, tables)
        finally:
            racing.clear()

    monkeypatch.setattr(_logmax, "_candidates", counted)
    monkeypatch.setattr(_logmax, "_nash_points", recorded)
    lam, _, resid = _logmax.maximize_log_sum_batch(C[None])
    assert [sorted(sizes) for sizes in rounds] == [[1, 2, 3]] * (1 if cell == "office2" else 2)
    assert outside == [] and resid[0] <= 1e-11
    if cell == "cluster":
        assert np.abs(C @ lam[0] - 1 / 3).max() <= 1e-15


def test_face_columns_outside_the_working_set_are_picked_again(monkeypatch):
    # Every column lies on the plane x_0 + x_1 + x_2 = 1, where the Nash
    # point is the centre.  The 16 near columns have the largest products
    # and hold it in their hull; three pairs, each symmetric about it and
    # all of one length, have the smallest.  They break no KKT condition,
    # so the race ends on the first working set, yet each pair's segment
    # is a smallest support that lands on the centre: the pick evaluates
    # the face's supports again and takes the first pair, in blocks of any
    # size, as a working set of every column does.
    near = 1 / 3 + np.random.default_rng(3).uniform(-0.05, 0.05, size=(3, 16))
    near /= near.sum(axis=0)
    v = np.array([[0.25, -0.125, -0.125], [-0.125, 0.25, -0.125], [-0.125, -0.125, 0.25]])
    C = np.hstack([near, *[np.array([1 / 3 + w, 1 / 3 - w]).T for w in v]])[None]
    rounds = []
    nash_points = _logmax._nash_points
    monkeypatch.setattr(_logmax, "_nash_points", lambda U, *rest: rounds.append(U.shape[1]) or nash_points(U, *rest))
    lam, _, resid = _logmax.maximize_log_sum_batch(C)
    assert rounds == [_logmax._WORK] and resid[0] <= 1e-15
    assert np.flatnonzero(lam[0]).tolist() == [16, 17] and np.abs(lam[0, 16:18] - 0.5).max() <= 1e-15
    monkeypatch.setattr(_logmax, "_PAIR_BLOCK", 1)
    assert _logmax.maximize_log_sum_batch(C)[0].tobytes() == lam.tobytes()
    monkeypatch.setattr(_logmax, "_WORK", 22)
    assert _logmax.maximize_log_sum_batch(C)[0].tobytes() == lam.tobytes()


def _flat_faces(cells, m, seed):
    """Cells of m columns on the plane x_0 + x_1 + x_2 = 1, around its centre, the Nash point.

    Each cell's last two columns are symmetric about the centre and have
    the smallest products.
    """
    rng = np.random.default_rng(seed)
    C = 1 / 3 + rng.uniform(-0.1, 0.1, size=(cells, 3, m))
    C /= C.sum(axis=1, keepdims=True)
    v = rng.uniform(-0.2, 0.2, size=(cells, 3, 1))
    v[:, 0] = 0.3
    v -= v.mean(axis=1, keepdims=True)
    C[:, :, -2:] = 1 / 3 + np.concatenate([v, -v], axis=2)
    return C


def test_a_flat_face_of_many_columns_keeps_few_candidates(monkeypatch):
    # Every column of every cell is on the optimal face, so every triangle
    # of working columns around the centre reaches the best product.  The
    # race ends on the first working set, and keeps at most _NEAR
    # candidates per cell; the pick finds each cell's symmetric pair among
    # the supports of its 120 face columns.
    C = _flat_faces(6, 120, 4)
    rounds, kept, full = [], [], []
    nash_points = _logmax._nash_points

    def recorded(U, count, sizes):
        at, near, over = nash_points(U, count, sizes)
        rounds.append(U.shape[1])
        cells = [c for found in near for c, *_ in found]
        kept.append(np.bincount(np.concatenate(cells), minlength=U.shape[2]))
        full.append(over)
        return at, near, over

    monkeypatch.setattr(_logmax, "_nash_points", recorded)
    lam, _, resid = _logmax.maximize_log_sum_batch(C)
    assert rounds == [_logmax._WORK] and full[0].all() and kept[0].max() <= _logmax._NEAR
    assert resid.max() <= 1e-14 and np.flatnonzero(lam.any(axis=0)).tolist() == [118, 119]
    assert np.abs(lam[:, -2:] - 0.5).max() <= 1e-12


def test_picking_again_gives_the_pick_of_the_kept_candidates(monkeypatch):
    # With no candidate kept, every cell's pick evaluates its face again;
    # the lotteries may not change.  The batches hold twins, collinear and
    # coplanar outcomes, so many supports land on each cell's point.
    rng = np.random.default_rng(8)
    u = rng.integers(0, 17, size=(2, 30)) / 16.0
    u[:, 10:14] = u[:, 0:4]
    u[:, 14] = (u[:, 1] + u[:, 2]) / 2
    two = np.maximum(u[None] - rng.uniform(0, 0.5, size=(200, 2, 1)), 0.0)
    u = np.array([[3, 2, 1], [1, 3, 2], [2, 1, 3], [2, 2, 2], [3, 2, 1], [2, 2, 2]]).T / 4.0
    three = np.maximum(u[None] - rng.uniform(0, 0.25, size=(60, 3, 1)), 0.0)
    batches = [two[(two.max(axis=2) > 0).all(axis=1)], three, _corpus_batch(1, 8), _flat_faces(3, 24, 5)]
    batches += [C[None] for C in _fixture_cells().values()]
    kept = [_logmax.maximize_log_sum_batch(C) for C in batches]
    monkeypatch.setattr(_logmax, "_NEAR", -1)
    for C, want in zip(batches, kept):
        for a, b in zip(want, _logmax.maximize_log_sum_batch(C)):
            assert a.tobytes() == b.tobytes()


def test_the_spurious_segment_root_is_rejected():
    # Corpus problem 1 at 8 steps, cell 371: the optimum is outcomes 1 and 2
    # at weights (2/3, 1/3).  Outcome 2 pays agents 1 and 2 nothing, so the
    # segment's quadratic also vanishes at t = 1, where its computed root
    # lands just inside the segment.
    C = _corpus_batch(1, 8)[371]
    assert np.array_equal(C[1:, 2], [0.0, 0.0])
    lam, _, resid = _logmax.maximize_log_sum_batch(C[None])
    assert np.flatnonzero(lam[0]).tolist() == [1, 2]
    assert np.abs(lam[0, 1:3] - [2 / 3, 1 / 3]).max() <= 1e-15 and resid[0] <= 1e-15


def test_blocked_column_converges_without_the_long_warm_start(monkeypatch):
    assert np.array_equal(_corpus_batch(1, 8)[84], BLOCKED)
    dropped = []
    newton = _logmax._newton_group

    def blocked(Cg, lamS, free):
        out = newton(Cg, lamS.copy(), free)
        dropped.append(int(((lamS > 0) & (out == 0)).sum()))
        return out

    monkeypatch.setattr(_logmax, "_newton_group", blocked)
    for C in (BLOCKED_FOUR, BLOCKED):
        lam, _, resid = _logmax.maximize_log_sum_batch(C[None])
        assert resid[0] <= 1e-11 and _kkt_residual(C[None], lam)[0] <= 1e-11
        assert np.nonzero(lam[0] > 1e-8)[0].tolist() == [3, 5]
    # The three-agent cell takes the closed form, with no Newton step.
    assert len(dropped) == 1 and dropped[0] > 0


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


@pytest.mark.parametrize(
    "batch",
    [lambda: _corpus_batch(34, 64), lambda: _corpus_batch(121, 8),
     lambda: _shift_batch(random_collective(np.random.default_rng(7), n=4), 4)],
    ids=["two", "three", "four"],
)
def test_a_transposed_view_solves_as_its_contiguous_copy(batch):
    # The sweep passes its (n, m, cells) tensor as a (cells, n, m) view.
    C = batch()
    held = np.ascontiguousarray(C.transpose(1, 2, 0))
    view = held.transpose(2, 0, 1)
    assert not view.flags.c_contiguous and np.array_equal(view, C)
    for a, b in zip(_logmax.maximize_log_sum_batch(view), _logmax.maximize_log_sum_batch(C)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    negative = held.copy()
    negative[0, 1, 5] = -1e-300
    with pytest.raises(ValueError, match="nonnegative"):
        _logmax.maximize_log_sum_batch(negative.transpose(2, 0, 1))
    zero_row = held.copy()
    zero_row[-1, :, 7] = 0.0
    with pytest.raises(ValueError, match="positive entry"):
        _logmax.maximize_log_sum_batch(zero_row.transpose(2, 0, 1))


@pytest.mark.parametrize("extra_cells", [300, 0])
def test_residual_within_tolerance_on_random_batches(extra_cells):
    # Cells of one agent or of four take the Newton working sets; two- and
    # three-agent cells take the closed form.  extra_cells more shifts per
    # batch put many cells of mixed supports into the same working-set blocks.
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
        cells = int(rng.integers(1, 40)) + extra_cells
        shifts = rng.uniform(0, 1, size=(cells, n)) * u.max(axis=1)
        C = np.maximum(u[None] - shifts[:, :, None], 0.0)
        C = C[(C.max(axis=2) > 0).all(axis=1)]
        if not len(C):
            continue
        lam, value, resid = _logmax.maximize_log_sum_batch(C)
        assert lam.shape == (len(C), m) and lam.min() >= 0
        assert np.abs(lam.sum(axis=1) - 1).max() <= 1e-12
        assert resid.max() <= 1e-11
        assert _kkt_residual(C, lam).max() <= 1e-11
        x = np.einsum("bnm,bm->bn", C, lam)
        assert np.allclose(value, np.log(x).sum(axis=1), rtol=0, atol=1e-12)
    assert seen_single and seen_duplicate


@pytest.mark.parametrize("n, m", [(4, 400), (5, 300), (6, 200)])
def test_sphere_octant_cells_converge(n, m):
    # A smooth frontier: every point is undominated, so the working set
    # grows from the _WORK of largest product.  Each of these cells once
    # raised ConvergenceError.
    P = np.abs(np.random.default_rng(0).normal(size=(m, n)))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    C = P.T[None]
    lam, _, resid = _logmax.maximize_log_sum_batch(C)
    assert resid[0] <= 1e-11 and _kkt_residual(C, lam)[0] <= 1e-11


def test_a_working_set_that_pays_an_agent_nothing_takes_its_best_column():
    # Every column pays some agent nothing, so every product is zero and
    # the first working set is the first _WORK columns, which pay agent 0
    # nothing.  Agent 0's best column joins it, and takes weight 1/4.
    t = np.linspace(0.1, 1.4, 20)
    arc = np.vstack([np.zeros(20), np.cos(t), np.sin(t) * 0.6, np.sin(t) * 0.8])
    C = np.hstack([arc, [[1.0], [0.0], [0.0], [0.0]]])[None]
    lam, _, resid = _logmax.maximize_log_sum_batch(C)
    assert resid[0] <= 1e-11 and _kkt_residual(C, lam)[0] <= 1e-11
    assert lam[0, -1] == pytest.approx(0.25, abs=1e-12)


def test_one_column_supports_skip_newton(monkeypatch):
    sizes = []
    newton = _logmax._newton_group

    def recorded(Cg, lamS, free):
        sizes.append(Cg.shape[1])
        return newton(Cg, lamS, free)

    monkeypatch.setattr(_logmax, "_newton_group", recorded)
    C = _shift_batch(random_collective(np.random.default_rng(2026), n=4), 5)
    lam, _, resid = _logmax.maximize_log_sum_batch(C)
    single = np.flatnonzero((lam != 0).sum(axis=1) == 1)
    assert len(single) > 100 and min(sizes) >= 2
    assert resid.max() <= 1e-11
    # Given the one column, Newton would have returned lam = 1 exactly.
    for cell in single[::16]:
        j = np.flatnonzero(lam[cell])
        assert lam[cell, j] == 1.0
        assert newton(C[cell][:, j, None], np.ones((1, 1)), np.ones((1, 1), dtype=bool)) == 1.0


def test_one_undominated_column_cells_skip_the_support_race(monkeypatch):
    # Every other cell of corpus problem 0 gets a column that dominates the
    # rest, so the batch mixes one-column and multi-column cells.
    C = _corpus_batch(0, 8)
    C = C[(C.max(axis=2) > 0).all(axis=1)]
    C[::2, :, 2] = C[::2].max(axis=2)
    keep = _logmax._undominated(np.ascontiguousarray(C.transpose(1, 2, 0)))
    one = keep.sum(axis=0) == 1
    assert one.sum() == (len(C) + 1) // 2 and (one == (np.arange(len(C)) % 2 == 0)).all()
    # The support race picks the same column for them.
    Cl = np.ascontiguousarray(C[one].transpose(1, 2, 0))
    scale = Cl.max(axis=1, keepdims=True)
    raced = _logmax._race(Cl, scale, keep[:, one], None).T

    cells = []
    race = _logmax._race

    def spy(C, *rest):
        cells.append(C.shape[2])
        return race(C, *rest)

    monkeypatch.setattr(_logmax, "_race", spy)
    lam, _, resid = _logmax.maximize_log_sum_batch(C)
    assert cells == [int((~one).sum())]
    assert np.array_equal(lam[one], np.eye(C.shape[2])[np.full(one.sum(), 2)])
    assert lam[one].tobytes() == raced.tobytes()
    assert resid.max() <= 1e-11
    alone, _, _ = _logmax.maximize_log_sum_batch(C[~one])
    assert alone.tobytes() == lam[~one].tobytes()
    # A batch of one-column cells only never races.
    cells.clear()
    only, _, _ = _logmax.maximize_log_sum_batch(C[one])
    assert cells == [] and only.tobytes() == lam[one].tobytes()


def test_one_outcome_batches_take_the_one_column_rule():
    # lam and value as the special case for m = 1 once gave them; its
    # residual was a literal zero, and the computed one is rounding.
    rng = np.random.default_rng(0)
    for C in (
        rng.uniform(0.01, 50, (500, 3, 1)),
        rng.integers(1, 9, (200, 2, 1)) / 8.0,
        np.exp(rng.uniform(-14, 14, (300, 4, 1))),
    ):
        lam, value, resid = _logmax.maximize_log_sum_batch(C)
        assert np.array_equal(lam, np.ones((len(C), 1)))
        assert np.array_equal(value, np.log(C[:, :, 0].T).sum(axis=0))
        assert resid.min() >= 0 and resid.max() <= 1e-15


def _same_newton(Cg, lamS, free, newton=_logmax._newton_group):
    out = newton(Cg, lamS.copy(), free)
    ref = newton_group(Cg, lamS.copy(), free)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    return out


def test_newton_assembly_equals_the_einsum_assembly_on_corpus_sweeps(monkeypatch):
    widest, dropped = [], []

    def checked(Cg, lamS, free):
        out = _same_newton(Cg, lamS, free)
        widest.append(free.sum(axis=0).max())
        dropped.append(((lamS > 0) & (out == 0)).sum())
        return out

    monkeypatch.setattr(_logmax, "_newton_group", checked)
    rng = np.random.default_rng(2026)
    # Two- and three-agent cells take the closed form and one-column blocks
    # skip Newton, so the sweeps are of four agents.
    for _ in range(10):
        mk.sweep_lindahl_payoffs(mk.CollectiveProblem(random_collective(rng, n=4)), 5)
    monkeypatch.undo()
    assert max(widest) >= 4 and sum(dropped) > 0


def test_newton_assembly_equals_the_einsum_assembly_on_random_batches():
    # Working sets of 1 to 12 columns (the diagonal sum runs unrolled from
    # 9), padded at the end with copies of column 0 as `_compact` pads them,
    # and columns at zero weight that block the step.  Of exact twins only
    # the first is free, as `_undominated` keeps only the first: on a
    # flat face the split between free twins is rounding.
    rng = np.random.default_rng(14)
    dropped = 0
    for _ in range(60):
        n, s, b = int(rng.integers(1, 5)), int(rng.integers(1, 13)), int(rng.integers(1, 60))
        Cg = rng.integers(0, 9, size=(n, s, b)) / 8.0
        Cg[:, 0] = np.maximum(Cg[:, 0], 0.125)
        free = np.arange(s)[:, None] < rng.integers(1, s + 1, size=b)
        free &= (Cg[:, :, None] == Cg[:, None]).all(axis=0).argmax(axis=1) == np.arange(s)[:, None]
        Cg = np.where(free, Cg, Cg[:, :1])
        lamS = rng.uniform(0, 1, size=(s, b)) * (rng.random((s, b)) > 0.3) * free
        lamS[0] += 0.01
        lamS /= lamS.sum(axis=0)
        out = _same_newton(Cg * 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1)), lamS, free)
        dropped += int(((lamS > 0) & (out == 0)).sum())
    assert dropped > 0
