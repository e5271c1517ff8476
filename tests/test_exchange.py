import numpy as np
import pytest

from ccm import exchange as ex
from ccm import market as mk
from ccm import polytope as pt
from ccm import solutions as sol

from _oracles import random_normalized_polytope

CAKE = pt.coco_hull([[0, 0], [1, 0], [0.5, 1], [0, 1]])
UNIT_SIMPLEX = pt.coco_hull([[0, 0], [1, 0], [0, 1]])


def cake_economy():
    return ex.Economy(n=2, names=("pb", "choc"), kind="additive", weights=[[0.5, 0.5], [0, 1]])


def office1():
    return ex.economy_from_bundle_values(
        3,
        ("o1", "o2", "o3"),
        [
            (0, [0], 10), (0, [1], 4), (0, [2], 2),
            (1, [0], 10), (1, [1], 7), (1, [2], 3),
            (2, [0], 10), (2, [1], 5), (2, [2], 1),
        ],
    )


def office2():
    return ex.economy_from_bundle_values(
        3,
        ("o1", "o2", "o3", "desk_good", "desk_prem"),
        [
            (0, [0, 4], 10), (0, [0, 3], 4), (0, [0], 2),
            (1, [1, 4], 10), (1, [1, 3], 7), (1, [1], 3),
            (2, [2, 4], 10), (2, [2, 3], 5), (2, [2], 1),
        ],
    )


OFFICE1_PRICES = lambda: ex.PackagePrices(names=("o1", "o2", "o3"), additive=np.array([2.0, 1.0, 0.0]))
OFFICE1_THETA = lambda: ex.RandomAllocation((0.5, 0.5), ((1, 2, 4), (4, 2, 1)))


def coco_equal(A, B, tol=1e-7):
    return all(pt.contains(B, g, tol) for g in A.generators) and all(
        pt.contains(A, g, tol) for g in B.generators
    )


class TestEconomy:
    def test_monotone_validation(self):
        tables = np.zeros((1, 4))
        tables[0] = [0, 2, 1, 1]  # {g1} worth more than {g1, g2}
        with pytest.raises(ValueError, match="monotone"):
            ex.Economy(n=1, names=("a", "b"), kind="table", tables=tables)

    def test_empty_bundle_free(self):
        tables = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="empty bundle"):
            ex.Economy(n=1, names=("a",), kind="table", tables=tables)

    def test_zero_value_agent_rejected(self):
        with pytest.raises(ValueError, match="no stake"):
            ex.Economy(n=2, names=("a",), kind="additive", weights=[[1.0], [0.0]])

    def test_unit_demand_closure(self):
        E = office1()
        assert E.value(0, 0b111) == 10.0
        assert E.value(1, 0b110) == 7.0
        assert E.value(2, 0b100) == 1.0


class TestEnumeration:
    def test_counts(self):
        single = ex.Economy(n=2, names=("g",), kind="additive", weights=[[2.0], [3.0]])
        assert len(ex.enumerate_allocations(single)) == 3
        assert len(ex.enumerate_allocations(cake_economy())) == 9
        assert len(ex.enumerate_allocations(office1())) == 64

    def test_guard(self):
        E = ex.Economy(n=3, names=tuple("abcdefghijklm"), kind="additive", weights=np.ones((3, 13)))
        with pytest.raises(ValueError, match="guard"):
            ex.enumerate_allocations(E)

    def test_allocation_index_round_trip(self):
        E = cake_economy()
        allocs = ex.enumerate_allocations(E)
        for i, a in enumerate(allocs):
            assert ex.allocation_index(E, a) == i


class TestBargainingOfEconomy:
    def test_cake_economy_reproduces_cake_set(self):
        assert coco_equal(ex.bargaining_of_economy(cake_economy()), CAKE)

    def test_office_descriptions_share_payoff_set(self):
        B1 = ex.bargaining_of_economy(office1())
        B2 = ex.bargaining_of_economy(office2())
        assert coco_equal(B1, B2)
        assert pt.contains(B1, [6, 7, 5.5])

    def test_matches_achievable_payoff_method(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            B = pt.Polytope(random_normalized_polytope(rng, n=2, max_vertices=4))
            E = ex.commodify_two(B)
            assert coco_equal(ex.bargaining_of_economy(E), ex.achievable_payoff_polytope(E))


class TestToCollective:
    def test_cake_economy_nine_outcomes(self):
        P = ex.to_collective_exchange(cake_economy())
        assert P.k == 9

    def test_single_good_columns(self):
        E = ex.Economy(n=2, names=("g",), kind="additive", weights=[[2.0], [3.0]])
        P = ex.to_collective_exchange(E)
        cols = sorted(P.u.T.tolist())
        assert cols == [[0.0, 0.0], [0.0, 3.0], [2.0, 0.0]]


class TestVerifyWalrasExchange:
    def test_office1_stated_equilibrium(self):
        E = office1()
        v = ex.verify_walras_exchange(E, OFFICE1_PRICES(), OFFICE1_THETA())
        assert v.passed
        table = E.value_table()
        pay = [table[i] @ OFFICE1_THETA().marginal(i, 3) for i in range(3)]
        assert np.allclose(pay, [6.0, 7.0, 5.5], atol=1e-12)

    def test_overpriced_bundle_fails(self):
        E = office1()
        bad = ex.PackagePrices(names=E.names, additive=np.array([5.0, 1.0, 0.0]))
        v = ex.verify_walras_exchange(E, bad, OFFICE1_THETA())
        assert not v.passed

    def test_free_prices_fail_consumer_checks(self):
        E = office1()
        free = ex.PackagePrices(names=E.names, additive=np.zeros(3))
        v = ex.verify_walras_exchange(E, free, OFFICE1_THETA())
        assert not v.passed
        assert "consumer_optimality" in {x.condition for x in v.violations}

    def test_cake_economy_equal_prices_regression(self):
        # At equal singleton prices the whole-bundle demand is affordable,
        # so handing Ann only the peanut-butter cake and half of the
        # chocolate cake cannot be optimal for her.  Hand cross-check: her
        # LP optimum is 1 while the lottery pays 0.75.
        E = cake_economy()
        prices = ex.PackagePrices(names=E.names, additive=np.array([0.5, 0.5]))
        theta = ex.RandomAllocation((0.5, 0.5), ((0b11, 0b00), (0b01, 0b10)))
        v = ex.verify_walras_exchange(E, prices, theta)
        assert not v.passed
        assert "consumer_optimality" in {x.condition for x in v.violations}

    def test_cake_economy_supporting_prices_for_split(self):
        # The same split is an equilibrium once the chocolate cake costs 2
        # and the peanut-butter cake is free; payoffs hit (3/4, 1/2).
        E = cake_economy()
        prices = ex.PackagePrices(names=E.names, additive=np.array([0.0, 2.0]))
        theta = ex.RandomAllocation((0.5, 0.5), ((0b11, 0b00), (0b01, 0b10)))
        v = ex.verify_walras_exchange(E, prices, theta)
        assert v.passed
        table = E.value_table()
        pay = [table[i] @ theta.marginal(i, 2) for i in range(2)]
        assert np.allclose(pay, [0.75, 0.5])

    def test_partition_revenue_dp(self):
        prices = ex.PackagePrices(
            names=("a", "b"), table=np.array([0.0, 1.0, 1.0, 3.0])
        )
        # The bundled package beats selling separately.
        assert ex.partition_revenue(prices, 2) == 3.0
        additive = ex.PackagePrices(names=("a", "b"), additive=np.array([1.0, 1.0]))
        assert ex.partition_revenue(additive, 2) == 2.0

    def test_additive_price_expansion(self):
        prices = ex.PackagePrices(names=("a", "b", "c"), additive=np.array([0.5, 1.5, 2.0]))
        pv = prices.price_vector()
        for mask in range(8):
            manual = sum(p for b, p in enumerate([0.5, 1.5, 2.0]) if mask >> b & 1)
            assert pv[mask] == pytest.approx(manual, abs=1e-12)


class TestWalrasToLindahl:
    def test_office1_conversion(self):
        E = office1()
        p, q = ex.walras_to_lindahl_exchange(E, OFFICE1_PRICES(), OFFICE1_THETA())
        P = ex.to_collective_exchange(E)
        assert mk.verify_lindahl(P, p, q).passed
        assert np.allclose(P.u @ q, [6.0, 7.0, 5.5], atol=1e-12)

    def test_single_good_split(self):
        E = ex.Economy(n=2, names=("g",), kind="additive", weights=[[2.0], [2.0]])
        prices = ex.PackagePrices(names=("g",), additive=np.array([2.0]))
        theta = ex.RandomAllocation((0.5, 0.5), ((1, 0), (0, 1)))
        assert ex.verify_walras_exchange(E, prices, theta).passed
        p, q = ex.walras_to_lindahl_exchange(E, prices, theta)
        P = ex.to_collective_exchange(E)
        assert np.allclose(P.u @ q, [1.0, 1.0])

    def test_rejects_non_equilibrium(self):
        E = office1()
        bad = ex.PackagePrices(names=E.names, additive=np.array([5.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="not a Walrasian equilibrium"):
            ex.walras_to_lindahl_exchange(E, bad, OFFICE1_THETA())


class TestCommodifyTwo:
    def test_cake_set(self):
        E = ex.commodify_two(CAKE)
        assert E.names == ("pad_lo", "seg1")
        assert np.allclose(E.weights, [[0.5, 0.5], [0.0, 1.0]])

    def test_unit_simplex(self):
        E = ex.commodify_two(UNIT_SIMPLEX)
        assert np.allclose(E.weights, [[1.0], [1.0]])

    def test_right_triangle(self):
        E = ex.commodify_two(pt.coco_hull([[0, 0], [2, 0], [0, 6]]))
        assert np.allclose(E.weights, [[2.0], [6.0]])

    def test_round_trip_on_random_sets(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            B = pt.Polytope(random_normalized_polytope(rng, n=2))
            E = ex.commodify_two(B)
            assert coco_equal(ex.bargaining_of_economy(E), B, tol=1e-9)

    def test_requires_normalized_set(self):
        with pytest.raises(ValueError, match="origin"):
            ex.commodify_two(pt.coco_hull([[1, 1], [2, 1]]))


class TestCommodifyGeneral:
    def test_three_person_example(self):
        B = pt.coco_hull([[0, 0, 0], [1, 1, 0.5], [1 / 3, 1 / 3, 1]])
        E = ex.commodify_general(B)
        assert len(E.names) == 12  # six ladder goods, six throttle copies
        assert coco_equal(ex.achievable_payoff_polytope(E), B, tol=1e-9)

    def test_unit_simplex_two_agents(self):
        E = ex.commodify_general(UNIT_SIMPLEX)
        assert coco_equal(ex.bargaining_of_economy(E), UNIT_SIMPLEX, tol=1e-9)

    def test_singleton_frontier(self):
        B = pt.coco_hull([[0, 0, 0], [1, 2, 3]])
        E = ex.commodify_general(B)
        assert len(E.names) == 3
        assert coco_equal(ex.bargaining_of_economy(E), B, tol=1e-9)

    def test_random_three_agent_sets(self):
        rng = np.random.default_rng(44)
        done = 0
        while done < 6:
            B = pt.Polytope(random_normalized_polytope(rng, n=3, max_vertices=2))
            try:
                E = ex.commodify_general(B)
            except ValueError:
                continue  # goods guard; try another draw
            oracle = (
                ex.bargaining_of_economy(E)
                if (E.n + 1) ** E.r <= 2_000_000
                else ex.achievable_payoff_polytope(E)
            )
            assert coco_equal(oracle, B, tol=1e-9)
            done += 1


class TestWalrasFromEquitable:
    def test_unit_simplex_midpoint(self):
        E, prices, theta = ex.walras_from_equitable_two(UNIT_SIMPLEX, [0.5, 0.5])
        assert np.allclose(prices.additive, [2.0])
        assert sorted(theta.weights) == [0.5, 0.5]

    def test_cake_nash_point(self):
        E, prices, theta = ex.walras_from_equitable_two(CAKE, [0.5, 1.0])
        v = ex.verify_walras_exchange(E, prices, theta)
        assert v.passed

    def test_cake_perles_maschler_point(self):
        E, prices, theta = ex.walras_from_equitable_two(CAKE, [0.75, 0.5])
        assert ex.verify_walras_exchange(E, prices, theta).passed

    def test_rejects_non_equitable_point(self):
        with pytest.raises(ValueError, match="not in the equitable set"):
            ex.walras_from_equitable_two(CAKE, [1.0, 0.0])

    def test_grid_of_equitable_points_random_sets(self):
        rng = np.random.default_rng(45)
        for _ in range(8):
            B = pt.Polytope(random_normalized_polytope(rng, n=2))
            segs = sol.equitable_set_2d(B)
            table_points = []
            for a, b in segs:
                for t in np.linspace(0, 1, 5):
                    table_points.append(a + t * (b - a))
            for x in table_points:
                E, prices, theta = ex.walras_from_equitable_two(B, x)
                tbl = E.value_table()
                pay = np.array([tbl[i] @ theta.marginal(i, E.r) for i in range(2)])
                assert np.abs(pay - x).max() <= 1e-6


@pytest.mark.parametrize(
    "triple, named",
    [((-1, [0], 1.0), "agent -1"), ((2, [0], 1.0), "agent 2"), ((0, [2], 1.0), "good 2"), ((0, [-1], 1.0), "good -1")],
)
def test_out_of_range_bundle_indices_raise(triple, named):
    with pytest.raises(ValueError, match=named):
        ex.economy_from_bundle_values(2, ("a", "b"), [(1, [1], 1.0), triple])
