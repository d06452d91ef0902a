"""Tests for the model builders, each checked against an independent oracle."""

import dataclasses
import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest

from model_oracles import (
    capture_oracle,
    chromatic_oracle,
    cover_oracle,
    criterion_8_tours,
    network,
    selected,
    service_oracle,
    tour_oracle,
)

from pftopt import branch_bound, models, spatial
from pftopt.branch_bound import solve_mip
from pftopt.linprog import LinearProgram, MalformedProblemError, SolveLimits, Status, solve_lp
from pftopt.models import (
    AdjacencySet,
    DistanceMatrix,
    InputError,
    Network,
    PathSet,
)

ROAD = {
    (1, 2): 688, (1, 3): 373, (1, 4): 1016, (2, 4): 519, (2, 5): 1066,
    (3, 4): 821, (3, 6): 1065, (4, 5): 671, (4, 6): 794, (4, 7): 851,
    (5, 7): 349, (6, 7): 631,
}
GEODESIC = {
    (1, 2): 579.4, (1, 3): 357.6, (1, 4): 831.3, (2, 4): 371.8, (2, 5): 953.1,
    (3, 4): 585.7, (3, 6): 885.8, (4, 5): 610.8, (4, 6): 661.7, (4, 7): 796.7,
    (5, 7): 273.3, (6, 7): 547.8,
}
CAPACITIES = {
    (1, 2): 5, (1, 3): 3, (1, 4): 2, (2, 4): 5, (2, 5): 3, (3, 4): 5,
    (3, 6): 3, (4, 5): 1, (4, 6): 3, (4, 7): 4, (5, 7): 5, (6, 7): 1,
}
BOUNDARY_PAIRS = [
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (3, 6), (4, 6),
    (4, 7), (5, 6), (5, 8), (5, 9), (6, 7), (6, 8), (7, 8), (8, 9), (8, 10),
    (9, 10), (9, 11), (10, 11),
]
ROUTES = [
    ((1, 2, 5, 7), 4), ((1, 2, 4, 5, 7), 1), ((1, 4, 5, 7), 1), ((1, 4, 7), 1),
    ((1, 4, 6, 7), 1), ((1, 3, 4, 5, 7), 1), ((1, 3, 4, 7), 1),
    ((1, 3, 4, 6, 7), 1), ((1, 3, 6, 7), 4),
]
SHIP_COST = ((2, 4, 5, 2, 1), (3, 1, 3, 2, 3))
STORE_DEMAND = (500, 900, 1800, 200, 700)


def _adjacency(pairs, areas):
    return AdjacencySet(
        area_ids=tuple(areas), pairs=frozenset(frozenset(p) for p in pairs)
    )


class TestNetworkValidation:
    def test_unknown_endpoint(self):
        with pytest.raises(InputError):
            Network(node_ids=(1,), arcs=((1, 2, 1.0, math.inf),))

    def test_self_loop(self):
        with pytest.raises(InputError):
            Network(node_ids=(1,), arcs=((1, 1, 1.0, math.inf),))

    def test_duplicate_arc(self):
        with pytest.raises(InputError):
            Network(node_ids=(1, 2), arcs=((1, 2, 1.0, 1.0), (1, 2, 2.0, 1.0)))

    def test_negative_weight(self):
        with pytest.raises(InputError):
            Network(node_ids=(1, 2), arcs=((1, 2, -1.0, 1.0),))

    @pytest.mark.parametrize(
        "weight, capacity, message",
        [
            (math.nan, 1.0, "weight nan must be finite, >= 0"),
            (math.inf, 1.0, "weight inf must be finite, >= 0"),
            (1.0, math.nan, "capacity nan must be >= 0"),
        ],
        ids=["nan-weight", "inf-weight", "nan-capacity"],
    )
    def test_non_finite_weight_or_nan_capacity(self, weight, capacity, message):
        with pytest.raises(InputError, match=message):
            Network(node_ids=(1, 2), arcs=((1, 2, weight, capacity),))


class TestNetworkIncidence:
    @pytest.mark.parametrize(
        "net",
        [
            network(ROAD),
            Network(
                node_ids=("c", "a", "b"),
                arcs=(("a", "c", 1.0, 2.0), ("c", "b", 1.0, math.inf), ("b", "a", 0.0, 0.0)),
            ),
        ],
        ids=["road", "unsorted-ids"],
    )
    def test_one_plus_one_at_the_head_and_one_minus_one_at_the_tail(self, net):
        assert net.incidence.shape == (len(net.node_ids), len(net.arcs))
        assert net.incidence.dtype == float
        for column, (tail, head, _, _) in zip(net.incidence.T, net.arcs):
            expected = np.zeros(len(net.node_ids))
            expected[net.node_ids.index(head)] = 1.0
            expected[net.node_ids.index(tail)] = -1.0
            assert column.tolist() == expected.tolist()

    def test_no_arcs(self):
        assert Network(node_ids=(1, 2), arcs=()).incidence.shape == (2, 0)

    def test_read_only(self):
        with pytest.raises(ValueError):
            network(ROAD).incidence[0, 0] = 1.0

    def test_equal_networks_compare_and_hash_alike(self):
        a, b = network(ROAD), network(ROAD)
        assert a == b and hash(a) == hash(b)
        assert a != network(ROAD, CAPACITIES)


class TestDistanceMatrixForm:
    def test_rows_become_a_read_only_array(self):
        dm = DistanceMatrix(from_ids=[1, 2], to_ids=[1, 2, 3], d=[(0, 1, 2), (1, 0, 3)])
        assert dm.from_ids == (1, 2) and dm.to_ids == (1, 2, 3)
        assert dm.d.dtype == float and dm.d.tolist() == [[0, 1, 2], [1, 0, 3]]
        with pytest.raises(ValueError):
            dm.d[0, 0] = 5.0

    def test_constructor_copies_its_array(self):
        rows = np.array([[0.0, 1.0], [1.0, 0.0]])
        dm = DistanceMatrix(from_ids=(1, 2), to_ids=(1, 2), d=rows)
        rows[0, 1] = 9.0
        assert dm.d[0, 1] == 1.0

    @pytest.mark.parametrize(
        "rows",
        [((0, 1), (1,)), ((0, 1),), ((0, 1, 2), (1, 0, 3)), ((0, "x"), (1, 0))],
        ids=["ragged", "too-few-rows", "too-many-columns", "not-a-number"],
    )
    def test_malformed_rows_rejected(self, rows):
        with pytest.raises(InputError):
            DistanceMatrix(from_ids=(1, 2), to_ids=(1, 2), d=rows)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_rejected(self, value):
        with pytest.raises(InputError, match="finite and non-negative"):
            DistanceMatrix(from_ids=(1, 2), to_ids=(1, 2), d=((0, value), (1, 0)))

    def test_empty_matrix(self):
        dm = DistanceMatrix(from_ids=(), to_ids=(1, 2), d=())
        assert dm.d.shape == (0, 2)


class TestAdjacencySet:
    @pytest.mark.parametrize(
        "pair, message",
        [({1}, r"pair \{1\} must name two"), ({1, 2, 3}, r"pair \{1, 2, 3\} must name two")],
        ids=["one-area", "three-areas"],
    )
    def test_pair_of_other_than_two_areas_rejected(self, pair, message):
        with pytest.raises(InputError, match=message):
            AdjacencySet((1, 2, 3), {frozenset(pair)})

    def test_unknown_area_rejected(self):
        with pytest.raises(InputError, match=r"references an unknown area"):
            AdjacencySet((1, 2), {frozenset({1, 4})})

    def test_touches_is_the_symmetric_boundary_matrix(self):
        adj = _adjacency([(1, 2), (2, 1), (3, 2), (1, 4)], (4, 3, 2, 1))
        touches = adj.touches
        assert touches.dtype == bool and touches.shape == (4, 4)
        assert (touches == touches.T).all() and not touches.diagonal().any()
        assert touches.sum() == 2 * len(adj.pairs) == 6
        index = {a: i for i, a in enumerate(adj.area_ids)}
        assert all(touches[index[a], index[b]] for a, b in map(tuple, adj.pairs))

    def test_touches_covers_the_ids_weights_to_pairs_adds(self):
        text = "0 2 demo ID\nA 1\nB\nB 2\nA Z\n"
        with pytest.warns(UserWarning):
            adj = spatial.weights_to_pairs(spatial.parse_gal(text))
        assert adj.area_ids == ("A", "B", "Z")
        assert adj.touches.tolist() == [
            [False, True, False],
            [True, False, True],
            [False, True, False],
        ]
        assert adj.touches.sum() == 2 * len(adj.pairs)

    def test_read_only(self):
        with pytest.raises(ValueError):
            _adjacency(BOUNDARY_PAIRS, range(1, 12)).touches[0, 1] = False

    def test_equal_sets_compare_and_hash_alike(self):
        a = _adjacency(BOUNDARY_PAIRS, range(1, 12))
        b = _adjacency([(j, i) for i, j in reversed(BOUNDARY_PAIRS)], range(1, 12))
        assert a == b and hash(a) == hash(b)
        assert a != _adjacency(BOUNDARY_PAIRS[1:], range(1, 12))


class TestRepeatedNames:
    """Names concatenate ids, so multi-digit ids can collide; the error
    names the repeated name."""

    def test_tour_over_eleven_ids(self):
        ids = range(1, 12)
        dm = DistanceMatrix(from_ids=ids, to_ids=ids, d=1.0 - np.eye(11))
        with pytest.raises(MalformedProblemError, match="unique; 'X111' repeats$"):
            models.build_tour(dm)

    def test_service_coverage_over_fifteen_ids(self):
        ids = range(1, 16)
        dm = DistanceMatrix(from_ids=ids, to_ids=ids, d=1.0 - np.eye(15))
        with pytest.raises(MalformedProblemError, match="unique; 'Y111' repeats$"):
            models.build_service_coverage(dm, 3)


class TestShortestPath:
    def _dijkstra(self, weights, s, t):
        g = nx.DiGraph()
        for (a, b), w in weights.items():
            g.add_edge(a, b, weight=w)
        return nx.dijkstra_path_length(g, s, t)

    def test_road_miles(self):
        net = network(ROAD)
        mip = models.build_shortest_path(net, 1, 7)
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(1867.0)
        assert selected(mip, out) == {"X14", "X47"}
        assert out.objective_value == pytest.approx(self._dijkstra(ROAD, 1, 7))

    def test_geodesic_miles_matches_dijkstra(self):
        net = network(GEODESIC)
        out = solve_mip(models.build_shortest_path(net, 1, 7))
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(self._dijkstra(GEODESIC, 1, 7))

    def test_single_arc(self):
        net = Network(node_ids=("s", "t"), arcs=(("s", "t", 7.0, math.inf),))
        mip = models.build_shortest_path(net, "s", "t")
        out = solve_mip(mip)
        assert out.objective_value == pytest.approx(7.0)
        assert selected(mip, out) == {"Xst"}

    def test_solution_is_a_simple_path(self):
        rng = random.Random(424242)
        for _ in range(6):
            n = rng.randint(4, 7)
            weights = {}
            for a in range(1, n):
                weights[(a, a + 1)] = rng.randint(1, 20)
            for _ in range(n):
                a, b = rng.sample(range(1, n + 1), 2)
                weights.setdefault((a, b), rng.randint(1, 20))
            net = Network(
                node_ids=tuple(range(1, n + 1)),
                arcs=tuple((a, b, w, math.inf) for (a, b), w in weights.items()),
            )
            mip = models.build_shortest_path(net, 1, n)
            out = solve_mip(mip)
            assert out.status is Status.OPTIMAL
            chosen = [
                arc
                for arc, v in zip(
                    [(t, h) for t, h, _, _ in net.arcs], out.x
                )
                if v > 0.5
            ]
            # walk the chosen arcs from source to sink without revisits
            succ = dict(chosen)
            assert len(succ) == len(chosen)
            node, seen = 1, {1}
            while node != n:
                node = succ[node]
                assert node not in seen
                seen.add(node)
            assert out.objective_value == pytest.approx(self._dijkstra(weights, 1, n))

    def test_unknown_terminal(self):
        with pytest.raises(InputError):
            models.build_shortest_path(network(ROAD), 1, 99)


def _random_symmetric(rng, n):
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = float(rng.randint(1, 50))
    return d


def _random_asymmetric(rng, n):
    return [[0.0 if i == j else float(rng.randint(1, 50)) for j in range(n)] for i in range(n)]


class TestTour:
    def test_triangle(self):
        d = ((0, 1, 4), (1, 0, 2), (4, 2, 0))
        dm = DistanceMatrix(from_ids=(1, 2, 3), to_ids=(1, 2, 3), d=d)
        out = solve_mip(models.build_tour(dm))
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(7.0)

    def test_random_instances_match_enumeration(self):
        """Four symmetric tours (4 to 6 cities) and forty asymmetric ones (3 to 7)."""
        rng = random.Random(987)
        for trial in range(44):
            if trial < 4:
                n = rng.randint(4, 6)
                d = _random_symmetric(rng, n)
            else:
                n = 3 + trial % 5
                d = _random_asymmetric(rng, n)
            ids = tuple(range(1, n + 1))
            dm = DistanceMatrix(from_ids=ids, to_ids=ids, d=d)
            mip = models.build_tour(dm)
            out = solve_mip(mip)
            assert out.status is Status.OPTIMAL
            assert out.objective_value == pytest.approx(tour_oracle(d))
            u = sorted(
                round(v) for name, v in zip(mip.names, out.x) if name.startswith("U")
            )
            assert u == list(range(1, n + 1))

    def test_lifted_rows_tighten_the_root_bound(self):
        """The lifted MTZ rows against the plain ones (coefficient N on X_ij,
        none on X_ji, rhs N - 1) on the criterion-8 tours: the root LP bound
        never drops, and rises on at least one."""
        rises = 0
        for d, _ in criterion_8_tours():
            n = len(d)
            ids = tuple(range(1, n + 1))
            mip = models.build_tour(DistanceMatrix(ids, ids, d))
            base, u = mip.base, slice(n * (n - 1), None)  # arcs, then u_1..u_N
            plain = np.zeros_like(base.A_ub)
            plain[:, u] = base.A_ub[:, u]
            for row, coef in zip(plain, base.A_ub[:, u]):
                i, j = np.argmax(coef) + 1, np.argmin(coef) + 1  # u_i - u_j
                row[mip.names.index(f"X{i}{j}")] = float(n)
            plain_lp = LinearProgram(
                base.c, base.A_eq, base.b_eq, plain, np.full(len(plain), n - 1.0), base.lo, base.hi
            )
            lifted, old = solve_lp(base), solve_lp(plain_lp)
            assert lifted.status is old.status is Status.OPTIMAL
            assert lifted.objective_value >= old.objective_value - 1e-9
            rises += lifted.objective_value > old.objective_value + 1e-6
        assert rises >= 1

    def test_force_redundant_arc_keeps_objective(self):
        rng = random.Random(55)
        d = _random_symmetric(rng, 5)
        ids = tuple(range(1, 6))
        dm = DistanceMatrix(from_ids=ids, to_ids=ids, d=d)
        mip = models.build_tour(dm)
        out = solve_mip(mip)
        chosen = sorted(selected(mip, out))[0]
        i, j = int(chosen[1]), int(chosen[2])
        forced = solve_mip(models.force_arc(mip, i, j))
        assert forced.objective_value == pytest.approx(out.objective_value)

    def test_force_arc_matches_restricted_enumeration(self):
        rng = random.Random(77)
        d = _random_symmetric(rng, 5)
        ids = tuple(range(1, 6))
        dm = DistanceMatrix(from_ids=ids, to_ids=ids, d=d)
        worst_j = max(range(1, 5), key=lambda j: d[1][j])
        mip = models.force_arc(models.build_tour(dm), 2, worst_j + 1)
        out = solve_mip(mip)
        best = math.inf
        for perm in itertools.permutations(range(1, 5)):
            order = (0,) + perm
            arcs = {(order[i], order[(i + 1) % 5]) for i in range(5)}
            if (1, worst_j) in arcs:
                best = min(best, sum(d[a][b] for a, b in arcs))
        assert out.objective_value == pytest.approx(best)

    def test_conflicting_forced_exits_infeasible(self):
        d = _random_symmetric(random.Random(3), 4)
        ids = (1, 2, 3, 4)
        dm = DistanceMatrix(from_ids=ids, to_ids=ids, d=d)
        mip = models.force_arc(models.force_arc(models.build_tour(dm), 2, 3), 2, 4)
        assert solve_mip(mip).status is Status.INFEASIBLE

    def test_forced_model_shares_the_rows(self):
        d = _random_symmetric(random.Random(8), 4)
        ids = (1, 2, 3, 4)
        mip = models.build_tour(DistanceMatrix(from_ids=ids, to_ids=ids, d=d))
        forced = models.force_arc(mip, 2, 3)
        for name in ("c", "A_eq", "b_eq", "A_ub", "b_ub"):
            assert getattr(forced.base, name) is getattr(mip.base, name), name
        assert np.array_equal(forced.base.hi, mip.base.hi)
        pinned = mip.names.index("X23")
        assert forced.base.lo[pinned] == 1.0 and mip.base.lo[pinned] == 0.0
        assert np.array_equal(np.delete(forced.base.lo, pinned), np.delete(mip.base.lo, pinned))

    def test_columns_in_any_order(self):
        d = _random_symmetric(random.Random(21), 5)
        ids = ("a", "b", "c", "d", "e")
        order = [3, 0, 4, 2, 1]
        shuffled = DistanceMatrix(
            from_ids=ids, to_ids=[ids[k] for k in order], d=[[row[k] for k in order] for row in d]
        )
        expected = models.build_tour(DistanceMatrix(from_ids=ids, to_ids=ids, d=d))
        got = models.build_tour(shuffled)
        assert got.names == expected.names
        for name in ("c", "A_eq", "b_eq", "A_ub", "b_ub", "lo", "hi"):
            assert np.array_equal(getattr(got.base, name), getattr(expected.base, name)), name

    def test_non_square_rejected(self):
        dm = DistanceMatrix(from_ids=(1, 2), to_ids=(1, 2, 3), d=((0, 1, 2), (1, 0, 3)))
        with pytest.raises(InputError):
            models.build_tour(dm)

    @pytest.mark.parametrize(
        "from_ids, to_ids", [((1, 2, 3), (1, 2, 4)), ((1, 2, 3), (1, 2, 2))],
        ids=["other-ids", "repeated-id"],
    )
    def test_different_id_sets_rejected(self, from_ids, to_ids):
        dm = DistanceMatrix(from_ids=from_ids, to_ids=to_ids, d=np.ones((3, 3)))
        with pytest.raises(InputError):
            models.build_tour(dm)

    def test_unknown_forced_arc(self):
        d = _random_symmetric(random.Random(4), 4)
        dm = DistanceMatrix(from_ids=(1, 2, 3, 4), to_ids=(1, 2, 3, 4), d=d)
        with pytest.raises(InputError):
            models.force_arc(models.build_tour(dm), 1, 9)


class TestSetCover:
    def _closed(self, adj):
        return {a: {a}.union(*(p for p in adj.pairs if a in p)) for a in adj.area_ids}

    def test_uniform_costs(self):
        adj = _adjacency(BOUNDARY_PAIRS, range(1, 12))
        mip = models.build_set_cover(adj, [1.0] * 11)
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(3.0)
        picked = {int(name[1:]) for name in selected(mip, out)}
        closed = self._closed(adj)
        assert all(closed[a] & picked for a in adj.area_ids)

    def test_waterfront_costs_match_enumeration(self):
        adj = _adjacency(BOUNDARY_PAIRS, range(1, 12))
        costs = [2.0 if a in (1, 4, 7) else 1.0 for a in adj.area_ids]
        mip = models.build_set_cover(adj, costs)
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        oracle = cover_oracle(adj.area_ids, self._closed(adj), costs)
        assert out.objective_value == pytest.approx(oracle)
        assert len(selected(mip, out)) == 3

    def test_isolated_area_covers_itself(self):
        adj = _adjacency([], ["only"])
        mip = models.build_set_cover(adj, [4.0])
        out = solve_mip(mip)
        assert out.objective_value == pytest.approx(4.0)
        assert selected(mip, out) == {"Xonly"}

    def test_cost_length_mismatch(self):
        adj = _adjacency([], [1, 2])
        with pytest.raises(InputError):
            models.build_set_cover(adj, [1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_cost_must_be_finite_and_positive(self, bad):
        adj = _adjacency([], [1, 2])
        with pytest.raises(InputError, match=f"cost of area 2 must be finite and positive, got {bad:g}"):
            models.build_set_cover(adj, [1.0, bad])


class TestPathEnumeration:
    def test_single_arc(self):
        net = Network(node_ids=("s", "t"), arcs=(("s", "t", 3.0, math.inf),))
        ps = models.enumerate_st_paths(net, "s", "t")
        assert ps.paths == (("s", "t"),)
        assert ps.flow == (3.0,)

    def test_diamond(self):
        net = Network(
            node_ids=("s", "a", "b", "t"),
            arcs=(
                ("s", "a", 1.0, math.inf),
                ("s", "b", 2.0, math.inf),
                ("a", "t", 5.0, math.inf),
                ("b", "t", 1.0, math.inf),
            ),
        )
        ps = models.enumerate_st_paths(net, "s", "t")
        assert ps.paths == (("s", "a", "t"), ("s", "b", "t"))
        assert ps.flow == (1.0, 1.0)  # min arc weight along each path

    def test_unreachable_sink_is_empty(self):
        net = Network(node_ids=(1, 2, 3), arcs=((1, 2, 1.0, math.inf),))
        assert models.enumerate_st_paths(net, 1, 3).paths == ()

    def test_deterministic_ascending_order(self):
        # ROAD lists each tail's arcs in ascending head order, as the road fixture does.
        weights = {k: 1.0 for k in ROAD}
        net = network(weights)
        ps = models.enumerate_st_paths(net, 1, 7)
        assert ps.paths == tuple(sorted(ps.paths))

    def test_out_arcs_are_visited_in_arc_list_order(self):
        net = Network(
            node_ids=("s", "b", "a", "t"),
            arcs=(
                ("s", "b", 1.0, math.inf),
                ("b", "t", 1.0, math.inf),
                ("a", "t", 1.0, math.inf),
                ("s", "t", 1.0, math.inf),
                ("s", "a", 1.0, math.inf),
            ),
        )
        ps = models.enumerate_st_paths(net, "s", "t")
        assert ps.paths == (("s", "b", "t"), ("s", "t"), ("s", "a", "t"))

    def test_flow_override_length_checked(self):
        net = Network(node_ids=("s", "t"), arcs=(("s", "t", 3.0, math.inf),))
        with pytest.raises(InputError, match="one flow value per path required"):
            models.enumerate_st_paths(net, "s", "t", flows=[1.0, 2.0])

    def test_long_chain_without_recursion_limit(self):
        n = 1500  # deeper than Python's default recursion limit
        arcs = tuple((k, k + 1, 1.0, math.inf) for k in range(n - 1))
        ps = models.enumerate_st_paths(Network(node_ids=tuple(range(n)), arcs=arcs), 0, n - 1)
        assert ps.paths == (tuple(range(n)),)
        assert ps.flow == (1.0,)

    def test_none_is_a_node_id(self):
        net = Network(
            node_ids=("s", None, "t"),
            arcs=(("s", None, 2.0, math.inf), (None, "t", 3.0, math.inf), ("s", "t", 1.0, math.inf)),
        )
        ps = models.enumerate_st_paths(net, "s", "t")
        assert ps.paths == (("s", None, "t"), ("s", "t"))
        assert ps.flow == (2.0, 1.0)

    @pytest.mark.parametrize("s, t", [("x", "t"), ("s", "x")])
    def test_endpoint_outside_the_network_rejected(self, s, t):
        net = Network(node_ids=("s", "t"), arcs=(("s", "t", 3.0, math.inf),))
        with pytest.raises(InputError, match="source or sink not in network"):
            models.enumerate_st_paths(net, s, t)


class TestFlowCapture:
    PS = PathSet(
        source=1,
        sink=7,
        paths=tuple(path for path, _ in ROUTES),
        flow=tuple(flow for _, flow in ROUTES),
    )

    def test_three_placements(self):
        mip = models.build_flow_capture(self.PS, (2, 3, 4, 5, 6), 3)
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(15.0)
        assert selected(mip, out, "X") == {"X2", "X3", "X4"}

    def test_objective_monotone_in_p_and_matches_oracle(self):
        values = []
        for p in (1, 2, 3, 4, 5):
            out = solve_mip(models.build_flow_capture(self.PS, (2, 3, 4, 5, 6), p))
            assert out.objective_value == pytest.approx(
                capture_oracle(ROUTES, (2, 3, 4, 5, 6), p)
            )
            values.append(out.objective_value)
        assert values == sorted(values)
        assert values[-1] <= sum(flow for _, flow in ROUTES) + 1e-9

    def test_captured_paths_have_a_placement(self):
        mip = models.build_flow_capture(self.PS, (2, 3, 4, 5, 6), 2)
        out = solve_mip(mip)
        placed = {int(name[1:]) for name in selected(mip, out, "X")}
        for r, (path, _) in enumerate(ROUTES):
            y = out.x[mip.names.index(f"Y{r + 1}")]
            if y > 0.5:
                assert set(path) & placed

    def test_endpoint_candidates_rejected(self):
        with pytest.raises(InputError):
            models.build_flow_capture(self.PS, (1, 2), 1)

    def test_p_above_candidate_count(self):
        with pytest.raises(InputError):
            models.build_flow_capture(self.PS, (2, 3), 3)

    def test_negative_p_rejected(self):
        with pytest.raises(InputError, match="p must be >= 0, got -1"):
            models.build_flow_capture(self.PS, (2, 3), -1)


class TestColoring:
    def test_triangle(self):
        adj = _adjacency([(1, 2), (2, 3), (1, 3)], (1, 2, 3))
        assert solve_mip(models.build_coloring(adj, 3)).status is Status.OPTIMAL
        assert solve_mip(models.build_coloring(adj, 2)).status is Status.INFEASIBLE

    def test_single_color_infeasible_with_any_pair(self):
        adj = _adjacency([(1, 2)], (1, 2))
        assert solve_mip(models.build_coloring(adj, 1)).status is Status.INFEASIBLE

    def test_min_colors_matches_backtracking(self):
        adj = _adjacency(BOUNDARY_PAIRS, range(1, 12))
        result = models.min_colors(adj, 11)
        assert result.colors is not None
        assert result.colors == chromatic_oracle(adj.area_ids, BOUNDARY_PAIRS)
        for a, b in BOUNDARY_PAIRS:
            assert result.assignment[a] != result.assignment[b]

    def test_edgeless_map_needs_one_color(self):
        adj = _adjacency([], range(5))
        result = models.min_colors(adj, 5)
        assert result.colors is not None and result.colors == 1

    def test_not_found_reports_max_tried(self, monkeypatch):
        outcomes = _recorded_solves(monkeypatch)
        adj = _adjacency([(1, 2), (2, 3), (1, 3)], (1, 2, 3))
        result = models.min_colors(adj, 2)
        assert result.colors is None
        assert result == models.MinColorsResult(Status.INFEASIBLE)
        assert outcomes == []  # a triangle needs 3 colors, so max_colors 2 runs no solve

    def test_max_colors_below_one_rejected(self):
        adj = _adjacency([(1, 2)], (1, 2))
        with pytest.raises(InputError, match="max_colors must be >= 1, got 0"):
            models.min_colors(adj, 0)


def _neighborhoods(fixtures):
    return spatial.weights_to_pairs(spatial.parse_gal((fixtures / "neighborhoods.gal").read_text()))


def _recorded_solves(monkeypatch, limits=None):
    """Rebind branch_bound.solve_mip to record each outcome, solved under `limits`."""
    original = branch_bound.solve_mip
    outcomes = []

    def recording(mip, _limits=None):
        outcomes.append(original(mip, limits))
        return outcomes[-1]

    monkeypatch.setattr(branch_bound, "solve_mip", recording)
    return outcomes


def _random_graph(rng):
    """1-8 areas: a complete graph, an edgeless one, or random pairs (which
    leave some areas isolated)."""
    n = rng.randint(1, 8)
    all_pairs = list(itertools.combinations(range(n), 2))
    shape = rng.choice(["complete", "edgeless", "random", "random"])
    if shape == "complete":
        return n, all_pairs
    if shape == "edgeless":
        return n, []
    density = rng.choice([0.3, 0.6])
    return n, [p for p in all_pairs if rng.random() < density]


class TestColoringClique:
    def test_greedy_clique_by_degree_in_area_order(self, fixtures):
        adj = _neighborhoods(fixtures)
        clique = models._greedy_clique(adj.touches)
        assert [adj.area_ids[i] for i in clique] == ["3", "5", "6"]
        demo = _adjacency([("A", "B"), ("B", "C")], ("A", "B", "C"))
        assert models._greedy_clique(demo.touches).tolist() == [0, 1]
        assert models._greedy_clique(_adjacency([], range(4)).touches).tolist() == [0]

    def test_clique_fixed_to_first_colors_through_lower_bounds(self, fixtures):
        adj = _neighborhoods(fixtures)
        n = len(adj.area_ids)
        mip = models.build_coloring(adj, 4)
        assert np.flatnonzero(mip.base.lo).tolist() == [0 * n + 2, 1 * n + 4, 2 * n + 5]
        assert (mip.base.hi == 1.0).all()
        two = models.build_coloring(adj, 2)
        assert np.flatnonzero(two.base.lo).tolist() == [0 * n + 2, 1 * n + 4]

    @pytest.mark.parametrize("colors", [1, 2, 3])
    def test_fewer_colors_than_the_clique_infeasible_at_root(self, colors):
        k4 = _adjacency(itertools.combinations(range(4), 2), range(4))
        out = solve_mip(models.build_coloring(k4, colors))
        assert out.status is Status.INFEASIBLE
        assert out.nodes_explored == 1

    def test_neighborhoods_scan_solves_only_three_and_four(self, fixtures, monkeypatch):
        outcomes = _recorded_solves(monkeypatch)
        adj = _neighborhoods(fixtures)
        result = models.min_colors(adj, 4)
        assert result.status is Status.OPTIMAL and result.colors == 4
        assert [o.status for o in outcomes] == [Status.INFEASIBLE, Status.OPTIMAL]
        assert outcomes[0].nodes_explored == 1
        assert {result.assignment[a] for a in ("3", "5", "6")} == {0, 1, 2}
        for pair in adj.pairs:
            a, b = pair
            assert result.assignment[a] != result.assignment[b]

    @pytest.mark.parametrize(
        "pairs, chromatic",
        [
            ([(i, (i + 1) % 5) for i in range(5)], 3),
            ([(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)], 4),
        ],
        ids=["C5", "W5"],
    )
    def test_chromatic_number_above_the_clique(self, pairs, chromatic, monkeypatch):
        outcomes = _recorded_solves(monkeypatch)
        adj = _adjacency(pairs, sorted({a for p in pairs for a in p}))
        result = models.min_colors(adj, 6)
        assert result.colors == chromatic
        assert [o.status for o in outcomes] == [Status.INFEASIBLE, Status.OPTIMAL]

    @pytest.mark.parametrize("seed", range(48))
    def test_random_graphs_match_backtracking(self, seed):
        rng = random.Random(seed)
        n, pairs = _random_graph(rng)
        adj = _adjacency(pairs, range(n))
        chromatic = chromatic_oracle(adj.area_ids, pairs)
        result = models.min_colors(adj, n)
        assert result.status is Status.OPTIMAL and result.colors == chromatic
        assert sorted(result.assignment) == list(range(n))
        assert all(0 <= c < chromatic for c in result.assignment.values())
        for a, b in pairs:
            assert result.assignment[a] != result.assignment[b]
        if chromatic > 1:
            assert models.min_colors(adj, chromatic - 1) == models.MinColorsResult(
                Status.INFEASIBLE
            )


class TestColoringUnresolved:
    def test_pivot_cap_stops_the_scan(self, fixtures, monkeypatch):
        outcomes = _recorded_solves(monkeypatch, SolveLimits(max_iterations=5))
        result = models.min_colors(_neighborhoods(fixtures), 4)
        assert result == models.MinColorsResult(Status.ITERATION_LIMIT)
        assert [o.status for o in outcomes] == [Status.ITERATION_LIMIT]

    def test_unresolved_count_never_skipped(self, fixtures, monkeypatch):
        """A NUMERICAL k = 3 must not let k = 4's coloring through as the minimum."""
        original = branch_bound.solve_mip
        tried = []

        def numerical_at_three(mip, limits=None):
            colors = mip.num_vars // 11
            tried.append(colors)
            if colors == 3:
                return branch_bound.MipOutcome(status=Status.NUMERICAL)
            return original(mip, limits)

        monkeypatch.setattr(branch_bound, "solve_mip", numerical_at_three)
        result = models.min_colors(_neighborhoods(fixtures), 4)
        assert result == models.MinColorsResult(Status.NUMERICAL)
        assert tried == [3]

    def test_coloring_found_settles_an_unresolved_solve(self, monkeypatch):
        original = branch_bound.solve_mip

        def unresolved(mip, limits=None):
            out = original(mip, limits)
            return dataclasses.replace(out, status=Status.ITERATION_LIMIT)

        monkeypatch.setattr(branch_bound, "solve_mip", unresolved)
        result = models.min_colors(_adjacency([(1, 2)], (1, 2)), 2)
        assert result == models.MinColorsResult(Status.OPTIMAL, 2, {1: 0, 2: 1})


class TestServiceCoverage:
    def test_symmetric_tie(self):
        dm = DistanceMatrix(from_ids=(1, 2), to_ids=(1, 2), d=((1, 9), (9, 1)))
        out = solve_mip(models.build_service_coverage(dm, 1))
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(10.0)

    def test_random_instances_match_enumeration(self):
        rng = random.Random(2024)
        for _ in range(5):
            n = rng.randint(4, 7)
            d = [[float(rng.randint(1, 30)) for _ in range(9)] for _ in range(n)]
            dm = DistanceMatrix(
                from_ids=tuple(range(n)), to_ids=tuple(range(100, 109)), d=d
            )
            mip = models.build_service_coverage(dm, 3)
            out = solve_mip(mip)
            assert out.status is Status.OPTIMAL
            assert out.objective_value == pytest.approx(service_oracle(d, 3))
            assert len(selected(mip, out, "X")) == 3

    def test_all_open_serves_nearest(self):
        d = [[4.0, 2.0, 9.0], [1.0, 8.0, 8.0]]
        dm = DistanceMatrix(from_ids=("a", "b"), to_ids=(1, 2, 3), d=d)
        out = solve_mip(models.build_service_coverage(dm, 3))
        assert out.objective_value == pytest.approx(3.0)

    def test_p_above_candidates(self):
        dm = DistanceMatrix(from_ids=(1,), to_ids=(1, 2), d=((1, 2),))
        with pytest.raises(InputError):
            models.build_service_coverage(dm, 3)

    def test_negative_p_rejected(self):
        dm = DistanceMatrix(from_ids=(1,), to_ids=(1, 2), d=((1, 2),))
        with pytest.raises(InputError, match="p must be >= 0, got -1"):
            models.build_service_coverage(dm, -1)


class TestTransportation:
    COST = DistanceMatrix(from_ids=("A", "B"), to_ids=(1, 2, 3, 4, 5), d=SHIP_COST)

    def test_trivial_single_lane(self):
        cost = DistanceMatrix(from_ids=("A",), to_ids=(1,), d=((2.0,),))
        out = solve_mip(models.build_transportation(cost, [5], [9]))
        assert out.objective_value == pytest.approx(10.0)
        assert out.x[0] == pytest.approx(5.0)

    def test_fixed_capacity(self):
        mip = models.build_transportation(self.COST, STORE_DEMAND, [1000, 3200])
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(8600.0)

    def test_design_capacity(self):
        mip = models.build_transportation(self.COST, STORE_DEMAND, [sum(STORE_DEMAND)] * 2)
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(8400.0)
        shipped_a = sum(out.x[:5])
        shipped_b = sum(out.x[5:])
        assert shipped_a + shipped_b == pytest.approx(sum(STORE_DEMAND))

    def test_demands_met_exactly(self):
        mip = models.build_transportation(self.COST, STORE_DEMAND, [1000, 3200])
        out = solve_mip(mip)
        for j, demand in enumerate(STORE_DEMAND):
            assert out.x[j] + out.x[5 + j] == pytest.approx(demand)

    def test_insufficient_capacity_is_infeasible_solve(self):
        mip = models.build_transportation(self.COST, STORE_DEMAND, [100, 100])
        assert solve_mip(mip).status is Status.INFEASIBLE

    def test_demand_length_checked(self):
        with pytest.raises(InputError):
            models.build_transportation(self.COST, [1, 2], [10, 10])

    @pytest.mark.parametrize(
        "demand, capacity, message",
        [
            ([-3, -3, 1, 1, 1], [1000, 3200], "demand of store 1 .* got -3"),
            ([-3, -3, 1, 1, 1], [sum(STORE_DEMAND)] * 2, "demand of store 1 .* got -3"),
            ([1, 1, math.nan, 1, 1], [1000, 3200], "demand of store 3 .* got nan"),
            (STORE_DEMAND, [1000, -5], "capacity of supplier B .* got -5"),
            (STORE_DEMAND, [math.inf, 3200], "capacity of supplier A .* got inf"),
        ],
        ids=["negative-demand", "negative-demand-design", "nan-demand", "negative-capacity",
             "infinite-capacity"],
    )
    def test_negative_or_non_finite_amount_rejected(self, demand, capacity, message):
        with pytest.raises(InputError, match=message):
            models.build_transportation(self.COST, demand, capacity)


class TestMaxFlow:
    def _oracle(self, capacities, s, t):
        g = nx.DiGraph()
        for (a, b), cap in capacities.items():
            g.add_edge(a, b, capacity=cap)
        return nx.maximum_flow_value(g, s, t)

    def test_seven_node_network(self):
        net = network({k: 1.0 for k in CAPACITIES}, CAPACITIES)
        mip = models.build_max_flow(net, 1, 7)
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(9.0)
        assert out.objective_value == pytest.approx(self._oracle(CAPACITIES, 1, 7))

    def test_conservation_at_intermediate_nodes(self):
        net = network({k: 1.0 for k in CAPACITIES}, CAPACITIES)
        mip = models.build_max_flow(net, 1, 7)
        out = solve_mip(mip)
        arcs = [(t, h) for t, h, _, _ in net.arcs]
        for node in range(2, 7):
            inflow = sum(v for (t, h), v in zip(arcs, out.x) if h == node)
            outflow = sum(v for (t, h), v in zip(arcs, out.x) if t == node)
            assert abs(inflow - outflow) <= 1e-7

    def test_sink_cap(self):
        net = network({k: 1.0 for k in CAPACITIES}, CAPACITIES)
        out = solve_mip(models.build_max_flow(net, 1, 7, sink_cap=5.0))
        assert out.objective_value == pytest.approx(5.0)

    def test_single_arc(self):
        net = Network(node_ids=("s", "t"), arcs=(("s", "t", 1.0, 4.0),))
        out = solve_mip(models.build_max_flow(net, "s", "t"))
        assert out.objective_value == pytest.approx(4.0)

    def test_random_networks_match_oracle(self):
        rng = random.Random(606)
        for _ in range(5):
            n = rng.randint(4, 7)
            caps = {}
            for a in range(1, n):
                caps[(a, a + 1)] = rng.randint(1, 9)
            for _ in range(n):
                a, b = rng.sample(range(1, n + 1), 2)
                if b == 1 or a == n:  # keep the source pure-out, sink pure-in
                    continue
                caps.setdefault((a, b), rng.randint(1, 9))
            net = Network(
                node_ids=tuple(range(1, n + 1)),
                arcs=tuple((a, b, 1.0, c) for (a, b), c in caps.items()),
            )
            out = solve_mip(models.build_max_flow(net, 1, n))
            assert out.objective_value == pytest.approx(self._oracle(caps, 1, n))

    def test_source_equals_sink(self):
        net = Network(node_ids=(1, 2), arcs=((1, 2, 1.0, 1.0),))
        with pytest.raises(InputError):
            models.build_max_flow(net, 1, 1)

    @pytest.mark.parametrize("sink_cap", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_sink_cap_rejected(self, sink_cap):
        net = Network(node_ids=(1, 2), arcs=((1, 2, 1.0, 1.0),))
        with pytest.raises(InputError, match="sink_cap must be finite and non-negative"):
            models.build_max_flow(net, 1, 2, sink_cap=sink_cap)


def _facility_oracle(unit_cost, fixed, demand, capacity):
    """Enumerate open sets; evaluate each with a continuous transportation LP."""
    m, n = len(fixed), len(demand)
    best = math.inf
    for mask in range(1, 1 << m):
        open_set = [i for i in range(m) if mask >> i & 1]
        if sum(capacity[i] for i in open_set) < sum(demand):
            continue
        cost = DistanceMatrix(
            from_ids=tuple(open_set),
            to_ids=tuple(range(n)),
            d=tuple(tuple(unit_cost[i]) for i in open_set),
        )
        mip = models.build_transportation(
            cost, demand, [capacity[i] for i in open_set]
        )
        out = solve_lp(mip.base)
        if out.status is Status.OPTIMAL:
            best = min(best, out.objective_value + sum(fixed[i] for i in open_set))
    return best


class TestFacilityLocation:
    UNIT = ((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (1, 2, 3, 4, 5), (5, 4, 3, 2, 1))
    FIXED = (20, 30, 20, 30)
    DEMAND = (10, 20, 30, 40, 50)
    CAPACITY = (60, 10, 50, 55)

    def _mip(self):
        cost = DistanceMatrix(from_ids=(1, 2, 3, 4), to_ids=(1, 2, 3, 4, 5), d=self.UNIT)
        return models.build_facility_location(cost, self.FIXED, self.DEMAND, self.CAPACITY)

    def test_reference_instance(self):
        mip = self._mip()
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(410.0)
        opened = [round(out.x[mip.names.index(f"X{i}")]) for i in (1, 2, 3, 4)]
        assert opened == [1, 0, 1, 1]

    def test_closed_facility_ships_nothing(self):
        mip = self._mip()
        out = solve_mip(mip)
        shipped_2 = sum(
            v for name, v in zip(mip.names, out.x) if name.startswith("Y2")
        )
        assert shipped_2 == pytest.approx(0.0, abs=1e-9)

    def test_zero_fixed_costs_reduce_to_transportation(self):
        cost = DistanceMatrix(from_ids=(1,), to_ids=(1, 2), d=((2.0, 3.0),))
        mip = models.build_facility_location(cost, [0.0], [4, 6], [10])
        out = solve_mip(mip)
        transport = solve_mip(
            models.build_transportation(cost, [4, 6], [10])
        )
        assert out.objective_value == pytest.approx(transport.objective_value)

    def test_random_instances_match_subset_oracle(self):
        rng = random.Random(840)
        for _ in range(4):
            unit = [[float(rng.randint(1, 9)) for _ in range(3)] for _ in range(3)]
            fixed = [float(rng.randint(0, 20)) for _ in range(3)]
            demand = [float(rng.randint(1, 10)) for _ in range(3)]
            capacity = [float(rng.randint(8, 20)) for _ in range(3)]
            cost = DistanceMatrix(from_ids=(1, 2, 3), to_ids=(1, 2, 3), d=unit)
            mip = models.build_facility_location(cost, fixed, demand, capacity)
            out = solve_mip(mip)
            assert out.status is Status.OPTIMAL
            assert out.objective_value == pytest.approx(
                _facility_oracle(unit, fixed, demand, capacity)
            )

    def test_total_capacity_below_demand(self):
        cost = DistanceMatrix(from_ids=(1,), to_ids=(1,), d=((1.0,),))
        with pytest.raises(InputError):
            models.build_facility_location(cost, [1.0], [5.0], [2.0])

    @pytest.mark.parametrize(
        "fixed, demand, capacity, message",
        [
            ([1, 1], [4, 6], [-5, 20], "capacity of facility 1 .* got -5"),
            ([1, 1], [4, 6], [10, math.nan], "capacity of facility 2 .* got nan"),
            ([1, 1], [4, -6], [10, 20], "demand of store 2 .* got -6"),
            ([1, 1], [math.inf, 6], [10, 20], "demand of store 1 .* got inf"),
            ([math.nan, 1], [4, 6], [10, 20], "fixed cost of facility 1 .* got nan"),
            ([1, -100], [4, 6], [10, 20], "fixed cost of facility 2 .* got -100"),
        ],
        ids=["negative-capacity", "nan-capacity", "negative-demand", "infinite-demand",
             "nan-fixed-cost", "negative-fixed-cost"],
    )
    def test_negative_or_non_finite_amount_rejected(self, fixed, demand, capacity, message):
        # With capacities [-5, 20] the model used to solve OPTIMAL with facility 1
        # closed, and with fixed costs [1, -100] OPTIMAL at objective -90.
        cost = DistanceMatrix(from_ids=(1, 2), to_ids=(1, 2), d=((2.0, 3.0), (1.0, 1.0)))
        with pytest.raises(InputError, match=message):
            models.build_facility_location(cost, fixed, demand, capacity)
