from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import example, given

from spanlab.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyGraphError,
    SelfLoopError,
    TooLargeError,
    VertexOutOfRangeError,
)
from spanlab.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    paramecium_graph,
    path_graph,
)
from spanlab.graph import MAX_ORDER, Graph, _levels, bridges, eccentricity
from spanlab.verify import random_graphs

from conftest import Id, bridges_by_removal, connected_graphs, floyd_warshall, relabelled

FIG1_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 3), (2, 5)]


def grid_graph(side: int) -> Graph:
    """The side x side grid, vertex ``r * side + c`` at row r, column c."""
    n = side * side
    right = [(v, v + 1) for v in range(n) if (v + 1) % side]
    return Graph(n, right + [(v, v + side) for v in range(n - side)])


# Graphs past ``connected_graphs``' order 8: most row masks here are wider
# than one 30-bit CPython int digit.
WIDE_GRAPHS = (
    relabelled(path_graph(80), 1),
    relabelled(grid_graph(12), 2),
    complete_bipartite_graph(14, 14),
    hypercube_graph(6),
    next(random_graphs(1, (60, 60), 0.1, 3)),
)


def with_wide_examples(test):
    """``test`` run on each of ``WIDE_GRAPHS`` as an explicit example."""
    for g in WIDE_GRAPHS:
        test = example(g=g)(test)
    return test


class TestBuildGraph:
    def test_single_vertex_is_connected(self):
        g = Graph(1, [])
        assert g.n == 1 and g.edges() == ()

    def test_fig1_graph_builds(self):
        g = Graph(6, FIG1_EDGES)
        assert g.edge_count == 8

    @pytest.mark.parametrize(
        "n, edges, missing",
        [(4, [(0, 1), (2, 3)], 2), (41, [(v, v + 1) for v in range(39)], 40)],
        ids=["two-edges", "P40-and-isolated-vertex"],
    )
    def test_two_components_rejected(self, n, edges, missing):
        with pytest.raises(DisconnectedError, match=f"^vertex {missing} unreachable from vertex 0$"):
            Graph(n, edges)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            Graph(0, [])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(2, [(0, 1), (1, 1)])

    @pytest.mark.parametrize("dup", [[(0, 1), (0, 1), (1, 2)], [(0, 1), (1, 0), (1, 2)]])
    def test_duplicate_edge_rejected_not_deduped(self, dup):
        with pytest.raises(DuplicateEdgeError):
            Graph(3, dup)

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            Graph(2, [(0, 2)])

    @pytest.mark.parametrize("n", [MAX_ORDER + 1, 99_999_999_999])
    def test_order_above_cap_rejected_before_allocating(self, n):
        with pytest.raises(TooLargeError):
            Graph(n, [])

    @pytest.mark.parametrize("wrap", [lambda u, v: (Id(u), Id(v)), lambda u, v: (u, Id(v))],
                             ids=["both-ids", "second-id"])
    def test_integer_like_ids_read_as_ints(self, wrap):
        # Ids past 63 matter: numpy's ``1 << np.int64(64)`` wraps to 0, which
        # would read P80's edge (64, 65) as a duplicate.
        edges = [(v, v + 1) for v in range(79)]
        g = Graph(Id(80), [wrap(u, v) for u, v in edges])
        assert type(g.n) is int and g.n == 80
        assert g == Graph(80, edges) and g.distances == path_graph(80).distances

    def test_accessors_read_integer_like_ids_as_ints(self):
        # P80's masks are wider than a C long, to which a shift by a numpy
        # integer would convert them: ``has_edge(78, np.int64(79))`` would
        # overflow.
        g = Graph(80, [(v, v + 1) for v in range(79)])
        assert g.neighbors(Id(79)) == (78,) and g.degree(Id(40)) == 2
        assert g.has_edge(78, Id(79)) and g.has_edge(Id(79), Id(78))
        assert not g.has_edge(Id(0), Id(79))
        assert g.label(Id(79)) == "79"
        assert g.distance(Id(0), Id(79)) == 79 and eccentricity(g, Id(40)) == 40
        with pytest.raises(VertexOutOfRangeError):
            g.has_edge(Id(0), Id(80))
        with pytest.raises(TypeError):
            g.label(1.0)

    @pytest.mark.parametrize("n, edges, bad", [(5.0, [(0, 1)], "5.0"), (3, [(0, 1), (1, 2.0)], "2.0")],
                             ids=["order", "id"])
    def test_float_order_or_id_raises_type_error(self, n, edges, bad):
        with pytest.raises(TypeError, match=bad) as caught:
            Graph(n, edges)
        assert caught.value.__suppress_context__  # one error, not a chain of two

    def test_labels_side_table(self):
        g = Graph(2, [(0, 1)], labels=["a", "b"])
        assert g.label(0) == "a" and g.label(1) == "b"
        assert Graph(2, [(0, 1)]).label(1) == "1"

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
    def test_label_count_must_match_order(self, labels):
        with pytest.raises(ValueError, match=f"got {len(labels)} labels for 2 vertices"):
            Graph(2, [(0, 1)], labels=labels)

    def test_edges_are_the_sorted_normalised_input(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 12)
            tree = [(rng.randrange(v), v) for v in range(1, n)]
            extra = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.3]
            edges = list(set(tree) | set(extra))
            rng.shuffle(edges)
            given_edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            g = Graph(n, given_edges)
            assert g.edges() == tuple(sorted(edges))
            assert g.edge_count == len(edges)

    def test_pickle_round_trip_keeps_everything(self):
        g = Graph(6, FIG1_EDGES, labels=["u1", "u2", "u3", "u4", "u5", "u6"])
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
        assert back.labels == g.labels
        assert back.distances == g.distances
        assert (back.radius, back.diameter) == (g.radius, g.diameter)
        assert back.edges() == g.edges()


class TestDistances:
    def test_path_endpoints(self):
        assert path_graph(4).distance(0, 3) == 3

    def test_fig1_u1_u4(self):
        assert Graph(6, FIG1_EDGES).distance(0, 3) == 2

    def test_cycle_antipodes(self):
        g = cycle_graph(6)
        assert all(g.distance(v, (v + 3) % 6) == 3 for v in range(6))

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_out_of_range_ids_raise(self, u, v):
        # A negative id used to index from the end: d(-1, 0) read as 3 on P4.
        with pytest.raises(VertexOutOfRangeError):
            path_graph(4).distance(u, v)

    @given(connected_graphs(max_n=8))
    @with_wide_examples
    def test_matches_floyd_warshall(self, g):
        assert [list(row) for row in g.distances] == floyd_warshall(g)

    @given(connected_graphs(max_n=8))
    def test_levels_group_vertices_by_distance(self, g):
        full = (1 << g.n) - 1
        for s, row in enumerate(g.distances):
            by_distance = [
                sum(1 << v for v, d in enumerate(row) if d == k) for k in range(1, max(row) + 1)
            ]
            assert list(_levels(g._masks.__getitem__, s, full)) == by_distance

    @given(connected_graphs(max_n=8))
    def test_matrix_invariants(self, g):
        d = g.distances
        for u in range(g.n):
            assert d[u][u] == 0
            for v in range(g.n):
                assert d[u][v] == d[v][u]
                assert (d[u][v] == 1) == g.has_edge(u, v)
                for w in range(g.n):
                    assert d[u][w] <= d[u][v] + d[v][w]


class TestEccentricityRadiusDiameter:
    def test_path_center(self):
        assert eccentricity(path_graph(5), 2) == 2

    def test_paramecium_5_eccentricities(self):
        # Radius floor(5/2)+1 = 3 sits on the cycle vertices; a leaf sees
        # the opposite leaves at distance 4.
        g = paramecium_graph(5)
        assert g.radius == 3
        assert eccentricity(g, 0) == 3
        assert eccentricity(g, 5) == 4

    def test_complete_graph(self):
        g = complete_graph(4)
        assert all(eccentricity(g, v) == 1 for v in range(4))

    def test_cycle_radius(self):
        assert cycle_graph(7).radius == 3

    def test_k1_radius(self):
        assert Graph(1, []).radius == 0

    @given(connected_graphs(max_n=8))
    @with_wide_examples
    def test_radius_ecc_diameter_chain(self, g):
        for u in range(g.n):
            assert g.radius <= eccentricity(g, u) <= g.diameter <= 2 * g.radius


class TestBridges:
    def test_path_all_edges(self):
        assert bridges(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]

    def test_cycle_none(self):
        assert bridges(cycle_graph(6)) == []

    def test_paramecium_pendants(self):
        assert bridges(paramecium_graph(3)) == [(0, 3), (1, 4), (2, 5)]

    @given(connected_graphs(max_n=8))
    def test_matches_removal_oracle(self, g):
        assert bridges(g) == bridges_by_removal(g)
