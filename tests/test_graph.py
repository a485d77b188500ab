from __future__ import annotations

import pytest
from hypothesis import given

from spanlab.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyGraphError,
    NotABridgeError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from spanlab.families import (
    complete_graph,
    cycle_graph,
    named_graph,
    paramecium_graph,
    path_graph,
)
from spanlab.graph import Graph, bridges, eccentricity, split_at_bridge

from conftest import bridges_by_removal, connected_graphs, floyd_warshall

FIG1_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 3), (2, 5)]


class TestBuildGraph:
    def test_single_vertex_is_connected(self):
        g = Graph(1, [])
        assert g.n == 1 and g.edges() == ()

    def test_fig1_graph_builds(self):
        g = Graph(6, FIG1_EDGES)
        assert g.edge_count == 8

    def test_two_components_rejected(self):
        with pytest.raises(DisconnectedError):
            Graph(4, [(0, 1), (2, 3)])

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

    def test_labels_side_table(self):
        g = Graph(2, [(0, 1)], labels=["a", "b"])
        assert g.label(0) == "a" and g.label(1) == "b"
        assert Graph(2, [(0, 1)]).label(1) == "1"


class TestDistances:
    def test_path_endpoints(self):
        assert path_graph(4).distance(0, 3) == 3

    def test_fig1_u1_u4(self):
        assert Graph(6, FIG1_EDGES).distance(0, 3) == 2

    def test_cycle_antipodes(self):
        g = cycle_graph(6)
        assert all(g.distance(v, (v + 3) % 6) == 3 for v in range(6))

    @given(connected_graphs(max_n=8))
    def test_matches_floyd_warshall(self, g):
        assert [list(row) for row in g.distances] == floyd_warshall(g)

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


class TestSplitAtBridge:
    def test_k2_splits_into_singletons(self):
        split = split_at_bridge(Graph(2, [(0, 1)]), (0, 1))
        assert split.side_x.n == 1 and split.side_y.n == 1
        assert split.map_x == (0,) and split.map_y == (1,)

    def test_fig6_left_two_triangles(self):
        g = named_graph("fig6_left")
        split = split_at_bridge(g, (4, 5))
        assert split.side_x.n == 3 and split.side_y.n == 3
        assert eccentricity(split.side_x, split.x) == 1
        assert eccentricity(split.side_y, split.y) == 1

    def test_labels_carry_into_sides(self):
        p = Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
        split = split_at_bridge(p, (1, 2))
        assert split.side_x.labels == ("a", "b")
        assert split.side_y.labels == ("c",)

    def test_fig6_right_bound_value(self):
        g = named_graph("fig6_right")
        split = split_at_bridge(g, (5, 6))
        assert max(
            eccentricity(split.side_x, split.x),
            eccentricity(split.side_y, split.y),
        ) == 4

    def test_not_a_bridge(self):
        with pytest.raises(NotABridgeError):
            split_at_bridge(cycle_graph(4), (0, 1))

    def test_missing_edge(self):
        with pytest.raises(NotABridgeError):
            split_at_bridge(path_graph(4), (0, 3))

    @given(connected_graphs(min_n=2, max_n=8))
    def test_sides_partition_the_graph(self, g):
        for edge in bridges(g):
            split = split_at_bridge(g, edge)
            assert split.side_x.n + split.side_y.n == g.n
            assert sorted(split.map_x + split.map_y) == list(range(g.n))
            assert split.map_x[split.x] == edge[0]
            assert split.map_y[split.y] == edge[1]
