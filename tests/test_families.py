from __future__ import annotations

import networkx as nx
import pytest

from spanlab.engine import compute_span
from spanlab.errors import ParameterOutOfRangeError, TooLargeError, UnknownGraphIdError
from spanlab.families import (
    FamilySpec,
    NAMED_GRAPH_IDS,
    binary_tree_graph,
    cycle_graph,
    default_family_sweep,
    expected_spans,
    generate,
    hypercube_graph,
    named_graph,
    paramecium_graph,
    path_graph,
    star_graph,
    wheel_graph,
)
from spanlab.graph import MAX_ORDER
from spanlab.product import MovementRule
from spanlab.verify import RULES, oracle_span

from conftest import to_networkx


class TestGenerate:
    def test_paramecium_3_counts(self):
        g = paramecium_graph(3)
        assert g.n == 6 and g.edge_count == 6

    def test_paramecium_vertex_numbering(self):
        g = paramecium_graph(4)
        assert all(g.has_edge(i, 4 + i) for i in range(4))
        assert all(g.degree(4 + i) == 1 for i in range(4))

    def test_binary_tree_2(self):
        g = binary_tree_graph(2)
        assert g.n == 7 and g.radius == 2

    def test_binary_tree_level_order(self):
        g = binary_tree_graph(3)
        assert g.n == 15
        assert all(g.has_edge(i, 2 * i + 1) and g.has_edge(i, 2 * i + 2) for i in range(7))

    def test_hypercube_3(self):
        g = hypercube_graph(3)
        assert g.n == 8 and g.edge_count == 12 and g.radius == 3

    def test_wheel_and_star_have_radius_1(self):
        assert wheel_graph(6).radius == 1
        assert star_graph(6).radius == 1

    def test_generate_dispatch(self):
        assert generate(FamilySpec("cycle", 5)) == cycle_graph(5)
        assert generate(FamilySpec("complete_bipartite", 2, 3)).n == 5

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("path", 1),
            FamilySpec("cycle", 2),
            FamilySpec("hypercube", 1),
            FamilySpec("complete_bipartite", 1, 3),
            FamilySpec("complete_bipartite", 2, None),
            FamilySpec("complete", 2),
            FamilySpec("star", 3),
            FamilySpec("wheel", 3),
            FamilySpec("paramecium", 2),
            FamilySpec("binary_tree", 0),
            FamilySpec("grid", 3),
        ],
    )
    def test_out_of_range_rejected(self, spec):
        with pytest.raises(ParameterOutOfRangeError):
            generate(spec)

    def test_unknown_kind_has_no_display_name(self):
        with pytest.raises(ParameterOutOfRangeError):
            FamilySpec("grid", 3).display_name

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("path", MAX_ORDER + 1),
            FamilySpec("complete_bipartite", MAX_ORDER // 2, MAX_ORDER // 2 + 1),
            FamilySpec("paramecium", MAX_ORDER // 2 + 1),
            FamilySpec("hypercube", MAX_ORDER.bit_length()),
            FamilySpec("binary_tree", MAX_ORDER.bit_length()),
        ],
    )
    def test_order_above_cap_rejected_before_building(self, spec):
        with pytest.raises(TooLargeError):
            generate(spec)


class TestExpectedSpans:
    def test_paramecium_5(self):
        assert expected_spans(FamilySpec("paramecium", 5)) == (3, 2, 3)

    def test_cycle_6(self):
        assert expected_spans(FamilySpec("cycle", 6)) == (3, 3, 2)

    def test_star_4(self):
        assert expected_spans(FamilySpec("star", 4)) == (1, 1, 1)

    def test_height_one_tree_is_the_three_vertex_path(self):
        # BT_1 is P_3, so the path values apply instead of the h-1 formula.
        assert expected_spans(FamilySpec("binary_tree", 1)) == (1, 1, 0)
        assert expected_spans(FamilySpec("binary_tree", 2)) == (1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRangeError):
            expected_spans(FamilySpec("cycle", 2))

    def test_consistent_with_span_relations(self):
        for spec in default_family_sweep():
            want = expected_spans(spec)
            assert want.strong >= max(want.direct, want.cartesian)
            assert abs(want.direct - want.cartesian) <= 1

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("path", 6),
            FamilySpec("cycle", 5),
            FamilySpec("cycle", 6),
            FamilySpec("hypercube", 2),
            FamilySpec("complete_bipartite", 2, 2),
            FamilySpec("complete", 4),
            FamilySpec("star", 5),
            FamilySpec("wheel", 5),
            FamilySpec("paramecium", 3),
            FamilySpec("paramecium", 4),
            FamilySpec("binary_tree", 1),
            FamilySpec("binary_tree", 2),
        ],
    )
    def test_engine_matches_formula(self, spec):
        g = generate(spec)
        got = tuple(compute_span(g, rule).value for rule in RULES)
        assert got == expected_spans(spec)


class TestRadiusFormulas:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_paramecium_radius(self, n):
        assert paramecium_graph(n).radius == n // 2 + 1

    @pytest.mark.parametrize("h", range(1, 5))
    def test_binary_tree_radius(self, h):
        assert binary_tree_graph(h).radius == h


class TestNamedGraphs:
    def test_fig2_g1_is_k2(self):
        g = named_graph("fig2_g1")
        assert g.n == 2 and g.edges() == ((0, 1),)

    def test_fig2_g2_shape(self):
        g = named_graph("fig2_g2")
        assert g.n == 6 and g.edge_count == 6

    def test_fig1_labels(self):
        g = named_graph("fig1")
        assert g.label(0) == "u1" and g.label(5) == "u6"

    def test_fig6_radii(self):
        assert named_graph("fig6_left").radius == 2
        assert named_graph("fig6_right").radius == 3

    @pytest.mark.parametrize("gid", [g for g in NAMED_GRAPH_IDS if g.startswith("fig7")])
    def test_fig7_graphs_have_order_5_radius_2(self, gid):
        g = named_graph(gid)
        assert g.n == 5 and g.radius == 2

    def test_fig7_graphs_pairwise_non_isomorphic(self):
        graphs = [named_graph(g) for g in NAMED_GRAPH_IDS if g.startswith("fig7")]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not nx.is_isomorphic(to_networkx(graphs[i]), to_networkx(graphs[j]))

    def test_unknown_id(self):
        with pytest.raises(UnknownGraphIdError):
            named_graph("fig9")

    def test_atlas_span_pairs(self):
        # The fig7 graphs' (direct, cartesian) pairs: the engine agrees with
        # the oracle.  The acceptance suite checks both against its table.
        for gid in NAMED_GRAPH_IDS:
            if gid.startswith("fig7_"):
                g = named_graph(gid)
                for rule in (MovementRule.ACTIVE, MovementRule.LAZY):
                    assert compute_span(g, rule).value == oracle_span(g, rule), (gid, rule)

    def test_atlas_covers_spans_table(self):
        # fig7_a..fig7_h with P_5 and C_5 are the ten order-5 radius-2
        # classes of the acceptance table: none of the eight is P_5 or C_5.
        fig7 = [gid for gid in NAMED_GRAPH_IDS if gid.startswith("fig7_")]
        assert fig7 == [f"fig7_{c}" for c in "abcdefgh"]
        for gid in fig7:
            for other in (path_graph(5), cycle_graph(5)):
                assert not nx.is_isomorphic(to_networkx(named_graph(gid)), to_networkx(other))
