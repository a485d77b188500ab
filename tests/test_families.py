from __future__ import annotations

import pytest

from spanlab.engine import compute_span
from spanlab.errors import ParameterOutOfRangeError, TooLargeError, UnknownGraphIdError
from spanlab.families import (
    FamilySpec,
    NAMED_GRAPH_IDS,
    ORDER5_RADIUS2_SPANS,
    binary_tree_graph,
    cycle_graph,
    default_family_sweep,
    expected_spans,
    generate,
    hypercube_graph,
    named_graph,
    order5_radius2_atlas,
    paramecium_graph,
    star_graph,
    wheel_graph,
)
from spanlab.graph import MAX_ORDER
from spanlab.product import MovementRule
from spanlab.verify import RULES, is_isomorphic


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
        assert expected_spans(FamilySpec("paramecium", 5)).as_tuple() == (3, 2, 3)

    def test_cycle_6(self):
        assert expected_spans(FamilySpec("cycle", 6)).as_tuple() == (3, 3, 2)

    def test_star_4(self):
        assert expected_spans(FamilySpec("star", 4)).as_tuple() == (1, 1, 1)

    def test_height_one_tree_is_the_three_vertex_path(self):
        # BT_1 is P_3, so the path values apply instead of the h-1 formula.
        assert expected_spans(FamilySpec("binary_tree", 1)).as_tuple() == (1, 1, 0)
        assert expected_spans(FamilySpec("binary_tree", 2)).as_tuple() == (1, 1, 1)

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
        assert got == expected_spans(spec).as_tuple()


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
                assert not is_isomorphic(graphs[i], graphs[j])

    def test_unknown_id(self):
        with pytest.raises(UnknownGraphIdError):
            named_graph("fig9")

    def test_atlas_span_pairs(self):
        atlas = order5_radius2_atlas()
        assert len(atlas) == 10
        for name, g, (direct, cartesian) in atlas:
            assert compute_span(g, MovementRule.ACTIVE).value == direct, name
            assert compute_span(g, MovementRule.LAZY).value == cartesian, name

    def test_atlas_covers_spans_table(self):
        assert set(ORDER5_RADIUS2_SPANS) == {
            name for name, _, _ in order5_radius2_atlas()
        }
