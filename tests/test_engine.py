from __future__ import annotations

import pytest
from hypothesis import given

from spanlab.engine import (
    SpanReport,
    TrackPair,
    compute_span,
    direct_to_lazy,
    extract_witness_tracks,
    lazy_to_direct,
    move_attribution,
    validate_tracks,
)
from spanlab.errors import (
    NotActiveConformantError,
    NotLazyConformantError,
    VertexOutOfRangeError,
)
from spanlab.families import (
    complete_bipartite_graph,
    cycle_graph,
    hypercube_graph,
    named_graph,
    paramecium_graph,
    path_graph,
)
from spanlab.graph import Graph
from spanlab.product import MovementRule
from spanlab.verify import enumerate_connected

from hypothesis import strategies as st

from conftest import connected_graphs, covering

T, A, L = MovementRule.TRADITIONAL, MovementRule.ACTIVE, MovementRule.LAZY


@st.composite
def lazy_walk_pairs(draw):
    """Arbitrary lazy-conformant (not necessarily covering) walk pairs."""
    g = draw(connected_graphs(min_n=2, max_n=6))
    f = [draw(st.integers(0, g.n - 1))]
    b = [draw(st.integers(0, g.n - 1))]
    for alice_moves, pick in draw(
        st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=12)
    ):
        walk = f if alice_moves else b
        other = b if alice_moves else f
        nbrs = g.neighbors(walk[-1])
        walk.append(nbrs[pick % len(nbrs)])
        other.append(other[-1])
    return g, TrackPair(tuple(f), tuple(b), L)


@st.composite
def active_walk_pairs(draw):
    """Arbitrary active-conformant walk pairs."""
    g = draw(connected_graphs(min_n=2, max_n=6))
    f = [draw(st.integers(0, g.n - 1))]
    b = [draw(st.integers(0, g.n - 1))]
    for pick_f, pick_b in draw(
        st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=12)
    ):
        for walk, pick in ((f, pick_f), (b, pick_b)):
            nbrs = g.neighbors(walk[-1])
            walk.append(nbrs[pick % len(nbrs)])
    return g, TrackPair(tuple(f), tuple(b), A)


def spans(g):
    return tuple(compute_span(g, rule).value for rule in (T, A, L))


class TestComputeSpan:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_paths(self, n):
        assert spans(path_graph(n)) == (1, 1, 0)

    @pytest.mark.parametrize(
        "n,lazy", [(7, 3), (8, 3), (5, 2), (4, 1), (3, 1)]
    )
    def test_cycles_lazy(self, n, lazy):
        assert compute_span(cycle_graph(n), L).value == lazy

    def test_cycles_active(self):
        assert compute_span(cycle_graph(8), A).value == 4
        assert compute_span(cycle_graph(7), A).value == 3

    def test_cube(self):
        g = hypercube_graph(3)
        assert compute_span(g, T).value == 3
        assert compute_span(g, L).value == 2

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(2, 3)
        assert compute_span(g, T).value == 2
        assert compute_span(g, L).value == 1

    def test_fig2_extremes(self):
        g1 = named_graph("fig2_g1")
        assert compute_span(g1, A).value == 1
        assert compute_span(g1, L).value == 0
        g2 = named_graph("fig2_g2")
        assert compute_span(g2, A).value == 1
        assert compute_span(g2, L).value == 2

    def test_fig1_radius_is_achieved_under_every_rule(self):
        # The bundled 6-vertex example ships a labelled distance-2 walk
        # pair; the engine and the oracle both put all three spans at the
        # radius.
        from spanlab.verify import oracle_span

        g = named_graph("fig1")
        for rule in (T, A, L):
            assert compute_span(g, rule).value == 2
            assert oracle_span(g, rule) == 2

    def test_single_vertex(self):
        for rule in (T, A, L):
            report = compute_span(Graph(1, []), rule)
            assert report.value == 0
            assert report.witness_component == ((0, 0),)

    @given(connected_graphs(max_n=7))
    def test_report_invariants(self, g):
        for rule in (T, A, L):
            report = compute_span(g, rule)
            assert 0 <= report.value <= g.radius
            assert min(g.distance(u, v) for u, v in report.witness_component) == report.value

    @given(connected_graphs(max_n=7))
    def test_span_relations(self, g):
        strong, direct, cartesian = spans(g)
        assert strong >= max(direct, cartesian)
        assert abs(direct - cartesian) <= 1

    def test_deterministic(self):
        g = named_graph("fig1")
        assert compute_span(g, T) == compute_span(g, T)

    def test_repr_of_a_large_member_mask(self):
        # P130's strong-rule mask spans 16,900 pair bits, about 5,100
        # decimal digits: over the 4,300 that int-to-decimal conversion allows.
        report = compute_span(path_graph(130), T)
        assert f"members={report.members:#x})" in repr(report)


class TestExtractWitness:
    def test_k2_active_swap(self):
        report = compute_span(Graph(2, [(0, 1)]), A)
        tracks = extract_witness_tracks(report)
        assert covering(validate_tracks(report.graph, tracks), 1)

    def test_c4_active_keeps_antipodal(self):
        g = cycle_graph(4)
        report = compute_span(g, A)
        tracks = extract_witness_tracks(report)
        assert all(g.distance(u, v) == 2 for u, v in tracks.positions())

    def test_paramecium5_lazy_parks_on_leaves(self):
        g = paramecium_graph(5)
        report = compute_span(g, L)
        assert report.value == 3
        assert covering(validate_tracks(g, extract_witness_tracks(report)), 3)

    def test_walk_length_bound(self):
        g = named_graph("fig1")
        for rule in (T, A, L):
            report = compute_span(g, rule)
            tracks = extract_witness_tracks(report)
            assert tracks.length <= 2 * len(report.witness_component) - 1

    def test_non_covering_component_raises(self):
        # (0, 1) alone, pair index 0 * 2 + 1, never puts vertex 1 in
        # Alice's walk, and the search for it finds no member to step to.
        report = SpanReport(Graph(2, [(0, 1)]), A, 1, 1 << 1)
        assert report.witness_component == ((0, 1),)
        with pytest.raises(ValueError, match="cover"):
            extract_witness_tracks(report)

    def test_empty_component_raises(self):
        report = SpanReport(Graph(2, [(0, 1)]), A, 1, 0)
        with pytest.raises(ValueError, match="empty"):
            extract_witness_tracks(report)

    @pytest.mark.parametrize("rule", (T, A, L), ids=lambda r: r.value)
    def test_every_order_le_5_walk_is_valid_and_bounded(self, rule):
        failures = []
        for n in range(1, 6):
            for g in enumerate_connected(n):
                report = compute_span(g, rule)
                tracks = extract_witness_tracks(report)
                if not (
                    covering(validate_tracks(g, tracks), report.value)
                    and tracks.length <= 2 * len(report.witness_component) - 1
                ):
                    failures.append(g.edges())
        assert failures == []

    @given(connected_graphs(max_n=7))
    def test_round_trip_all_rules(self, g):
        for rule in (T, A, L):
            report = compute_span(g, rule)
            assert covering(validate_tracks(g, extract_witness_tracks(report)), report.value)


FIG1_WALKS = TrackPair(f=(3, 4, 5, 0, 1, 2), g=(0, 1, 3, 2, 5, 4), rule=A)


class TestValidateTracks:
    def test_fig1_walks_conform_and_keep_distance_2(self):
        g = named_graph("fig1")
        assert covering(validate_tracks(g, FIG1_WALKS), 2)

    def test_shared_walk_fails_lazy(self):
        g = path_graph(3)
        walk = (0, 1, 2, 1, 0)
        val = validate_tracks(g, TrackPair(walk, walk, L))
        assert not val.conforms

    def test_both_stay_fails_lazy_but_passes_traditional(self):
        g = path_graph(3)
        f = (0, 0, 1, 2)
        b = (2, 2, 2, 1)
        assert not validate_tracks(g, TrackPair(f, b, L)).conforms
        assert validate_tracks(g, TrackPair(f, b, T)).conforms

    def test_stay_fails_active(self):
        g = path_graph(3)
        assert not validate_tracks(g, TrackPair((0, 0), (2, 1), A)).conforms

    def test_jump_fails_every_rule(self):
        g = path_graph(4)
        for rule in (T, A, L):
            assert not validate_tracks(g, TrackPair((0, 2), (3, 3), rule)).conforms

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            validate_tracks(path_graph(3), TrackPair((0, 3), (1, 1), T))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            validate_tracks(path_graph(3), TrackPair((0, 1), (1,), T))

    def test_empty(self):
        with pytest.raises(ValueError):
            validate_tracks(path_graph(3), TrackPair((), (), T))

    def test_non_surjective_flagged(self):
        g = path_graph(3)
        val = validate_tracks(g, TrackPair((0, 1), (2, 1), L))
        assert not val.surjective_f and not val.surjective_g


# Alternating opposite-lazy walk around the 5-cycle holding distance 2.
C5_LAZY_F = (0, 4, 4, 3, 3, 2, 2, 1, 1, 0, 0)
C5_LAZY_G = (2, 2, 1, 1, 0, 0, 4, 4, 3, 3, 2)


class TestMoveAttribution:
    def test_alternating_walk(self):
        g = cycle_graph(5)
        attribution = move_attribution(g, TrackPair(C5_LAZY_F, C5_LAZY_G, L))
        assert attribution.x == (1, 2) * 5
        assert attribution.mixed_pairs == 5

    def test_same_mover_pairs_not_mixed(self):
        g = cycle_graph(4)
        t = TrackPair((0, 1, 2), (2, 2, 2), L)
        attribution = move_attribution(g, t)
        assert attribution.x == (1, 1)
        assert attribution.mixed_pairs == 0

    def test_rejects_non_lazy(self):
        with pytest.raises(NotLazyConformantError):
            move_attribution(named_graph("fig1"), FIG1_WALKS)


class TestDirectToLazy:
    def test_single_step_tracks_unchanged(self):
        g = Graph(1, [])
        t = TrackPair((0,), (0,), A)
        out = direct_to_lazy(g, t)
        assert out.f == (0,) and out.g == (0,) and out.rule is L

    def test_interleaving_formula(self):
        g = named_graph("fig1")
        out = direct_to_lazy(g, FIG1_WALKS)
        assert out.length == 2 * FIG1_WALKS.length - 1
        assert out.f == tuple(FIG1_WALKS.f[(j + 1) // 2] for j in range(out.length))
        assert out.g == tuple(FIG1_WALKS.g[j // 2] for j in range(out.length))
        assert covering(validate_tracks(g, out), 2 - 1, at_least=True)

    def test_c4_antipodal(self):
        g = cycle_graph(4)
        tracks = extract_witness_tracks(compute_span(g, A))
        out = direct_to_lazy(g, tracks)
        val = validate_tracks(g, out)
        assert val.conforms and val.min_distance >= 2 - 1

    def test_k2_swap_degenerate_bound(self):
        g = Graph(2, [(0, 1)])
        out = direct_to_lazy(g, TrackPair((0, 1), (1, 0), A))
        val = validate_tracks(g, out)
        assert val.conforms and val.min_distance >= 0

    def test_rejects_non_active(self):
        g = path_graph(3)
        with pytest.raises(NotActiveConformantError):
            direct_to_lazy(g, TrackPair((0, 0, 1), (2, 2, 2), A))


class TestLazyToDirect:
    def test_alternating_walk_collapses_exactly(self):
        g = cycle_graph(5)
        t = TrackPair(C5_LAZY_F, C5_LAZY_G, L)
        assert validate_tracks(g, t).min_distance == 2
        out = lazy_to_direct(g, t)
        a = move_attribution(g, t).mixed_pairs
        assert a == (t.length - 1) // 2
        assert out.length == t.length - a
        # Fully mixed pairs mean no bounce vertices and no distance loss.
        assert covering(validate_tracks(g, out), 2)
        assert set(out.positions()) <= set(t.positions())

    def test_trailing_unpaired_step_bounces(self):
        g = cycle_graph(4)
        out = lazy_to_direct(g, TrackPair((0, 1), (2, 2), L))
        assert (out.f, out.g) == ((0, 1), (2, 3))

    def test_same_mover_pair_bounces(self):
        g = cycle_graph(4)
        t = TrackPair((0, 1, 2), (2, 2, 2), L)
        out = lazy_to_direct(g, t)
        assert out.length == 3
        val = validate_tracks(g, out)
        assert val.conforms
        assert val.min_distance >= validate_tracks(g, t).min_distance - 1

    def test_paramecium5_witness_meets_active_ceiling(self):
        g = paramecium_graph(5)
        tracks = extract_witness_tracks(compute_span(g, L))
        out = lazy_to_direct(g, tracks)
        assert covering(validate_tracks(g, out), 3 - 1, at_least=True)
        assert compute_span(g, A).value == 2

    def test_fig2_g2_witness_and_ceiling(self):
        g = named_graph("fig2_g2")
        tracks = extract_witness_tracks(compute_span(g, L))
        out = lazy_to_direct(g, tracks)
        val = validate_tracks(g, out)
        assert val.conforms and val.min_distance >= 2 - 1
        assert compute_span(g, A).value == 1

    def test_rejects_non_lazy(self):
        g = named_graph("fig1")
        with pytest.raises(NotLazyConformantError):
            lazy_to_direct(g, FIG1_WALKS)

    @given(lazy_walk_pairs())
    def test_contract_on_arbitrary_lazy_walks(self, graph_and_tracks):
        g, t = graph_and_tracks
        before = validate_tracks(g, t)
        out = lazy_to_direct(g, t)
        after = validate_tracks(g, out)
        assert after.conforms
        assert out.length == t.length - move_attribution(g, t).mixed_pairs
        assert after.min_distance >= before.min_distance - 1
        # Every original position survives; bounces only add vertices.
        assert set(t.f) <= set(out.f) and set(t.g) <= set(out.g)

    @given(active_walk_pairs())
    def test_contract_on_arbitrary_active_walks(self, graph_and_tracks):
        g, t = graph_and_tracks
        before = validate_tracks(g, t)
        out = direct_to_lazy(g, t)
        after = validate_tracks(g, out)
        assert after.conforms
        assert out.length == 2 * t.length - 1
        assert after.min_distance >= before.min_distance - 1
        assert set(out.f) == set(t.f) and set(out.g) == set(t.g)

    @given(connected_graphs(min_n=2, max_n=7))
    def test_contracts_on_extracted_witnesses(self, g):
        lazy_report = compute_span(g, L)
        lazy_tracks = extract_witness_tracks(lazy_report)
        out = lazy_to_direct(g, lazy_tracks)
        assert covering(validate_tracks(g, out), lazy_report.value - 1, at_least=True)

        active_report = compute_span(g, A)
        active_tracks = extract_witness_tracks(active_report)
        back = direct_to_lazy(g, active_tracks)
        assert covering(validate_tracks(g, back), active_report.value - 1, at_least=True)
