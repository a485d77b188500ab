from __future__ import annotations

import pickle

import networkx as nx
import pytest
from hypothesis import given

from spanlab.engine import compute_span, extract_witness_tracks
from spanlab.families import (
    complete_bipartite_graph,
    cycle_graph,
    named_graph,
    paramecium_graph,
    path_graph,
)
from spanlab.graph import Graph, _bits, _levels
from spanlab.product import (
    MovementRule,
    _pair_space,
    build_pair_graph,
    components_with_double_surjectivity,
    pair_neighbors,
)
from spanlab.verify import enumerate_connected

from conftest import connected_graphs, floyd_warshall, relabelled

ALL_RULES = (MovementRule.TRADITIONAL, MovementRule.ACTIVE, MovementRule.LAZY)


def brute_force_pairs(g, r):
    return {
        (u, v)
        for u in range(g.n)
        for v in range(g.n)
        if g.distance(u, v) >= r
    }


class TestMovementRule:
    def test_span_names(self):
        assert MovementRule.TRADITIONAL.span_name == "strong"
        assert MovementRule.ACTIVE.span_name == "direct"
        assert MovementRule.LAZY.span_name == "cartesian"

    @pytest.mark.parametrize("name", ["strong", "TRADITIONAL", "lazy", "Cartesian"])
    def test_from_name_accepts_both_vocabularies(self, name):
        assert MovementRule.from_name(name) in ALL_RULES

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            MovementRule.from_name("weak")


def mirrored(mask: int, n: int) -> int:
    """``mask`` with the actors swapped: bit ``u * n + v`` moved to ``v * n + u``."""
    return sum(1 << (v * n + u) for u, v in (divmod(i, n) for i in _bits(mask)))


def assert_union(g):
    """The traditional step is the active step OR the lazy step."""
    strong, active, lazy = (pair_neighbors(g, rule) for rule in ALL_RULES)
    for i in range(g.n * g.n):
        assert strong(i) == active(i) | lazy(i), (g.edges(), divmod(i, g.n))


def small_classes_and_fig1():
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n, dedup=True)]
    graphs.append(named_graph("fig1"))
    assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 1
    return graphs


class TestBuildPairGraph:
    def test_c4_lazy_threshold_1_has_12_vertices(self):
        # All 12 ordered pairs with distinct coordinates are at distance >= 1.
        pg = build_pair_graph(cycle_graph(4), MovementRule.LAZY, 1)
        assert pg.vertex_count == 12
        assert set(pg.pairs()) == brute_force_pairs(cycle_graph(4), 1)

    def test_c4_threshold_2_has_4_antipodal_pairs(self):
        pg = build_pair_graph(cycle_graph(4), MovementRule.LAZY, 2)
        assert sorted(pg.pairs()) == [(0, 2), (1, 3), (2, 0), (3, 1)]

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_threshold_zero_keeps_all_ordered_pairs(self, rule):
        g = path_graph(5)
        assert build_pair_graph(g, rule, 0).vertex_count == 25

    def test_k2_active_swap_edge(self):
        pg = build_pair_graph(Graph(2, [(0, 1)]), MovementRule.ACTIVE, 1)
        assert pg.pairs() == [(0, 1), (1, 0)]
        assert pg.neighbors(0, 1) == [(1, 0)]
        assert pg.neighbors(1, 0) == [(0, 1)]

    def test_threshold_above_radius_keeps_farther_pairs(self):
        # Above the radius only pairs farther apart than it survive: P4's
        # two ends at distance 3, and none on C4.  No projection covers.
        for g, count in ((path_graph(4), 2), (cycle_graph(4), 0)):
            r = g.radius + 1
            for rule in ALL_RULES:
                pg = build_pair_graph(g, rule, r)
                assert set(pg.pairs()) == brute_force_pairs(g, r)
                assert pg.vertex_count == count
                assert components_with_double_surjectivity(pg) == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_pair_graph(cycle_graph(4), MovementRule.ACTIVE, -1)

    @given(connected_graphs(max_n=7))
    def test_vertex_set_is_distance_filtered(self, g):
        for r in range(g.radius + 1):
            pg = build_pair_graph(g, MovementRule.TRADITIONAL, r)
            assert set(pg.pairs()) == brute_force_pairs(g, r)

    # The rule properties are checked on the live step, ``pair_neighbors``,
    # at every pair index.  A threshold only ANDs a step with a pair set
    # that swapping the actors maps onto itself (``d(u, v) == d(v, u)``),
    # so no threshold can break them, and no threshold loop is needed.
    @given(connected_graphs(max_n=7))
    def test_traditional_edges_are_union_of_active_and_lazy(self, g):
        assert_union(g)

    def test_union_property_exhaustive_small(self):
        for g in small_classes_and_fig1():
            assert_union(g)

    @given(connected_graphs(max_n=7))
    def test_swap_is_an_automorphism(self, g):
        # The mirror pair ``(v, u)`` steps to the mirror image of the step
        # of ``(u, v)``.
        n = g.n
        for rule in ALL_RULES:
            step = pair_neighbors(g, rule)
            for i in range(n * n):
                u, v = divmod(i, n)
                assert step(v * n + u) == mirrored(step(i), n), (g.edges(), rule, u, v)

    def test_no_self_loops(self):
        for g in small_classes_and_fig1():
            for rule in ALL_RULES:
                step = pair_neighbors(g, rule)
                for i in range(g.n * g.n):
                    assert not step(i) >> i & 1, (g.edges(), rule, divmod(i, g.n))


def small_graphs_and_fig1():
    return [g for n in range(1, 5) for g in enumerate_connected(n)] + [named_graph("fig1")]


def defined_step(g, rule, u, v):
    """The pairs one ``rule`` step from ``(u, v)``, from the rule's definition."""
    closed_u, closed_v = {u, *g.neighbors(u)}, {v, *g.neighbors(v)}
    if rule is MovementRule.TRADITIONAL:
        return {(a, b) for a in closed_u for b in closed_v} - {(u, v)}
    if rule is MovementRule.ACTIVE:
        return {(a, b) for a in g.neighbors(u) for b in g.neighbors(v)}
    return {(a, v) for a in g.neighbors(u)} | {(u, b) for b in g.neighbors(v)}


class TestPairNeighbors:
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.value)
    def test_step_matches_the_rule_definition(self, rule):
        graphs = small_graphs_and_fig1()
        for g in graphs:
            n = g.n
            step = pair_neighbors(g, rule)
            for u in range(n):
                for v in range(n):
                    mask = step(u * n + v)
                    got = {divmod(i, n) for i in _bits(mask)}
                    assert got == defined_step(g, rule, u, v), (g.edges(), u, v)
        assert len(graphs) == 1 + 1 + 4 + 38 + 1

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.value)
    def test_levels_are_breadth_first_distances(self, rule):
        # The k-th level from a pair holds the pairs at distance k from it
        # in the pair graph, at every threshold.
        for g in small_graphs_and_fig1():
            step = pair_neighbors(g, rule)
            for r in range(g.radius + 1):
                pg = build_pair_graph(g, rule, r)
                within = sum(1 << pg.index(u, v) for u, v in pg.pairs())
                nxg = nx.Graph()
                nxg.add_nodes_from(pg.pairs())
                nxg.add_edges_from((p, q) for p in pg.pairs() for q in pg.neighbors(*p))
                for source in pg.pairs():
                    expected: dict[int, set] = {}
                    for pair, d in nx.single_source_shortest_path_length(nxg, source).items():
                        if d:
                            expected.setdefault(d, set()).add(pair)
                    levels = _levels(step, pg.index(*source), within)
                    got = {
                        k: {pg.pair_of(i) for i in _bits(level)}
                        for k, level in enumerate(levels, start=1)
                    }
                    assert got == expected, (g.edges(), rule, r, source)

    def test_rule_name_refused(self):
        # A name would fall through to the strong step: the direct span of
        # PC5 is 2, the strong span 3.
        g = paramecium_graph(5)
        for call in (pair_neighbors, compute_span):
            with pytest.raises(TypeError, match="'active' is not a MovementRule"):
                call(g, "active")


class TestComponents:
    def test_k2_active_single_qualifying_component(self):
        pg = build_pair_graph(Graph(2, [(0, 1)]), MovementRule.ACTIVE, 1)
        comps = components_with_double_surjectivity(pg)
        assert comps == [((0, 1), (1, 0))]

    def test_p4_lazy_has_no_qualifying_component(self):
        pg = build_pair_graph(path_graph(4), MovementRule.LAZY, 1)
        assert components_with_double_surjectivity(pg) == []

    def test_c4_active_antipodal_component(self):
        pg = build_pair_graph(cycle_graph(4), MovementRule.ACTIVE, 2)
        comps = components_with_double_surjectivity(pg)
        assert comps == [((0, 2), (1, 3), (2, 0), (3, 1))]

    @given(connected_graphs(max_n=6))
    def test_monotonicity_in_threshold(self, g):
        # Every qualifying component at a higher threshold sits inside a
        # qualifying component at each lower one.
        for rule in ALL_RULES:
            comps_by_r = [
                components_with_double_surjectivity(build_pair_graph(g, rule, r))
                for r in range(g.radius + 1)
            ]
            for r in range(1, g.radius + 1):
                for comp in comps_by_r[r]:
                    members = set(comp)
                    assert any(
                        members <= set(low) for low in comps_by_r[r - 1]
                    )

    def test_components_cover_pair_graph(self):
        pg = build_pair_graph(path_graph(4), MovementRule.ACTIVE, 1)
        comps = pg.components()
        assert sorted(p for comp in comps for p in comp) == sorted(pg.pairs())


def reference_pair_space(g):
    """The pair space's tables from scratch: buckets of ``u <= v`` pairs by
    ``min(d(u, v), radius)``; the mask of all pairs at distance >= radius;
    for each vertex u the mask with bit ``w * n``
    set for each neighbour w; and the same two masks over u's closed
    neighbourhood, with bits w and ``w * n``; and, for each degree sum
    that occurs, ascending, the mask of the pairs ``(u, v)`` with
    ``deg(u) + deg(v)`` equal to it."""
    n = g.n
    d = floyd_warshall(g)
    top = min(max(row) for row in d)
    buckets = [[] for _ in range(top + 1)]
    for u in range(n):
        for v in range(u, n):
            buckets[min(d[u][v], top)].append(u * n + v)
    far = sum(1 << (u * n + v) for u in range(n) for v in range(n) if d[u][v] >= top)
    spread = [sum(1 << (w * n) for w in range(n) if g.has_edge(u, w)) for u in range(n)]
    closed = [[w for w in range(n) if w == u or g.has_edge(u, w)] for u in range(n)]
    degree_sums = {}
    for u in range(n):
        for v in range(n):
            s = g.degree(u) + g.degree(v)
            degree_sums[s] = degree_sums.get(s, 0) | 1 << (u * n + v)
    return (
        buckets,
        far,
        spread,
        [sum(1 << w for w in ws) for ws in closed],
        [sum(1 << (w * n) for w in ws) for ws in closed],
        [degree_sums[s] for s in sorted(degree_sums)],
    )


def spans_and_walks(g, rules):
    out = {}
    for rule in rules:
        report = compute_span(g, rule)
        tracks = extract_witness_tracks(report)
        out[rule] = (report.value, report.members, tracks.f, tracks.g)
    return out


class TestPairSpace:
    def test_shared_tables_are_exact_and_read_only(self):
        graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
        graphs += [relabelled(path_graph(16), 16), relabelled(complete_bipartite_graph(8, 8), 8)]
        assert len(graphs) == 774
        for g in graphs:
            # Each rule on its own fresh graph shares no table with another.
            alone = {rule: spans_and_walks(Graph(g.n, g.edges()), [rule])[rule] for rule in ALL_RULES}
            assert g._pairs is None
            forward = spans_and_walks(g, ALL_RULES)
            space = _pair_space(g)
            backward = spans_and_walks(g, ALL_RULES[::-1])
            assert _pair_space(g) is space
            assert forward == backward == alone, g.edges()

            buckets, far, *tables = reference_pair_space(g)
            assert type(space.far) is int
            assert all(type(table) is tuple for table in (space.buckets, *space[2:]))
            assert all(type(bucket) is tuple for bucket in space.buckets)
            assert [list(bucket) for bucket in space.buckets] == buckets, g.edges()
            assert space.far == far, g.edges()
            assert [list(table) for table in space[2:]] == tables, g.edges()

    def test_pickled_graph_keeps_its_spans(self):
        for g in (named_graph("fig1"), relabelled(path_graph(16), 3), complete_bipartite_graph(4, 5)):
            before = spans_and_walks(g, ALL_RULES)
            copy = pickle.loads(pickle.dumps(g))
            assert copy == g
            assert spans_and_walks(copy, ALL_RULES) == before
            assert _pair_space(copy) == _pair_space(g)
