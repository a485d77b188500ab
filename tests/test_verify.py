from __future__ import annotations

import itertools

import pytest

from spanlab.engine import compute_span
from spanlab.errors import OrderTooSmallError, TooLargeError
from spanlab.families import (
    cycle_graph,
    named_graph,
    paramecium_graph,
    path_graph,
)
from spanlab.graph import Graph
from spanlab.io import emit_graph6
from spanlab.verify import (
    RULES,
    canonical_edge_mask,
    check_graph,
    check_theorems,
    clamp_jobs,
    cut_edge_bound,
    enumerate_connected,
    is_isomorphic,
    oracle_span,
    random_graphs,
)

T, A, L = RULES


class TestOracle:
    def test_k2_lazy_zero(self):
        assert oracle_span(Graph(2, [(0, 1)]), L) == 0

    def test_c5_lazy_two(self):
        assert oracle_span(cycle_graph(5), L) == 2

    def test_p3_active_one(self):
        assert oracle_span(path_graph(3), A) == 1

    def test_paramecium3_all_rules(self):
        g = paramecium_graph(3)
        assert (oracle_span(g, T), oracle_span(g, A), oracle_span(g, L)) == (2, 1, 2)

    def test_k1(self):
        assert all(oracle_span(Graph(1, []), rule) == 0 for rule in RULES)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            oracle_span(cycle_graph(7), T)

    def test_agrees_with_engine_exhaustively_to_4(self):
        for n in range(1, 5):
            for g in enumerate_connected(n):
                for rule in RULES:
                    assert oracle_span(g, rule) == compute_span(g, rule).value

    def test_agrees_with_engine_on_5_vertex_classes(self):
        for g in enumerate_connected(5, dedup=True):
            for rule in RULES:
                assert oracle_span(g, rule) == compute_span(g, rule).value

    def test_agrees_with_engine_on_random_6_vertex_graphs(self):
        for g in random_graphs(25, (6, 6), 0.35, seed=60):
            for rule in RULES:
                assert oracle_span(g, rule) == compute_span(g, rule).value


class TestEnumerate:
    def test_n2_is_just_k2(self):
        gs = list(enumerate_connected(2))
        assert gs == [Graph(2, [(0, 1)])]

    def test_labeled_counts(self):
        assert sum(1 for _ in enumerate_connected(3)) == 4
        assert sum(1 for _ in enumerate_connected(4)) == 38
        assert sum(1 for _ in enumerate_connected(5)) == 728

    def test_dedup_counts(self):
        got = [sum(1 for _ in enumerate_connected(n, dedup=True)) for n in (1, 2, 3, 4, 5)]
        assert got == [1, 1, 2, 6, 21]

    def test_dedup_n4_against_brute_force(self):
        labeled = list(enumerate_connected(4))
        assert len(labeled) == 38
        classes: list[Graph] = []
        for g in labeled:
            if not any(is_isomorphic(g, h) for h in classes):
                classes.append(g)
        assert len(classes) == 6

    def test_order5_radius2_classes_match_the_atlas(self):
        from spanlab.families import order5_radius2_atlas

        classes = [g for g in enumerate_connected(5, dedup=True) if g.radius == 2]
        assert len(classes) == 10
        atlas = order5_radius2_atlas()
        for g in classes:
            matches = [name for name, ag, _ in atlas if is_isomorphic(g, ag)]
            assert len(matches) == 1

    def test_dedup_classes_match_networkx_atlas(self):
        # networkx bundles every graph on up to 7 vertices (the Atlas of
        # Graphs), one per isomorphism class; it is a test-only oracle.
        import networkx as nx

        atlas: dict[int, list[int]] = {n: [] for n in range(1, 7)}
        for a in nx.graph_atlas_g():
            n = a.number_of_nodes()
            if 1 <= n <= 6 and nx.is_connected(a):
                atlas[n].append(canonical_edge_mask(Graph(n, a.edges())))
        counts = []
        for n in range(1, 7):
            classes = [canonical_edge_mask(g) for g in enumerate_connected(n, dedup=True)]
            for mask in classes:
                assert atlas[n].count(mask) == 1
            assert len(set(classes)) == len(classes) == len(atlas[n])
            counts.append(len(classes))
        assert counts == [1, 1, 2, 6, 21, 112]

    def test_labeled_n7_streams_lazily(self):
        first = list(itertools.islice(enumerate_connected(7), 3))
        assert [g.n for g in first] == [7, 7, 7]
        assert first[0].edges() == tuple((0, v) for v in range(1, 7))

    def test_caps(self):
        with pytest.raises(TooLargeError):
            next(enumerate_connected(8))
        with pytest.raises(TooLargeError):
            next(enumerate_connected(7, dedup=True))

    def test_stream_is_ascending_and_deterministic(self):
        first = [emit_graph6(g) for g in enumerate_connected(4)]
        second = [emit_graph6(g) for g in enumerate_connected(4)]
        assert first == second

        def edge_mask(g):
            slots = [(u, v) for v in range(1, g.n) for u in range(v)]
            return sum(1 << i for i, uv in enumerate(slots) if uv in set(g.edges()))

        masks = [edge_mask(g) for g in enumerate_connected(4)]
        assert masks == sorted(masks)


class TestRandomGraphs:
    def test_deterministic_for_fixed_seed(self):
        a = [emit_graph6(g) for g in random_graphs(30, (4, 9), 0.3, 7)]
        b = [emit_graph6(g) for g in random_graphs(30, (4, 9), 0.3, 7)]
        assert a == b

    def test_all_connected_in_range(self):
        for g in random_graphs(40, (2, 10), 0.25, 11):
            assert 2 <= g.n <= 10  # construction guarantees connectivity

    def test_probability_one_gives_complete_graphs(self):
        for g in random_graphs(5, (3, 6), 1.0, 3):
            assert g.edge_count == g.n * (g.n - 1) // 2
            assert tuple(compute_span(g, rule).value for rule in RULES) == (1, 1, 1)


class TestCutEdgeBound:
    def test_fig6_left(self):
        g = named_graph("fig6_left")
        assert cut_edge_bound(g) == 1 and g.radius == 2

    def test_fig6_right(self):
        g = named_graph("fig6_right")
        assert cut_edge_bound(g) == 4 and g.radius == 3

    def test_bridgeless(self):
        assert cut_edge_bound(cycle_graph(6)) is None

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmallError):
            cut_edge_bound(Graph(2, [(0, 1)]))

    def test_bounds_dominate_strong_span_small_corpus(self):
        for g in itertools.chain(
            enumerate_connected(4), enumerate_connected(5, dedup=True)
        ):
            if g.n < 3:
                continue
            bound = cut_edge_bound(g)
            strong = compute_span(g, T).value
            assert strong <= g.radius
            if bound is not None:
                assert strong <= bound

    def test_incomparable_with_radius(self):
        left = named_graph("fig6_left")
        right = named_graph("fig6_right")
        assert cut_edge_bound(left) < left.radius
        assert cut_edge_bound(right) > right.radius


class TestCheckTheorems:
    def test_small_corpus_clean(self):
        corpus = [g for n in range(1, 5) for g in enumerate_connected(n)]
        report = check_theorems(corpus, jobs=1, check_witnesses=True)
        assert report.graphs_checked == len(corpus)
        assert report.counterexamples == []
        assert report.cartesian_gt_direct == []

    def test_paramecium3_record(self):
        record = check_graph(paramecium_graph(3), check_witnesses=True)
        assert (record.strong, record.direct, record.cartesian) == (2, 1, 2)
        assert record.cartesian_gt_direct
        assert record.ok
        assert record.cut_bound == 2

    def test_record_line_shape(self):
        record = check_graph(cycle_graph(5))
        line = record.to_line()
        assert line.startswith("graph6=")
        for key in ("radius=", "strong=", "direct=", "cartesian=", "cut_bound=", "ok="):
            assert key in line

    def test_summary_mentions_counts(self):
        report = check_theorems(list(enumerate_connected(3)), jobs=1)
        text = "\n".join(report.summary_lines())
        assert "0 counterexamples; 0 graphs with cartesian>direct" in text

    def test_parallel_matches_sequential(self):
        corpus = list(enumerate_connected(4))
        seq = check_theorems(corpus, jobs=1)
        par = check_theorems(corpus, jobs=2)
        assert [r.to_line() for r in seq.records] == [r.to_line() for r in par.records]


class TestClampJobs:
    @pytest.mark.parametrize("jobs, expected", [(0, 1), (-3, 1), (1, 1), (2, 2), (10**9, 4)])
    def test_held_between_one_and_cpu_count(self, jobs, expected):
        assert clamp_jobs(jobs, cpus=4, corpus_size=100) == expected

    def test_corpus_size_caps_workers(self):
        assert clamp_jobs(8, cpus=16, corpus_size=3) == 3
        assert clamp_jobs(8, cpus=16, corpus_size=0) == 1
