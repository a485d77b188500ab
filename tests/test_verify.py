from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import networkx as nx
import pytest

from spanlab import verify
from spanlab.engine import compute_span
from spanlab.errors import OrderTooSmallError, TooLargeError
from spanlab.families import (
    NAMED_GRAPH_IDS,
    cycle_graph,
    named_graph,
    paramecium_graph,
    path_graph,
)
from spanlab.graph import Graph
from spanlab.io import emit_graph6
from spanlab.verify import (
    ORACLE_MAX_N,
    RULES,
    check_graph,
    check_theorems,
    clamp_jobs,
    cut_edge_bound,
    enumerate_connected,
    oracle_span,
    random_graphs,
)

from conftest import to_networkx

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
            oracle_span(cycle_graph(8), T)

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
        classes: list[nx.Graph] = []
        for g in map(to_networkx, labeled):
            if not any(nx.is_isomorphic(g, h) for h in classes):
                classes.append(g)
        assert len(classes) == 6

    def test_order5_radius2_classes_match_the_atlas(self):
        # P_5, C_5 and the eight bundled fig7 graphs, one per class.
        atlas = [path_graph(5), cycle_graph(5)]
        atlas += [named_graph(gid) for gid in NAMED_GRAPH_IDS if gid.startswith("fig7_")]
        classes = [g for g in enumerate_connected(5, dedup=True) if g.radius == 2]
        assert len(classes) == len(atlas) == 10
        for g in classes:
            matches = [ag for ag in atlas if nx.is_isomorphic(to_networkx(g), to_networkx(ag))]
            assert len(matches) == 1

    def test_dedup_classes_match_networkx_atlas(self):
        # networkx bundles every graph on up to 7 vertices (the Atlas of
        # Graphs), one per isomorphism class; it is a test-only oracle.
        # Each class must match exactly one atlas graph, and no two classes
        # the same one.
        atlas: dict[int, list[nx.Graph]] = {n: [] for n in range(1, 7)}
        for a in nx.graph_atlas_g():
            n = a.number_of_nodes()
            if 1 <= n <= 6 and nx.is_connected(a):
                atlas[n].append(a)
        counts = []
        for n in range(1, 7):
            classes = [to_networkx(g) for g in enumerate_connected(n, dedup=True)]
            matched = []
            for g in classes:
                hits = [i for i, a in enumerate(atlas[n]) if nx.is_isomorphic(g, a)]
                assert len(hits) == 1
                matched += hits
            assert len(set(matched)) == len(classes) == len(atlas[n])
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

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            list(random_graphs(-3, (4, 9), 0.3, 7))

    def test_order_over_the_cap_refused_before_drawing(self, monkeypatch):
        class NoDraws(random.Random):
            def random(self):
                raise AssertionError("an edge was drawn")

        monkeypatch.setattr(verify, "random", SimpleNamespace(Random=NoDraws))
        with pytest.raises(TooLargeError, match="order cap"):
            next(random_graphs(1, (10**5, 10**5), 0.3, 0))

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

    def test_order7_atlas_against_oracle(self):
        # networkx's atlas holds one graph per isomorphism class; its 853
        # connected order-7 classes are checked against the oracle directly.
        corpus = [
            Graph(7, a.edges())
            for a in nx.graph_atlas_g()
            if a.number_of_nodes() == 7 and nx.is_connected(a)
        ]
        report = check_theorems(corpus, jobs=1, check_witnesses=True, oracle_max_n=7)
        assert report.graphs_checked == 853
        assert all(r.oracle_checked for r in report.records)
        assert report.counterexamples == []
        # The order-7 counts quoted in the README.
        assert len(report.cartesian_gt_direct) == 11
        cut = [r for r in report.records if r.cut_bound is not None]
        assert len(cut) == 351
        assert sum(r.strong == r.cut_bound for r in cut) == 215

    def test_oracle_cap_over_the_limit_refused_up_front(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a graph was checked")

        monkeypatch.setattr(verify, "check_graph", fail)
        corpus = [path_graph(3), cycle_graph(8)]
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="oracle"):
                check_theorems(corpus, jobs=jobs, oracle_max_n=ORACLE_MAX_N + 1)

    def test_parallel_matches_sequential(self):
        # A one-graph corpus gets one worker at jobs=2, in this process.
        full = list(enumerate_connected(4))
        for corpus in (full, full[:1]):
            for witnesses in (False, True):
                seq = check_theorems(corpus, jobs=1, check_witnesses=witnesses)
                par = check_theorems(corpus, jobs=2, check_witnesses=witnesses)
                assert [r.to_line() for r in seq.records] == [r.to_line() for r in par.records]


class TestClampJobs:
    @pytest.mark.parametrize("jobs, expected", [(0, 1), (-3, 1), (1, 1), (2, 2), (10**9, 4)])
    def test_held_between_one_and_cpu_count(self, jobs, expected):
        assert clamp_jobs(jobs, cpus=4, corpus_size=100) == expected

    def test_corpus_size_caps_workers(self):
        assert clamp_jobs(8, cpus=16, corpus_size=3) == 3
        assert clamp_jobs(8, cpus=16, corpus_size=0) == 1
