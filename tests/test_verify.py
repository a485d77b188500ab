from __future__ import annotations

import itertools
import random
from collections import Counter
from types import SimpleNamespace

import networkx as nx
import pytest

from spanlab import engine, verify
from spanlab.engine import (
    TrackPair,
    compute_span,
    direct_to_lazy,
    lazy_to_direct,
    validate_tracks,
)
from spanlab.errors import (
    NotActiveConformantError,
    NotLazyConformantError,
    OrderTooSmallError,
    TooLargeError,
)
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


def _spans(strong=2, direct=2, cartesian=2):
    """Stand-ins for ``compute_span`` and the oracle that agree on these
    span values, for a graph checked without witnesses."""
    values = {T: strong, A: direct, L: cartesian}
    return {
        "compute_span": lambda g, rule: SimpleNamespace(value=values[rule]),
        "oracle_span": lambda g, rule: values[rule],
    }


# C5 breaks no relation (spans 2, 2, 2, radius 2, no bridge), so each of
# check_graph's relation checks is forced by stand-ins for names it reads
# from verify.  Each violation maps to its stand-ins and the middle fields of
# its record line.  The transforms' stand-ins keep the walks but give them
# the wrong rule, so the transformed walks do not conform.
FORCED_VIOLATIONS = {
    "strong_ge_max": (_spans(strong=1), "strong=1 direct=2 cartesian=2 cut_bound=none oracle=agree"),
    "direct_cartesian_diff": (_spans(direct=0), "strong=2 direct=0 cartesian=2 cut_bound=none oracle=agree"),
    "span_le_radius": (_spans(3, 3, 3), "strong=3 direct=3 cartesian=3 cut_bound=none oracle=agree"),
    "oracle_agreement": (
        {"oracle_span": lambda g, rule: 1},
        "strong=2 direct=2 cartesian=2 cut_bound=none oracle=disagree",
    ),
    "cut_edge_bound": (
        {"cut_edge_bound": lambda g: 1},
        "strong=2 direct=2 cartesian=2 cut_bound=1 oracle=agree",
    ),
    "transform_direct_to_lazy": (
        {"_direct_to_lazy": lambda t: TrackPair(t.f, t.g, L)},
        "strong=2 direct=2 cartesian=2 cut_bound=none oracle=agree",
    ),
    "transform_lazy_to_direct": (
        {"_lazy_to_direct": lambda g, t: TrackPair(t.f, t.g, A)},
        "strong=2 direct=2 cartesian=2 cut_bound=none oracle=agree",
    ),
}


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

    def test_rule_name_refused(self):
        # A name would be searched by the direct rule's moves: the cartesian
        # span of PC3 is 2, the direct span 1.
        with pytest.raises(TypeError, match="'lazy' is not a MovementRule"):
            oracle_span(paramecium_graph(3), "lazy")

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

    def test_float_order_raises_at_the_call(self):
        with pytest.raises(TypeError):
            enumerate_connected(5.0)

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

    @pytest.mark.parametrize("count, n_range", [(2.5, (6, 8)), (2, (6.0, 8)), (2, (6, 8.0))])
    def test_float_option_raises_at_the_call(self, count, n_range):
        # Not at the first draw: ``range(2.5)`` fails there, and Python 3.11
        # still draws ``randint(6.0, 8)`` where 3.12 refuses it.
        with pytest.raises(TypeError):
            random_graphs(count, n_range, 0.3, 7)

    def test_order_over_the_cap_refused_before_drawing(self, monkeypatch):
        class NoDraws(random.Random):
            def random(self):
                raise AssertionError("an edge was drawn")

        monkeypatch.setattr(verify, "random", SimpleNamespace(Random=NoDraws))
        with pytest.raises(TooLargeError, match="order cap"):
            next(random_graphs(1, (10**5, 10**5), 0.3, 0))

    @pytest.mark.parametrize(
        "order, max_attempts, draws",
        [(12, 10_000, 15), (2, 10_000, 1000), (2, 7, 7), (46, 10_000, 1)],
    )
    def test_draws_bounded_by_coin_flips_and_count(self, monkeypatch, order, max_attempts, draws):
        # With a budget of 1,000 flips, order 12 (66 pairs per draw) gets 15
        # draws, order 2 gets the attempt cap, and order 46 (1,035 pairs)
        # still gets one draw.
        monkeypatch.setattr(verify, "RANDOM_MAX_FLIPS", 1000)
        monkeypatch.setattr(verify, "RANDOM_MAX_ATTEMPTS", max_attempts)
        with pytest.raises(ValueError, match=f"in {draws} draws"):
            next(random_graphs(1, (order, order), 1e-12, 0))

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
        records = list(check_theorems(corpus, jobs=1, check_witnesses=True))
        assert len(records) == len(corpus)
        assert [r.violations for r in records] == [()] * len(corpus)
        assert not any(r.cartesian_gt_direct for r in records)

    def test_paramecium3_record(self):
        record = check_graph(paramecium_graph(3), check_witnesses=True)
        assert (record.strong, record.direct, record.cartesian) == (2, 1, 2)
        assert record.cartesian_gt_direct
        assert record.ok
        assert record.cut_bound == 2

    def test_checked_graph_drops_its_pair_space(self):
        # A held corpus must not keep every checked graph's pair tables.
        corpus = [paramecium_graph(3), cycle_graph(5)]
        list(check_theorems(corpus, jobs=1, check_witnesses=True))
        assert [g._pairs for g in corpus] == [None, None]

    def test_record_line_shape(self):
        record = check_graph(cycle_graph(5))
        line = record.to_line()
        assert line.startswith("graph6=")
        for key in ("radius=", "strong=", "direct=", "cartesian=", "cut_bound=", "ok="):
            assert key in line

    def test_order7_atlas_against_oracle(self):
        # networkx's atlas holds one graph per isomorphism class; its 853
        # connected order-7 classes are checked against the oracle directly.
        corpus = [
            Graph(7, a.edges())
            for a in nx.graph_atlas_g()
            if a.number_of_nodes() == 7 and nx.is_connected(a)
        ]
        records = [check_graph(g, check_witnesses=True, oracle_max_n=7) for g in corpus]
        assert len(records) == 853
        assert all(r.oracle_checked for r in records)
        assert [r for r in records if r.violations] == []
        # The order-7 counts quoted in the README.
        assert sum(r.cartesian_gt_direct for r in records) == 11
        cut = [r for r in records if r.cut_bound is not None]
        assert len(cut) == 351
        assert sum(r.strong == r.cut_bound for r in cut) == 215

    @pytest.mark.parametrize("violation", FORCED_VIOLATIONS)
    def test_each_relation_check_records_its_violation(self, violation, monkeypatch):
        stand_ins, fields = FORCED_VIOLATIONS[violation]
        for name, stand_in in stand_ins.items():
            monkeypatch.setattr(verify, name, stand_in)
        record = check_graph(cycle_graph(5), check_witnesses=violation.startswith("transform"))
        assert record.violations == (violation,)
        assert record.to_line() == f"graph6=Dhc n=5 radius=2 {fields} ok=0 violations={violation}"

    def test_check_graph_refuses_an_oracle_cap_over_the_limit_up_front(self, monkeypatch):
        # Refused whether or not the graph is small enough for the oracle,
        # and before any span is computed.
        def fail(*args, **kwargs):
            raise AssertionError("a span was computed")

        monkeypatch.setattr(verify, "compute_span", fail)
        for g in (path_graph(ORACLE_MAX_N), path_graph(ORACLE_MAX_N + 1)):
            with pytest.raises(ValueError, match="over the oracle's cap"):
                check_graph(g, oracle_max_n=ORACLE_MAX_N + 1)

    @pytest.mark.parametrize("broken", ["active_stay", "lazy_both_move"])
    def test_nonconforming_witness_is_recorded_not_raised(self, broken, monkeypatch):
        # A stay step breaks the active rule, and the active witness's steps,
        # where both actors move, break the lazy rule.  The transforms raise
        # on such tracks, so the harness must record the round trip's
        # violation and skip the transform.
        g = paramecium_graph(5)
        real = verify.extract_witness_tracks
        active = real(compute_span(g, A))
        if broken == "active_stay":
            rule = A
            bad = TrackPair(active.f[:1] + active.f, active.g[:1] + active.g, A)
        else:
            rule = L
            bad = TrackPair(active.f, active.g, L)
        assert not validate_tracks(g, bad).conforms

        def extract(report):
            return bad if report.rule is rule else real(report)

        monkeypatch.setattr(verify, "extract_witness_tracks", extract)
        want = (f"witness_roundtrip_{rule.value}",)
        assert check_graph(g, check_witnesses=True).violations == want
        records = list(check_theorems([g], jobs=1, check_witnesses=True))
        assert [(r.graph6, r.violations) for r in records] == [(emit_graph6(g), want)]

    def test_each_witness_is_validated_once(self, monkeypatch):
        # One validation per rule's witness and one per transformed witness:
        # the transforms must not validate again what the harness has just
        # validated.  Both bindings are wrapped, since the public transforms
        # call the engine's and the harness calls its own.
        calls = []

        def counted(g, t):
            calls.append(t.rule)
            return validate_tracks(g, t)

        monkeypatch.setattr(engine, "validate_tracks", counted)
        monkeypatch.setattr(verify, "validate_tracks", counted)
        record = check_graph(paramecium_graph(5), check_witnesses=True)
        assert record.ok
        assert Counter(calls) == {T: 1, A: 2, L: 2}

    def test_public_transforms_still_refuse_nonconforming_tracks(self):
        g = paramecium_graph(5)
        active = verify.extract_witness_tracks(compute_span(g, A))
        stay = TrackPair(active.f[:1] + active.f, active.g[:1] + active.g, A)
        with pytest.raises(NotActiveConformantError):
            direct_to_lazy(g, stay)
        with pytest.raises(NotLazyConformantError):
            lazy_to_direct(g, TrackPair(active.f, active.g, L))

    def test_parallel_matches_sequential(self):
        full = list(enumerate_connected(4))
        for corpus in (full, full[:1], []):
            for witnesses in (False, True):
                seq = check_theorems(corpus, jobs=1, check_witnesses=witnesses)
                par = check_theorems(corpus, jobs=2, check_witnesses=witnesses)
                assert [r.to_line() for r in seq] == [r.to_line() for r in par]


def _logged(corpus, drawn):
    """``corpus``, appending each graph's graph6 string to ``drawn`` as the
    sweep draws it."""
    for g in corpus:
        drawn.append(emit_graph6(g))
        yield g


class TestStreaming:
    def test_one_worker_checks_each_graph_before_the_next_draw(self):
        drawn = []
        corpus = _logged(itertools.islice(enumerate_connected(6), 300), drawn)
        for k, record in enumerate(check_theorems(corpus, jobs=1)):
            assert drawn[k:] == [record.graph6]
        assert len(drawn) == 300

    def test_pool_draws_a_bounded_number_ahead(self):
        # The pool draws what the pipe to its workers holds, 575-767 of these
        # order-6 graphs (ten-odd chunks of 64) in runs on two CPUs, one of
        # them under load; a sweep that lists its corpus draws all 3,000 first.
        drawn = []
        corpus = _logged(itertools.islice(enumerate_connected(6), 3000), drawn)
        ahead = []
        for k, record in enumerate(check_theorems(corpus, jobs=2), start=1):
            assert record.graph6 == drawn[k - 1]
            ahead.append(len(drawn) - k)
        assert len(ahead) == 3000 and max(ahead) < 1500


class TestClampJobs:
    @pytest.mark.parametrize("jobs, expected", [(0, 1), (-3, 1), (1, 1), (2, 2), (10**9, 4)])
    def test_held_between_one_and_cpu_count(self, jobs, expected):
        assert clamp_jobs(jobs, cpus=4) == expected
