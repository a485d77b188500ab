"""The union-find span sweep, checked against the descent it replaced.

``reference_span`` rebuilds the pair graph at every threshold from the
radius down and takes the first doubly covering component, and
``reference_tracks`` walks that component nearest-first through the pair
graph's own adjacency.  ``compute_span`` and ``extract_witness_tracks`` must return
exactly the same reports and walks, not merely equally valid ones.  The
walk has no length cap: a long greedy walk is returned as is, and its
length bound, ``1 + (2n - 2) * diam(C)``, is checked leg by leg.
"""

from __future__ import annotations

import hashlib
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spanlab.engine import (
    SpanReport,
    TrackPair,
    compute_span,
    extract_witness_tracks,
    validate_tracks,
)
from spanlab.families import (
    binary_tree_graph,
    complete_bipartite_graph,
    cycle_graph,
    hypercube_graph,
    named_graph,
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
from spanlab.verify import RULES, enumerate_connected, random_graphs

from conftest import connected_graphs, covering, relabelled


def reference_span(g, rule: MovementRule) -> SpanReport:
    for r in range(g.radius, -1, -1):
        pg = build_pair_graph(g, rule, r)
        qualifying = components_with_double_surjectivity(pg)
        if qualifying:
            first = pg.index(*qualifying[0][0])
            members = next(m for m in pg.component_masks() if m >> first & 1)
            return SpanReport(g, rule, r, members)
    raise AssertionError("threshold 0 must always admit a covering component")


def reference_greedy(pg, component) -> list:
    """Nearest-first covering walk through the pair graph's own adjacency.

    From the pair with the smallest degree sum ``deg(u) + deg(v)``, the
    smallest such pair on ties, search breadth-first inside the component
    for the nearest level holding a pair that adds an unvisited coordinate.
    Take the smallest pair there that adds an unvisited coordinate to both
    walks, or the smallest that adds one if none does, trace back through
    the levels by the smallest adjacent member, and repeat until both
    coordinates cover every vertex.
    """
    n = pg.base.n
    deg = pg.base.degree
    members = set(component)
    walk = [min(component, key=lambda p: (deg(p[0]) + deg(p[1]), p))]
    seen_f, seen_g = {walk[0][0]}, {walk[0][1]}
    while len(seen_f) < n or len(seen_g) < n:
        levels = [{walk[-1]}]
        reached = {walk[-1]}
        while True:
            level = {
                nb for p in levels[-1] for nb in pg.neighbors(*p) if nb in members
            } - reached
            reached |= level
            fresh = [p for p in level if p[0] not in seen_f or p[1] not in seen_g]
            if fresh:
                break
            levels.append(level)
        both = [p for p in fresh if p[0] not in seen_f and p[1] not in seen_g]
        path = [min(both or fresh)]
        for level in reversed(levels[1:]):
            path.append(next(p for p in pg.neighbors(*path[-1]) if p in level))
        for u, v in path:
            seen_f.add(u)
            seen_g.add(v)
        walk += reversed(path)
    return walk


def as_tracks(walk, rule: MovementRule) -> TrackPair:
    """A walk over pairs as Alice's and Bob's walks."""
    return TrackPair(tuple(u for u, _ in walk), tuple(v for _, v in walk), rule)


def reference_tracks(report: SpanReport) -> TrackPair:
    """The reference greedy walk through the pair graph at the report's span."""
    pg = build_pair_graph(report.graph, report.rule, report.value)
    return as_tracks(reference_greedy(pg, report.witness_component), report.rule)


def grid_graph(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


CORPORA = {
    "labelled-order-le-5": lambda: [g for n in range(1, 6) for g in enumerate_connected(n)],
    # The benchmark's inputs are relabelled, so the sweep merges components
    # in a label-dependent order there; the other corpora are labelled or tiny.
    # The odd cycle's active-rule winner is not its own mirror image, so the
    # sweep must pick it over its mirror.
    "relabelled": lambda: [
        relabelled(g, seed)
        for seed, g in enumerate(
            [
                path_graph(24),
                path_graph(36),
                cycle_graph(12),
                complete_bipartite_graph(10, 10),
                grid_graph(4, 5),
                cycle_graph(13),
            ]
        )
    ],
    "random": lambda: list(random_graphs(200, (6, 12), 0.3, 11)),
    "families": lambda: [
        path_graph(16),
        cycle_graph(9),
        complete_bipartite_graph(8, 8),
        hypercube_graph(4),
        binary_tree_graph(4),
    ],
}


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_sweep_matches_per_threshold_descent(corpus, rule):
    mismatches = []
    graphs = CORPORA[corpus]()
    for g in graphs:
        report = compute_span(g, rule)
        expected = reference_span(g, rule)
        if report != expected:
            mismatches.append(f"{g.edges()}: report {report} != {expected}")
        elif extract_witness_tracks(report) != reference_tracks(expected):
            mismatches.append(f"{g.edges()}: witness walks differ")
    assert len(graphs) > 4
    assert mismatches == []


@given(connected_graphs(max_n=7), st.integers(0, 2**32 - 1))
def test_sweep_matches_descent_on_relabelled_random_graphs(g, seed):
    # The order in which the sweep meets pairs, and so which roots its
    # union-find keeps, follows the labels; the reports must not.  Reports
    # compare equal only with equal span values and equal member masks.
    g = relabelled(g, seed)
    for rule in RULES:
        assert compute_span(g, rule) == reference_span(g, rule)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
def test_members_mask_is_the_walked_component(rule):
    # ``members`` is the one stored form of the winning component: its pair
    # view and the walk's start read the same bits, and the walk starts at
    # the member with the smallest degree sum, the smallest such on ties.
    # That ``members`` is the reference descent's is
    # ``test_sweep_matches_per_threshold_descent``.
    mismatches = []
    for corpus in sorted(CORPORA):
        for g in CORPORA[corpus]():
            report = compute_span(g, rule)
            members = report.members
            tracks = extract_witness_tracks(report)
            start = tracks.f[0] * g.n + tracks.g[0]
            first = min(
                _bits(members), key=lambda i: (g.degree(i // g.n) + g.degree(i % g.n), i)
            )
            if not (
                report.witness_component == tuple(divmod(i, g.n) for i in _bits(members))
                and start == first
            ):
                mismatches.append(f"{corpus}: {g.edges()}")
    assert mismatches == []


def test_p200_cliff():
    # P200 used to take about 50 s per rule: the descent rebuilt a
    # 40,000-pair graph at each of 101 thresholds.
    start = time.perf_counter()
    g = path_graph(200)
    spans = []
    for rule in RULES:
        report = compute_span(g, rule)
        tracks = extract_witness_tracks(report)
        assert covering(validate_tracks(g, tracks), report.value)
        assert len(tracks.f) <= 2 * g.n
        spans.append(report.value)
    assert spans == [1, 1, 0]
    assert time.perf_counter() - start < 60


def test_lone_pairs_hold_no_masks():
    # Under the cartesian rule, none of K150,150's 22,350 pairs at distance
    # 2 has a live neighbour, so each stays alone until the sweep stops at
    # threshold 1.  Their member and mirror masks, of up to 90,000 bits
    # each, would take about 250 MB, and the span would not run in 160 MiB.
    code = (
        "from spanlab.engine import compute_span\n"
        "from spanlab.families import complete_bipartite_graph\n"
        "from spanlab.product import MovementRule\n"
        "g = complete_bipartite_graph(150, 150)\n"
        "print(compute_span(g, MovementRule.LAZY).value)\n"
    )

    def limit_address_space():
        limit = 160 << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit_address_space,
    )
    assert (result.returncode, result.stdout) == (0, "1\n"), result.stderr


# Nearest-first exploration of this 11-vertex graph from its leaf 0, the
# smallest vertex of the smallest degree, leaves the leaves 5 and 10, at
# opposite ends, for last: 22 positions, more than the 2 * 11 - 1 = 21 of
# a closed walk round a spanning tree.
LONG_WALK_EDGES = [
    (0, 1), (1, 3), (1, 5), (2, 6), (2, 7), (2, 8), (2, 9), (3, 9), (4, 9), (6, 7), (6, 10),
]


def diagonal_report(rule: MovementRule) -> SpanReport:
    """A threshold-0 report on the diagonal pairs ``(u, u)`` of the
    ``LONG_WALK_EDGES`` graph.  There both actors move as one, and every
    pair adds a new coordinate until it is visited, so the greedy walk is
    nearest-first exploration of the base graph."""
    g = Graph(11, LONG_WALK_EDGES)
    return SpanReport(g, rule, 0, sum(1 << (u * g.n + u) for u in range(g.n)))


@pytest.mark.parametrize("rule", [MovementRule.TRADITIONAL, MovementRule.ACTIVE],
                         ids=lambda r: r.value)
def test_long_greedy_walk_is_returned_as_is(rule):
    report = diagonal_report(rule)
    g = report.graph
    component = report.witness_component
    assert component == tuple((u, u) for u in range(g.n))
    walk = reference_greedy(build_pair_graph(g, rule, 0), component)
    assert len(walk) == 22 > 2 * len(component) - 1

    tracks = extract_witness_tracks(report)
    assert tracks == as_tracks(walk, rule)
    assert covering(validate_tracks(g, tracks), 0)


def test_each_leg_is_within_the_eccentricity_of_its_start():
    # The walk's length bound, 1 + (2n - 2) * diam(C): the positions that
    # add a new coordinate are the start and the end of each leg, at most
    # one per vertex missing from either walk, and each leg is no longer
    # than the eccentricity of its start inside the component.
    reports = [compute_span(g, rule) for g in golden_graphs() for rule in RULES]
    reports += [diagonal_report(rule) for rule in (MovementRule.TRADITIONAL, MovementRule.ACTIVE)]
    failures = []
    for report in reports:
        g, members = report.graph, report.members
        step = pair_neighbors(g, report.rule)
        tracks = extract_witness_tracks(report)
        seen_f, seen_g = set(), set()
        adding = []
        for k, (u, v) in enumerate(tracks.positions()):
            if u not in seen_f or v not in seen_g:
                adding.append(k)
            seen_f.add(u)
            seen_g.add(v)
        starts = [tracks.f[k] * g.n + tracks.g[k] for k in adding]
        gaps_ok = all(
            later - earlier <= sum(1 for _ in _levels(step, start, members))
            for earlier, later, start in zip(adding, adding[1:], starts)
        )
        if not (len(adding) <= 2 * g.n - 1 and adding[-1] == tracks.length - 1 and gaps_ok):
            failures.append(f"{report.rule.value} {g.edges()}")
    assert len(reports) == 778 * 3 + 2
    assert failures == []


def test_winner_is_chosen_over_its_mirror_image():
    # Swapping the actors maps the winner W to its mirror image sigma(W), a
    # component that covers just as W does.  Where the two differ, W must be
    # the one holding the smaller pair index.
    def asymmetric_winners(graphs) -> int:
        count = 0
        for g in graphs:
            for rule in RULES:
                report = compute_span(g, rule)
                mirror = sum(1 << (v * g.n + u) for u, v in report.witness_component)
                if mirror != report.members:
                    count += 1
                    assert report.members & -report.members < mirror & -mirror, g.edges()
        return count

    # Over the three rules: 12 of the 2,316 order <= 5 winners, and 4 of the
    # 27 cycle winners (the active rule on C_5, C_7, C_9 and C_11).  Those
    # lie at the radius, in the component of the smallest far pair, so the
    # flood finds them.  The sunlets' active-rule winners lie one below the
    # radius, so the union-find picks them.
    assert asymmetric_winners(g for n in range(1, 6) for g in enumerate_connected(n)) >= 12
    assert asymmetric_winners(cycle_graph(k) for k in range(3, 12)) >= 4
    assert asymmetric_winners(sunlet_graph(k) for k in (5, 7, 9)) == 3


def sunlet_graph(k: int) -> Graph:
    """The cycle C_k with a pendant vertex k + v at each cycle vertex v."""
    return Graph(2 * k, [(v, (v + 1) % k) for v in range(k)] + [(v, k + v) for v in range(k)])


def flood(g: Graph, rule: MovementRule) -> int:
    """The component at the radius of the smallest far pair."""
    space = _pair_space(g)
    first = space.buckets[g.radius][0]
    return sum(_levels(pair_neighbors(g, rule), first, space.far), 1 << first)


def test_flood_miss_falls_back_to_the_sweep():
    # The smallest far pair, (0, 1), has no active-rule step to another far
    # pair, so its component does not cover.  The union-find then finds the
    # winner at the same threshold, the radius.
    g = Graph(3, [(0, 2), (1, 2)])
    rule = MovementRule.ACTIVE
    assert flood(g, rule) == 1 << (0 * g.n + 1)
    report = compute_span(g, rule)
    assert report == reference_span(g, rule)
    assert (report.value, report.witness_component) == (1, ((0, 2), (1, 2), (2, 0), (2, 1)))


@pytest.mark.parametrize("rule", [MovementRule.TRADITIONAL, MovementRule.ACTIVE],
                         ids=lambda r: r.value)
@pytest.mark.parametrize("k", [2, 3, 8, 14])
def test_flood_wins_on_bicliques(k, rule):
    # Under the strong and direct rules K_{k,k} has span 2, its radius, and
    # the component of the smallest far pair covers: the flood returns it.
    g = relabelled(complete_bipartite_graph(k, k), k)
    report = compute_span(g, rule)
    assert report == reference_span(g, rule)
    assert report.value == g.radius == 2 and report.members == flood(g, rule)


def test_walk_prefers_a_pair_new_to_both_walks():
    # fig1's strong-rule walk starts at (0, 4), the member with the smallest
    # degree sum, 2 + 2.  One step away lie (0, 3), new to Bob's walk only,
    # and (1, 5), new to both; the walk takes (1, 5) although (0, 3) has the
    # smaller pair index.
    g = named_graph("fig1")
    rule = MovementRule.TRADITIONAL
    report = compute_span(g, rule)
    near = [divmod(i, g.n) for i in _bits(pair_neighbors(g, rule)(0 * g.n + 4) & report.members)]
    assert (0, 3) in near and (1, 5) in near
    tracks = extract_witness_tracks(report)
    assert list(zip(tracks.f, tracks.g))[:2] == [(0, 4), (1, 5)]


# SHA-256 of every (edges, rule, span, members, f, g) below.  A change that
# moves any span, winning component or witness walk, even to an equally
# valid one, changes it, and must then update it on purpose.
GOLDEN_DIGEST = "3394c58d59b26300ef6f5eb282bb0848cc94996d6bea3ffc325d7d6ab0e7bf54"

# Walk positions summed over the same graphs, per rule, so that a heuristic
# that covers worse shows as a count.  Under the cartesian rule no target is
# new to both walks: each pair of the nearest level holding a new vertex is
# one actor's move from a pair both walks have visited.
WALK_POSITIONS = {"traditional": 5159, "active": 4974, "lazy": 8208}


def golden_graphs() -> list[Graph]:
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    graphs += [relabelled(path_graph(n), n) for n in (16, 24, 36, 44)]
    graphs += [relabelled(complete_bipartite_graph(k, k), k) for k in (8, 14)]
    assert len(graphs) == 778
    return graphs


def golden_digest() -> tuple[str, dict[str, int]]:
    digest = hashlib.sha256()
    positions = dict.fromkeys((rule.value for rule in RULES), 0)
    for g in golden_graphs():
        for rule in RULES:
            report = compute_span(g, rule)
            tracks = extract_witness_tracks(report)
            positions[rule.value] += tracks.length
            record = (g.edges(), rule.value, report.value, hex(report.members), tracks.f, tracks.g)
            digest.update(repr(record).encode() + b"\n")
    return digest.hexdigest(), positions


def test_golden_digest():
    assert golden_digest() == (GOLDEN_DIGEST, WALK_POSITIONS)
