"""The union-find span sweep, checked against the descent it replaced.

``reference_span`` rebuilds the pair graph at every threshold from the
radius down and takes the first doubly covering component, and
``reference_tracks`` walks that component nearest-first through the pair
graph's own adjacency.  ``compute_span`` and ``extract_witness_tracks`` must return
exactly the same reports and walks, not merely equally valid ones.
"""

from __future__ import annotations

import time

import pytest

from spanlab.engine import (
    SpanReport,
    TrackPair,
    _closed_dfs,
    compute_span,
    extract_witness_tracks,
    validate_tracks,
)
from spanlab.families import (
    binary_tree_graph,
    complete_bipartite_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
)
from spanlab.graph import Graph
from spanlab.product import (
    MovementRule,
    build_pair_graph,
    components_with_double_surjectivity,
    pair_neighbors,
)
from spanlab.verify import RULES, enumerate_connected, random_graphs


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

    From the smallest pair, search breadth-first inside the component for
    the nearest level holding a pair that adds an unvisited coordinate,
    take the smallest such pair, trace back through the levels by the
    smallest adjacent member, and repeat until both coordinates cover
    every vertex.
    """
    n = pg.base.n
    members = set(component)
    walk = [component[0]]
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
        path = [min(fresh)]
        for level in reversed(levels[1:]):
            path.append(next(p for p in pg.neighbors(*path[-1]) if p in level))
        for u, v in path:
            seen_f.add(u)
            seen_g.add(v)
        walk += reversed(path)
    return walk


def reference_closed_dfs(pg, component) -> list:
    """Closed depth-first walk of the breadth-first spanning tree whose
    parents are each node's smallest neighbour one level nearer the root,
    with children in ascending pair order."""
    members = set(component)
    root = component[0]
    children: dict = {p: [] for p in members}
    above = {root}
    seen = {root}
    while above:
        level = {nb for p in above for nb in pg.neighbors(*p) if nb in members} - seen
        for node in sorted(level):
            parent = min(nb for nb in pg.neighbors(*node) if nb in above)
            children[parent].append(node)
        seen |= level
        above = level

    walk = []

    def tour(node):
        walk.append(node)
        for child in children[node]:
            tour(child)
            walk.append(node)

    tour(root)
    return walk


def reference_tracks(report: SpanReport) -> TrackPair:
    """The greedy walk, or the closed depth-first walk where the greedy one
    would be longer than ``2 * |component| - 1`` positions."""
    pg = build_pair_graph(report.graph, report.rule, report.value)
    component = report.witness_component
    walk = reference_greedy(pg, component)
    if len(walk) > 2 * len(component) - 1:
        walk = reference_closed_dfs(pg, component)
    return TrackPair(tuple(u for u, _ in walk), tuple(v for _, v in walk), report.rule)


CORPORA = {
    "labelled-order-le-5": lambda: [g for n in range(1, 6) for g in enumerate_connected(n)],
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


def test_p200_cliff():
    # P200 used to take about 50 s per rule: the descent rebuilt a
    # 40,000-pair graph at each of 101 thresholds.
    start = time.perf_counter()
    g = path_graph(200)
    spans = []
    for rule in RULES:
        report = compute_span(g, rule)
        tracks = extract_witness_tracks(report)
        check = validate_tracks(g, tracks)
        assert check.conforms and check.surjective_f and check.surjective_g
        assert check.min_distance == report.value
        assert len(tracks.f) <= 2 * g.n
        spans.append(report.value)
    assert spans == [1, 1, 0]
    assert time.perf_counter() - start < 60


# Nearest-first exploration of this 10-vertex graph from vertex 0 leaves
# the leaves 4 and 9, at opposite ends, for last: 21 positions, against
# the closed depth-first walk's 19.
FALLBACK_EDGES = [
    (0, 2), (0, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 8), (3, 8), (5, 6), (5, 9),
]


@pytest.mark.parametrize("rule", [MovementRule.TRADITIONAL, MovementRule.ACTIVE],
                         ids=lambda r: r.value)
def test_greedy_walk_falls_back_to_closed_dfs(rule):
    # On the diagonal pairs (u, u) both actors move as one, and every pair
    # adds a new coordinate until it is visited, so the greedy walk is
    # nearest-first exploration of the base graph.
    g = Graph(10, FALLBACK_EDGES)
    component = tuple((u, u) for u in range(g.n))
    report = SpanReport(g, rule, 0, sum(1 << (u * g.n + u) for u in range(g.n)))
    assert report.witness_component == component
    pg = build_pair_graph(g, rule, 0)
    assert len(reference_greedy(pg, component)) == 21

    tracks = extract_witness_tracks(report)
    walk = reference_closed_dfs(pg, component)
    assert tracks == TrackPair(tuple(u for u, _ in walk), tuple(v for _, v in walk), rule)
    assert tracks.length == 2 * len(component) - 1
    check = validate_tracks(g, tracks)
    assert check.conforms and check.surjective_f and check.surjective_g


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
def test_closed_dfs_matches_reference_on_every_small_witness(rule):
    # No span witness of order <= 5 needs the fallback, so it is run on
    # every winning component directly.  Many of them give a node several
    # neighbours one level nearer the root, which is where the parent rule
    # shows.
    mismatches = []
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    for g in graphs:
        report = compute_span(g, rule)
        component = report.witness_component
        members = report.members
        root = (members & -members).bit_length() - 1
        walk = [divmod(i, g.n) for i in _closed_dfs(pair_neighbors(g, rule), members, root)]
        if walk != reference_closed_dfs(build_pair_graph(g, rule, report.value), component):
            mismatches.append(f"{g.edges()}: walks differ")
            continue
        assert len(walk) == 2 * len(component) - 1
        tracks = TrackPair(tuple(u for u, _ in walk), tuple(v for _, v in walk), rule)
        check = validate_tracks(g, tracks)
        assert check.conforms and check.surjective_f and check.surjective_g
        assert check.min_distance == report.value
    assert len(graphs) == 772
    assert mismatches == []


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.value)
def test_members_mask_is_the_walked_component(rule):
    # ``members`` is the one stored form of the winning component: its pair
    # view, the walk's start and the reference descent's component all
    # read the same bits.
    mismatches = []
    graphs = [g for n in range(1, 6) for g in enumerate_connected(n)]
    for g in graphs:
        report = compute_span(g, rule)
        members = report.members
        tracks = extract_witness_tracks(report)
        start = tracks.f[0] * g.n + tracks.g[0]
        if not (
            members.bit_count() == len(report.witness_component)
            and members & -members == 1 << start
            and members == reference_span(g, rule).members
        ):
            mismatches.append(g.edges())
    assert len(graphs) == 772
    assert mismatches == []
