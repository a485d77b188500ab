"""The union-find span sweep, checked against the descent it replaced.

``reference_span`` rebuilds the pair graph at every threshold from the
radius down and takes the first doubly covering component, and
``reference_tracks`` walks that component through the pair graph's own
adjacency.  ``compute_span`` and ``extract_witness_tracks`` must return
exactly the same reports and walks, not merely equally valid ones.
"""

from __future__ import annotations

import time

import pytest

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
    path_graph,
)
from spanlab.product import (
    MovementRule,
    build_pair_graph,
    components_with_double_surjectivity,
)
from spanlab.verify import RULES, enumerate_connected, random_graphs


def reference_span(g, rule: MovementRule) -> SpanReport:
    for r in range(g.radius, -1, -1):
        qualifying = components_with_double_surjectivity(build_pair_graph(g, rule, r))
        if qualifying:
            return SpanReport(g, rule, r, qualifying[0])
    raise AssertionError("threshold 0 must always admit a covering component")


def reference_tracks(report: SpanReport) -> TrackPair:
    """Closed depth-first walk of the breadth-first spanning tree, with
    children in ascending pair order, over the full pair graph."""
    pg = build_pair_graph(report.graph, report.rule, report.value)
    members = set(report.witness_component)
    root = report.witness_component[0]
    children: dict = {p: [] for p in members}
    seen = {root}
    queue = [root]
    for node in queue:
        for nb in pg.neighbors(*node):
            if nb in members and nb not in seen:
                seen.add(nb)
                children[node].append(nb)
                queue.append(nb)

    walk = []

    def tour(node):
        walk.append(node)
        for child in children[node]:
            tour(child)
            walk.append(node)

    tour(root)
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
        check = validate_tracks(g, extract_witness_tracks(report))
        assert check.conforms and check.surjective_f and check.surjective_g
        assert check.min_distance == report.value
        spans.append(report.value)
    assert spans == [1, 1, 0]
    assert time.perf_counter() - start < 60
