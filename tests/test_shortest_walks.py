"""Greedy witness walks against the shortest covering walks, as ground truth.

``shortest_walk`` searches breadth-first over joint states (both positions
and both visited sets) at a given safety distance, from every pair at that
distance or more, so over every covering component at once.  The first
level holding a state where both actors have visited every vertex gives the
fewest positions a witness can have.  It shares no code with ``engine`` or
``product``: its moves are spelled out here from the graph's neighbour
lists.  The greedy walk can never be shorter; the totals are pinned so that
a walk heuristic that covers worse, or better, shows as a diff.
"""

from __future__ import annotations

import random

import pytest

from spanlab.engine import compute_span, extract_witness_tracks, validate_tracks
from spanlab.families import path_graph
from spanlab.product import MovementRule
from spanlab.verify import RULES, enumerate_connected, random_graphs

from conftest import covering, relabelled


def shortest_walk(g, rule: MovementRule, r: int) -> int | None:
    """Fewest positions of a covering walk pair that keeps distance >= r
    under ``rule``, or None if there is none."""
    n = g.n
    dist = g.distances
    nbrs = [g.neighbors(v) for v in range(n)]
    # A state is (p << 2n) | seen: p = u * n + v the two positions, and
    # seen with bit n + x for each vertex x Alice visited, bit y for Bob's.
    shift = 2 * n
    done = (1 << shift) - 1

    def targets(u: int, v: int) -> list[tuple[int, int]]:
        if rule is MovementRule.ACTIVE:
            return [(x, y) for x in nbrs[u] for y in nbrs[v]]
        if rule is MovementRule.LAZY:
            return [(x, v) for x in nbrs[u]] + [(u, y) for y in nbrs[v]]
        return [
            (x, y)
            for x in (u, *nbrs[u])
            for y in (v, *nbrs[v])
            if (x, y) != (u, v)
        ]

    def state(x: int, y: int) -> int:
        return (x * n + y) << shift | 1 << (n + x) | 1 << y

    moves = [
        [state(x, y) for x, y in targets(u, v) if dist[x][y] >= r]
        for u in range(n)
        for v in range(n)
    ]
    frontier = [state(u, v) for u in range(n) for v in range(n) if dist[u][v] >= r]
    seen = set(frontier)
    positions = 1
    while frontier:
        if any(s & done == done for s in frontier):
            return positions
        nxt = []
        for s in frontier:
            visited = s & done
            for move in moves[s >> shift]:
                t = move | visited
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
        positions += 1
    return None


def ground_truth_corpus() -> list:
    """Every labelled connected graph of order <= 4, and a seeded sample of
    orders 5 and 6.  With edge probability 1/2 every labelled graph of an
    order is as likely as any other, and ``random_graphs`` redraws the
    disconnected ones, so the sample is uniform over each order's connected
    labelled graphs."""
    graphs = [g for n in range(1, 5) for g in enumerate_connected(n)]
    graphs += random_graphs(96, (5, 6), 0.5, 27)
    assert len(graphs) == 44 + 96
    return graphs


# Positions summed over ``ground_truth_corpus`` per rule: the greedy walks,
# then the shortest walks at the same spans.
GREEDY_POSITIONS = {"traditional": 879, "active": 852, "lazy": 1425}
SHORTEST_POSITIONS = {"traditional": 750, "active": 751, "lazy": 1285}


def test_greedy_walk_is_never_shorter_than_the_shortest():
    greedy = dict.fromkeys((rule.value for rule in RULES), 0)
    shortest = dict.fromkeys((rule.value for rule in RULES), 0)
    shorter = []
    for g in ground_truth_corpus():
        for rule in RULES:
            report = compute_span(g, rule)
            walk = extract_witness_tracks(report).length
            best = shortest_walk(g, rule, report.value)
            if best is None or walk < best:
                shorter.append(f"{rule.value} {g.edges()}: greedy {walk}, shortest {best}")
                continue
            greedy[rule.value] += walk
            shortest[rule.value] += best
    assert shorter == []
    assert (greedy, shortest) == (GREEDY_POSITIONS, SHORTEST_POSITIONS)


def test_no_covering_walk_above_the_span():
    # The search's own check: one above the span it finds nothing, so it is
    # the span's search that the totals above are read from.
    for g in ground_truth_corpus()[::4]:
        for rule in RULES:
            assert shortest_walk(g, rule, compute_span(g, rule).value + 1) is None


@pytest.mark.parametrize("n", range(4, 41, 2))
def test_even_path_walks_are_pinned_under_any_labelling(n):
    # From a pair of the two leaves, the strong and direct walks cover P_n in
    # n positions and the cartesian walk in 2n - 1, whatever the labels.
    # Odd paths are not pinned: their walks still vary with the labels.
    lengths = set()
    for seed in random.Random(n).sample(range(10**6), 6):
        g = relabelled(path_graph(n), seed)
        walks = []
        for rule in RULES:
            report = compute_span(g, rule)
            tracks = extract_witness_tracks(report)
            assert covering(validate_tracks(g, tracks), report.value)
            walks.append(tracks.length)
        lengths.add(tuple(walks))
    assert lengths == {(n, n, 2 * n - 1)}
