"""The depth-first joint-state search, checked against the breadth-first one
it replaced.

``reference_coverable`` is the breadth-first ``verify._coverable`` as it
stood before the search became depth-first, kept verbatim.  Both searches
visit every reachable state when they fail, so they must give the same
answer at every threshold; only the order in which a succeeding search
meets its first complete state differs.
"""

from __future__ import annotations

from collections import deque

import pytest

from spanlab.engine import compute_span
from spanlab.graph import Graph
from spanlab.product import MovementRule
from spanlab.verify import RULES, _coverable, enumerate_connected


def reference_coverable(g: Graph, r: int, rule: MovementRule) -> bool:
    # Joint states are packed as (pair_index << 2n) | (seenA << n) | seenB
    # into a flat visited bytearray; each actor's position stays inside its
    # own seen set by construction.
    n = g.n
    dist = g.distances
    pairs = [
        (u, v) for u in range(n) for v in range(n) if dist[u][v] >= r
    ]
    index = {p: k for k, p in enumerate(pairs)}
    full = (1 << n) - 1
    shift = 2 * n

    def moves(w: int, may_stay: bool) -> tuple[int, ...]:
        nbrs = g.neighbors(w)
        return nbrs + (w,) if may_stay else nbrs

    successors: list[list[tuple[int, int, int]]] = []
    for u, v in pairs:
        out = []
        if rule is MovementRule.LAZY:
            options = [(u2, v) for u2 in g.neighbors(u)]
            options += [(u, v2) for v2 in g.neighbors(v)]
        else:
            may_stay = rule is MovementRule.TRADITIONAL
            options = [
                (u2, v2)
                for u2 in moves(u, may_stay)
                for v2 in moves(v, may_stay)
            ]
        for u2, v2 in options:
            k2 = index.get((u2, v2))
            if k2 is not None:
                out.append((k2 << shift, 1 << u2, 1 << v2))
        successors.append(out)

    if not pairs:
        return False
    visited = bytearray(len(pairs) << shift)
    queue: deque[tuple[int, int, int]] = deque()
    for k, (u, v) in enumerate(pairs):
        sa, sb = 1 << u, 1 << v
        if sa == full and sb == full:
            return True
        state = (k << shift) | (sa << n) | sb
        visited[state] = 1
        queue.append((k, sa, sb))
    while queue:
        k, sa, sb = queue.popleft()
        for k2s, bu, bv in successors[k]:
            sa2 = sa | bu
            sb2 = sb | bv
            state = k2s | (sa2 << n) | sb2
            if not visited[state]:
                if sa2 == full and sb2 == full:
                    return True
                visited[state] = 1
                queue.append((k2s >> shift, sa2, sb2))
    return False


def _corpus() -> list[Graph]:
    """Every labelled connected graph of order <= 4 and every class of order 5.

    Order 6 is left out: the breadth-first reference alone takes about 24 s
    over its classes.
    """
    graphs = [g for n in range(1, 5) for g in enumerate_connected(n)]
    return graphs + list(enumerate_connected(5, dedup=True))


@pytest.mark.parametrize("rule", RULES, ids=[rule.value for rule in RULES])
def test_depth_first_matches_breadth_first(rule):
    corpus = _corpus()
    assert len(corpus) == 1 + 1 + 4 + 38 + 21
    for g in corpus:
        for r in range(g.radius + 2):
            assert _coverable(g, r, rule) == reference_coverable(g, r, rule), (g.edges(), r)


def _assert_matches_the_engine(graphs: list[Graph]) -> None:
    # Coverability falls as the threshold rises, so the oracle must answer
    # yes exactly up to the engine's span.  This checks every threshold, not
    # just the span that ``oracle_span`` descends to.
    for g in graphs:
        for rule in RULES:
            span = compute_span(g, rule).value
            for r in range(g.radius + 2):
                assert _coverable(g, r, rule) == (r <= span), (g.edges(), rule, r)


def test_matches_the_engine_at_every_threshold_on_order_6_classes():
    # The breadth-first reference is too slow for order 6.
    classes = list(enumerate_connected(6, dedup=True))
    assert len(classes) == 112
    _assert_matches_the_engine(classes)


def test_matches_the_engine_at_every_threshold_on_labelled_order_5_graphs():
    # Every labelling, not one graph per class: the start states and moves
    # come from per-vertex tables, so a fault there can hang on a vertex's
    # label, and each of the 21 class representatives has one labelling.
    graphs = list(enumerate_connected(5))
    assert len(graphs) == 728
    _assert_matches_the_engine(graphs)
