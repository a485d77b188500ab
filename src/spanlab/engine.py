"""Vertex spans, witness walks, and the track transformations.

The span of a connected graph under a movement rule is the largest ``r``
such that the pair graph at threshold ``r`` contains a connected component
whose two coordinate projections each cover the whole vertex set.  Walking
such a component visits every vertex with both actors while they never come
closer than ``r``; conversely any pair of covering walks traces such a
component.  A covering component at ``r`` lies inside one at ``r - 1``, so
the span is found by one union-find sweep that adds pairs from the radius
down and stops at the first threshold where a component covers both
coordinates; no pair graph is built.

Witnesses are extracted as the closed depth-first traversal of a spanning
tree of the winning component, searched over its members only: not the
shortest possible walk, but always a rule-conformant one with the promised
safety distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import (
    NotActiveConformantError,
    NotLazyConformantError,
    VertexOutOfRangeError,
)
from .graph import Graph, _bits
# build_pair_graph and components_with_double_surjectivity are not used
# here; they are re-exported because the benchmark's tracer looks them up
# through this module.
from .product import (  # noqa: F401
    MovementRule,
    Pair,
    build_pair_graph,
    components_with_double_surjectivity,
    pair_neighbors,
)


@dataclass(frozen=True)
class SpanReport:
    """Span value under one rule, with the pair component achieving it.

    The smallest base-graph distance over the component's pairs is
    ``value`` itself: a larger minimum would have qualified at a higher
    threshold first.
    """

    graph: Graph
    rule: MovementRule
    value: int
    witness_component: tuple[Pair, ...]


@dataclass(frozen=True)
class TrackPair:
    """Two equal-length vertex walks (Alice's and Bob's) under one rule."""

    f: tuple[int, ...]
    g: tuple[int, ...]
    rule: MovementRule

    @property
    def length(self) -> int:
        return len(self.f)

    def positions(self) -> Iterator[Pair]:
        return zip(self.f, self.g)


@dataclass(frozen=True)
class TrackValidation:
    """Outcome of checking a TrackPair against a graph."""

    conforms: bool
    surjective_f: bool
    surjective_g: bool
    min_distance: int


@dataclass(frozen=True)
class MoveAttribution:
    """Who moved at each step of a lazy-rule track pair.

    ``x[i]`` is 1 when Alice (f) moved at step i and 2 when Bob (g) did;
    ``mixed_pairs`` counts the consecutive (x[2k], x[2k+1]) pairs with two
    different movers, which is exactly the index offset the lazy-to-active
    transformation accumulates.
    """

    x: tuple[int, ...]
    mixed_pairs: int


def compute_span(g: Graph, rule: MovementRule) -> SpanReport:
    """Span of ``g`` under ``rule``, by one descending union-find sweep.

    Ordered pairs join in buckets of ``min(d(u, v), radius)``, from the
    radius down.  Each joining pair is unioned with its live
    rule-neighbours; neighbours already inside the growing component are
    skipped, so each neighbouring component costs one ``find``.  Every root
    keeps its member bitmask and the union of its two coordinate
    projections.  A component that covers every vertex in both coordinates
    still does at every lower threshold, so the first bucket that leaves one
    covering gives the span.  Only components that bucket touched can have
    just started covering; among them the one with the smallest pair index
    is the witness.  Threshold 0 joins every pair, so the sweep always ends
    with a witness.
    """
    n = g.n
    top = g.radius
    step = pair_neighbors(g, rule)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    add = [bucket.append for bucket in buckets]
    # Pair index u * n + v is the position of d(u, v) in the flattened rows.
    for i, d in enumerate([d for row in g.distances for d in row]):
        add[d if d < top else top](i)

    # A component's cover has bit u for each first coordinate u and bit
    # n + v for each second coordinate v of its members.
    covering = (1 << 2 * n) - 1
    parent = list(range(n * n))
    comps: dict[int, tuple[int, int, int]] = {}  # root -> (size, members, cover)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    live = 0
    for r in range(top, -1, -1):
        bucket = buckets[r]
        for i in bucket:
            live |= 1 << i
            u, v = divmod(i, n)
            root, size, members, cover = i, 1, 1 << i, 1 << u | 1 << (n + v)
            todo = step(i) & live
            while todo:
                other = find((todo & -todo).bit_length() - 1)
                other_size, other_members, other_cover = comps.pop(other)
                if other_size > size:
                    root, other = other, root
                parent[other] = root
                size += other_size
                members |= other_members
                cover |= other_cover
                todo &= ~members
            comps[root] = (size, members, cover)

        touched = [comps[root] for root in {find(i) for i in bucket}]
        qualifying = [members for _, members, cover in touched if cover == covering]
        if qualifying:
            winner = min(qualifying, key=lambda m: m & -m)
            component = tuple(divmod(i, n) for i in _bits(winner))
            return SpanReport(g, rule, r, component)
    raise AssertionError("threshold 0 must always admit a covering component")


def extract_witness_tracks(report: SpanReport) -> TrackPair:
    """Concrete walks for both actors realising the reported span.

    Builds a breadth-first spanning tree of the witness component rooted at
    its smallest pair and emits the closed depth-first traversal (every tree
    edge walked down and back up), giving walks of length
    ``2 * |component| - 1`` at most.  The search never leaves the component:
    a node's children are its rule-neighbours among the members not yet
    seen, in ascending pair order, so no pair graph is built.  The traversal
    steps are rule steps between pairs at distance >= the span, so the
    result conforms to the report's rule, covers every vertex in both
    coordinates, and its minimum distance equals the span.
    """
    component = report.witness_component
    if not component:
        raise ValueError("witness component is empty")

    n = report.graph.n
    step = pair_neighbors(report.graph, report.rule)
    root = component[0][0] * n + component[0][1]
    unseen = sum(1 << (u * n + v) for u, v in component) ^ 1 << root
    children: dict[int, list[int]] = {}
    queue = [root]
    for node in queue:  # the queue grows while it is read
        found = step(node) & unseen
        unseen ^= found
        children[node] = list(_bits(found))
        queue += children[node]

    walk = [root]
    stack: list[tuple[int, Iterator[int]]] = [(root, iter(children[root]))]
    while stack:
        node, it = stack[-1]
        child = next(it, None)
        if child is None:
            stack.pop()
            if stack:
                walk.append(stack[-1][0])
        else:
            walk.append(child)
            stack.append((child, iter(children[child])))

    f = tuple(i // n for i in walk)
    g = tuple(i % n for i in walk)
    return TrackPair(f, g, report.rule)


def validate_tracks(g: Graph, t: TrackPair) -> TrackValidation:
    """Check conformance, double surjectivity, and the minimum distance.

    A step conforms when, under

    * traditional -- each actor moves along an edge or stays; a step where
      both stay is accepted;
    * active      -- both actors move along edges;
    * lazy        -- each actor moves along an edge or stays, and exactly
      one of them moves.

    Malformed tracks are errors, not non-conforming ones: unequal lengths
    and empty tracks raise ``ValueError``, and a vertex outside ``0..n-1``
    raises ``VertexOutOfRangeError``.
    """
    f, b = t.f, t.g
    if len(f) != len(b):
        raise ValueError(f"track lengths differ: {len(f)} vs {len(b)}")
    if not f:
        raise ValueError("tracks must be non-empty")
    n = g.n
    seen_f, seen_b = set(f), set(b)
    seen = seen_f | seen_b
    if not (0 <= min(seen) and max(seen) < n):
        w = next(w for w in f + b if not 0 <= w < n)
        raise VertexOutOfRangeError(f"vertex {w} outside 0..{n - 1}")

    # The graph has no self-loops, so ``adj[a] >> c & 1`` is set exactly
    # when the actor moved from a to c along an edge.
    adj = g._masks
    steps = zip(f, f[1:], b, b[1:])
    if t.rule is MovementRule.TRADITIONAL:
        conforms = all(
            (a == c or adj[a] >> c & 1) and (x == y or adj[x] >> y & 1)
            for a, c, x, y in steps
        )
    elif t.rule is MovementRule.ACTIVE:
        conforms = all(adj[a] >> c & 1 and adj[x] >> y & 1 for a, c, x, y in steps)
    else:
        conforms = all(
            (a == c or adj[a] >> c & 1)
            and (x == y or adj[x] >> y & 1)
            and adj[a] >> c & 1 != adj[x] >> y & 1
            for a, c, x, y in steps
        )

    rows = g.distances
    return TrackValidation(
        conforms=conforms,
        surjective_f=len(seen_f) == n,
        surjective_g=len(seen_b) == n,
        min_distance=min(rows[u][v] for u, v in zip(f, b)),
    )


def move_attribution(g: Graph, t: TrackPair) -> MoveAttribution:
    """Per-step mover sequence of a lazy-conformant track pair."""
    if t.rule is not MovementRule.LAZY or not validate_tracks(g, t).conforms:
        raise NotLazyConformantError("tracks do not follow the lazy rule")
    x = tuple(1 if t.f[i] != t.f[i + 1] else 2 for i in range(t.length - 1))
    mixed = sum(
        1 for k in range((t.length - 1) // 2) if x[2 * k] != x[2 * k + 1]
    )
    return MoveAttribution(x=x, mixed_pairs=mixed)


def direct_to_lazy(g: Graph, t: TrackPair) -> TrackPair:
    """Interleave an active track pair into an opposite-lazy one.

    Each simultaneous step is split into Alice's half-step followed by
    Bob's, giving length ``2l - 1``.  On the inserted half-steps the two
    are one move apart from a checked position, so the minimum distance
    drops by at most 1.
    """
    if t.rule is not MovementRule.ACTIVE or not validate_tracks(g, t).conforms:
        raise NotActiveConformantError("tracks do not follow the active rule")
    f, b = t.f, t.g
    steps = 2 * t.length - 1
    f2 = tuple(f[(j + 1) // 2] for j in range(steps))
    g2 = tuple(b[j // 2] for j in range(steps))
    return TrackPair(f2, g2, MovementRule.LAZY)


def lazy_to_direct(g: Graph, t: TrackPair) -> TrackPair:
    """Merge an opposite-lazy track pair into an active one.

    Consecutive mover steps are paired up.  A mixed pair (the two actors
    alternate) collapses into one simultaneous step landing on original
    positions.  A same-mover pair keeps its two steps, with the stationary
    actor bouncing to a neighbour and back; an unpaired final step gets the
    same one-step bounce.  Bounce targets sit next to a position that was
    at distance >= r, so the minimum distance drops by at most 1.  The
    output length is ``l - a`` where ``a`` counts the mixed pairs.
    """
    attribution = move_attribution(g, t)  # raises if not lazy-conformant
    x = attribution.x
    f, b = t.f, t.g
    l = t.length

    fp = [f[0]]
    gp = [b[0]]
    time = 1  # 1-based position index in the lazy tracks emitted so far
    for k in range((l - 1) // 2):
        first, second = x[2 * k], x[2 * k + 1]
        time += 2
        if first != second:
            fp.append(f[time - 1])
            gp.append(b[time - 1])
        elif first == 1:
            stay = b[time - 1]
            fp.append(f[time - 2])
            gp.append(_bounce(g, stay, f[time - 2]))
            fp.append(f[time - 1])
            gp.append(stay)
        else:
            stay = f[time - 1]
            fp.append(_bounce(g, stay, b[time - 2]))
            gp.append(b[time - 2])
            fp.append(stay)
            gp.append(b[time - 1])
    if (l - 1) % 2 == 1:
        time += 1
        if x[l - 2] == 1:
            fp.append(f[time - 1])
            gp.append(_bounce(g, b[time - 1], f[time - 1]))
        else:
            fp.append(_bounce(g, f[time - 1], b[time - 1]))
            gp.append(b[time - 1])
    return TrackPair(tuple(fp), tuple(gp), MovementRule.ACTIVE)


def _bounce(g: Graph, stay: int, other: int) -> int:
    """Detour neighbour for an actor parked at ``stay``.

    Any neighbour keeps the distance bound; picking the one farthest from
    the other actor (smallest id on ties) keeps outputs deterministic and
    as safe as possible.
    """
    best = -1
    best_d = -1
    for w in g.neighbors(stay):
        dw = g.distance(w, other)
        if dw > best_d:
            best, best_d = w, dw
    return best
