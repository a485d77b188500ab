"""Vertex spans, witness walks, and the track transformations.

The span of a connected graph under a movement rule is the largest ``r``
such that the pair graph at threshold ``r`` contains a connected component
whose two coordinate projections each cover the whole vertex set.  Walking
such a component visits every vertex with both actors while they never come
closer than ``r``; conversely any pair of covering walks traces such a
component.  A covering component at ``r`` lies inside one at ``r - 1``, so
the span is found by one union-find sweep that adds pairs from the radius
down and stops at the first threshold where a component covers both
coordinates; no pair graph is built.  The winning component stays in the
sweep's format, a bitmask with bit ``u * n + v`` set for each member pair
``(u, v)`` (``SpanReport.members``), and the witness walk reads it as is;
``SpanReport.witness_component`` is its one pair view.

Witnesses are greedy covering walks inside the winning component: from its
smallest pair, repeatedly walk to the nearest member that adds a vertex
missing from either walk.  Only coverage matters, so the walks stay short:
400 positions on P200, whose strong-rule component has 39,800 pairs.
Where the greedy walk would exceed ``2 * |component| - 1`` positions, the
closed depth-first traversal of a spanning tree of the component, which
has that length, is returned instead.  Either way the walk is
rule-conformant and keeps the promised safety distance.  Both walks read
the component's breadth-first levels from ``graph._levels`` and step back
a level to the smallest rule-neighbour there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import (
    NotActiveConformantError,
    NotLazyConformantError,
    VertexOutOfRangeError,
)
from .graph import Graph, _bits, _levels
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

    ``members`` is the component as the sweep and the witness walk both
    hold it: a bitmask with bit ``u * n + v`` set for each pair ``(u, v)``.
    ``witness_component`` is its pair view.  The smallest base-graph
    distance over the component's pairs is ``value`` itself: a larger
    minimum would have qualified at a higher threshold first.
    """

    graph: Graph
    rule: MovementRule
    value: int
    members: int

    @property
    def witness_component(self) -> tuple[Pair, ...]:
        """The component's pairs, in ascending pair order."""
        return tuple(divmod(i, self.graph.n) for i in _bits(self.members))

    def __repr__(self) -> str:
        # In hex: a member mask of more than 4,300 decimal digits (P200's
        # has about 12,000) would make ``repr`` raise ValueError.
        return (
            f"SpanReport(graph={self.graph!r}, rule={self.rule!r},"
            f" value={self.value}, members={self.members:#x})"
        )


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

    ``x[i]`` is 1 when Alice (f) moved at step i and 2 when Bob (g) did.
    """

    x: tuple[int, ...]

    @property
    def mixed_pairs(self) -> int:
        """The (x[2k], x[2k+1]) pairs with two different movers: the index
        offset the lazy-to-active transformation accumulates."""
        return sum(a != b for a, b in zip(self.x[::2], self.x[1::2]))


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
    # size repeats members.bit_count(); recounting made the sweep ~15% slower.

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
            return SpanReport(g, rule, r, winner)
    raise AssertionError("threshold 0 must always admit a covering component")


def extract_witness_tracks(report: SpanReport) -> TrackPair:
    """Concrete walks for both actors realising the reported span.

    A greedy covering walk that never leaves the witness component.  It
    starts at the component's smallest pair.  While a vertex is missing
    from either walk, the breadth-first levels from the walk's end inside the
    members (``graph._levels``) are read up to the first level holding a
    pair that adds a missing f- or g-coordinate; the smallest such pair is
    the target.  The path back to the walk's end takes, at each
    level, the smallest member adjacent to the node just traced (every
    rule's step is symmetric), and the path is appended.  Every step is a
    rule step between pairs at distance >= the span, so the walks conform,
    cover every vertex in both coordinates, and their minimum distance
    equals the span.

    Nearest-first covering has no length guarantee of its own, so when the
    greedy walk would exceed ``2 * |component| - 1`` positions the closed
    depth-first traversal of a breadth-first spanning tree, which has that
    length, is returned instead.  No span witness of a labelled connected
    graph of order <= 6, or of 1,300 seeded random graphs of order 6..20,
    needs it; a hand-built component can (``tests/test_span_sweep.py``).
    """
    members = report.members
    if not members:
        raise ValueError("witness component is empty")

    n = report.graph.n
    step = pair_neighbors(report.graph, report.rule)
    root = (members & -members).bit_length() - 1
    bound = 2 * members.bit_count() - 1

    # Bit u * n + v of ``fresh_f`` (``fresh_g``) is set while vertex u (v)
    # is still missing from the f-walk (g-walk).
    block = (1 << n) - 1
    column = sum(1 << (w * n) for w in range(n))
    fresh_f = fresh_g = (1 << n * n) - 1
    missing_f = missing_g = block
    walk: list[int] = []
    path = [root]
    while True:
        for i in path:
            u, v = divmod(i, n)
            if missing_f >> u & 1:
                missing_f ^= 1 << u
                fresh_f ^= block << (u * n)
            if missing_g >> v & 1:
                missing_g ^= 1 << v
                fresh_g ^= column << v
        walk += path
        if len(walk) > bound:
            walk = _closed_dfs(step, members, root)
            break
        if not (missing_f or missing_g):
            break

        fresh = members & (fresh_f | fresh_g)
        levels = []
        for level in _levels(step, walk[-1], members):
            hit = level & fresh
            if hit:
                break
            levels.append(level)
        else:
            raise ValueError(
                "witness component is not connected or does not cover"
                " every vertex in both coordinates"
            )

        path = [(hit & -hit).bit_length() - 1]
        for level in reversed(levels):
            path.append(_nearest(step, path[-1], level))
        path.reverse()

    f = tuple(i // n for i in walk)
    g = tuple(i % n for i in walk)
    return TrackPair(f, g, report.rule)


def _nearest(step: Callable[[int], int], node: int, level: int) -> int:
    """The smallest rule-neighbour of ``node`` in the bitmask ``level``."""
    back = step(node) & level
    return (back & -back).bit_length() - 1


def _closed_dfs(step: Callable[[int], int], members: int, root: int) -> list[int]:
    """Closed depth-first traversal of a breadth-first spanning tree.

    The tree spans ``members`` from ``root``.  A node's parent is its
    smallest rule-neighbour one level nearer the root, the rule the greedy
    walk traces back by; each level is read in ascending pair order, so
    every node's children are too.  Every tree edge is walked down and back
    up, giving ``2 * |members| - 1`` positions.
    """
    children: dict[int, list[int]] = {}
    above = 1 << root
    for level in _levels(step, root, members):
        for node in _bits(level):
            children.setdefault(_nearest(step, node, above), []).append(node)
        above = level

    # Each node's children are popped on its first visit; the later visits,
    # on the way back up, only append it to the walk.
    walk = []
    stack = [root]
    while stack:
        node = stack.pop()
        walk.append(node)
        for child in reversed(children.pop(node, ())):
            stack += (node, child)
    return walk


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
    return MoveAttribution(
        tuple(1 if t.f[i] != t.f[i + 1] else 2 for i in range(t.length - 1))
    )


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
    x = move_attribution(g, t).x  # raises if not lazy-conformant
    f, b = t.f, t.g

    fp = [f[0]]
    gp = [b[0]]
    # Step pair k moves from position 2k to i = 2k + 1, then on to j = 2k + 2.
    for k in range(len(x) // 2):
        i, j = 2 * k + 1, 2 * k + 2
        if x[i - 1] != x[i]:
            fp.append(f[j])
            gp.append(b[j])
        elif x[i] == 1:
            fp += (f[i], f[j])
            gp += (_bounce(g, b[j], f[i]), b[j])
        else:
            fp += (_bounce(g, f[j], b[i]), f[j])
            gp += (b[i], b[j])
    if len(x) % 2:
        if x[-1] == 1:
            fp.append(f[-1])
            gp.append(_bounce(g, b[-1], f[-1]))
        else:
            fp.append(_bounce(g, f[-1], b[-1]))
            gp.append(b[-1])
    return TrackPair(tuple(fp), tuple(gp), MovementRule.ACTIVE)


def _bounce(g: Graph, stay: int, other: int) -> int:
    """Detour neighbour for an actor parked at ``stay``.

    Any neighbour keeps the distance bound; picking the one farthest from
    the other actor (smallest id on ties) keeps outputs deterministic and
    as safe as possible.
    """
    best = -1
    best_d = -1
    rows = g.distances
    for w in g.neighbors(stay):
        dw = rows[w][other]
        if dw > best_d:
            best, best_d = w, dw
    return best
