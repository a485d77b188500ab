"""Vertex spans, witness walks, and the track transformations.

The span of a connected graph under a movement rule is the largest ``r``
such that the pair graph at threshold ``r`` contains a connected component
whose two coordinate projections each cover the whole vertex set.  Walking
such a component visits every vertex with both actors while they never come
closer than ``r``; conversely any pair of covering walks traces such a
component.  A covering component at ``r`` lies inside one at ``r - 1``, so
the span is found by one union-find sweep that adds pairs from the radius
down and stops at the first threshold where a component covers both
coordinates; no pair graph is built.  The sweep starts with one
breadth-first flood at the radius, from the smallest pair at distance >=
radius: if that pair's component covers, it is the winner, and no pair is
joined one at a time.  Swapping the actors, ``(u, v) ->
(v, u)``, maps the pair graph onto itself under every rule, so it maps each
component to a component, its mirror image.  The sweep joins only the pairs
with ``u <= v`` and keeps each component's mirror image beside it, which
halves the pairs it steps from.  The winning component stays in the
sweep's format, a bitmask with bit ``u * n + v`` set for each member pair
``(u, v)`` (``SpanReport.members``), and the witness walk reads it as is;
``SpanReport.witness_component`` is its one pair view.

Witnesses are greedy covering walks inside the winning component: from its
pair with the smallest degree sum ``deg(u) + deg(v)`` (the smallest such
pair on ties), repeatedly walk to the nearest member that adds a vertex
missing from either walk, and among the nearest, first to one that adds a
missing vertex to both walks (the greedy set-cover choice).  A low-degree
start lies at the graph's ends, such as a path's leaves, so the walk need
not double back to them.  Only coverage matters, so the walks stay short:
200, 200 and 399 positions on P200 under the strong, direct and cartesian
rules, however its vertices are labelled, whose strong-rule component has
39,800 pairs.  No cap is needed: each leg adds a missing coordinate and is
no longer than the component's diameter, so a walk on an order-n graph has
at most ``1 + (2n - 2) * diam(C)`` positions for the component C.  The walk
is rule-conformant and keeps the promised safety distance.  It reads the
component's breadth-first levels from ``graph._levels`` and steps back a
level to the smallest rule-neighbour there.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterator

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
    _pair_space,
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
        # One n-bit row at a time: ``_bits`` on the whole mask would copy
        # all n * n bits once per member.
        n = self.graph.n
        block = (1 << n) - 1
        members = self.members
        return tuple((u, v) for u in range(n) for v in _bits(members >> (u * n) & block))

    def __repr__(self) -> str:
        # In hex: a member mask of more than 4,300 decimal digits (P200's
        # has about 12,000) would make ``repr`` raise ValueError.
        return (
            f"SpanReport(graph={self.graph!r}, rule={self.rule!r},"
            f" value={self.value}, members={self.members:#x})"
        )


@dataclass(frozen=True)
class TrackPair:
    """Two equal-length vertex walks (Alice's and Bob's) under one rule.

    Each walk is read once, here, through ``operator.index`` into a tuple of
    ints, and an id that is not an integer raises ``TypeError``, as does a
    ``rule`` that is not a ``MovementRule``.  Lengths, emptiness and ranges
    are left to ``validate_tracks`` and the DOT writer.
    """

    f: tuple[int, ...]
    g: tuple[int, ...]
    rule: MovementRule

    def __post_init__(self) -> None:
        if type(self.rule) is not MovementRule:
            raise TypeError(f"rule {self.rule!r} is not a MovementRule")
        for name, walk in (("f", self.f), ("g", self.g)):
            try:
                # At its exact size: ``tuple(map(...))`` resizes, and the
                # small-tuple free lists then fill (+1.8 MB peak RSS).
                object.__setattr__(self, name, (*map(index, walk),))
            except TypeError:
                for w in walk:  # read again to name the first bad id
                    if not hasattr(type(w), "__index__"):
                        raise TypeError(f"track vertex {w!r} is not an integer") from None
                raise

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

    The sweep starts with a flood: the component C at the radius of the
    top bucket's first pair, read by ``graph._levels`` over the pair space's
    far pairs (``d(u, v) >= radius``, both halves).  That pair has the
    smallest index of all far pairs, since a pair ``(u, v)`` with ``u > v``
    comes after its mirror.  If C covers, it is returned: the sweep's winner
    at the radius is the covering component, or mirror image, holding the
    smallest pair index, and C holds the smallest of all.  If C does not
    cover, C and its mirror image become one union-find set under the first
    pair, with their record, and the top bucket skips their pairs, so the
    search is not repeated.  Under the strong and direct rules every
    relabelled K_{k,k} returns from the flood.

    Pairs ``(u, v)`` with ``u <= v`` join in buckets of
    ``min(d(u, v), radius)``, from the radius down, and each brings its
    mirror ``(v, u)`` into the same union-find set.  A set is a component
    together with its mirror image.  Its root's record is the member
    bitmasks of both and the component's cover, the union of the two
    coordinate projections of ``members``.  The records live in three lists
    indexed by root, allocated once per sweep beside ``parent``: three
    pointer lists of ``n * n`` slots, 24 bytes per pair index on a 64-bit
    build.  A set that goes under another root clears its masks, so only
    roots hold them; a lone pair off the diagonal holds none.  A merge that
    meets one as the neighbour j derives its record from j, in j's
    orientation (members ``1 << j``, the bit of j's mirror image, j's
    coordinates as the cover), and merges it like any other set.  Each
    joining pair is unioned with its live rule-neighbours, which by symmetry
    unions its mirror with theirs.
    Neighbours already inside the growing component are skipped, so each
    neighbouring set costs one root lookup: one list read when the
    neighbour's parent is the root, path halving otherwise.  A component
    and its mirror image are disjoint unless they are one, so ``members ==
    mirror`` marks a symmetric set, as a diagonal pair is from the start.  A
    neighbour in the growing set's own ``mirror`` makes the component meet
    its mirror image.  Otherwise the growing set goes under the neighbour's
    root, whose half holding the neighbour joins ``members`` and other half
    ``mirror``, swapping its cover if need be; the merge is symmetric if
    either side was.

    A component that covers every vertex in both coordinates still does at
    every lower threshold, and it covers exactly when its mirror image does,
    so the first bucket that leaves one covering gives the span.  Only
    components that bucket touched can have just started covering.  Each
    distinct root recorded as covering is resolved once to the root it is
    under now; among those sets, and both halves of each, the one with the
    smallest pair index is the witness.  Threshold 0 joins every pair, so
    the sweep always ends with a witness.  The buckets and the step table
    come from the graph's pair space (``product._pair_space``), so the
    sweeps under the three rules and the witness walks of one graph build
    them once.
    """
    n = g.n
    step = pair_neighbors(g, rule)
    space = _pair_space(g)
    buckets = space.buckets
    top = g.radius

    # A component's cover has bit u for each first coordinate u and bit
    # n + v for each second coordinate v of its members; swapping its two
    # halves gives the cover of its mirror image.
    block = (1 << n) - 1
    covering = (1 << 2 * n) - 1

    # The flood: the component at the radius of the smallest far pair, the
    # top bucket's first.  It holds the smallest live pair, so if it covers
    # it is the winner.
    first = buckets[top][0]
    flood = sum(_levels(step, first, space.far), 1 << first)
    cover = 0
    for u in range(n):
        row = flood >> (u * n) & block
        if row:
            cover |= 1 << u | row << n
    if cover == covering:
        return SpanReport(g, rule, top, flood)

    parent = list(range(n * n))
    # The records by root: the member masks of a set's component and of its
    # mirror image, and the component's cover.  Only roots hold masks.
    members_of = [0] * (n * n)
    mirror_of = [0] * (n * n)
    cover_of = [0] * (n * n)

    # On a miss the flood and its mirror image become one set under
    # ``first``, and the top bucket skips their pairs: ``first`` is the
    # bucket's first pair, and the only one of theirs that is its own parent.
    mirror = 0
    rest = flood
    while rest:
        j = rest.bit_length() - 1
        rest ^= 1 << j
        u, v = divmod(j, n)
        m = v * n + u
        parent[j] = parent[m] = first
        mirror |= 1 << m
    members_of[first], mirror_of[first], cover_of[first] = flood, mirror, cover
    pending = [i for i in buckets[top] if parent[i] == i][1:]

    live = flood | mirror
    for r in range(top, -1, -1):
        won = set()  # roots of covering components, all new in this bucket
        for i in buckets[r] if r < top else pending:
            u, v = divmod(i, n)
            m = v * n + u
            parent[m] = i
            members, mirror = 1 << i, 1 << m
            live |= members | mirror
            root, cover = i, 1 << u | 1 << (n + v)
            todo = step(i) & live
            # Read the top bit and clear with ``todo ^ (todo & members)``:
            # ``todo & -todo`` and ``~members`` would each negate, copying
            # the whole n*n-bit mask once more per neighbouring component.
            while todo:
                j = todo.bit_length() - 1
                # j's root, by path halving; mostly j's parent is the root.
                other = parent[j]
                if parent[other] != other:
                    other = j
                    while parent[other] != other:
                        parent[other] = other = parent[parent[other]]
                if other == root:
                    # j is not in members, so it lies in the mirror image:
                    # the component meets its mirror, and they are one.
                    joined = True
                else:
                    if o_members := members_of[other]:
                        o_mirror, o_cover = mirror_of[other], cover_of[other]
                    else:
                        # A lone pair off the diagonal, j or its mirror image,
                        # holds no masks: its record, in j's orientation.
                        a, b = divmod(j, n)
                        o_members, o_mirror = 1 << j, 1 << (b * n + a)
                        o_cover = 1 << a | 1 << (n + b)
                    # Read before the masks below are ORed together.
                    joined = members == mirror or o_members == o_mirror
                    # The growing set goes under the neighbour's root.
                    members_of[root] = mirror_of[root] = 0
                    parent[root] = root = other
                    if o_members >> j & 1:
                        members |= o_members
                        mirror |= o_mirror
                        cover |= o_cover
                    else:
                        members |= o_mirror
                        mirror |= o_members
                        cover |= o_cover >> n | (o_cover & block) << n
                if joined:
                    members = mirror = members | mirror
                    cover |= cover >> n | (cover & block) << n
                todo ^= todo & members
            cover_of[root] = cover
            if root != i or members == mirror:  # not one pair off the diagonal
                members_of[root], mirror_of[root] = members, mirror
            if cover == covering:
                won.add(root)

        if won:
            # A covering root may have gone under another since; each is
            # resolved once.  A component covers exactly when its mirror
            # image does.
            qualifying = []
            for root in won:
                while parent[root] != root:
                    root = parent[root]
                qualifying += (members_of[root], mirror_of[root])
            winner = min(qualifying, key=lambda m: m & -m)
            return SpanReport(g, rule, r, winner)
    raise AssertionError("threshold 0 must always admit a covering component")


def extract_witness_tracks(report: SpanReport) -> TrackPair:
    """Concrete walks for both actors realising the reported span.

    A greedy covering walk that never leaves the witness component.  It
    starts at the member pair with the smallest degree sum ``deg(u) +
    deg(v)``, the smallest pair index on ties: the first of the pair
    space's degree-sum masks, in ascending order of sum, that meets the
    members holds it, so the start costs one AND per distinct sum and no
    scan of the members.  The missing vertices are recorded once, in two
    n*n-bit masks over the pairs: ``fresh_f`` holds the pairs whose first
    coordinate the f-walk still misses, ``fresh_g`` those whose second
    coordinate the g-walk misses.  While either is nonzero, the
    breadth-first levels from the walk's end inside the members are read up
    to the first level holding a pair that adds a missing f- or
    g-coordinate.  The target is the smallest pair there that
    adds both a missing f- and a missing g-coordinate, or the smallest that
    adds one if none adds both: coverage first, as in greedy set cover.
    Under the cartesian rule none adds both, since each pair of that level
    is one actor's move from a pair both walks have visited.  Level one,
    the rule step from the walk's end, is tested before any search, since
    most targets lie there; the deeper levels come from ``graph._levels``,
    handed that step so it is not taken twice.  The path back to the walk's
    end takes, at each level, the smallest member adjacent to the node just
    traced (every rule's step is symmetric), and the path is appended.
    Every step is a rule step between pairs at distance >= the span, so
    the walks conform, cover every vertex in both coordinates, and their
    minimum distance equals the span.

    The loop needs no cap to end.  The start covers one vertex in each
    coordinate and each leg at least one more, so there are at most
    ``2n - 2`` legs on an order-n graph.  A leg is a shortest path inside
    the component to the nearest pair that adds a coordinate, so it is no
    longer than the eccentricity of its start inside the component.  A walk
    therefore has at most ``1 + (2n - 2) * diam(C)`` positions for the
    component C.  A component that is not connected, or does not cover,
    raises ``ValueError``.
    """
    members = report.members
    if not members:
        raise ValueError("witness component is empty")

    n = report.graph.n
    step = pair_neighbors(report.graph, report.rule)
    for mask in _pair_space(report.graph).degree_sums:
        start = members & mask
        if start:
            break
    root = (start & -start).bit_length() - 1

    # Bit u * n + v of ``fresh_f`` (``fresh_g``) is set while vertex u (v)
    # is still missing from the f-walk (g-walk): bit u * n of ``fresh_f``
    # and bit v of ``fresh_g`` tell, and the walk is done when both are 0.
    block = (1 << n) - 1
    fresh_f = fresh_g = (1 << n * n) - 1
    column = fresh_f // block  # bit w * n for each w
    walk: list[int] = []
    path = [root]
    while True:
        for i in path:
            u, v = divmod(i, n)
            if fresh_f >> (u * n) & 1:
                fresh_f ^= block << (u * n)
            if fresh_g >> v & 1:
                fresh_g ^= column << v
        walk += path
        if not (fresh_f or fresh_g):
            break

        fresh = members & (fresh_f | fresh_g)
        levels = []
        # Most targets lie one step from the walk's end, so that step is
        # tested before a search starts, and the search starts from it.
        near = step(walk[-1])
        hit = near & fresh
        if not hit:
            for level in _levels(step, walk[-1], members, near):
                hit = level & fresh
                if hit:
                    break
                levels.append(level)
            else:
                raise ValueError(
                    "witness component is not connected or does not cover"
                    " every vertex in both coordinates"
                )

        # Prefer the pairs that add a missing vertex to both walks.
        hit = hit & fresh_f & fresh_g or hit
        path = [(hit & -hit).bit_length() - 1]
        for level in reversed(levels):
            back = step(path[-1]) & level
            path.append((back & -back).bit_length() - 1)
        path.reverse()

    return TrackPair([i // n for i in walk], [i % n for i in walk], report.rule)


def validate_tracks(g: Graph, t: TrackPair) -> TrackValidation:
    """Check conformance, double surjectivity, and the minimum distance.

    A step conforms when, under

    * traditional -- each actor moves along an edge or stays; a step where
      both stay is accepted;
    * active      -- both actors move along edges;
    * lazy        -- each actor moves along an edge or stays, and exactly
      one of them moves.

    Malformed tracks are errors, not non-conforming ones: unequal lengths
    and empty tracks raise ``ValueError``, a vertex outside ``0..n-1``
    raises ``VertexOutOfRangeError``.  An id that is not an integer-like
    never gets here: ``TrackPair`` raises ``TypeError`` for it.
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

    # An actor moving from a to c stayed when ``d(a, c)`` is 0 and moved
    # along an edge when it is 1.
    rows = g.distances
    steps = zip(f, f[1:], b, b[1:])
    if t.rule is MovementRule.TRADITIONAL:
        conforms = all(rows[a][c] <= 1 >= rows[x][y] for a, c, x, y in steps)
    elif t.rule is MovementRule.ACTIVE:
        conforms = all(rows[a][c] == 1 == rows[x][y] for a, c, x, y in steps)
    else:
        conforms = all(rows[a][c] + rows[x][y] == 1 for a, c, x, y in steps)

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
    return MoveAttribution(_movers(t))


def _movers(t: TrackPair) -> tuple[int, ...]:
    # Under the lazy rule exactly one actor moves, so Bob moved where Alice
    # did not.
    return tuple(1 if a != c else 2 for a, c in zip(t.f, t.f[1:]))


def direct_to_lazy(g: Graph, t: TrackPair) -> TrackPair:
    """Interleave an active track pair into an opposite-lazy one.

    Each simultaneous step is split into Alice's half-step followed by
    Bob's, giving length ``2l - 1``.  On the inserted half-steps the two
    are one move apart from a checked position, so the minimum distance
    drops by at most 1.
    """
    if t.rule is not MovementRule.ACTIVE or not validate_tracks(g, t).conforms:
        raise NotActiveConformantError("tracks do not follow the active rule")
    return _direct_to_lazy(t)


def _direct_to_lazy(t: TrackPair) -> TrackPair:
    # ``direct_to_lazy`` on tracks already known to follow the active rule.
    f, b = t.f, t.g
    steps = 2 * t.length - 1
    f2 = [f[(j + 1) // 2] for j in range(steps)]
    g2 = [b[j // 2] for j in range(steps)]
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
    if t.rule is not MovementRule.LAZY or not validate_tracks(g, t).conforms:
        raise NotLazyConformantError("tracks do not follow the lazy rule")
    return _lazy_to_direct(g, t)


def _lazy_to_direct(g: Graph, t: TrackPair) -> TrackPair:
    # ``lazy_to_direct`` on tracks already known to follow the lazy rule.
    x = _movers(t)
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
    return TrackPair(fp, gp, MovementRule.ACTIVE)


def _bounce(g: Graph, stay: int, other: int) -> int:
    """Detour neighbour for an actor parked at ``stay``.

    Any neighbour keeps the distance bound; picking the one farthest from
    the other actor (smallest id on ties: ``max`` keeps the first maximum
    and ``_adj`` rows ascend) keeps outputs deterministic and as safe as
    possible.
    """
    rows = g.distances
    return max(g._adj[stay], key=lambda w: rows[w][other])
