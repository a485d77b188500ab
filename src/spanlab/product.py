"""Movement rules and the distance-thresholded pair graph.

A pair graph at threshold ``r`` has one vertex per ordered pair ``(u, v)``
of base-graph vertices with ``d(u, v) >= r`` and edges given by how the two
actors may move in one step:

* traditional -- each actor moves along an edge or stays, not both staying
  (the strong-product step);
* active      -- both actors move along edges (the direct-product step);
* lazy        -- exactly one actor moves along an edge (the Cartesian-product
  step).

"Not both staying" describes the pair graph's step only: a product graph has
no loops.  A walk pair under the traditional rule may still hold both actors
in place for a step, and ``engine.validate_tracks`` accepts that step.

Pair vertices are indexed ``u * n + v``.  ``pair_neighbors`` is the one
definition of a rule's step: it maps a pair index to the bitmask of the
pair indices one step away.  The span sweep and the witness search in
``engine`` call it directly, on live pairs and on a component's members.
What does not depend on the rule, the step tables, the sweep's distance
buckets and its far-pair mask, is the graph's pair space (``_pair_space``):
built once per graph on first use, kept in the graph, and shared by every
sweep and walk.
``build_pair_graph`` materialises the whole graph at one threshold from the
same step; the tests use it as the reference the sweep is compared against.
Its components are unions of breadth-first levels from ``graph._levels``,
the one search over pair indices that ``engine``'s flood and witness walks
use too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from .graph import Graph, _bits, _levels

Pair = tuple[int, int]


class MovementRule(Enum):
    """The three simultaneous-movement disciplines for the two actors."""

    TRADITIONAL = "traditional"
    ACTIVE = "active"
    LAZY = "lazy"

    @property
    def span_name(self) -> str:
        """Name of the span this rule defines (strong/direct/cartesian)."""
        return _SPAN_NAMES[self]

    @classmethod
    def from_name(cls, name: str) -> "MovementRule":
        """Accepts both rule names and span names, case-insensitively."""
        key = name.strip().lower()
        for rule in cls:
            if key in (rule.value, rule.span_name):
                return rule
        raise ValueError(f"unknown movement rule {name!r}")


_SPAN_NAMES = {
    MovementRule.TRADITIONAL: "strong",
    MovementRule.ACTIVE: "direct",
    MovementRule.LAZY: "cartesian",
}


@dataclass(frozen=True)
class PairGraph:
    """Thresholded product of a graph with itself, per one movement rule.

    It stays in the package for the benchmark's tracer, and keeps only what
    its readers use: the pair indexing and pair set (its own filter tests),
    ``vertex_count`` (the tracer's pair counter), ``neighbors`` (the
    reference walks) and the components (the reference descent).
    """

    base: Graph
    _allowed: int = field(repr=False)
    _adj: dict[int, int] = field(repr=False)

    def index(self, u: int, v: int) -> int:
        return u * self.base.n + v

    def pair_of(self, idx: int) -> Pair:
        return divmod(idx, self.base.n)

    def pairs(self) -> list[Pair]:
        """All pair vertices, ascending by index (row-major in (u, v))."""
        return [self.pair_of(i) for i in _bits(self._allowed)]

    @property
    def vertex_count(self) -> int:
        return self._allowed.bit_count()

    def neighbors(self, u: int, v: int) -> list[Pair]:
        return [self.pair_of(i) for i in _bits(self._adj[self.index(u, v)])]

    def component_masks(self) -> list[int]:
        """Connected components as pair-index bitmasks, by smallest member."""
        remaining = self._allowed
        comps = []
        while remaining:
            seed = remaining & -remaining
            # The levels are disjoint, so their sum is their union.
            comp = seed + sum(_levels(self._adj.__getitem__, seed.bit_length() - 1, remaining))
            comps.append(comp)
            remaining ^= comp
        return comps

    def components(self) -> list[tuple[Pair, ...]]:
        return [
            tuple(self.pair_of(i) for i in _bits(mask))
            for mask in self.component_masks()
        ]


class _PairSpace(NamedTuple):
    """The rule-independent pair tables of one graph."""

    # buckets[r] holds the pair indices u * n + v with u <= v and
    # min(d(u, v), radius) == r, ascending: the order the sweep joins them.
    buckets: tuple[tuple[int, ...], ...]
    # The far pairs: bit u * n + v set for each pair, in both halves, with
    # d(u, v) >= radius.  The sweep's flood searches inside it.
    far: int
    # spread[u] has bit w * n set for each neighbour w of u.  Multiplying an
    # n-bit mask by it lays one copy into each neighbour's block of n pair
    # indices; the copies cannot overlap, so no carry crosses a block.
    spread: tuple[int, ...]
    # The traditional rule's closed neighbourhoods: closed[v] is v's
    # neighbour mask with bit v set, closed_spread[u] is spread[u] with
    # bit u * n set.
    closed: tuple[int, ...]
    closed_spread: tuple[int, ...]
    # The pair indices grouped by degree sum deg(u) + deg(v), one mask per
    # sum that occurs, in ascending order of sum: the walks' start table.
    # Each pair lies in exactly one mask.
    degree_sums: tuple[int, ...]


# Cell bytes 0 and 1 as the digits "0" and "1".
_BINARY = bytes.maketrans(b"\0\1", b"01")


def _pair_space(g: Graph) -> _PairSpace:
    """The pair space of ``g``, built on first use and kept in ``g._pairs``.

    It stays with the graph until ``verify.check_graph`` drops it.  On
    K30,30 it holds 1,830 bucketed pair indices, the far-pair mask, 60
    spread masks and 60 closed spread masks of 3,600 bits, 60 closed masks,
    and one degree-sum mask of 3,600 bits (every degree is 30), about 120
    KB; on P80 about 200 KB.  The far-pair mask and the degree-sum masks
    hold n * n bits each, on any graph.
    """
    space = g._pairs
    if space is None:
        n = g.n
        top = g.radius
        buckets: list[list[int]] = [[] for _ in range(top + 1)]
        add = [bucket.append for bucket in buckets]
        # Only pairs with u <= v join; row u from column u onwards holds them.
        for u, row in enumerate(g.distances):
            for i, d in enumerate(row[u:], u * n + u):
                add[d if d < top else top](i)
        # The far pairs: one byte per pair index for the top bucket, and the
        # same bytes read column by column for its mirror image, each read
        # as a binary numeral with pair index 0 last.
        cells = bytearray(n * n)
        for i in buckets[top]:
            cells[i] = 1
        transposed = b"".join([cells[v::n] for v in range(n)])
        far = int(cells[::-1].translate(_BINARY), 2) | int(transposed[::-1].translate(_BINARY), 2)
        spread = tuple(sum(1 << (w * n) for w in row) for row in g._adj)
        closed = tuple(m | 1 << v for v, m in enumerate(g._masks))
        closed_spread = tuple(s | 1 << (u * n) for u, s in enumerate(spread))
        # Per degree d, rows[d] has bit u * n and columns[d] bit u for each
        # vertex u of degree d.  rows[a] * columns[b] sets exactly the pairs
        # of degrees a and b, with no carries, as ``spread`` does.
        rows = [0] * n
        columns = [0] * n
        for u, row in enumerate(g._adj):
            rows[len(row)] |= 1 << (u * n)
            columns[len(row)] |= 1 << u
        present = [d for d in range(n) if columns[d]]
        sums = [0] * (2 * n)
        for a in present:
            for b in present:
                sums[a + b] |= rows[a] * columns[b]
        space = g._pairs = _PairSpace(
            tuple(map(tuple, buckets)),
            far,
            spread,
            closed,
            closed_spread,
            tuple(filter(None, sums)),
        )
    return space


def pair_neighbors(g: Graph, rule: MovementRule) -> Callable[[int], int]:
    """The rule's one step, as a map from a pair index to a neighbour bitmask.

    The returned function sends pair index ``u * n + v`` to the bitmask of
    every pair index one step away under ``rule``, over all ``n * n`` pairs
    with no distance filter; callers AND it with the pairs they keep.  This
    is the only place a rule's step is spelled out.  It reads the step
    tables from the graph's pair space, so every call on one graph shares
    them.  A ``rule`` that is not a ``MovementRule``, such as its name,
    raises ``TypeError``.
    """
    if type(rule) is not MovementRule:
        raise TypeError(f"rule {rule!r} is not a MovementRule")
    n = g.n
    masks = g._masks
    space = _pair_space(g)
    spread = space.spread
    if rule is MovementRule.ACTIVE:

        def step(i: int) -> int:
            u, v = divmod(i, n)
            return masks[v] * spread[u]

    elif rule is MovementRule.LAZY:

        def step(i: int) -> int:
            u, v = divmod(i, n)
            return masks[v] << (u * n) | spread[u] << v

    else:
        # Closed neighbourhoods in both coordinates, minus staying put.
        closed = space.closed
        closed_spread = space.closed_spread

        def step(i: int) -> int:
            u, v = divmod(i, n)
            return closed[v] * closed_spread[u] ^ 1 << i

    return step


def build_pair_graph(g: Graph, rule: MovementRule, r: int) -> PairGraph:
    """Pair graph of ``g`` on ordered pairs at distance >= ``r``.

    Any ``r >= 0`` is accepted; the pair set is empty only above the
    diameter.  A negative ``r`` raises ``ValueError``.
    """
    if r < 0:
        raise ValueError(f"threshold must be non-negative, got {r}")
    n = g.n
    allowed = 0
    for u, row in enumerate(g.distances):
        for v, d in enumerate(row):
            if d >= r:
                allowed |= 1 << (u * n + v)

    step = pair_neighbors(g, rule)
    adj = {i: step(i) & allowed for i in _bits(allowed)}
    return PairGraph(g, allowed, adj)


def components_with_double_surjectivity(pg: PairGraph) -> list[tuple[Pair, ...]]:
    """Components whose two coordinate projections both cover every vertex.

    Ordered by the smallest pair index contained in each component.
    """
    n = pg.base.n
    return [
        comp
        for comp in pg.components()
        if len({u for u, _ in comp}) == n and len({v for _, v in comp}) == n
    ]
