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
``build_pair_graph`` materialises the whole graph at one threshold from the
same step; the tests use it as the reference the sweep is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import ThresholdTooLargeError
from .graph import Graph, _bits

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
    """Thresholded product of a graph with itself, per one movement rule."""

    base: Graph
    rule: MovementRule
    threshold: int
    _allowed: int = field(repr=False)
    _adj: dict[int, int] = field(repr=False)

    # -- pair indexing ----------------------------------------------------

    def index(self, u: int, v: int) -> int:
        return u * self.base.n + v

    def pair_of(self, idx: int) -> Pair:
        return divmod(idx, self.base.n)

    # -- vertex / edge accessors ------------------------------------------

    def pairs(self) -> list[Pair]:
        """All pair vertices, ascending by index (row-major in (u, v))."""
        return [self.pair_of(i) for i in _bits(self._allowed)]

    @property
    def vertex_count(self) -> int:
        return self._allowed.bit_count()

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj.values()) // 2

    def has_vertex(self, u: int, v: int) -> bool:
        return bool(self._allowed >> self.index(u, v) & 1)

    def has_edge(self, a: Pair, b: Pair) -> bool:
        ia, ib = self.index(*a), self.index(*b)
        return ia in self._adj and bool(self._adj[ia] >> ib & 1)

    def neighbors(self, u: int, v: int) -> list[Pair]:
        return [self.pair_of(i) for i in _bits(self._adj[self.index(u, v)])]

    # -- components --------------------------------------------------------

    def component_masks(self) -> list[int]:
        """Connected components as pair-index bitmasks, by smallest member."""
        adj = self._adj
        remaining = self._allowed
        comps = []
        while remaining:
            seed = remaining & -remaining
            comp = seed
            frontier = seed
            while frontier:
                nxt = 0
                for i in _bits(frontier):
                    nxt |= adj[i]
                frontier = nxt & ~comp
                comp |= frontier
            comps.append(comp)
            remaining &= ~comp
        return comps

    def components(self) -> list[tuple[Pair, ...]]:
        return [
            tuple(self.pair_of(i) for i in _bits(mask))
            for mask in self.component_masks()
        ]


def pair_neighbors(g: Graph, rule: MovementRule) -> Callable[[int], int]:
    """The rule's one step, as a map from a pair index to a neighbour bitmask.

    The returned function sends pair index ``u * n + v`` to the bitmask of
    every pair index one step away under ``rule``, over all ``n * n`` pairs
    with no distance filter; callers AND it with the pairs they keep.  This
    is the only place a rule's step is spelled out.
    """
    n = g.n
    masks = g._masks
    # spread[u] has bit w * n set for each neighbour w of u.  Multiplying an
    # n-bit mask by it lays one copy into each neighbour's block of n pair
    # indices; the copies cannot overlap, so no carry crosses a block.
    spread = [sum(1 << (w * n) for w in _bits(m)) for m in masks]
    if rule is MovementRule.ACTIVE:

        def step(i: int) -> int:
            u, v = divmod(i, n)
            return masks[v] * spread[u]

    elif rule is MovementRule.LAZY:

        def step(i: int) -> int:
            u, v = divmod(i, n)
            return masks[v] << (u * n) | spread[u] << v

    else:

        def step(i: int) -> int:
            u, v = divmod(i, n)
            # Closed neighbourhoods in both coordinates, minus staying put.
            return (masks[v] | 1 << v) * (spread[u] | 1 << (u * n)) ^ 1 << i

    return step


def build_pair_graph(g: Graph, rule: MovementRule, r: int) -> PairGraph:
    """Pair graph of ``g`` on ordered pairs at distance >= ``r``.

    ``r`` must lie in ``0..g.radius``; beyond the radius no pair survives
    (no vertex has everything at distance radius+1), which is rejected as a
    distinct error so span searches know to stop.
    """
    if r < 0:
        raise ValueError(f"threshold must be non-negative, got {r}")
    if r > g.radius:
        raise ThresholdTooLargeError(
            f"threshold {r} exceeds radius {g.radius}: empty pair graph"
        )
    n = g.n
    allowed = 0
    for u, row in enumerate(g.distances):
        base = u * n
        for v in range(n):
            if row[v] >= r:
                allowed |= 1 << (base + v)

    step = pair_neighbors(g, rule)
    adj = {i: step(i) & allowed for i in _bits(allowed)}
    return PairGraph(g, rule, r, allowed, adj)


def components_with_double_surjectivity(pg: PairGraph) -> list[tuple[Pair, ...]]:
    """Components whose two coordinate projections both cover every vertex.

    Ordered by the smallest pair index contained in each component.
    """
    n = pg.base.n
    full = (1 << n) - 1
    out = []
    for mask in pg.component_masks():
        p1 = 0
        p2 = 0
        for i in _bits(mask):
            u, v = divmod(i, n)
            p1 |= 1 << u
            p2 |= 1 << v
        if p1 == full and p2 == full:
            out.append(tuple(divmod(i, n) for i in _bits(mask)))
    return out
