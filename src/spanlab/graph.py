"""Simple connected undirected graphs and their metric primitives.

Vertices are dense integers ``0..n-1``; optional external names live in a
side table (``labels``).  All-pairs hop distances are computed eagerly at
construction and kept as a tuple of row tuples (``Graph.distances``, read as
``d[u][v]``), so every later query is a table lookup.  A Graph is immutable
after construction and safe to share across threads; every function in this
module is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyGraphError,
    NotABridgeError,
    SelfLoopError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int]


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple connected undirected graph.

    Construction rejects self-loops, duplicate edges, out-of-range vertex
    ids, empty graphs and disconnected graphs.  The single-vertex graph is
    admitted.
    """

    __slots__ = (
        "n",
        "labels",
        "_adj",
        "_masks",
        "_edges",
        "_dist",
        "_ecc",
        "_radius",
        "_diameter",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        labels: Optional[Sequence[str]] = None,
    ):
        if not isinstance(n, int) or n <= 0:
            raise EmptyGraphError(f"need at least one vertex, got n={n}")
        seen: set[Edge] = set()
        masks = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < n) or not (0 <= v < n):
                raise VertexOutOfRangeError(f"edge {e} outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"edge {key} given more than once")
            seen.add(key)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError(f"got {len(labels)} labels for {n} vertices")

        # The breadth-first searches run before anything else is built, so a
        # disconnected edge set costs one search; this is the package's only
        # connectivity check.
        full = (1 << n) - 1
        rows = []
        for s in range(n):
            row, reached = _bfs_row(masks, n, s)
            if reached != full:
                missing = next(_bits(full & ~reached))
                raise DisconnectedError(
                    f"vertex {missing} unreachable from vertex {s}"
                )
            rows.append(tuple(row))

        self.n = n
        self.labels = labels
        self._masks = tuple(masks)
        self._adj = tuple(tuple(_bits(m)) for m in masks)
        self._edges = tuple(sorted(seen))
        self._dist = tuple(rows)
        self._ecc = tuple(max(row) for row in rows)
        self._radius = min(self._ecc)
        self._diameter = max(self._ecc)

    # -- basic accessors -------------------------------------------------

    def edges(self) -> tuple[Edge, ...]:
        """All edges as (u, v) with u < v, sorted."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def neighbors(self, u: int) -> tuple[int, ...]:
        self._check_vertex(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._masks[u] >> v & 1)

    def label(self, u: int) -> str:
        self._check_vertex(u)
        return self.labels[u] if self.labels is not None else str(u)

    # -- metric accessors ------------------------------------------------

    @property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """Exact hop distances: row ``u`` holds ``d(u, v)`` at index ``v``."""
        return self._dist

    def distance(self, u: int, v: int) -> int:
        return self._dist[u][v]

    @property
    def radius(self) -> int:
        return self._radius

    @property
    def diameter(self) -> int:
        return self._diameter

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise VertexOutOfRangeError(f"vertex {u} outside 0..{self.n - 1}")

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and edge set (labels ignored)."""
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self._edges)})"


def _bfs_row(masks: Sequence[int], n: int, source: int) -> tuple[list[int], int]:
    """One BFS level sweep using frontier bitmasks; returns (dist row, reached mask)."""
    row = [0] * n
    reached = 1 << source
    frontier = reached
    d = 0
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= masks[v]
        nxt &= ~reached
        d += 1
        for v in _bits(nxt):
            row[v] = d
        reached |= nxt
        frontier = nxt
    return row, reached


def eccentricity(g: Graph, u: int) -> int:
    """Largest distance from ``u`` to any vertex."""
    g._check_vertex(u)
    return g._ecc[u]


def bridges(g: Graph) -> list[Edge]:
    """Every edge whose removal disconnects the graph.

    Standard low-link computation, iterative so deep graphs cannot blow the
    recursion limit.  Result is sorted by endpoint ids.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    out: list[Edge] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, iter(g.neighbors(root)))]
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if v == parent:
                    continue
                if disc[v] == -1:
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, u, iter(g.neighbors(v))))
                    advanced = True
                    break
                low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[u])
                    if low[u] > disc[parent]:
                        out.append((parent, u) if parent < u else (u, parent))
    out.sort()
    return out


@dataclass(frozen=True)
class BridgeSplit:
    """The two sides of a removed bridge, relabelled to dense ids.

    ``x``/``y`` are the new ids of the bridge endpoints inside their own
    side; ``map_x``/``map_y`` send new ids back to the original vertices.
    """

    side_x: Graph
    side_y: Graph
    x: int
    y: int
    map_x: tuple[int, ...]
    map_y: tuple[int, ...]


def split_at_bridge(g: Graph, edge: Edge) -> BridgeSplit:
    """Split ``g`` along a bridge into the two induced side graphs."""
    x, y = edge
    if not g.has_edge(x, y):
        raise NotABridgeError(f"({x}, {y}) is not an edge")

    # Reachability from x with the edge removed decides bridge-ness directly.
    masks = list(g._masks)
    masks[x] &= ~(1 << y)
    masks[y] &= ~(1 << x)
    _, reach_x = _bfs_row(masks, g.n, x)
    if reach_x >> y & 1:
        raise NotABridgeError(f"({x}, {y}) does not disconnect the graph")

    def side(anchor: int, member_mask: int) -> tuple[Graph, int, tuple[int, ...]]:
        orig = tuple(_bits(member_mask))
        new_id = {o: i for i, o in enumerate(orig)}
        edges = [
            (new_id[u], new_id[v])
            for (u, v) in g.edges()
            if u in new_id and v in new_id
        ]
        labels = [g.label(o) for o in orig] if g.labels is not None else None
        return Graph(len(orig), edges, labels), new_id[anchor], orig

    full = (1 << g.n) - 1
    gx, new_x, map_x = side(x, reach_x)
    gy, new_y, map_y = side(y, full & ~reach_x)
    return BridgeSplit(gx, gy, new_x, new_y, map_x, map_y)
