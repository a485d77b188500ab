"""Simple connected undirected graphs and their metric primitives.

Vertices are dense integers ``0..n-1``; optional external names live in a
side table (``labels``).  All-pairs hop distances are computed eagerly at
construction and kept as a tuple of row tuples (``Graph.distances``, read as
``d[u][v]``), so every later query is a table lookup.  A Graph is immutable
after construction, apart from derived tables it fills on first use (see
``Graph``), and safe to share across threads; every function in this module
is pure.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyGraphError,
    SelfLoopError,
    TooLargeError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int]

# Largest order a Graph is built with.  The distance rows cost quadratic
# time and memory in the order, and P2000 already takes seconds.
MAX_ORDER = 2048


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _levels(
    step: Callable[[int], int], source: int, within: int, near: int | None = None
) -> Iterator[int]:
    """Yield the breadth-first levels from ``source`` inside the bitmask
    ``within``, which holds it: the k-th yield is the bitmask of the nodes
    k ``step``s away, from k = 1.  Stops at the first empty level.  A
    caller that already holds ``step(source)`` passes it as ``near``."""
    unseen = within ^ 1 << source
    level = (step(source) if near is None else near) & unseen
    while level:
        yield level
        unseen ^= level
        reached = 0
        rest = level  # read from the top bit: ``_bits`` negates per node
        while rest:
            i = rest.bit_length() - 1
            rest ^= 1 << i
            reached |= step(i)
        level = reached & unseen


class Graph:
    """Immutable simple connected undirected graph.

    Construction rejects self-loops, duplicate edges, out-of-range vertex
    ids, empty graphs and disconnected graphs, and orders over
    ``MAX_ORDER`` before anything is allocated.  The single-vertex graph is
    admitted.

    ``_pairs`` holds the graph's pair space (``product._pair_space``): the
    distance buckets and step table every span sweep and witness walk of
    the graph shares.  It is ``None`` until the first of them fills it, and
    then stays with the graph; ``verify.check_graph`` drops it when its
    check is done.  Two threads may both fill it; they build equal tuples,
    and either may be kept.
    """

    # ``_masks`` answers bit tests and ``_adj`` iteration; the edge list,
    # edge count, radius and diameter are derived from them on demand.
    __slots__ = ("n", "labels", "_adj", "_masks", "_dist", "_ecc", "_pairs")

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        labels: Optional[Sequence[str]] = None,
    ):
        if not isinstance(n, int) or n <= 0:
            raise EmptyGraphError(f"need at least one vertex, got n={n}")
        if n > MAX_ORDER:
            raise TooLargeError(f"order {n} is over {MAX_ORDER}, the order cap")
        masks = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < n) or not (0 <= v < n):
                raise VertexOutOfRangeError(f"edge {e} outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if masks[u] >> v & 1:
                key = (u, v) if u < v else (v, u)
                raise DuplicateEdgeError(f"edge {key} given more than once")
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
        self._dist = tuple(rows)
        self._ecc = tuple(max(row) for row in rows)
        self._pairs = None

    # -- basic accessors -------------------------------------------------

    def edges(self) -> tuple[Edge, ...]:
        """All edges as (u, v) with u < v, sorted."""
        return tuple((u, v) for u, row in enumerate(self._adj) for v in row if u < v)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

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
        self._check_vertex(u)
        self._check_vertex(v)
        return self._dist[u][v]

    @property
    def radius(self) -> int:
        return min(self._ecc)

    @property
    def diameter(self) -> int:
        return max(self._ecc)

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise VertexOutOfRangeError(f"vertex {u} outside 0..{self.n - 1}")

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and edge set (labels ignored)."""
        return isinstance(other, Graph) and self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


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
    recursion limit.  ``Graph`` is connected, so one search from vertex 0
    reaches every vertex.  Result is sorted by endpoint ids.
    """
    adj = g._adj
    disc = [-1] * g.n
    low = [0] * g.n
    out: list[Edge] = []
    disc[0] = low[0] = 0
    timer = 1
    stack: list[tuple[int, int, Iterator[int]]] = [(0, -1, iter(adj[0]))]
    while stack:
        u, parent, it = stack[-1]
        advanced = False
        for v in it:
            if v == parent:
                continue
            if disc[v] == -1:
                disc[v] = low[v] = timer
                timer += 1
                stack.append((v, u, iter(adj[v])))
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
