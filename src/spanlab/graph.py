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

from operator import index
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
# time and memory in the order: P2000 takes 1.7-2.4 s (CPython 3.11, Xeon).
MAX_ORDER = 2048


def _bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask``, ascending.  Read from the top bit,
    as ``_bfs_row`` reads levels, and reversed: a step clears the top bit
    with no negation."""
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return tuple(out)


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
        rest = level  # read from the top bit, as ``_bits`` reads, with no tuple
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
    admitted.  The order and the vertex ids may be any integer-likes, such
    as numpy integers; anything else, a float included, raises
    ``TypeError``.

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
        # The order and the ids are read through ``operator.index``, so
        # integer-likes such as numpy's become ints before any shift: a
        # numpy ``1 << v`` wraps at 64 bits.
        try:
            n = index(n)
        except TypeError:
            raise TypeError(f"the order must be an integer, got {n!r}") from None
        if n <= 0:
            raise EmptyGraphError(f"need at least one vertex, got n={n}")
        if n > MAX_ORDER:
            raise TooLargeError(f"order {n} is over {MAX_ORDER}, the order cap")
        masks = [0] * n
        for e in edges:
            u, v = e
            try:
                u, v = index(u), index(v)
            except TypeError:
                raise TypeError(f"edge {e!r} has a vertex id that is not an integer") from None
            if not (0 <= u < n) or not (0 <= v < n):
                raise VertexOutOfRangeError(f"edge {(u, v)} outside 0..{n - 1}")
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
                missing = _bits(full & ~reached)[0]
                raise DisconnectedError(
                    f"vertex {missing} unreachable from vertex {s}"
                )
            rows.append(tuple(row))

        self.n = n
        self.labels = labels
        self._masks = tuple(masks)
        self._adj = tuple(_bits(m) for m in masks)
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
        return self._adj[self._check_vertex(u)]

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[self._check_vertex(u)] >> self._check_vertex(v) & 1)

    def label(self, u: int) -> str:
        u = self._check_vertex(u)
        return self.labels[u] if self.labels is not None else str(u)

    # -- metric accessors ------------------------------------------------

    @property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """Exact hop distances: row ``u`` holds ``d(u, v)`` at index ``v``."""
        return self._dist

    def distance(self, u: int, v: int) -> int:
        return self._dist[self._check_vertex(u)][self._check_vertex(v)]

    @property
    def radius(self) -> int:
        return min(self._ecc)

    @property
    def diameter(self) -> int:
        return max(self._ecc)

    def _check_vertex(self, u: int) -> int:
        """``u`` as an int, read through ``operator.index`` as ``Graph``
        reads ids: a numpy integer would convert the mask it shifts to a
        C long, which overflows past 63 bits."""
        u = index(u)
        if not (0 <= u < self.n):
            raise VertexOutOfRangeError(f"vertex {u} outside 0..{self.n - 1}")
        return u

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and edge set (labels ignored)."""
        return isinstance(other, Graph) and self._masks == other._masks

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _bfs_row(masks: Sequence[int], n: int, source: int) -> tuple[list[int], int]:
    """One BFS level sweep using frontier bitmasks; returns (dist row, reached mask).

    Each level is read once, from its top bit as in ``_levels``: every node
    gets its distance and adds its neighbours to the next level."""
    row = [0] * n
    reached = level = 1 << source
    d = 0
    while level:
        nxt = 0
        while level:
            v = level.bit_length() - 1
            level ^= 1 << v
            row[v] = d
            nxt |= masks[v]
        d += 1
        level = (nxt | reached) ^ reached
        reached |= level
    return row, reached


def eccentricity(g: Graph, u: int) -> int:
    """Largest distance from ``u`` to any vertex."""
    return g._ecc[g._check_vertex(u)]


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
