"""Shared strategies, fixtures, and independent brute-force oracles.

The oracles here deliberately share no code with the package: distances are
re-derived by Floyd-Warshall, bridges by per-edge removal, graph6 by string
bit-twiddling, and isomorphism is decided by networkx.  Tests compare the
package against these.
"""

from __future__ import annotations

import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from spanlab.graph import Graph

settings.register_profile(
    "desk",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 8):
    """Random connected Graph: a random attachment tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    if pairs:
        edges |= draw(st.frozensets(st.sampled_from(pairs)))
    return Graph(n, sorted(edges))


# -- independent oracles -------------------------------------------------------


def floyd_warshall(g: Graph) -> list[list[int]]:
    big = 10**9
    n = g.n
    d = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == big:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def connected_after_removal(g: Graph, dropped: tuple[int, int]) -> bool:
    adj = {u: set(g.neighbors(u)) for u in range(g.n)}
    a, b = dropped
    adj[a].discard(b)
    adj[b].discard(a)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.n


def bridges_by_removal(g: Graph) -> list[tuple[int, int]]:
    return [e for e in g.edges() if not connected_after_removal(g, e)]


def relabelled(g: Graph, seed: int) -> Graph:
    """``g`` with its vertices renamed by a seeded random permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class Id:
    """An integer-like with ``__index__`` and nothing else: it neither
    compares nor shifts, so the package must read it with
    ``operator.index``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Id({self.value})"


def covering(val, distance: int, at_least: bool = False) -> bool:
    """A ``validate_tracks`` result for walks that conform, each cover every
    vertex, and keep a minimum distance of exactly ``distance`` (at least
    ``distance`` when ``at_least``)."""
    d = val.min_distance
    return (
        val.conforms
        and val.surjective_f
        and val.surjective_g
        and (d >= distance if at_least else d == distance)
    )


def to_networkx(g: Graph) -> nx.Graph:
    """A networkx copy of ``g``, for networkx's isomorphism test."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def decode_graph6_by_strings(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Reference graph6 decoder working on literal bit strings."""
    s = line.strip()
    n = ord(s[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in s[1:])
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k] == "1":
                edges.append((u, v))
            k += 1
    return n, edges


# -- tiny named graphs used across test modules ----------------------------------


@pytest.fixture
def k1() -> Graph:
    return Graph(1, [])


@pytest.fixture
def k2() -> Graph:
    return Graph(2, [(0, 1)])
