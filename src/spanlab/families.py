"""Generators for the graph families and named example graphs.

Every generator documents its vertex numbering, because downstream tools
(witness tables, DOT output) print raw ids.  ``expected_spans`` returns the
closed-form span triples the families are known to satisfy; the test suite
checks the engine against them across desk-scale parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ParameterOutOfRangeError, UnknownGraphIdError
from .graph import Graph

@dataclass(frozen=True)
class FamilySpec:
    """One family instance: ``kind`` plus its parameter(s).

    ``m`` is only used by ``complete_bipartite`` (the second part size).
    """

    kind: str
    n: int
    m: int | None = None

    @property
    def display_name(self) -> str:
        short = {
            "path": "P",
            "cycle": "C",
            "hypercube": "Q",
            "complete": "K",
            "star": "S",
            "wheel": "W",
            "paramecium": "PC",
            "binary_tree": "BT",
        }
        if self.kind == "complete_bipartite":
            return f"K_{{{self.n},{self.m}}}"
        return f"{short[self.kind]}_{self.n}"


@dataclass(frozen=True)
class ExpectedSpans:
    """Closed-form (strong, direct, cartesian) span values."""

    strong: int
    direct: int
    cartesian: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.strong, self.direct, self.cartesian)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ParameterOutOfRangeError(message)


# -- individual generators ---------------------------------------------------


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1), n >= 2."""
    _require(n >= 2, f"path needs n >= 2, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0, n >= 3."""
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube_graph(d: int) -> Graph:
    """d-cube on 2**d vertices; ids adjacent iff they differ in one bit, d >= 2."""
    _require(d >= 2, f"hypercube needs dimension >= 2, got {d}")
    n = 1 << d
    edges = [(u, u | (1 << b)) for u in range(n) for b in range(d) if not u >> b & 1]
    return Graph(n, edges)


def complete_bipartite_graph(r: int, s: int) -> Graph:
    """Parts 0..r-1 and r..r+s-1, every cross pair joined, r, s >= 2."""
    _require(r >= 2 and s >= 2, f"biclique needs r, s >= 2, got {r}, {s}")
    return Graph(r + s, [(u, r + v) for u in range(r) for v in range(s)])


def complete_graph(n: int) -> Graph:
    """Every pair joined, n >= 3."""
    _require(n >= 3, f"complete graph needs n >= 3, got {n}")
    return Graph(n, list(combinations(range(n), 2)))


def star_graph(n: int) -> Graph:
    """Hub 0 joined to leaves 1..n-1 (n total vertices), n >= 4."""
    _require(n >= 4, f"star needs n >= 4 vertices, got {n}")
    return Graph(n, [(0, v) for v in range(1, n)])


def wheel_graph(n: int) -> Graph:
    """Hub 0 joined to the rim cycle 1..n-1 (n total vertices), n >= 4."""
    _require(n >= 4, f"wheel needs n >= 4 vertices, got {n}")
    rim = [(v, v % (n - 1) + 1) for v in range(1, n)]
    hub = [(0, v) for v in range(1, n)]
    return Graph(n, sorted(set(hub + rim)))


def paramecium_graph(n: int) -> Graph:
    """Cycle 0..n-1 with pendant leaf n+i attached to cycle vertex i, n >= 3."""
    _require(n >= 3, f"paramecium needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def binary_tree_graph(h: int) -> Graph:
    """Perfect binary tree of height h in level order (children of i are
    2i+1 and 2i+2), h >= 1."""
    _require(h >= 1, f"binary tree needs height >= 1, got {h}")
    n = (1 << (h + 1)) - 1
    interior = (1 << h) - 1
    edges = [(i, c) for i in range(interior) for c in (2 * i + 1, 2 * i + 2)]
    return Graph(n, edges)


_GENERATORS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "hypercube": hypercube_graph,
    "complete": complete_graph,
    "star": star_graph,
    "wheel": wheel_graph,
    "paramecium": paramecium_graph,
    "binary_tree": binary_tree_graph,
}


def generate(spec: FamilySpec) -> Graph:
    """Build the graph for a family spec (ParameterOutOfRange when invalid)."""
    if spec.kind == "complete_bipartite":
        if spec.m is None:
            raise ParameterOutOfRangeError("biclique needs both part sizes")
        return complete_bipartite_graph(spec.n, spec.m)
    if spec.kind not in _GENERATORS:
        raise ParameterOutOfRangeError(f"unknown family kind {spec.kind!r}")
    return _GENERATORS[spec.kind](spec.n)


def expected_spans(spec: FamilySpec) -> ExpectedSpans:
    """Closed-form (strong, direct, cartesian) values for a family instance."""
    kind, n = spec.kind, spec.n
    if kind == "path":
        _require(n >= 2, f"path needs n >= 2, got {n}")
        return ExpectedSpans(1, 1, 0)
    if kind == "cycle":
        _require(n >= 3, f"cycle needs n >= 3, got {n}")
        half = n // 2
        return ExpectedSpans(half, half, half if n % 2 else half - 1)
    if kind == "hypercube":
        _require(n >= 2, f"hypercube needs dimension >= 2, got {n}")
        return ExpectedSpans(n, n, n - 1)
    if kind == "complete_bipartite":
        _require(
            spec.m is not None and n >= 2 and spec.m >= 2,
            f"biclique needs r, s >= 2, got {n}, {spec.m}",
        )
        return ExpectedSpans(2, 2, 1)
    if kind == "complete":
        _require(n >= 3, f"complete graph needs n >= 3, got {n}")
        return ExpectedSpans(1, 1, 1)
    if kind in ("star", "wheel"):
        _require(n >= 4, f"{kind} needs n >= 4 vertices, got {n}")
        return ExpectedSpans(1, 1, 1)
    if kind == "paramecium":
        _require(n >= 3, f"paramecium needs n >= 3, got {n}")
        return ExpectedSpans((n + 1) // 2, n // 2, (n + 1) // 2)
    if kind == "binary_tree":
        _require(n >= 1, f"binary tree needs height >= 1, got {n}")
        if n == 1:
            # The height-1 tree is the 3-vertex path, so the path values
            # apply; the h - 1 closed form only holds from h == 2 up.
            return ExpectedSpans(1, 1, 0)
        return ExpectedSpans(n - 1, n - 1, n - 1)
    raise ParameterOutOfRangeError(f"unknown family kind {kind!r}")


def default_family_sweep() -> list[FamilySpec]:
    """The desk-scale sweep exercised by tests and the families command."""
    sweep: list[FamilySpec] = []
    sweep += [FamilySpec("path", n) for n in range(2, 11)]
    sweep += [FamilySpec("cycle", n) for n in range(3, 11)]
    sweep += [FamilySpec("hypercube", d) for d in range(2, 5)]
    sweep += [
        FamilySpec("complete_bipartite", r, s)
        for r in range(2, 5)
        for s in range(2, 5)
    ]
    sweep += [FamilySpec("complete", n) for n in range(3, 9)]
    sweep += [FamilySpec("star", n) for n in range(4, 9)]
    sweep += [FamilySpec("wheel", n) for n in range(4, 9)]
    sweep += [FamilySpec("paramecium", n) for n in range(3, 10)]
    sweep += [FamilySpec("binary_tree", h) for h in range(1, 5)]
    return sweep


# -- named example graphs ------------------------------------------------------

# Small atlas of hand-transcribed graphs used throughout the test corpus:
# fig1 is the 6-vertex running example with its labelled walk; fig2_g1/g2
# realise both extremes of the direct-vs-cartesian gap; fig6_left/right
# separate the radius bound from the cut-edge bound; fig7_a..h are the
# order-5 radius-2 graphs beyond the path and the cycle.
_NAMED: dict[str, tuple[int, list[tuple[int, int]], tuple[str, ...] | None]] = {
    "fig1": (
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 3), (2, 5)],
        ("u1", "u2", "u3", "u4", "u5", "u6"),
    ),
    "fig2_g1": (2, [(0, 1)], None),
    "fig2_g2": (6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4), (4, 5)], None),
    "fig6_left": (
        6,
        [(0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5), (4, 5)],
        None,
    ),
    "fig6_right": (
        10,
        [
            (0, 3),
            (0, 4),
            (1, 4),
            (1, 5),
            (2, 6),
            (2, 9),
            (3, 7),
            (4, 7),
            (4, 8),
            (5, 6),
            (5, 8),
            (6, 9),
        ],
        None,
    ),
    "fig7_a": (5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)], None),
    "fig7_b": (5, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 4)], None),
    "fig7_c": (5, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 4), (3, 4)], None),
    "fig7_d": (5, [(0, 1), (0, 2), (2, 3), (0, 4), (3, 4)], None),
    "fig7_e": (5, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 4), (1, 4)], None),
    "fig7_f": (5, [(0, 1), (0, 2), (2, 3), (0, 4)], None),
    "fig7_g": (5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 4)], None),
    "fig7_h": (5, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 4), (1, 4), (3, 4)], None),
}

NAMED_GRAPH_IDS = tuple(sorted(_NAMED))

# (direct, cartesian) span pairs of the ten order-5 radius-2 graph classes.
ORDER5_RADIUS2_SPANS: dict[str, tuple[int, int]] = {
    "P_5": (1, 0),
    "C_5": (2, 2),
    "fig7_a": (1, 1),
    "fig7_b": (1, 1),
    "fig7_c": (2, 1),
    "fig7_d": (2, 1),
    "fig7_e": (1, 1),
    "fig7_f": (1, 1),
    "fig7_g": (2, 1),
    "fig7_h": (2, 1),
}


def named_graph(graph_id: str) -> Graph:
    """One of the bundled named graphs (see NAMED_GRAPH_IDS)."""
    try:
        n, edges, labels = _NAMED[graph_id]
    except KeyError:
        raise UnknownGraphIdError(
            f"unknown graph id {graph_id!r}; known: {', '.join(NAMED_GRAPH_IDS)}"
        ) from None
    return Graph(n, edges, labels)


def order5_radius2_atlas() -> list[tuple[str, Graph, tuple[int, int]]]:
    """The ten order-5 radius-2 graphs with their (direct, cartesian) spans."""
    out: list[tuple[str, Graph, tuple[int, int]]] = [
        ("P_5", path_graph(5), ORDER5_RADIUS2_SPANS["P_5"]),
        ("C_5", cycle_graph(5), ORDER5_RADIUS2_SPANS["C_5"]),
    ]
    for key in sorted(ORDER5_RADIUS2_SPANS):
        if key.startswith("fig7_"):
            out.append((key, named_graph(key), ORDER5_RADIUS2_SPANS[key]))
    return out
