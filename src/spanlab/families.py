"""Generators for the graph families and named example graphs.

Every generator documents its vertex numbering, because downstream tools
(witness tables, DOT output) print raw ids.  ``expected_spans`` returns the
closed-form span triples the families are known to satisfy; the test suite
checks the engine against them across desk-scale parameter sweeps.  Each
family's token, parameter floor, order, edges, closed form and sweep range
are stated once, in ``_FAMILIES``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, product
from operator import index
from typing import Callable, NamedTuple

from .errors import ParameterOutOfRangeError, TooLargeError, UnknownGraphIdError
from .graph import MAX_ORDER, Graph
from .io import quoted


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
        family = _family(self.kind)
        if family.arity == 2:
            return f"{family.token}_{{{self.n},{self.m}}}"
        return f"{family.token}_{self.n}"


class ExpectedSpans(NamedTuple):
    """Closed-form (strong, direct, cartesian) span values."""

    strong: int
    direct: int
    cartesian: int


class _Family(NamedTuple):
    """One row of the family table.

    Each of the ``arity`` parameters must be at least ``floor``; ``needs``
    is the message for one that is not, with ``{}`` where the floor goes.
    The default sweep, which ``spanlab families`` runs, takes each
    parameter from ``floor`` to ``sweep_top``.
    ``order``, ``edges`` and ``spans`` take the parameters and give the
    vertex count, the edge list and the closed-form (strong, direct,
    cartesian) spans.
    """

    token: str
    floor: int
    needs: str
    sweep_top: int
    order: Callable[..., int]
    edges: Callable[..., list[tuple[int, int]]]
    spans: Callable[..., tuple[int, int, int]]
    arity: int = 1


_FAMILIES = {
    "path": _Family(
        "P", 2, "path needs n >= {}", 10,
        order=lambda n: n,
        edges=lambda n: [(i, i + 1) for i in range(n - 1)],
        spans=lambda n: (1, 1, 0),
    ),
    "cycle": _Family(
        "C", 3, "cycle needs n >= {}", 10,
        order=lambda n: n,
        edges=lambda n: [(i, (i + 1) % n) for i in range(n)],
        spans=lambda n: (n // 2, n // 2, (n - 1) // 2),
    ),
    "hypercube": _Family(
        "Q", 2, "hypercube needs dimension >= {}", 4,
        order=lambda d: 1 << d,
        edges=lambda d: [(u, u | (1 << b)) for u in range(1 << d) for b in range(d) if not u >> b & 1],
        spans=lambda d: (d, d, d - 1),
    ),
    "complete_bipartite": _Family(
        "K", 2, "biclique needs r, s >= {}", 4,
        order=lambda r, s: r + s,
        edges=lambda r, s: [(u, r + v) for u in range(r) for v in range(s)],
        spans=lambda r, s: (2, 2, 1),
        arity=2,
    ),
    "complete": _Family(
        "K", 3, "complete graph needs n >= {}", 8,
        order=lambda n: n,
        edges=lambda n: list(combinations(range(n), 2)),
        spans=lambda n: (1, 1, 1),
    ),
    "star": _Family(
        "S", 4, "star needs n >= {} vertices", 8,
        order=lambda n: n,
        edges=lambda n: [(0, v) for v in range(1, n)],
        spans=lambda n: (1, 1, 1),
    ),
    "wheel": _Family(
        "W", 4, "wheel needs n >= {} vertices", 8,
        order=lambda n: n,
        edges=lambda n: [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)],
        spans=lambda n: (1, 1, 1),
    ),
    "paramecium": _Family(
        "PC", 3, "paramecium needs n >= {}", 9,
        order=lambda n: 2 * n,
        edges=lambda n: [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)],
        spans=lambda n: ((n + 1) // 2, n // 2, (n + 1) // 2),
    ),
    "binary_tree": _Family(
        "BT", 1, "binary tree needs height >= {}", 4,
        order=lambda h: (1 << (h + 1)) - 1,
        edges=lambda h: [(i, c) for i in range((1 << h) - 1) for c in (2 * i + 1, 2 * i + 2)],
        # The height-1 tree is the 3-vertex path, so the path values apply;
        # the h - 1 closed form only holds from h == 2 up.
        spans=lambda h: (h - 1, h - 1, h - 1) if h > 1 else (1, 1, 0),
    ),
}


def _family(kind: str) -> _Family:
    try:
        return _FAMILIES[kind]
    except KeyError:
        raise ParameterOutOfRangeError(f"unknown family kind {kind!r}") from None


def _checked(spec: FamilySpec) -> tuple[_Family, tuple[int, ...]]:
    """The table row of a spec and its parameters, read as ints (a float
    raises ``TypeError``) and held to the row's floor."""
    family = _family(spec.kind)
    params = (spec.n, spec.m)[: family.arity]
    got = ", ".join(map(str, params))
    try:
        params = tuple(p if p is None else index(p) for p in params)
    except TypeError:
        raise TypeError(f"{spec.kind} parameters must be integers, got {got}") from None
    if any(p is None or p < family.floor for p in params):
        raise ParameterOutOfRangeError(f"{family.needs.format(family.floor)}, got {got}")
    return family, params


def generate(spec: FamilySpec) -> Graph:
    """Build the graph for a family spec (ParameterOutOfRange when invalid,
    TooLargeError above ``graph.MAX_ORDER`` vertices, before any edge is
    built)."""
    family, params = _checked(spec)
    # No order is below the largest parameter, so that test comes first and
    # spares computing 2**d for a huge hypercube dimension d.
    if max(params) > MAX_ORDER or family.order(*params) > MAX_ORDER:
        raise TooLargeError(
            f"{spec.display_name} has over {MAX_ORDER} vertices, the order cap"
        )
    return Graph(family.order(*params), family.edges(*params))


def expected_spans(spec: FamilySpec) -> ExpectedSpans:
    """Closed-form (strong, direct, cartesian) values for a family instance."""
    family, params = _checked(spec)
    return ExpectedSpans(*family.spans(*params))


def default_family_sweep() -> list[FamilySpec]:
    """The desk-scale sweep exercised by tests and the families command."""
    return [
        FamilySpec(kind, *params)
        for kind, family in _FAMILIES.items()
        for params in product(range(family.floor, family.sweep_top + 1), repeat=family.arity)
    ]


_TOKEN = re.compile(r"^([a-z]+)(\d+)(?:[_,x](\d+))?$", re.ASCII | re.IGNORECASE)


def spec_for_token(token: str) -> FamilySpec | None:
    """The family instance a token such as P5, K5, K3_4 (also K3,4 and
    K3x4) or BT3 names, in ASCII letters of either case and ASCII digits;
    None when it names none.

    A parameter with more digits than ``graph.MAX_ORDER`` raises
    ``TooLargeError`` before it is converted, since ``int`` refuses strings
    of over 4,300 digits and no order is below its largest parameter.
    """
    m = _TOKEN.match(token)
    if m is None:
        return None
    digits = [d.lstrip("0") or "0" for d in m.groups()[1:] if d is not None]
    for kind, family in _FAMILIES.items():
        if family.token.casefold() == m[1].casefold() and family.arity == len(digits):
            if max(map(len, digits)) > len(str(MAX_ORDER)):
                raise TooLargeError(f"{family.token} parameter over {MAX_ORDER}, the order cap")
            return FamilySpec(kind, *map(int, digits))
    return None


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    return generate(FamilySpec("path", n))


def cycle_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    return generate(FamilySpec("cycle", n))


def hypercube_graph(d: int) -> Graph:
    """d-cube on 2**d vertices; ids adjacent iff they differ in one bit."""
    return generate(FamilySpec("hypercube", d))


def complete_bipartite_graph(r: int, s: int) -> Graph:
    """Parts 0..r-1 and r..r+s-1, every cross pair joined."""
    return generate(FamilySpec("complete_bipartite", r, s))


def complete_graph(n: int) -> Graph:
    """Every pair joined."""
    return generate(FamilySpec("complete", n))


def star_graph(n: int) -> Graph:
    """Hub 0 joined to leaves 1..n-1 (n total vertices)."""
    return generate(FamilySpec("star", n))


def wheel_graph(n: int) -> Graph:
    """Hub 0 joined to the rim cycle 1..n-1 (n total vertices)."""
    return generate(FamilySpec("wheel", n))


def paramecium_graph(n: int) -> Graph:
    """Cycle 0..n-1 with pendant leaf n+i attached to cycle vertex i."""
    return generate(FamilySpec("paramecium", n))


def binary_tree_graph(h: int) -> Graph:
    """Perfect binary tree of height h in level order (children of i are
    2i+1 and 2i+2)."""
    return generate(FamilySpec("binary_tree", h))


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

def named_graph(graph_id: str) -> Graph:
    """One of the bundled named graphs (see NAMED_GRAPH_IDS)."""
    try:
        n, edges, labels = _NAMED[graph_id]
    except KeyError:
        raise UnknownGraphIdError(
            f"unknown graph id {quoted(graph_id)}; known: {', '.join(NAMED_GRAPH_IDS)}"
        ) from None
    return Graph(n, edges, labels)
