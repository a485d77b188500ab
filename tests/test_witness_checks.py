"""The cheap witness checks, compared against plain test-side references.

``reference_validate_tracks`` checks a track pair one step at a time through
``Graph`` methods.  ``reference_cut_edge_bound`` finds the bridges by
removing each edge in turn (conftest's ``bridges_by_removal``) and reads
each endpoint's eccentricity inside its own side by a breadth-first search
over ``g.neighbors`` that never crosses the bridge.  ``validate_tracks`` and
``cut_edge_bound`` must give exactly the same answers: an equal
``TrackValidation`` or the same exception, and the same bound.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanlab.engine import (
    TrackPair,
    TrackValidation,
    compute_span,
    direct_to_lazy,
    extract_witness_tracks,
    lazy_to_direct,
    validate_tracks,
)
from spanlab.errors import VertexOutOfRangeError
from spanlab.graph import Graph
from spanlab.product import MovementRule
from spanlab.verify import RULES, cut_edge_bound, enumerate_connected, random_graphs

from conftest import bridges_by_removal, connected_graphs

T, A, L = RULES
P3 = Graph(3, [(0, 1), (1, 2)])


def _moved(g: Graph, a: int, b: int) -> bool:
    return a != b and g.has_edge(a, b)


def reference_validate_tracks(g: Graph, t: TrackPair) -> TrackValidation:
    if len(t.f) != len(t.g):
        raise ValueError(f"track lengths differ: {len(t.f)} vs {len(t.g)}")
    if not t.f:
        raise ValueError("tracks must be non-empty")
    for w in t.f + t.g:
        if not (0 <= w < g.n):
            raise VertexOutOfRangeError(f"vertex {w} outside 0..{g.n - 1}")

    conforms = True
    for i in range(len(t.f) - 1):
        fa, fb = t.f[i], t.f[i + 1]
        ga, gb = t.g[i], t.g[i + 1]
        f_moves = _moved(g, fa, fb)
        g_moves = _moved(g, ga, gb)
        if t.rule is MovementRule.TRADITIONAL:
            ok = (f_moves or fa == fb) and (g_moves or ga == gb)
        elif t.rule is MovementRule.ACTIVE:
            ok = f_moves and g_moves
        else:
            ok = (f_moves and ga == gb) != (g_moves and fa == fb)
        if not ok:
            conforms = False
            break

    full = set(range(g.n))
    return TrackValidation(
        conforms=conforms,
        surjective_f=set(t.f) == full,
        surjective_g=set(t.g) == full,
        min_distance=min(g.distance(u, v) for u, v in t.positions()),
    )


def outcome(check, g: Graph, t: TrackPair):
    """The check's result, or the type and message of what it raised."""
    try:
        return check(g, t)
    except Exception as exc:  # noqa: BLE001 -- the exception is the result
        return type(exc), str(exc)


def _side_eccentricity(g: Graph, source: int, far: int) -> int:
    """The deepest breadth-first level from ``source`` on its side of the
    bridge to ``far``.  The search starts with ``far`` already seen, so it
    never crosses the bridge."""
    seen = {source, far}
    level = [source]
    depth = -1
    while level:
        depth += 1
        reached = []
        for u in level:
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    reached.append(v)
        level = reached
    return depth


def reference_cut_edge_bound(g: Graph) -> int | None:
    bounds = [
        max(_side_eccentricity(g, x, y), _side_eccentricity(g, y, x))
        for x, y in bridges_by_removal(g)
    ]
    return min(bounds, default=None)


def _witness_track_pairs(g: Graph):
    """Every rule's witness and each transform's output on it."""
    for rule in RULES:
        tracks = extract_witness_tracks(compute_span(g, rule))
        yield tracks
        if rule is A:
            yield direct_to_lazy(g, tracks)
        elif rule is L:
            yield lazy_to_direct(g, tracks)


def test_validate_matches_reference_on_witnesses_and_transforms():
    # Each walk pair is also read under the two rules it was not made for,
    # so the non-conforming branches are compared too.
    checked = 0
    mismatches = []
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for tracks in _witness_track_pairs(g):
                for rule in RULES:
                    t = replace(tracks, rule=rule)
                    got = outcome(validate_tracks, g, t)
                    want = outcome(reference_validate_tracks, g, t)
                    if got != want:
                        mismatches.append(f"{g.edges()} {t}: {got} != {want}")
                    checked += 1
    assert checked == 772 * 5 * 3
    assert mismatches == []


# Joint steps: one actor moves along an edge, both do, neither does, or
# Alice jumps to any vertex (usually a non-edge).
_STEPS = ("alice", "bob", "both", "neither", "jump")


@st.composite
def arbitrary_tracks(draw):
    """Track pairs of every kind: conforming or not under each rule, and
    now and then with an out-of-range id, unequal lengths or no steps."""
    g = draw(connected_graphs(max_n=6))
    n = g.n

    def step(here: int) -> int:
        nbrs = g.neighbors(here)
        return draw(st.sampled_from(nbrs)) if nbrs else here

    f = [draw(st.integers(0, n - 1))]
    b = [draw(st.integers(0, n - 1))]
    for kind in draw(st.lists(st.sampled_from(_STEPS), max_size=8)):
        f.append(step(f[-1]) if kind in ("alice", "both") else f[-1])
        b.append(step(b[-1]) if kind in ("bob", "both") else b[-1])
        if kind == "jump":
            f[-1] = draw(st.integers(0, n - 1))

    fault = draw(st.sampled_from((None, None, None, "out", "short", "empty")))
    if fault == "out":
        walk = draw(st.sampled_from((f, b)))
        walk[draw(st.integers(0, len(walk) - 1))] = draw(st.sampled_from((-2, -1, n, n + 1)))
    elif fault == "short":
        draw(st.sampled_from((f, b))).pop()
    elif fault == "empty":
        f, b = [], []
    return g, TrackPair(tuple(f), tuple(b), draw(st.sampled_from(RULES)))


@settings(max_examples=500)
@given(arbitrary_tracks())
@example((P3, TrackPair((0, 0, 1), (2, 2, 1), T)))  # both stay
@example((P3, TrackPair((0, 0, 1), (2, 2, 1), L)))
@example((P3, TrackPair((0, 1), (2, 1), L)))  # both move
@example((P3, TrackPair((0, 1), (2, 2), A)))  # one stays
@example((P3, TrackPair((0, 2), (1, 1), T)))  # a non-edge
@example((P3, TrackPair((0, 3), (-1, 1), T)))  # the first bad id is 3
@example((P3, TrackPair((0, 1), (1,), L)))  # unequal lengths
@example((P3, TrackPair((), (), A)))  # empty
def test_validate_matches_reference_on_arbitrary_tracks(graph_and_tracks):
    g, t = graph_and_tracks
    assert outcome(validate_tracks, g, t) == outcome(reference_validate_tracks, g, t)


def test_cut_edge_bound_matches_side_graphs():
    graphs = [g for n in range(3, 7) for g in enumerate_connected(n)]
    graphs += random_graphs(500, (6, 20), 0.15, 3)
    mismatches = [
        g.edges() for g in graphs if cut_edge_bound(g) != reference_cut_edge_bound(g)
    ]
    assert len(graphs) == 27_974
    assert mismatches == []
