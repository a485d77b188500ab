"""Independent oracle, small-graph enumeration, and theorem harness.

The oracle re-derives span values by brute-force reachability over joint
actor states (positions plus visited sets), sharing no code path with the
pair-graph engine; agreement between the two on every small graph is the
package's ground-truth check.  The harness sweeps corpora (exhaustive
labelled graphs, isomorphism classes, seeded random graphs) and records,
per graph, the three spans, the bounds, and any violated relation.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from operator import index
from typing import Callable, Iterable, Iterator

# direct_to_lazy and lazy_to_direct are not used here; they are re-exported
# because the benchmark's tracer looks them up through this module.
from .engine import (  # noqa: F401
    TrackValidation,
    _direct_to_lazy,
    _lazy_to_direct,
    compute_span,
    direct_to_lazy,
    extract_witness_tracks,
    lazy_to_direct,
    validate_tracks,
)
from .errors import DisconnectedError, OrderTooSmallError, TooLargeError
from .graph import MAX_ORDER, Graph, bridges
from .io import _slots, emit_graph6
from .product import MovementRule

ORACLE_MAX_N = 7
ENUMERATE_MAX_N = 7
DEDUP_MAX_N = 6
# Draws per random graph before ``random_graphs`` gives up on a connected
# one, and the coin flips those draws may take: 10,000 draws up to order 45,
# 4 at order 2,048.
RANDOM_MAX_ATTEMPTS = 10_000
RANDOM_MAX_FLIPS = 10**7


# -- joint-state oracle ---------------------------------------------------------


def oracle_span(g: Graph, rule: MovementRule) -> int:
    """Span by explicit search over joint actor states (n <= 7).

    A state is (Alice's position, Bob's position, Alice's visited set,
    Bob's visited set); transitions follow the movement rule and never let
    the positions come closer than the threshold.  The span is the largest
    threshold from which some doubly-complete state is reachable.  The
    n^2 * 4^n states number under a million at order 7, and the search is
    depth-first, so one that succeeds visits few of them.  A ``rule`` that
    is not a ``MovementRule``, such as its name, raises ``TypeError``.
    """
    if type(rule) is not MovementRule:
        raise TypeError(f"rule {rule!r} is not a MovementRule")
    if g.n > ORACLE_MAX_N:
        raise TooLargeError(
            f"oracle state space is n^2 * 4^n; capped at n <= {ORACLE_MAX_N}, got {g.n}"
        )
    for r in range(g.radius, -1, -1):
        if _coverable(g, r, rule):
            return r
    raise AssertionError("threshold 0 is always coverable on a connected graph")


def _coverable(g: Graph, r: int, rule: MovementRule) -> bool:
    # A joint state is one int, (p << 2n) | seen: p = x * n + y is the pair
    # of positions, and seen holds bit n + x for each vertex Alice has
    # visited and bit y for each vertex Bob has visited.  A move to (x, y)
    # is the int (p << 2n) | 1 << (n + x) | 1 << y, which carries the new
    # positions' seen bits, so the successor is move | seen; the start state
    # at a pair is the move to it.  Both come from two per-vertex tables:
    # ``into_f[x]`` holds Alice's part of the pair index and her seen bit,
    # ``into_g[y]`` Bob's, and the move to (x, y) is their sum (not their
    # OR: x * n and y add up to the pair index).  Each move list is built
    # in one comprehension over them, with no list of position pairs
    # first, which is faster.  The search is depth-first
    # from every start pair at once: a failing search still visits every
    # reachable state, and a succeeding one dives to a complete state
    # instead of first visiting every state at a smaller depth.  Most
    # succeed after a few pops, so a pair's move list is built the first
    # time a pop leaves it.
    n = g.n
    adj = g._adj
    dist = g.distances
    shift = 2 * n
    seen_mask = (1 << shift) - 1
    into_f = [x * n << shift | 1 << (n + x) for x in range(n)]
    into_g = [y << shift | 1 << y for y in range(n)]
    lazy = rule is MovementRule.LAZY
    steps = adj  # each actor's moves under a product rule
    if rule is MovementRule.TRADITIONAL:
        steps = [row + (w,) for w, row in enumerate(adj)]

    visited = bytearray(n * n << shift)
    stack = []
    for x in range(n):
        for y in range(n):
            if dist[x][y] >= r:
                state = into_f[x] + into_g[y]
                if state & seen_mask == seen_mask:
                    return True
                visited[state] = 1
                stack.append(state)
    moves: list[list[int] | None] = [None] * (n * n)
    while stack:
        state = stack.pop()
        p = state >> shift
        out = moves[p]
        if out is None:  # not ``or``: an empty list must not be rebuilt
            u, v = divmod(p, n)
            if lazy:
                f_u, g_v, row_u = into_f[u], into_g[v], dist[u]
                out = [into_f[x] + g_v for x in adj[u] if dist[x][v] >= r]
                out += [f_u + into_g[y] for y in adj[v] if row_u[y] >= r]
            else:
                out = [
                    into_f[x] + into_g[y]
                    for x in steps[u]
                    for y in steps[v]
                    if dist[x][y] >= r
                ]
            moves[p] = out
        seen = state & seen_mask
        for move in out:
            nxt = move | seen
            if not visited[nxt]:
                if nxt & seen_mask == seen_mask:
                    return True
                visited[nxt] = 1
                stack.append(nxt)
    return False


# -- exhaustive enumeration -------------------------------------------------------


def _perm_slot_maps(n: int) -> tuple[tuple[int, ...], ...]:
    slots = list(_slots(n))
    slot_index = {uv: i for i, uv in enumerate(slots)}
    maps = []
    for perm in permutations(range(n)):
        maps.append(
            tuple(
                slot_index[
                    (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
                ]
                for u, v in slots
            )
        )
    return tuple(maps)


def _remap(mask: int, slot_map: tuple[int, ...]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << slot_map[low.bit_length() - 1]
        mask ^= low
    return out


def enumerate_connected(n: int, dedup: bool = False) -> Iterator[Graph]:
    """All connected graphs on n labelled vertices, ascending by edge mask.

    With ``dedup`` only the lexicographically smallest labelled graph of
    each isomorphism class is yielded (permutation canonicalisation, so
    dedup is capped at n <= 6; plain enumeration at n <= 7).  A bad ``n``,
    a float too, raises at the call, before the first graph is drawn.
    """
    n = index(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > ENUMERATE_MAX_N:
        raise TooLargeError(f"enumeration caps at n <= {ENUMERATE_MAX_N}, got {n}")
    if dedup and n > DEDUP_MAX_N:
        raise TooLargeError(f"dedup enumeration caps at n <= {DEDUP_MAX_N}, got {n}")
    return _connected(n, dedup)


def _connected(n: int, dedup: bool) -> Iterator[Graph]:
    slots = list(_slots(n))
    perm_maps = _perm_slot_maps(n) if dedup else ()
    for mask in range(1 << len(slots)):
        # Connectivity is invariant under relabelling, so testing the class
        # minimum first keeps exactly the connected class representatives.
        if dedup and any(_remap(mask, sm) < mask for sm in perm_maps):
            continue
        try:
            g = Graph(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])
        except DisconnectedError:
            continue
        yield g


# -- random corpus -----------------------------------------------------------------


def random_graphs(
    count: int,
    n_range: tuple[int, int],
    edge_prob: float,
    seed: int,
) -> Iterator[Graph]:
    """Seeded Erdos-Renyi stream, each draw resampled until connected.

    ``count`` must be non-negative and ``edge_prob`` must lie in ``(0, 1]``:
    with no edge possible, a draw of two or more vertices would be
    resampled forever.  A positive but tiny ``edge_prob`` can make a
    connected draw just as unlikely.  A draw flips one coin per vertex
    pair, so each graph gets as many draws as ``RANDOM_MAX_FLIPS`` flips
    allow, at least one and at most ``RANDOM_MAX_ATTEMPTS``, and the stream
    raises ``ValueError`` at the graph that runs out of them: a graph that
    cannot be drawn costs about ``RANDOM_MAX_FLIPS`` flips at most, at any
    order.  The options are checked at the call, before the first draw (a
    float count or order raises ``TypeError``), and an ``n_range`` reaching
    over ``graph.MAX_ORDER`` raises ``TooLargeError``: a draw of that order
    would otherwise build a quadratic edge list that ``Graph`` then refuses.
    """
    count = index(count)
    lo, hi = map(index, n_range)
    if count < 0:
        raise ValueError(f"graph count must be non-negative, got {count}")
    if lo < 1 or hi < lo:
        raise ValueError(f"bad vertex range {n_range}")
    if not 0 < edge_prob <= 1:
        raise ValueError(f"edge probability must lie in (0, 1], got {edge_prob}")
    if hi > MAX_ORDER:
        raise TooLargeError(f"order {hi} is over {MAX_ORDER}, the order cap")
    return _draws(count, lo, hi, edge_prob, seed)


def _draws(count: int, lo: int, hi: int, edge_prob: float, seed: int) -> Iterator[Graph]:
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(lo, hi)
        pairs = n * (n - 1) // 2
        attempts = min(RANDOM_MAX_ATTEMPTS, max(1, RANDOM_MAX_FLIPS // max(pairs, 1)))
        for _ in range(attempts):
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < edge_prob
            ]
            try:
                g = Graph(n, edges)
            except DisconnectedError:
                continue
            yield g
            break
        else:
            raise ValueError(
                f"no connected graph of order {n} in {attempts} draws"
                f" at edge probability {edge_prob}"
            )


# -- bounds ------------------------------------------------------------------------


def cut_edge_bound(g: Graph) -> int | None:
    """Best upper bound on the strong span obtainable from bridges.

    For a bridge xy the span cannot exceed the larger of the two endpoint
    eccentricities measured inside their own sides; the minimum over all
    bridges is returned, or None for a bridgeless graph.  Both come from
    the distance rows: every vertex is strictly nearer the endpoint on its
    own side, and a shortest path between two vertices of one side never
    crosses the bridge.  So ``x``'s side eccentricity is the largest
    ``d(x, w)`` over its side, and the bound for xy is the largest
    ``min(d(w, x), d(w, y))`` over all vertices ``w``.
    """
    if g.n < 3:
        raise OrderTooSmallError(f"cut-edge bound needs at least 3 vertices, got {g.n}")
    rows = g.distances
    return min((max(map(min, rows[x], rows[y])) for x, y in bridges(g)), default=None)


# -- theorem harness ----------------------------------------------------------------

RULES = tuple(MovementRule)


@dataclass(frozen=True)
class GraphRecord:
    """Everything the harness measured on one graph."""

    graph6: str
    n: int
    radius: int
    strong: int
    direct: int
    cartesian: int
    cut_bound: int | None
    oracle_checked: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def cartesian_gt_direct(self) -> bool:
        return self.cartesian > self.direct

    def to_line(self) -> str:
        cut = "none" if self.cut_bound is None else str(self.cut_bound)
        oracle = "agree" if self.oracle_checked else "skipped"
        if self.oracle_checked and "oracle_agreement" in self.violations:
            oracle = "disagree"
        bad = ",".join(self.violations) if self.violations else "none"
        return (
            f"graph6={self.graph6} n={self.n} radius={self.radius}"
            f" strong={self.strong} direct={self.direct} cartesian={self.cartesian}"
            f" cut_bound={cut} oracle={oracle} ok={int(self.ok)} violations={bad}"
        )


def check_graph(
    g: Graph,
    check_witnesses: bool = False,
    oracle_max_n: int = 5,
) -> GraphRecord:
    """Measure one graph and flag every violated relation.

    The oracle checks the graph when its order is at most ``oracle_max_n``;
    an ``oracle_max_n`` over ``ORACLE_MAX_N`` raises ``ValueError`` before
    any span is computed, whatever the graph's order.  The three sweeps and
    three walks share the graph's pair space (``Graph._pairs``); it is
    dropped once they are done, so a corpus held in memory does not keep
    one per checked graph.
    """
    if oracle_max_n > ORACLE_MAX_N:
        raise ValueError(
            f"oracle_max_n {oracle_max_n} is over the oracle's cap of {ORACLE_MAX_N} vertices"
        )
    reports = {rule: compute_span(g, rule) for rule in RULES}
    strong = reports[MovementRule.TRADITIONAL].value
    direct = reports[MovementRule.ACTIVE].value
    cartesian = reports[MovementRule.LAZY].value

    violations: list[str] = []
    if strong < max(direct, cartesian):
        violations.append("strong_ge_max")
    if abs(direct - cartesian) > 1:
        violations.append("direct_cartesian_diff")
    if max(strong, direct, cartesian) > g.radius:
        violations.append("span_le_radius")

    oracle_checked = g.n <= oracle_max_n
    if oracle_checked and any(
        oracle_span(g, rule) != report.value for rule, report in reports.items()
    ):
        violations.append("oracle_agreement")

    cut = None
    if g.n >= 3:
        cut = cut_edge_bound(g)
        if cut is not None and strong > cut:
            violations.append("cut_edge_bound")

    if check_witnesses:
        for rule, report in reports.items():
            tracks = extract_witness_tracks(report)
            validation = validate_tracks(g, tracks)
            if not _witness_holds(validation, report.value, exact=True):
                violations.append(f"witness_roundtrip_{rule.value}")
            if not validation.conforms:
                continue  # the unchecked transforms need conforming tracks
            if rule is MovementRule.ACTIVE:
                lazier = _direct_to_lazy(tracks)
                if not _witness_holds(validate_tracks(g, lazier), report.value - 1):
                    violations.append("transform_direct_to_lazy")
            elif rule is MovementRule.LAZY:
                activer = _lazy_to_direct(g, tracks)
                if not _witness_holds(validate_tracks(g, activer), report.value - 1):
                    violations.append("transform_lazy_to_direct")

    g._pairs = None
    return GraphRecord(
        graph6=emit_graph6(g),
        n=g.n,
        radius=g.radius,
        strong=strong,
        direct=direct,
        cartesian=cartesian,
        cut_bound=cut,
        oracle_checked=oracle_checked,
        violations=tuple(violations),
    )


def _witness_holds(val: TrackValidation, floor: int, exact: bool = False) -> bool:
    """The walks conform, both cover every vertex, and their minimum
    distance is at least ``floor`` (exactly ``floor`` when ``exact``)."""
    d = val.min_distance
    return (
        val.conforms
        and val.surjective_f
        and val.surjective_g
        and (d == floor if exact else d >= floor)
    )


def clamp_jobs(jobs: int, cpus: int) -> int:
    """Worker count for a sweep: ``jobs`` held to ``[1, cpus]``.

    More workers than CPUs only contend, and a count below 1 means the
    sequential path.
    """
    return max(1, min(jobs, cpus))


def check_theorems(
    corpus: Iterable[Graph],
    jobs: int | None = None,
    check_witnesses: bool = False,
) -> Iterator[GraphRecord]:
    """An iterator of one ``GraphRecord`` per graph, in corpus order
    whatever ``jobs`` is; neither the corpus nor the records are held.

    ``jobs`` defaults to the CPU count and is clamped by ``clamp_jobs``.  One
    worker checks each graph in this process as it is drawn; more get the
    pickled graphs through a fork pool, which draws a bounded number of
    graphs ahead of the last record.  The oracle checks the graphs of
    order at most 5, ``check_graph``'s default.
    """
    check = partial(check_graph, check_witnesses=check_witnesses)
    cpus = os.cpu_count() or 1
    workers = clamp_jobs(cpus if jobs is None else jobs, cpus)
    if workers == 1:
        return map(check, corpus)
    return _pooled(check, corpus, workers)


def _pooled(
    check: Callable[[Graph], GraphRecord], corpus: Iterable[Graph], workers: int
) -> Iterator[GraphRecord]:
    import multiprocessing as mp

    with mp.get_context("fork").Pool(workers) as pool:
        yield from pool.imap(check, corpus, chunksize=64)
