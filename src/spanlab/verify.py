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
from functools import lru_cache, partial
from itertools import permutations
from typing import Iterable, Iterator

from .engine import (
    TrackValidation,
    compute_span,
    direct_to_lazy,
    extract_witness_tracks,
    lazy_to_direct,
    validate_tracks,
)
from .errors import DisconnectedError, OrderTooSmallError, TooLargeError
from .graph import MAX_ORDER, Graph, _bfs_row, bridges
from .io import _slots, emit_graph6
from .product import MovementRule

ORACLE_MAX_N = 7
ENUMERATE_MAX_N = 7
DEDUP_MAX_N = 6
# Draws per random graph before ``random_graphs`` gives up on a connected one.
RANDOM_MAX_ATTEMPTS = 10_000


# -- joint-state oracle ---------------------------------------------------------


def oracle_span(g: Graph, rule: MovementRule) -> int:
    """Span by explicit search over joint actor states (n <= 7).

    A state is (Alice's position, Bob's position, Alice's visited set,
    Bob's visited set); transitions follow the movement rule and never let
    the positions come closer than the threshold.  The span is the largest
    threshold from which some doubly-complete state is reachable.  The
    n^2 * 4^n states number under a million at order 7, and the search is
    depth-first, so one that succeeds visits few of them.
    """
    if g.n > ORACLE_MAX_N:
        raise TooLargeError(
            f"oracle state space is n^2 * 4^n; capped at n <= {ORACLE_MAX_N}, got {g.n}"
        )
    for r in range(g.radius, -1, -1):
        if _coverable(g, r, rule):
            return r
    raise AssertionError("threshold 0 is always coverable on a connected graph")


def _coverable(g: Graph, r: int, rule: MovementRule) -> bool:
    # Joint states are packed as (pair_index << 2n) | (seenA << n) | seenB
    # into a flat visited bytearray; each actor's position stays inside its
    # own seen set by construction.  The search is depth-first from every
    # start pair at once: a failing search still visits every reachable
    # state, and a succeeding one dives to a complete state instead of
    # first visiting every state at a smaller depth.
    n = g.n
    adj = g._adj
    dist = g.distances
    index = [-1] * (n * n)  # index[u * n + v]: the pair's index, -1 below r
    pairs: list[tuple[int, int]] = []
    for u in range(n):
        row = dist[u]
        for v in range(n):
            if row[v] >= r:
                index[u * n + v] = len(pairs)
                pairs.append((u, v))
    if not pairs:
        return False
    full = (1 << n) - 1
    shift = 2 * n

    lazy = rule is MovementRule.LAZY
    stay = rule is MovementRule.TRADITIONAL
    successors: list[list[tuple[int, int, int]]] = []
    for u, v in pairs:
        if lazy:
            options = [(u2, v) for u2 in adj[u]] + [(u, v2) for v2 in adj[v]]
        else:
            moves_u = adj[u] + (u,) if stay else adj[u]
            moves_v = adj[v] + (v,) if stay else adj[v]
            options = [(u2, v2) for u2 in moves_u for v2 in moves_v]
        out = []
        for u2, v2 in options:
            k2 = index[u2 * n + v2]
            if k2 >= 0:
                out.append((k2 << shift, 1 << u2, 1 << v2))
        successors.append(out)

    visited = bytearray(len(pairs) << shift)
    stack: list[tuple[int, int, int]] = []
    for k, (u, v) in enumerate(pairs):
        sa, sb = 1 << u, 1 << v
        if sa == full and sb == full:
            return True
        state = (k << shift) | (sa << n) | sb
        visited[state] = 1
        stack.append((k, sa, sb))
    while stack:
        k, sa, sb = stack.pop()
        for k2s, bu, bv in successors[k]:
            sa2 = sa | bu
            sb2 = sb | bv
            state = k2s | (sa2 << n) | sb2
            if not visited[state]:
                if sa2 == full and sb2 == full:
                    return True
                visited[state] = 1
                stack.append((k2s >> shift, sa2, sb2))
    return False


# -- exhaustive enumeration -------------------------------------------------------


@lru_cache(maxsize=None)
def _perm_slot_maps(n: int) -> tuple[tuple[int, ...], ...]:
    slots = _slots(n)
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
    dedup is capped at n <= 6; plain enumeration at n <= 7).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > ENUMERATE_MAX_N:
        raise TooLargeError(f"enumeration caps at n <= {ENUMERATE_MAX_N}, got {n}")
    if dedup and n > DEDUP_MAX_N:
        raise TooLargeError(f"dedup enumeration caps at n <= {DEDUP_MAX_N}, got {n}")
    slots = _slots(n)
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
    connected draw just as unlikely, so each graph gets at most
    ``RANDOM_MAX_ATTEMPTS`` draws and ``ValueError`` is raised after that.
    An ``n_range`` reaching over ``graph.MAX_ORDER`` raises ``TooLargeError``
    before the first draw, which would otherwise build a quadratic edge list
    that ``Graph`` then refuses.
    """
    lo, hi = n_range
    if count < 0:
        raise ValueError(f"graph count must be non-negative, got {count}")
    if lo < 1 or hi < lo:
        raise ValueError(f"bad vertex range {n_range}")
    if not 0 < edge_prob <= 1:
        raise ValueError(f"edge probability must lie in (0, 1], got {edge_prob}")
    if hi > MAX_ORDER:
        raise TooLargeError(f"order {hi} is over {MAX_ORDER}, the order cap")
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(lo, hi)
        for _ in range(RANDOM_MAX_ATTEMPTS):
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
                f"no connected graph of order {n} in {RANDOM_MAX_ATTEMPTS} draws"
                f" at edge probability {edge_prob}"
            )


# -- bounds ------------------------------------------------------------------------


def cut_edge_bound(g: Graph) -> int | None:
    """Best upper bound on the strong span obtainable from bridges.

    For a bridge xy the span cannot exceed the larger of the two endpoint
    eccentricities measured inside their own sides; the minimum over all
    bridges is returned, or None for a bridgeless graph.  With the bridge
    removed, a breadth-first search from an endpoint reaches exactly its
    side, so its deepest level is that eccentricity and no side graph is
    built.
    """
    n = g.n
    if n < 3:
        raise OrderTooSmallError(f"cut-edge bound needs at least 3 vertices, got {n}")
    best: int | None = None
    for x, y in bridges(g):
        masks = list(g._masks)
        masks[x] ^= 1 << y
        masks[y] ^= 1 << x
        bound = max(max(_bfs_row(masks, n, x)[0]), max(_bfs_row(masks, n, y)[0]))
        if best is None or bound < best:
            best = bound
    return best


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


@dataclass
class EnumerationReport:
    """Aggregate of a corpus sweep; counterexamples stay empty when the
    theorems hold."""

    records: list[GraphRecord]

    @property
    def graphs_checked(self) -> int:
        return len(self.records)

    @property
    def counterexamples(self) -> list[tuple[str, str]]:
        """(graph6, violated property) pairs, in record order."""
        return [(r.graph6, prop) for r in self.records for prop in r.violations]

    @property
    def cartesian_gt_direct(self) -> list[GraphRecord]:
        return [r for r in self.records if r.cartesian_gt_direct]

    def summary_lines(self) -> list[str]:
        lines = [
            f"graphs checked: {self.graphs_checked}",
            f"{len(self.counterexamples)} counterexamples;"
            f" {len(self.cartesian_gt_direct)} graphs with cartesian>direct",
        ]
        lines += [f"counterexample: {g6} violates {prop}" for g6, prop in self.counterexamples]
        lines += [f"cartesian>direct: {r.graph6}" for r in self.cartesian_gt_direct]
        return lines

    def record_lines(self) -> list[str]:
        return [r.to_line() for r in self.records]


def check_graph(
    g: Graph,
    check_witnesses: bool = False,
    oracle_max_n: int = 5,
) -> GraphRecord:
    """Measure one graph and flag every violated relation."""
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
            if not _witness_holds(validate_tracks(g, tracks), report.value, exact=True):
                violations.append(f"witness_roundtrip_{rule.value}")
            if rule is MovementRule.ACTIVE:
                lazier = direct_to_lazy(g, tracks)
                if not _witness_holds(validate_tracks(g, lazier), report.value - 1):
                    violations.append("transform_direct_to_lazy")
            elif rule is MovementRule.LAZY:
                activer = lazy_to_direct(g, tracks)
                if not _witness_holds(validate_tracks(g, activer), report.value - 1):
                    violations.append("transform_lazy_to_direct")

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


def clamp_jobs(jobs: int, cpus: int, corpus_size: int) -> int:
    """Worker count for a sweep: ``jobs`` held to ``[1, min(cpus, corpus_size)]``.

    More workers than CPUs only contend, more than graphs only idle, and a
    count below 1 means the sequential path.
    """
    return max(1, min(jobs, cpus, corpus_size))


def check_theorems(
    corpus: Iterable[Graph],
    jobs: int | None = None,
    check_witnesses: bool = False,
    oracle_max_n: int = 5,
) -> EnumerationReport:
    """Sweep a corpus; the merge is ordered, so output is independent of ``jobs``.

    ``jobs`` defaults to the CPU count and is clamped by ``clamp_jobs``.  One
    worker checks the graphs in this process; more get the pickled graphs
    through a fork pool.  An ``oracle_max_n`` over ``ORACLE_MAX_N`` raises
    ``ValueError`` before any graph is checked.
    """
    if oracle_max_n > ORACLE_MAX_N:
        raise ValueError(
            f"oracle_max_n {oracle_max_n} is over the oracle's cap of {ORACLE_MAX_N} vertices"
        )
    corpus = list(corpus)
    cpus = os.cpu_count() or 1
    workers = clamp_jobs(cpus if jobs is None else jobs, cpus, len(corpus))
    if workers == 1:
        return EnumerationReport(
            [check_graph(g, check_witnesses, oracle_max_n) for g in corpus]
        )
    import multiprocessing as mp

    check = partial(check_graph, check_witnesses=check_witnesses, oracle_max_n=oracle_max_n)
    with mp.get_context("fork").Pool(workers) as pool:
        return EnumerationReport(list(pool.imap(check, corpus, chunksize=64)))
