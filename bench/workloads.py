"""The benchmark's workloads: seeded inputs, the op run on each, and its check.

A workload is a list of ops, run in order, in whole passes, by ``run.py``.  Every
op checks what it computed and raises ``OpFailure`` when an output is wrong.
The inputs depend only on the seed: family graphs are relabelled by a seeded
permutation and random graphs come from ``verify.random_graphs``.  Costs must
not depend much on the seed, because the benchmark's spread is taken across
seeds.
"""

from __future__ import annotations

import random
from contextlib import AbstractContextManager
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable

Span = Callable[[str], AbstractContextManager]


class OpFailure(Exception):
    """An op produced a wrong output."""


@dataclass(frozen=True)
class Sizes:
    enum_max_n: int
    random_count: int
    path_orders: tuple[int, ...]
    biclique_parts: tuple[int, ...]


# Full sizes for measurement, and quick sizes for the benchmark's own tests.
# A repeated size gives that many relabelled copies.  The copies put the
# median op (the 23rd slowest of 45) and the tail op (the 11th slowest) in the
# middle of a group of like ops, rather than on the edge between two sizes or
# two rules, where they would hop between the two from run to run.
FULL = Sizes(
    enum_max_n=5,
    random_count=1000,
    path_orders=(16, 20, 24, 28, 32) + (36,) * 5 + (44,) * 3 + (64, 80),
    biclique_parts=(8, 10, 12) + (14,) * 6 + (18,) * 4 + (24, 30),
)
QUICK = Sizes(
    enum_max_n=4,
    random_count=12,
    path_orders=(6, 9),
    biclique_parts=(2, 3),
)


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(mods: SimpleNamespace, g, perm: list[int]):
    return mods.graph.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _check_graph_op(verify, g, oracle_max_n: int) -> None:
    rec = verify.check_graph(g, check_witnesses=True, oracle_max_n=oracle_max_n)
    if rec.violations:
        raise OpFailure(f"{rec.graph6}: violates {','.join(rec.violations)}")
    if rec.oracle_checked != (g.n <= oracle_max_n):
        raise OpFailure(f"{rec.graph6}: oracle_checked={rec.oracle_checked}")


def _witness_op(mods: SimpleNamespace, g, rule, expected: int) -> None:
    """What ``spanlab witness`` does for one rule, then a check of each output."""
    engine = mods.engine
    report = engine.compute_span(g, rule)
    tracks = engine.extract_witness_tracks(report)
    check = engine.validate_tracks(g, tracks)
    dot = mods.io.emit_witness_dot(g, tracks)

    name = f"{g!r} {rule.value}"
    if report.value != expected:
        raise OpFailure(f"{name}: span {report.value}, closed form {expected}")
    if not (check.conforms and check.surjective_f and check.surjective_g):
        raise OpFailure(f"{name}: witness fails validation {check}")
    if check.min_distance != report.value:
        raise OpFailure(f"{name}: witness distance {check.min_distance} != span {report.value}")
    moves = sum(a != b for a, b in zip(tracks.f, tracks.f[1:]))
    moves += sum(a != b for a, b in zip(tracks.g, tracks.g[1:]))
    if dot.count("\n") != 2 + g.n + g.edge_count + moves or not dot.startswith("digraph"):
        raise OpFailure(f"{name}: DOT output does not match the witness")


def _enum5(mods: SimpleNamespace, seed: int, sizes: Sizes, span: Span) -> list[Callable[[], None]]:
    # One permutation per order maps the labelled graphs of that order onto
    # themselves, so the seed changes the order of the ops but not the set of
    # inputs.  Relabelling each graph on its own would change costs: the
    # oracle stops at the first complete state, which depends on the labels.
    rng = random.Random(seed)
    graphs = []
    for n in range(1, sizes.enum_max_n + 1):
        with span("verify.enumerate_connected"):
            batch = list(mods.verify.enumerate_connected(n))
        perm = permutation(rng, n)
        graphs += [relabel(mods, g, perm) for g in batch]
    return [partial(_check_graph_op, mods.verify, g, 5) for g in graphs]


def _random_corpus(mods: SimpleNamespace, seed: int, sizes: Sizes, span: Span) -> list[Callable[[], None]]:
    with span("verify.random_graphs"):
        graphs = list(mods.verify.random_graphs(sizes.random_count, (6, 12), 0.3, seed))
    return [partial(_check_graph_op, mods.verify, g, 0) for g in graphs]


def _witness_ops(mods: SimpleNamespace, graphs: list, closed_form: tuple[int, int, int]) -> list[Callable[[], None]]:
    """One op per (graph, rule), with the family's (strong, direct, cartesian) spans."""
    return [
        partial(_witness_op, mods, g, rule, value)
        for g in graphs
        for rule, value in zip(mods.verify.RULES, closed_form)
    ]


def _deep_paths(mods: SimpleNamespace, seed: int, sizes: Sizes, span: Span) -> list[Callable[[], None]]:
    rng = random.Random(seed)
    graphs = [relabel(mods, mods.families.path_graph(n), permutation(rng, n)) for n in sizes.path_orders]
    return _witness_ops(mods, graphs, (1, 1, 0))


def _dense_witness(mods: SimpleNamespace, seed: int, sizes: Sizes, span: Span) -> list[Callable[[], None]]:
    # Random G(150, 0.05) draws are left out: their cost swings with the seed
    # (radius-3 draws cost about ten times radius-4 ones, and even radius-4
    # draws moved ops_per_s from 1.7 to 2.9/s between seeds), which would bury
    # a change in the spread.  The fixed family keeps a seed to a relabelling,
    # and its ladder of sizes gives enough ops for a tail percentile, which
    # K30,30 alone (about 1.2 s per op) would not.
    rng = random.Random(seed)
    graphs = [
        relabel(mods, mods.families.complete_bipartite_graph(k, k), permutation(rng, 2 * k))
        for k in sizes.biclique_parts
    ]
    return _witness_ops(mods, graphs, (2, 2, 1))


BUILDERS = {
    "enum5-oracle": _enum5,
    "random-corpus": _random_corpus,
    "deep-paths": _deep_paths,
    "dense-witness": _dense_witness,
}
