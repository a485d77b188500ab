"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavy corpora (exhaustive n <= 6, 500 seeded
random graphs) are computed once in module-scoped fixtures and shared.

Criterion 3 states the binary-tree spans literally: the height-1 tree is
the 3-vertex path, so its row is the P_3 triple (1, 1, 0), checked against
the joint-state oracle; the (h-1, h-1, h-1) closed form covers h = 2..4.
Criterion 6 states its table literally too, and checks it against both the
engine and the oracle on the ten order-5 radius-2 classes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import networkx as nx
import pytest

from spanlab.engine import (
    compute_span,
    direct_to_lazy,
    extract_witness_tracks,
    lazy_to_direct,
    validate_tracks,
)
from spanlab.families import (
    FamilySpec,
    cycle_graph,
    expected_spans,
    generate,
    named_graph,
    paramecium_graph,
    path_graph,
)
from spanlab.graph import Graph
from spanlab.io import emit_graph6
from spanlab.verify import (
    RULES,
    check_theorems,
    enumerate_connected,
    oracle_span,
    random_graphs,
)

from conftest import to_networkx

T, A, L = RULES

# Criterion 6: the (direct, cartesian) span pairs of the ten order-5
# radius-2 graph classes.
ORDER5_RADIUS2_SPANS = {
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


def _criterion(num: int, label: str, ok: bool, seconds: float, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({label}): {verdict} ({seconds:.1f}s)")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


@dataclass
class FamilyResult:
    name: str
    expected: tuple[int, int, int]
    computed: tuple[int, int, int]
    witness_ok: bool
    transform_ok: bool


def _measure_family(spec: FamilySpec) -> FamilyResult:
    g = generate(spec)
    reports = {rule: compute_span(g, rule) for rule in RULES}
    computed = tuple(reports[rule].value for rule in RULES)

    witness_ok = True
    transform_ok = True
    for rule, report in reports.items():
        tracks = extract_witness_tracks(report)
        val = validate_tracks(g, tracks)
        witness_ok &= (
            val.conforms
            and val.surjective_f
            and val.surjective_g
            and val.min_distance == report.value
        )
        if rule is A:
            out = validate_tracks(g, direct_to_lazy(g, tracks))
            transform_ok &= out.conforms and out.min_distance >= report.value - 1
        elif rule is L:
            out = validate_tracks(g, lazy_to_direct(g, tracks))
            transform_ok &= out.conforms and out.min_distance >= report.value - 1
    return FamilyResult(
        spec.display_name, expected_spans(spec).as_tuple(), computed, witness_ok, transform_ok
    )


def _sweep(specs: list[FamilySpec]) -> tuple[list[FamilyResult], float]:
    start = time.monotonic()
    results = [_measure_family(spec) for spec in specs]
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def family_table_results():
    specs = [FamilySpec("path", n) for n in range(2, 11)]
    specs += [FamilySpec("cycle", n) for n in range(3, 11)]
    specs += [FamilySpec("hypercube", d) for d in range(2, 5)]
    specs += [
        FamilySpec("complete_bipartite", r, s) for r in range(2, 5) for s in range(2, 5)
    ]
    specs += [FamilySpec("complete", n) for n in range(3, 9)]
    specs += [FamilySpec("star", n) for n in range(4, 9)]
    specs += [FamilySpec("wheel", n) for n in range(4, 9)]
    return _sweep(specs)


@pytest.fixture(scope="module")
def paramecium_results():
    return _sweep([FamilySpec("paramecium", n) for n in range(3, 10)])


@pytest.fixture(scope="module")
def tree_results():
    return _sweep([FamilySpec("binary_tree", h) for h in range(1, 5)])


@pytest.fixture(scope="module")
def exhaustive_report():
    start = time.monotonic()
    corpus = (g for n in range(1, 7) for g in enumerate_connected(n))
    report = check_theorems(corpus, jobs=1, check_witnesses=True, oracle_max_n=5)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def random_report():
    start = time.monotonic()
    corpus = random_graphs(500, (6, 12), 0.3, seed=42)
    report = check_theorems(corpus, jobs=1, check_witnesses=True, oracle_max_n=5)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def atlas_results():
    start = time.monotonic()
    classes = [g for g in enumerate_connected(5, dedup=True) if g.radius == 2]
    atlas = {"P_5": path_graph(5), "C_5": cycle_graph(5)}
    for name in ORDER5_RADIUS2_SPANS.keys() - atlas.keys():
        atlas[name] = named_graph(name)
    matches: dict[str, tuple[Graph, tuple[int, int]]] = {}
    for g in classes:
        for name, ag in atlas.items():
            if nx.is_isomorphic(to_networkx(g), to_networkx(ag)):
                want = ORDER5_RADIUS2_SPANS[name]
                got = (compute_span(g, A).value, compute_span(g, L).value)
                oracle = (oracle_span(g, A), oracle_span(g, L))
                matches[name] = (g, want) if got == want == oracle else (g, (-1, -1))
                break
    return classes, matches, time.monotonic() - start


def _mismatches(results: list[FamilyResult]) -> list[str]:
    return [
        f"{r.name}: computed {r.computed}, expected {r.expected}"
        for r in results
        if r.computed != r.expected
    ]


def test_criterion_01_family_table(family_table_results):
    results, seconds = family_table_results
    bad = _mismatches(results)
    ok = not bad and seconds < 60
    _criterion(
        1,
        "closed-form family spans exact, < 60 s",
        ok,
        seconds,
        "; ".join(bad) or f"runtime {seconds:.1f}s",
    )


def test_criterion_02_paramecium(paramecium_results):
    results, seconds = paramecium_results
    for r in results:
        n = int(r.name.split("_")[1])
        assert r.expected == ((n + 1) // 2, n // 2, (n + 1) // 2)
    bad = _mismatches(results)
    ok = not bad and seconds < 10
    _criterion(
        2,
        "paramecium spans (ceil, floor, ceil) exact, < 10 s",
        ok,
        seconds,
        "; ".join(bad) or f"runtime {seconds:.1f}s",
    )


def test_criterion_03_binary_trees(tree_results):
    results, seconds = tree_results
    assert seconds < 30, f"runtime {seconds:.1f}s"
    # BT_1 is the path a-b-c, of radius 1, so no span exceeds 1.  The walks
    # f=(a,b,c,b), g=(b,c,b,a) obey the active and traditional rules, cover
    # every vertex and keep distance 1.  Under the lazy rule the actors can
    # not swap order on a path without meeting, yet each must reach both
    # ends, so the cartesian span is 0.  This is the P_3 row of criterion 1.
    stated = {"BT_1": (1, 1, 0)}
    stated.update({f"BT_{h}": (h - 1, h - 1, h - 1) for h in range(2, 5)})
    assert [r.name for r in results] == list(stated)
    for r in results:
        assert r.expected == stated[r.name]
    bad = [
        f"{r.name}: computed {r.computed}, stated {stated[r.name]}"
        for r in results
        if r.computed != stated[r.name]
    ]
    bt1 = generate(FamilySpec("binary_tree", 1))
    oracle = tuple(oracle_span(bt1, rule) for rule in RULES)
    if oracle != stated["BT_1"]:
        bad.append(f"BT_1: oracle {oracle}, stated {stated['BT_1']}")
    _criterion(
        3,
        "binary trees (1, 1, 0) at h=1 (P_3, oracle-checked), (h-1, h-1, h-1) for h=2..4",
        not bad,
        seconds,
        "; ".join(bad),
    )


def test_criterion_04_theorem_sweep(exhaustive_report, random_report):
    reports = [exhaustive_report, random_report]
    seconds = sum(s for _, s in reports)
    assert exhaustive_report[0].graphs_checked == 27476
    assert random_report[0].graphs_checked == 500
    relation_kinds = ("strong_ge_max", "direct_cartesian_diff", "span_le_radius")
    bad = [
        (g6, kind)
        for report, _ in reports
        for g6, kind in report.counterexamples
        if kind in relation_kinds
    ]
    ok = not bad and seconds < 900
    _criterion(
        4,
        "strong >= max and |direct-cartesian| <= 1 on 27,476 + 500 graphs, < 15 min",
        ok,
        seconds,
        f"violations: {bad[:5]}" if bad else f"runtime {seconds:.1f}s",
    )


def test_criterion_05_smallest_order(exhaustive_report):
    report, seconds = exhaustive_report
    small = [r for r in report.records if r.n <= 5 and r.cartesian_gt_direct]
    positives6 = {r.graph6 for r in report.records if r.n == 6 and r.cartesian_gt_direct}
    pc3 = emit_graph6(paramecium_graph(3))
    ok = not small and pc3 in positives6
    _criterion(
        5,
        "no cartesian>direct below order 6; PC_3 among the order-6 positives",
        ok,
        seconds,
        f"n<=5 positives: {[r.graph6 for r in small]}; PC_3 found: {pc3 in positives6}"
        f" among {len(positives6)} order-6 positives",
    )


def test_criterion_06_order5_radius2_atlas(atlas_results):
    classes, matches, seconds = atlas_results
    pair_ok = all(want != (-1, -1) for _, want in matches.values())
    ok = len(classes) == 10 and len(matches) == 10 and pair_ok and seconds < 5
    _criterion(
        6,
        "ten order-5 radius-2 classes reproduce the printed span pairs,"
        " by the engine and the oracle, < 5 s",
        ok,
        seconds,
        f"classes={len(classes)} matched={len(matches)} pairs_ok={pair_ok}",
    )


def test_criterion_07_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    bad = []
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for rule in RULES:
                engine = compute_span(g, rule).value
                oracle = oracle_span(g, rule)
                checked += 1
                if engine != oracle:
                    bad.append((emit_graph6(g), rule.value, engine, oracle))
    seconds = time.monotonic() - start
    ok = not bad and checked == 3 * 772 and seconds < 300
    _criterion(
        7,
        "engine equals joint-state oracle on all 772 graphs with n <= 5, < 5 min",
        ok,
        seconds,
        f"checked={checked}, disagreements: {bad[:5]}",
    )


def test_criterion_08_witness_validity(
    exhaustive_report, random_report, family_table_results, paramecium_results, tree_results, atlas_results
):
    start = time.monotonic()
    bad: list[str] = []
    for report, _ in (exhaustive_report, random_report):
        bad += [
            f"{g6}:{kind}"
            for g6, kind in report.counterexamples
            if kind.startswith("witness_roundtrip")
        ]
    for results, _ in (family_table_results, paramecium_results, tree_results):
        bad += [r.name for r in results if not r.witness_ok]
    _, matches, _ = atlas_results
    for name, (g, _) in matches.items():
        for rule in RULES:
            report = compute_span(g, rule)
            val = validate_tracks(g, extract_witness_tracks(report))
            if not (
                val.conforms
                and val.surjective_f
                and val.surjective_g
                and val.min_distance == report.value
            ):
                bad.append(f"atlas:{name}:{rule.value}")
    seconds = time.monotonic() - start
    _criterion(
        8,
        "every extracted witness conforms, covers, and meets its span",
        not bad,
        seconds,
        f"failures: {bad[:5]}",
    )


def test_criterion_09_transformation_contracts(
    exhaustive_report, random_report, family_table_results, paramecium_results, tree_results
):
    start = time.monotonic()
    bad: list[str] = []
    for report, _ in (exhaustive_report, random_report):
        bad += [
            f"{g6}:{kind}"
            for g6, kind in report.counterexamples
            if kind.startswith("transform_")
        ]
    for results, _ in (family_table_results, paramecium_results, tree_results):
        bad += [r.name for r in results if not r.transform_ok]
    seconds = time.monotonic() - start
    _criterion(
        9,
        "track transformations keep min distance >= span - 1 on every witness",
        not bad,
        seconds,
        f"failures: {bad[:5]}",
    )


def test_criterion_10_bounds(exhaustive_report, random_report):
    from spanlab.families import named_graph
    from spanlab.verify import cut_edge_bound

    start = time.monotonic()
    bad = [
        f"{g6}:{kind}"
        for report, _ in (exhaustive_report, random_report)
        for g6, kind in report.counterexamples
        if kind == "cut_edge_bound"
    ]
    left = named_graph("fig6_left")
    right = named_graph("fig6_right")
    figures_ok = (
        (left.radius, cut_edge_bound(left)) == (2, 1)
        and (right.radius, cut_edge_bound(right)) == (3, 4)
    )
    seconds = time.monotonic() - start
    _criterion(
        10,
        "cut-edge and radius bounds dominate the strong span; fig6 values exact",
        not bad and figures_ok,
        seconds,
        f"violations: {bad[:5]}; fig6 ok: {figures_ok}",
    )


# SHA-256 of each sweep's ``--records`` lines, newline-terminated: any
# change to a span, bound, oracle verdict or violation on one graph shows.
RECORD_DIGESTS = (
    (27_476, "8d1b9e72f99ab62cf4a02a9304a88f0cc8c9238180cbb25cd9431bb88e4df4b7"),
    (500, "5869d7b7f13de5329080bfbc6e8a178ce93f110e22526a7dc26f53301f65dfaf"),
)


def test_record_lines_pinned(exhaustive_report, random_report):
    got = []
    for report, _ in (exhaustive_report, random_report):
        lines = report.record_lines()
        text = "\n".join(lines) + "\n"
        got.append((len(lines), hashlib.sha256(text.encode()).hexdigest()))
    assert tuple(got) == RECORD_DIGESTS
