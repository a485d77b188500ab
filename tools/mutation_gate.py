"""Mutation gate: every listed mutant of ``src/`` must fail its named tests.

Run from anywhere (the paths are taken from this file's place in the
repository); it runs every mutant in ``MUTANTS``:

    python tools/mutation_gate.py

A mutant is one exact text edit to one file of ``src/spanlab``.  For each,
the script copies ``src/`` to a temporary directory, applies the edit there
and runs the mutant's tests against the copy with ``pytest -x``.  The
working tree is never edited.  The gate fails (exit 1) when

* a mutant survives: its tests pass, so they miss the fault it plants;
* a mutant's old text does not occur exactly once in its file, so an edit
  to the program cannot leave a mutant stale without notice;
* the tests cannot run as named (pytest exits with neither 0 nor 1), the
  copy is not the ``spanlab`` the tests import, or the tests fail on the
  unmutated copy, which they run on first.

A mutant's tests that run past ``MUTANT_TIMEOUT`` seconds count as failed,
so the mutant as killed: a fault that leaves the span sweep or the witness
walk looping forever fails every run of the suite.

Only the standard library and pytest are needed.  The gate only adds
checks; it replaces no test of the suite.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every mutant's tests run in a few seconds; the unmutated run has no limit.
MUTANT_TIMEOUT = 30


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/spanlab
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        # The source is then reached from its neighbours, at distance 2, and
        # K1 reaches nothing.
        "bfs-source-not-reached",
        "graph.py",
        "reached = level = 1 << source",
        "reached, level = 0, 1 << source",
        ("tests/test_graph.py::TestBuildGraph::test_single_vertex_is_connected",
         "tests/test_graph.py::TestDistances::test_matches_floyd_warshall"),
    ),
    Mutant(
        # Every adjacency row then runs top bit first, and the disconnected
        # error names the largest unreached vertex.
        "bits-descending",
        "graph.py",
        "    out.reverse()\n",
        "",
        ("tests/test_graph.py::TestBuildGraph::test_edges_are_the_sorted_normalised_input",
         "tests/test_graph.py::TestBuildGraph::test_two_components_rejected",
         "tests/test_span_sweep.py::test_golden_digest"),
    ),
    Mutant(
        "bfs-distance-one-level-too-far",
        "graph.py",
        "row[v] = d",
        "row[v] = d + 1",
        ("tests/test_graph.py::TestDistances::test_path_endpoints",
         "tests/test_graph.py::TestDistances::test_matches_floyd_warshall"),
    ),
    Mutant(
        "winner-by-max",
        "engine.py",
        "winner = min(qualifying, key=lambda m: m & -m)",
        "winner = max(qualifying, key=lambda m: m & -m)",
        ("tests/test_span_sweep.py::test_winner_is_chosen_over_its_mirror_image",
         "tests/test_span_sweep.py::test_golden_digest"),
    ),
    Mutant(
        "winner-own-half-only",
        "engine.py",
        "qualifying += (members_of[root], mirror_of[root])",
        "qualifying.append(members_of[root])",
        ("tests/test_span_sweep.py::test_winner_is_chosen_over_its_mirror_image",),
    ),
    Mutant(
        # A covering root that has since gone under another root keeps no
        # masks, so its records read as an empty component.
        "covering-root-unresolved",
        "engine.py",
        "                while parent[root] != root:\n"
        "                    root = parent[root]\n",
        "",
        ("tests/test_span_sweep.py::test_sweep_matches_per_threshold_descent",
         "tests/test_span_sweep.py::test_golden_digest"),
    ),
    Mutant(
        "joined-without-cover-swap",
        "engine.py",
        "                    members = mirror = members | mirror\n"
        "                    cover |= cover >> n | (cover & block) << n\n",
        "                    members = mirror = members | mirror\n",
        ("tests/test_span_sweep.py::test_sweep_matches_per_threshold_descent",),
    ),
    Mutant(
        "joined-growing-half-only",
        "engine.py",
        "joined = members == mirror or o_members == o_mirror",
        "joined = members == mirror",
        ("tests/test_span_sweep.py::test_sweep_matches_per_threshold_descent",),
    ),
    Mutant(
        "joined-neighbour-half-only",
        "engine.py",
        "joined = members == mirror or o_members == o_mirror",
        "joined = o_members == o_mirror",
        ("tests/test_span_sweep.py::test_sweep_matches_per_threshold_descent",),
    ),
    Mutant(
        # Every neighbouring set then merges as a lone pair, and its other
        # members are lost: the sweep meets one of them as j and, finding it
        # in neither half, loops until the timeout.
        "merge-reads-every-set-as-lone",
        "engine.py",
        "if o_members := members_of[other]:",
        "if o_members := 0:",
        ("tests/test_span_sweep.py::test_sweep_matches_per_threshold_descent",),
    ),
    Mutant(
        # The record then holds j in its mirror half while its cover is j's,
        # so the merge swaps the cover to the mirror image's.
        "lone-pair-halves-swapped",
        "engine.py",
        "o_members, o_mirror = 1 << j, 1 << (b * n + a)",
        "o_members, o_mirror = 1 << (b * n + a), 1 << j",
        ("tests/test_span_sweep.py::test_sweep_matches_per_threshold_descent",),
    ),
    Mutant(
        "lone-pair-cover-without-bob",
        "engine.py",
        "o_cover = 1 << a | 1 << (n + b)",
        "o_cover = 1 << a",
        ("tests/test_span_sweep.py::test_sweep_matches_per_threshold_descent",),
    ),
    Mutant(
        # P3's smallest far pair is then reported alone as the winner.
        "flood-wins-without-cover-test",
        "engine.py",
        "    if cover == covering:\n"
        "        return SpanReport(g, rule, top, flood)\n",
        "    return SpanReport(g, rule, top, flood)\n",
        ("tests/test_span_sweep.py::test_flood_miss_falls_back_to_the_sweep",
         "tests/test_span_sweep.py::test_sweep_matches_per_threshold_descent"),
    ),
    Mutant(
        # The seeded set then reads as symmetric, and the flood's mirror
        # image is never live.
        "seeded-set-is-its-own-mirror",
        "engine.py",
        "        mirror |= 1 << m\n",
        "        mirror = flood\n",
        ("tests/test_span_sweep.py::test_sweep_matches_per_threshold_descent",),
    ),
    Mutant(
        # The flood then cannot reach a pair (u, v) with u > v.
        "far-pairs-without-mirror-half",
        "product.py",
        "far = int(cells[::-1].translate(_BINARY), 2) | int(transposed[::-1].translate(_BINARY), 2)",
        "far = int(cells[::-1].translate(_BINARY), 2)",
        ("tests/test_product.py::TestPairSpace::test_shared_tables_are_exact_and_read_only",
         "tests/test_span_sweep.py::test_flood_wins_on_bicliques"),
    ),
    Mutant(
        "walk-starts-at-smallest-member",
        "engine.py",
        "root = (start & -start).bit_length() - 1",
        "root = (members & -members).bit_length() - 1",
        ("tests/test_span_sweep.py::test_members_mask_is_the_walked_component",
         "tests/test_span_sweep.py::test_golden_digest"),
    ),
    Mutant(
        # The walk then starts at a member with the largest degree sum.
        "degree-sums-descending",
        "product.py",
        "tuple(filter(None, sums))",
        "tuple(filter(None, sums[::-1]))",
        ("tests/test_product.py::TestPairSpace::test_shared_tables_are_exact_and_read_only",
         "tests/test_shortest_walks.py::test_even_path_walks_are_pinned_under_any_labelling",
         "tests/test_span_sweep.py::test_golden_digest"),
    ),
    Mutant(
        "walk-without-both-preference",
        "engine.py",
        "hit = hit & fresh_f & fresh_g or hit",
        "hit = hit",
        ("tests/test_span_sweep.py::test_walk_prefers_a_pair_new_to_both_walks",
         "tests/test_span_sweep.py::test_golden_digest"),
    ),
    Mutant(
        # Bit u of ``fresh_f`` is the pair (0, u): it reads vertex 0's
        # place in the f-walk, not u's.  Once vertex 0 is walked no row is
        # cleared, and the walk runs until the timeout.
        "walk-f-missing-read-as-column",
        "engine.py",
        "if fresh_f >> (u * n) & 1:",
        "if fresh_f >> u & 1:",
        ("tests/test_span_sweep.py::test_members_mask_is_the_walked_component",
         "tests/test_span_sweep.py::test_golden_digest"),
    ),
    Mutant(
        # Bit v * n of ``fresh_g`` is the pair (v, 0): it reads vertex 0's
        # place in the g-walk, and the walk runs until the timeout.
        "walk-g-missing-read-as-row",
        "engine.py",
        "if fresh_g >> v & 1:",
        "if fresh_g >> (v * n) & 1:",
        ("tests/test_span_sweep.py::test_members_mask_is_the_walked_component",
         "tests/test_span_sweep.py::test_golden_digest"),
    ),
    Mutant(
        "walk-stops-when-one-walk-covers",
        "engine.py",
        "if not (fresh_f or fresh_g):",
        "if not (fresh_f and fresh_g):",
        ("tests/test_engine.py::TestExtractWitness::test_every_order_le_5_walk_is_valid_and_bounded",),
    ),
    Mutant(
        # The traced path then skips to any node of the level below.
        "trace-back-not-adjacent",
        "engine.py",
        "back = step(path[-1]) & level",
        "back = level",
        ("tests/test_engine.py::TestExtractWitness::test_every_order_le_5_walk_is_valid_and_bounded",),
    ),
    Mutant(
        "trace-back-to-largest-neighbour",
        "engine.py",
        "path.append((back & -back).bit_length() - 1)",
        "path.append(back.bit_length() - 1)",
        ("tests/test_span_sweep.py::test_golden_digest",),
    ),
    Mutant(
        "track-ids-not-read-as-ints",
        "engine.py",
        "if {*map(type, seen)} != {int}:",
        "if False:",
        ("tests/test_engine.py::TestValidateTracks",),
    ),
    Mutant(
        "traditional-step-checks-alice-only",
        "engine.py",
        "rows[a][c] <= 1 >= rows[x][y]",
        "rows[a][c] <= 1",
        ("tests/test_engine.py::TestValidateTracks::test_jump_fails_every_rule",),
    ),
    Mutant(
        "active-step-checks-alice-only",
        "engine.py",
        "rows[a][c] == 1 == rows[x][y]",
        "rows[a][c] == 1",
        ("tests/test_witness_checks.py::test_validate_matches_reference_on_arbitrary_tracks",),
    ),
    Mutant(
        # Both actors may then stay put in one step.
        "lazy-step-allows-no-mover",
        "engine.py",
        "rows[a][c] + rows[x][y] == 1",
        "rows[a][c] + rows[x][y] <= 1",
        ("tests/test_engine.py::TestValidateTracks::test_both_stay_fails_lazy_but_passes_traditional",),
    ),
    Mutant(
        "vertex-check-keeps-integer-like",
        "graph.py",
        "        u = index(u)\n",
        "",
        ("tests/test_graph.py::TestBuildGraph::test_accessors_read_integer_like_ids_as_ints",),
    ),
    Mutant(
        # A byte under 32 then unpacks to fewer than six bits, and every
        # later slot shifts.
        "graph6-byte-bits-unpadded",
        "io.py",
        'format(val, "06b")',
        'format(val, "b")',
        ("tests/test_io.py::TestGraph6::test_matches_networkx",
         "tests/test_io.py::TestGraph6::test_round_trip_all_classes_up_to_6"),
    ),
    Mutant(
        "cut-bound-max-for-min",
        "verify.py",
        "max(map(min, rows[x], rows[y]))",
        "max(map(max, rows[x], rows[y]))",
        ("tests/test_verify.py", "tests/test_witness_checks.py::test_cut_edge_bound_matches_side_graphs"),
    ),
    Mutant(
        "binary-tree-height-1-row",
        "families.py",
        "spans=lambda h: (h - 1, h - 1, h - 1) if h > 1 else (1, 1, 0),",
        "spans=lambda h: (h - 1, h - 1, h - 1),",
        ("tests/test_acceptance.py::test_criterion_03_binary_trees",),
    ),
    Mutant(
        "family-sweep-drops-top",
        "families.py",
        "range(family.floor, family.sweep_top + 1)",
        "range(family.floor, family.sweep_top)",
        ("tests/test_cli.py::TestFamilies::test_default_sweep_pinned",
         "tests/test_cli.py::TestFamilies::test_machine_sweep_pinned"),
    ),
    Mutant(
        "checked-graph-keeps-pair-space",
        "verify.py",
        "    g._pairs = None\n",
        "",
        ("tests/test_verify.py::TestCheckTheorems::test_checked_graph_drops_its_pair_space",),
    ),
    Mutant(
        # The records then run together on one line.
        "records-line-unterminated",
        "cli.py",
        'records.write(record.to_line() + "\\n")',
        "records.write(record.to_line())",
        ("tests/test_cli.py::TestVerifyCommands::test_records_file",),
    ),
    Mutant(
        # The sweep then holds every record before the first reaches the
        # caller, and draws the whole corpus first.
        "records-listed-before-return",
        "verify.py",
        "return map(check, corpus)",
        "return iter(list(map(check, corpus)))",
        ("tests/test_verify.py::TestStreaming::test_one_worker_checks_each_graph_before_the_next_draw",),
    ),
    Mutant(
        "spread-as-list",
        "product.py",
        "spread = tuple(sum(1 << (w * n) for w in row) for row in g._adj)",
        "spread = [sum(1 << (w * n) for w in row) for row in g._adj]",
        ("tests/test_product.py::TestPairSpace",),
    ),
    Mutant(
        "lazy-step-without-alice",
        "product.py",
        "return masks[v] << (u * n) | spread[u] << v",
        "return masks[v] << (u * n)",
        ("tests/test_product.py::TestBuildPairGraph::test_traditional_edges_are_union_of_active_and_lazy",
         "tests/test_product.py::TestBuildPairGraph::test_union_property_exhaustive_small"),
    ),
    Mutant(
        "strong-step-without-alice-staying",
        "product.py",
        "closed_spread = tuple(s | 1 << (u * n) for u, s in enumerate(spread))",
        "closed_spread = spread",
        ("tests/test_product.py::TestBuildPairGraph::test_traditional_edges_are_union_of_active_and_lazy",
         "tests/test_product.py::TestBuildPairGraph::test_union_property_exhaustive_small"),
    ),
    Mutant(
        "oracle-lazy-drops-bob",
        "verify.py",
        "                out += [f_u + into_g[y] for y in adj[v] if row_u[y] >= r]\n",
        "",
        ("tests/test_oracle_search.py::test_depth_first_matches_breadth_first",
         "tests/test_oracle_search.py::test_matches_the_engine_at_every_threshold_on_order_6_classes"),
    ),
    Mutant(
        "oracle-lazy-drops-alice",
        "verify.py",
        "out = [into_f[x] + g_v for x in adj[u] if dist[x][v] >= r]",
        "out = []",
        ("tests/test_oracle_search.py::test_depth_first_matches_breadth_first",
         "tests/test_oracle_search.py::test_matches_the_engine_at_every_threshold_on_order_6_classes"),
    ),
    Mutant(
        # Testing one actor's seen bits alone is no fault: it gives the same
        # answer on every graph of order <= 7, so this mutant drops vertex 0
        # from both.
        "oracle-complete-without-vertex-0",
        "verify.py",
        "if nxt & seen_mask == seen_mask:",
        "if (nxt | 1 << n | 1) & seen_mask == seen_mask:",
        ("tests/test_oracle_search.py::test_depth_first_matches_breadth_first",
         "tests/test_oracle_search.py::test_matches_the_engine_at_every_threshold_on_order_6_classes"),
    ),
    Mutant(
        # Start states and moves are both sums of the two tables, so this
        # mutant plants the fault in both.
        "oracle-state-credits-wrong-vertex",
        "verify.py",
        "into_f = [x * n << shift | 1 << (n + x) for x in range(n)]",
        "into_f = [x * n << shift | 1 << (n - x) for x in range(n)]",
        ("tests/test_oracle_search.py::test_depth_first_matches_breadth_first",
         "tests/test_verify.py::TestOracle::test_c5_lazy_two"),
    ),
    Mutant(
        "transform-without-conforms-guard",
        "verify.py",
        "            if not validation.conforms:\n"
        "                continue  # the unchecked transforms need conforming tracks\n",
        "",
        ("tests/test_verify.py::TestCheckTheorems::test_nonconforming_witness_is_recorded_not_raised",),
    ),
    *(
        Mutant(
            f"{violation}-never-recorded",
            "verify.py",
            f'violations.append("{violation}")',
            "pass",
            ("tests/test_verify.py::TestCheckTheorems::"
             f"test_each_relation_check_records_its_violation[{violation}]",),
        )
        for violation in (
            "strong_ge_max",
            "direct_cartesian_diff",
            "span_le_radius",
            "oracle_agreement",
            "cut_edge_bound",
            "transform_direct_to_lazy",
            "transform_lazy_to_direct",
        )
    ),
)


def stale(mutant: Mutant) -> str | None:
    """Why ``mutant`` no longer applies to the working tree, or None."""
    text = (SRC / "spanlab" / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"old text occurs {count} times in src/spanlab/{mutant.file}, not once"
    return None


def run_tests(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int | str, float]:
    """Run ``tests`` with ``pytest -x`` on a copy of ``src/``, with
    ``mutant`` applied if given: pytest's exit code (1 for a mutant's tests
    that time out), or why the tests could not run on the copy, and the
    seconds taken."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            target = src / "spanlab" / mutant.file
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import spanlab; print(spanlab.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(src)):
            return f"the tests import {where.stdout.strip() or where.stderr.strip()}", 0.0
        # In a session of its own, so that a timeout kills the processes a
        # test starts along with pytest.
        with subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        ) as proc:
            try:
                output, _ = proc.communicate(timeout=None if mutant is None else MUTANT_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return 1, time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode in (0, 1):
        return proc.returncode, seconds
    tail = output.strip().splitlines()[-1:]
    return f"pytest exited {proc.returncode}: {' '.join(tail)}", seconds


def main() -> int:
    # Every mutant must still apply before any runs.
    problems = [(m.name, why) for m in MUTANTS if (why := stale(m))]
    for name, why in problems:
        print(f"STALE    {name}: {why}")
    if problems:
        return 1

    # The tests must pass on the unmutated copy, or a kill says nothing.
    code, seconds = run_tests(tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
    if code != 0:
        print(f"ERROR    the mutants' tests fail unmutated ({seconds:.1f} s): {code}")
        return 1
    print(f"ok       unmutated ({seconds:.1f} s)", flush=True)

    failed = 0
    for m in MUTANTS:
        code, seconds = run_tests(m.tests, m)
        verdict = {1: "killed", 0: "SURVIVED"}.get(code, "ERROR")
        failed += verdict != "killed"
        detail = f": {code}" if verdict == "ERROR" else ""
        print(f"{verdict:<8} {m.name} ({seconds:.1f} s){detail}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
