"""Command-line interface.

Exit codes: 0 success, 1 value mismatch / counterexample / violated bound,
2 unreadable or malformed input, 3 disconnected input graph, 4 input over
a size cap (an exhaustive routine's or the graph order).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Callable, Iterable, Optional, Sequence

from . import families, io, verify
from .engine import compute_span, extract_witness_tracks
from .errors import (
    DisconnectedError,
    OrderTooSmallError,
    SpanlabError,
    TooLargeError,
    UnknownGraphIdError,
)
from .graph import Graph
from .product import MovementRule


def _exit_code(exc: SpanlabError) -> int:
    """The documented exit code of an error, the library's or the CLI's own."""
    if isinstance(exc, DisconnectedError):
        return 3
    if isinstance(exc, TooLargeError):
        return 4
    return 2


def _read_graph(path: str, fmt: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpanlabError(f"cannot read {path}: {exc}") from exc
    if fmt == "auto":
        fmt = "graph6" if path.endswith(".g6") else "edgelist"
    try:
        if fmt == "graph6":
            return io.parse_graph6(text)
        return io.parse_edge_list(text)
    except SpanlabError as exc:
        exc.args = (f"{path}: {exc}",)  # same class, so the same exit code
        raise


def _cmd_span(args: argparse.Namespace) -> int:
    g = _read_graph(args.file, args.format)
    rules = verify.RULES if args.rule == "all" else (MovementRule.from_name(args.rule),)
    parts = [f"rad={g.radius}"]
    parts += [f"{rule.span_name}={compute_span(g, rule).value}" for rule in rules]
    print(" ".join(parts))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    g = _read_graph(args.file, args.format)
    report = compute_span(g, MovementRule.from_name(args.rule))
    tracks = extract_witness_tracks(report)
    widths = [4, 5, 5, 8]
    print(
        f"{'step':>{widths[0]}} {'alice':>{widths[1]}} {'bob':>{widths[2]}}"
        f" {'distance':>{widths[3]}}",
        file=sys.stderr,
    )
    rows = g.distances
    for i, (u, v) in enumerate(tracks.positions(), start=1):
        print(
            f"{i:>{widths[0]}} {g.label(u):>{widths[1]}} {g.label(v):>{widths[2]}}"
            f" {rows[u][v]:>{widths[3]}}",
            file=sys.stderr,
        )
    sys.stdout.write(io.emit_witness_dot(g, tracks))
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    specs = families.default_family_sweep()
    mismatches = 0
    for spec in specs:
        g = families.generate(spec)
        want = families.expected_spans(spec)
        got = tuple(compute_span(g, rule).value for rule in verify.RULES)
        ok = got == want
        mismatches += 0 if ok else 1
        verdict = "PASS" if ok else "FAIL"
        if args.machine:
            print(
                f"family={spec.display_name} radius={g.radius}"
                f" strong={got[0]} strong_expected={want.strong}"
                f" direct={got[1]} direct_expected={want.direct}"
                f" cartesian={got[2]} cartesian_expected={want.cartesian}"
                f" pass={int(ok)}"
            )
        else:
            print(
                f"{spec.display_name:<9} rad={g.radius:<2}"
                f" strong={got[0]}/{want.strong}"
                f" direct={got[1]}/{want.direct}"
                f" cartesian={got[2]}/{want.cartesian} {verdict}"
            )
    print(f"{'PASS' if mismatches == 0 else 'FAIL'} {len(specs) - mismatches}/{len(specs)} rows match")
    return 1 if mismatches else 0


def _sweep(draw: Callable[[], Iterable[Graph]], args: argparse.Namespace) -> int:
    """Check the corpus ``draw()`` returns, writing each record as it comes,
    then print the summary.  A bad corpus option raises at ``draw()``,
    before the records file is opened.  A ValueError exits 2: one raised
    by a draw partway through comes after the records written so far."""
    try:
        corpus = draw()
        try:
            records = open(args.records, "w", encoding="utf-8") if args.records else None
        except OSError as exc:
            raise SpanlabError(f"cannot write {args.records}: {exc}") from exc
        checked, bad, positives = 0, [], []
        with records or nullcontext():
            for record in verify.check_theorems(
                corpus, jobs=args.jobs, check_witnesses=args.witnesses
            ):
                checked += 1
                bad += [f"counterexample: {record.graph6} violates {v}" for v in record.violations]
                if record.cartesian_gt_direct:
                    positives.append(f"cartesian>direct: {record.graph6}")
                if records is not None:
                    records.write(record.to_line() + "\n")
    except ValueError as exc:
        raise SpanlabError(str(exc)) from exc
    print(f"graphs checked: {checked}")
    print(f"{len(bad)} counterexamples; {len(positives)} graphs with cartesian>direct")
    for line in bad + positives:
        print(line)
    return 1 if bad else 0


def _cmd_verify_enumerate(args: argparse.Namespace) -> int:
    return _sweep(lambda: verify.enumerate_connected(args.n, dedup=args.dedup), args)


def _cmd_verify_random(args: argparse.Namespace) -> int:
    orders = (args.n_min, args.n_max)
    return _sweep(lambda: verify.random_graphs(args.count, orders, args.p, args.seed), args)


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = _read_graph(args.file, args.format)
    strong = compute_span(g, MovementRule.TRADITIONAL).value
    try:
        cut = verify.cut_edge_bound(g)
        cut_text = "no bridge" if cut is None else str(cut)
    except OrderTooSmallError:
        cut, cut_text = None, "needs at least 3 vertices"
    ok = strong <= g.radius and (cut is None or strong <= cut)
    if args.machine:
        cut_kv = "none" if cut is None else str(cut)
        print(f"radius={g.radius} cut_bound={cut_kv} strong={strong} ok={int(ok)}")
    else:
        print(f"radius bound: {g.radius}")
        print(f"cut-edge bound: {cut_text}")
        print(f"strong span: {strong}")
    if not ok:
        print("bound violated by computed span", file=sys.stderr)
        return 1
    return 0


def _graph_for_token(token: str) -> Graph:
    if token in families.NAMED_GRAPH_IDS:
        return families.named_graph(token)
    spec = families.spec_for_token(token)
    if spec is None:
        raise UnknownGraphIdError(
            f"unknown graph {io.quoted(token)}; see 'spanlab named'"
            " or use a family token like P5, C6, Q3, K5, K3_4, S4, W5, PC5, BT3"
        )
    return families.generate(spec)


def _cmd_named(args: argparse.Namespace) -> int:
    if args.id is None:
        print("\n".join(families.NAMED_GRAPH_IDS))
        return 0
    g = _graph_for_token(args.id)
    if args.format == "graph6":
        print(io.emit_graph6(g))
    else:
        sys.stdout.write(io.emit_edge_list(g))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanlab",
        description="Vertex spans of connected graphs: maximal safety "
        "distance for two actors that must each visit every vertex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    span_names = tuple(rule.span_name for rule in MovementRule)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="graph file (edge list or graph6)")
        p.add_argument(
            "--format",
            choices=("auto", "edgelist", "graph6"),
            default="auto",
            help="input format; auto picks graph6 for *.g6",
        )

    p = sub.add_parser("span", help="compute span values of a graph file")
    add_input(p)
    p.add_argument("--rule", choices=("all", *span_names), default="all")
    p.set_defaults(func=_cmd_span)

    p = sub.add_parser("witness", help="emit witness walks as DOT (stdout) and a step table (stderr)")
    add_input(p)
    p.add_argument("--rule", choices=span_names, required=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("families", help="sweep the graph families against their closed-form spans")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_families)

    def add_verify(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=None, help="worker processes, held to 1..CPU count; 1 forces sequential")
        p.add_argument("--witnesses", action="store_true", help="also check witness extraction and transformations")
        p.add_argument("--records", metavar="FILE", help="write one key=value record per graph")

    p = sub.add_parser("verify-enumerate", help="check the span theorems on every connected graph of order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dedup", action="store_true", help="one representative per isomorphism class")
    add_verify(p)
    p.set_defaults(func=_cmd_verify_enumerate)

    p = sub.add_parser("verify-random", help="check the span theorems on a seeded random corpus")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-min", type=int, default=6)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--p", type=float, default=0.3, help="edge probability")
    add_verify(p)
    p.set_defaults(func=_cmd_verify_random)

    p = sub.add_parser("bounds", help="radius and cut-edge upper bounds next to the strong span")
    add_input(p)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("named", help="emit a bundled named graph or family instance; with no id, list the bundled ids")
    p.add_argument("id", nargs="?", help="e.g. fig1, fig6_left, P5, C6, Q3, K3_4, PC5, BT3")
    p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p.set_defaults(func=_cmd_named)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpanlabError as exc:
        print(f"spanlab: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    raise SystemExit(main())
