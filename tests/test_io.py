from __future__ import annotations

import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab.engine import TrackPair, compute_span, extract_witness_tracks
from spanlab.errors import (
    BadCharError,
    DisconnectedError,
    EdgeListSyntaxError,
    InvalidTracksError,
    LengthMismatchError,
    SpanlabError,
    TooLargeError,
)
from spanlab.families import cycle_graph, generate, named_graph, path_graph, spec_for_token
from spanlab.graph import Graph
from spanlab.io import (
    emit_edge_list,
    emit_graph6,
    emit_witness_dot,
    parse_edge_list,
    parse_graph6,
)
from spanlab.product import MovementRule
from spanlab.verify import enumerate_connected, random_graphs

from conftest import connected_graphs, decode_graph6_by_strings, ids

FIG1_TEXT = """\
# the 6-vertex running example
n 6
0 1
1 2
2 3
3 4
4 5
5 0
1 3
2 5
"""


class TestEdgeList:
    def test_k2(self):
        g = parse_edge_list("n 2\n0 1")
        assert g.n == 2 and g.edges() == ((0, 1),)

    def test_fig1_with_comments(self):
        g = parse_edge_list(FIG1_TEXT)
        assert g.n == 6 and g.edge_count == 8
        assert g.radius == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            parse_edge_list("n 3\n0 1")

    @pytest.mark.parametrize(
        "text,line",
        [
            ("0 1", 1),
            ("n x", 1),
            ("n 2\n0 1 2", 2),
            ("n 2\n0 one", 2),
            ("# hi\n\nn 2\nnope", 4),
        ],
    )
    def test_syntax_errors_carry_line_numbers(self, text, line):
        with pytest.raises(EdgeListSyntaxError) as err:
            parse_edge_list(text)
        assert err.value.line == line

    def test_missing_header(self):
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list("# only comments\n")

    def test_round_trip_on_200_random_graphs(self):
        for g in random_graphs(200, (1, 9), 0.35, seed=20240817):
            assert parse_edge_list(emit_edge_list(g)) == g


class TestGraph6:
    def test_k2_is_A_(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges() == ((0, 1),)
        assert emit_graph6(g) == "A_"

    def test_decode_matches_independent_unpacker(self):
        for line in ("D?{", "A_", "C~", "Dhc"):
            n, edges = decode_graph6_by_strings(line)
            g = parse_graph6(line)
            assert (g.n, list(g.edges())) == (n, sorted(edges))

    def test_header_is_stripped(self):
        assert parse_graph6(">>graph6<<A_").n == 2

    def test_round_trip_all_classes_up_to_6(self):
        for n in range(1, 7):
            for g in enumerate_connected(n, dedup=True):
                line = emit_graph6(g)
                assert parse_graph6(line) == g
                assert emit_graph6(parse_graph6(line)) == line

    def test_round_trip_random_7_and_8(self):
        for g in random_graphs(80, (7, 8), 0.4, seed=7):
            assert parse_graph6(emit_graph6(g)) == g

    @pytest.mark.parametrize("line", ["", " ", "A!", "~??", "D!?"])
    def test_bad_bytes(self, line):
        with pytest.raises(BadCharError):
            parse_graph6(line)

    @pytest.mark.parametrize("line", ["A", "A__", "D?", "A@"])
    def test_length_and_padding_mismatches(self, line):
        # "A@" has the right length but a stray padding bit pattern that
        # cannot be produced by the emitter ("@" encodes no edge, leaving
        # K_2 disconnected), so it must fail one way or the other.
        with pytest.raises((LengthMismatchError, DisconnectedError)):
            parse_graph6(line)

    def test_disconnected_after_decode(self):
        with pytest.raises(DisconnectedError):
            parse_graph6("B?")

    @given(connected_graphs(max_n=8))
    def test_round_trip_property(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    def test_size_boundary(self):
        # Order 62 is the last short form, one size byte; order 63 is the
        # first long form, "~" and three size bytes.
        short = emit_graph6(path_graph(62))
        assert short[0] == chr(63 + 62) and len(short) == 1 + (62 * 61 // 2 + 5) // 6
        assert parse_graph6(short) == path_graph(62)
        long = emit_graph6(path_graph(63))
        assert long[:4] == "~??~" and len(long) == 4 + (63 * 62 // 2 + 5) // 6
        assert parse_graph6(long) == path_graph(63)

    @pytest.mark.parametrize("n", [62, 63, 64, 100, 300])
    def test_matches_networkx(self, n):
        graphs = [path_graph(n), cycle_graph(n), *random_graphs(2, (n, n), 0.05, seed=n)]
        for g in graphs:
            reference = nx.Graph()
            reference.add_nodes_from(range(n))
            reference.add_edges_from(g.edges())
            line = emit_graph6(g)
            assert line == nx.to_graph6_bytes(reference, header=False).strip().decode()
            assert parse_graph6(line) == g

    @pytest.mark.parametrize(
        "line",
        # Orders 2049 and 4095 in the long form, with no body: the header
        # alone is refused.  Any "~~" header names an order of 258,048 or
        # more.
        ["~?_@", "~?~~", "~~" + "?" * 6, "~~"],
    )
    def test_header_over_order_cap(self, line):
        with pytest.raises(TooLargeError):
            parse_graph6(line)

    def test_codec_holds_no_quadratic_lists(self):
        # The codec streams its n(n-1)/2 slots: emit holds one character per
        # slot, and parse costs little more than building the graph.  A list
        # of slot tuples or of bit ints would take several MB on P400.
        g = path_graph(400)
        tracemalloc.start()
        try:
            line = emit_graph6(g)
            emit_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            parse_graph6(line)
            parse_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            Graph(g.n, g.edges())
            build_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emit_peak < 2 << 20
        assert parse_peak < 1.2 * build_peak

    def test_emit_joins_one_string_per_column(self):
        # P2000's 1,999,000 slots make a 2 MB bit string, joined from 1,999
        # column strings: about 5 MB traced at the peak.  Joining one string
        # per slot held a list of 1,999,000 pointers too, 19 MB.
        g = path_graph(2000)
        tracemalloc.start()
        try:
            emit_graph6(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


FIG1_WALKS = TrackPair(f=(3, 4, 5, 0, 1, 2), g=(0, 1, 3, 2, 5, 4), rule=MovementRule.ACTIVE)


class TestWitnessDot:
    def test_fig1_walks_arrow_counts(self):
        g = named_graph("fig1")
        dot = emit_witness_dot(g, FIG1_WALKS)
        assert dot.count("color=red") == 5
        assert dot.count("color=blue") == 5
        assert 'label="u1"' in dot

    def test_labels_escaped(self):
        g = Graph(2, [(0, 1)], labels=['a"b', "c\\"])
        dot = emit_witness_dot(g, TrackPair((0,), (1,), MovementRule.TRADITIONAL))
        assert '  0 [label="a\\"b"];' in dot
        assert '  1 [label="c\\\\"];' in dot

    def test_k1_single_node_no_arrows(self):
        g = Graph(1, [])
        dot = emit_witness_dot(g, TrackPair((0,), (0,), MovementRule.TRADITIONAL))
        assert "->" not in dot.replace("[dir=none]", "")
        assert "0" in dot

    def test_arrow_count_equals_moves(self):
        g = cycle_graph(6)
        report = compute_span(g, MovementRule.LAZY)
        tracks = extract_witness_tracks(report)
        moves = sum(
            1
            for walk in (tracks.f, tracks.g)
            for i in range(len(walk) - 1)
            if walk[i] != walk[i + 1]
        )
        dot = emit_witness_dot(g, tracks)
        assert dot.count("color=") == moves

    def test_deterministic(self):
        g = named_graph("fig1")
        assert emit_witness_dot(g, FIG1_WALKS) == emit_witness_dot(g, FIG1_WALKS)

    def test_integer_like_ids_read_as_ints(self):
        g = cycle_graph(6)
        tracks = extract_witness_tracks(compute_span(g, MovementRule.LAZY))
        same = TrackPair(ids(tracks.f), ids(tracks.g), tracks.rule)
        assert emit_witness_dot(g, same) == emit_witness_dot(g, tracks)

    def test_invalid_tracks(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(InvalidTracksError):
            emit_witness_dot(g, TrackPair((0, 1), (1,), MovementRule.ACTIVE))
        with pytest.raises(InvalidTracksError):
            emit_witness_dot(g, TrackPair((0, 2), (1, 0), MovementRule.ACTIVE))
        with pytest.raises(InvalidTracksError, match="vertex 3"):
            emit_witness_dot(path_graph(3), TrackPair([0, 3], (1, 1), MovementRule.TRADITIONAL))


def test_edge_list_round_trip_random_order():
    rng = random.Random(5)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    rng.shuffle(edges)
    text = "n 4\n" + "\n".join(f"{u} {v}" for u, v in edges)
    assert parse_edge_list(text) == Graph(4, edges)


# Digits that ``str.isdigit`` or the regex ``\d`` accept beyond ASCII:
# Arabic-Indic three, full-width two and superscript two.
OTHER_DIGITS = "\u0663\uff12\u00b2"


def short_text(headers: list[str], alphabet: str):
    """Strings of at most 19 characters: one of ``headers``, then characters
    of ``alphabet``."""
    return st.sampled_from(headers).flatmap(
        lambda head: st.text(alphabet, max_size=19 - len(head)).map(lambda body: head + body)
    )


def family_graph(token: str) -> Graph | None:
    """The graph a family token names, None when it names none.  P2048 or
    Q11 take seconds to build, so an instance with a parameter over 6 stops
    at its spec."""
    spec = spec_for_token(token)
    if spec is None or max(spec.n, spec.m or 0) > 6:
        return None
    return generate(spec)


@pytest.mark.parametrize(
    "parse, text",
    [
        # Every graph6 byte (63..126) and its neighbours, with the long-form
        # and ">>graph6<<" headers.
        (parse_graph6, short_text(
            ["", "~", "~~", ">>graph6<<"],
            "".join(map(chr, range(58, 128))) + " \n" + OTHER_DIGITS,
        )),
        (parse_edge_list, short_text(
            ["", "n ", "n 3\n", "n 4\n0 1\n"], "n0123456789 \n\t#-+_" + OTHER_DIGITS,
        )),
        (family_graph, short_text(
            ["", "P", "Q", "K", "BT", "PC"], "PCQKSWBTkpx_,0123456789-" + OTHER_DIGITS,
        )),
    ],
    ids=["graph6", "edge-list", "family-token"],
)
@settings(max_examples=300)
@given(data=st.data())
def test_malformed_input_raises_only_spanlab_errors(parse, text, data):
    # The contract each input path keeps: a Graph (or no graph), or a
    # SpanlabError; never another exception.
    try:
        result = parse(data.draw(text))
    except SpanlabError:
        return
    assert result is None or isinstance(result, Graph)
