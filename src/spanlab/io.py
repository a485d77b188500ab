"""Parsing and emission of graph files and witness artifacts.

Two interchange formats are supported: a plain edge-list text format
(header ``n <count>``, one ``u v`` pair per line, ``#`` comments) and the
standard graph6 one-liner (the short form up to 62 vertices, the long form,
``~`` and three 6-bit size bytes, from 63).  Witness walks render to
DOT with the base graph as undirected edges and the two actors' moves as
red/blue numbered arrows.
"""

from __future__ import annotations

from typing import Iterator

from .engine import TrackPair
from .errors import (
    BadCharError,
    EdgeListSyntaxError,
    InvalidTracksError,
    LengthMismatchError,
    TooLargeError,
    VertexOutOfRangeError,
)
from .graph import MAX_ORDER, Graph


# -- edge-list format ---------------------------------------------------------


# Characters of a bad token quoted back in an error; the rest is elided.
_TOKEN_SHOWN = 32


def quoted(token: str) -> str:
    """``token`` quoted for an error message, cut to ``_TOKEN_SHOWN`` characters."""
    return repr(token if len(token) <= _TOKEN_SHOWN else token[:_TOKEN_SHOWN] + "...")


def _digits(lineno: int, token: str, what: str) -> str:
    """``token`` without leading zeros, if it is a numeral of ASCII digits.

    ``int`` alone would also take ``1_0``, ``+2`` and full-width digits, and
    refuse a numeral of more than 4,300 digits with a ValueError.
    """
    if not (token.isascii() and token.isdigit()):
        raise EdgeListSyntaxError(lineno, f"bad {what} {quoted(token)}")
    return token.lstrip("0") or "0"


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; syntax errors carry the 1-based line number.

    Numbers are ASCII decimal numerals.  A vertex count over
    ``graph.MAX_ORDER`` raises ``TooLargeError`` at the header, before a
    numeral too long for ``int`` is converted.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise EdgeListSyntaxError(lineno, f"expected 'n <count>', got {quoted(line)}")
            count = _digits(lineno, parts[1], "vertex count")
            if len(count) > len(str(MAX_ORDER)) or int(count) > MAX_ORDER:
                raise TooLargeError(
                    f"line {lineno}: vertex count {quoted(count)} is over {MAX_ORDER},"
                    " the order cap"
                )
            n = int(count)
            continue
        if len(parts) != 2:
            raise EdgeListSyntaxError(lineno, f"expected 'u v', got {quoted(line)}")
        u, v = (_digits(lineno, token, "vertex id") for token in parts)
        if max(len(u), len(v)) > len(str(MAX_ORDER)):
            # Over the order cap, so out of range; ``int`` may refuse it.
            raise VertexOutOfRangeError(
                f"line {lineno}: vertex id {quoted(max(u, v, key=len))} outside 0..{n - 1}"
            )
        edges.append((int(u), int(v)))
    if n is None:
        raise EdgeListSyntaxError(1, "missing 'n <count>' header")
    return Graph(n, edges)


def emit_edge_list(g: Graph) -> str:
    """Edge-list text for ``g``; parsing it back reproduces the graph."""
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# -- graph6 format ------------------------------------------------------------


def _slots(n: int) -> Iterator[tuple[int, int]]:
    """Edge slots in graph6 column order: (0,1), (0,2), (1,2), (0,3), ..."""
    return ((u, v) for v in range(1, n) for u in range(v))


def _sextets(text: str, what: str) -> Iterator[int]:
    """The 6-bit values of graph6 bytes (characters 63..126)."""
    for ch in text:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise BadCharError(f"bad {what} byte {ch!r}")
        yield val


def parse_graph6(line: str) -> Graph:
    """Decode a graph6 line, short form (n <= 62) or long form (``~`` and
    three 6-bit bytes).  An order over ``graph.MAX_ORDER`` is refused from
    the header alone."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise BadCharError("empty graph6 line")
    if s.startswith("~~"):
        raise TooLargeError(
            f"graph6 '~~' header names an order of at least 258048, over {MAX_ORDER}"
        )
    if s[0] == "~":
        if len(s) < 4:
            raise BadCharError("truncated long-form graph6 header")
        a, b, c = _sextets(s[1:4], "size")
        n = a << 12 | b << 6 | c
        body = s[4:]
    else:
        (n,) = _sextets(s[0], "size")
        body = s[1:]
    if n > MAX_ORDER:
        raise TooLargeError(f"graph6 order {n} is over {MAX_ORDER}, the order cap")

    slots = n * (n - 1) // 2
    need = (slots + 5) // 6
    if len(body) != need:
        raise LengthMismatchError(
            f"graph6 body for n={n} needs {need} bytes, got {len(body)}"
        )
    bits = "".join(format(val, "06b") for val in _sextets(body, "data"))
    if "1" in bits[slots:]:
        raise LengthMismatchError("nonzero padding bits")
    return Graph(n, [slot for slot, bit in zip(_slots(n), bits) if bit == "1"])


def emit_graph6(g: Graph) -> str:
    """Encode ``g`` as a graph6 line: the short form up to 62 vertices, the
    long form (``~`` and three 6-bit bytes) from 63."""
    n = g.n
    masks = g._masks
    # Column v holds the slots (0, v) .. (v - 1, v), the low v bits of
    # v's neighbour mask read from bit 0 up, as ``_slots`` orders them.
    bits = "".join(format(masks[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n))
    bits += "0" * (-len(bits) % 6)
    # The long form's first byte, 63 + 63, is "~".
    size = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    chars = [chr(63 + val) for val in size]
    chars += (chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))
    return "".join(chars)


# -- DOT witness rendering ------------------------------------------------------


def emit_witness_dot(g: Graph, tracks: TrackPair) -> str:
    """DOT text showing the base graph and both actors' moves.

    Base edges are drawn without direction; each actual move becomes one
    arrow (red for the first actor, blue for the second) labelled with its
    1-based step number, so stay-steps leave no arrow.
    """
    if len(tracks.f) != len(tracks.g) or not tracks.f:
        raise InvalidTracksError("tracks must be non-empty and of equal length")
    for w in tracks.f + tracks.g:
        if not (0 <= w < g.n):
            raise InvalidTracksError(f"vertex {w} outside 0..{g.n - 1}")

    lines = ["digraph witness {"]
    for v in range(g.n):
        if g.labels is not None:
            label = g.label(v).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -> {v} [dir=none];")
    for name, walk, color in (("f", tracks.f, "red"), ("g", tracks.g, "blue")):
        for i in range(len(walk) - 1):
            if walk[i] != walk[i + 1]:
                lines.append(
                    f'  {walk[i]} -> {walk[i + 1]} [color={color}, label="{name}{i + 1}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
