"""Corpus ingestion (graph6, edge-list, and DIMACS .col formats) and the
JSON writer of every report, which encodes the values reports hold and
hands any other value to json.dumps.

graph6 encoding is bit-exact per the published format for n <= 62 (short
form) and n <= 2^36 - 1 (four-byte extended form): six bits per byte,
offset 63, upper-triangle adjacency in column-major order, zero-padded to a
byte boundary. Parsing is strict, the padding bits included; malformed
input raises InputError naming the line number.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError
from .graph import Graph, graph_from_edges

FORMATS = ("graph6", "edgelist", "dimacs")


class CorpusEntry(NamedTuple):
    """One parsed graph and its entry id in the source file."""

    id: int
    graph: Graph


# ---------------------------------------------------------------------------
# graph6

# each graph6 character as the six binary digits it stands for, and back
_SIX_BITS = {63 + d: f"{d:06b}" for d in range(64)}
_CHARS = {digits: chr(c) for c, digits in _SIX_BITS.items()}


def encode_graph6(g: Graph) -> str:
    """Encode a graph in graph6 format (no header)."""
    n = g.n
    if n > 2**36 - 1:
        raise InputError("graph too large for graph6")
    if n <= 62:
        size = f"{n:06b}"
    elif n <= 258047:
        size = "1" * 6 + f"{n:018b}"
    else:
        size = "1" * 12 + f"{n:036b}"
    # column v holds the edges uv, u < v, in increasing u
    body = "".join(
        f"{g.adjacency_mask(v) & ((1 << v) - 1):0{v}b}"[::-1] for v in range(1, n)
    )
    return _graph6_chars(size + body)


def _graph6_chars(digits: str) -> str:
    """Binary digits as graph6 characters, six to a character, the last
    zero-padded to six."""
    digits += "0" * (-len(digits) % 6)
    return "".join(_CHARS[digits[i : i + 6]] for i in range(0, len(digits), 6))


def decode_graph6(line: str) -> Graph:
    """Decode one graph6 line (no header)."""
    if not line:
        raise InputError("empty graph6 line")
    if min(line) < "?" or max(line) > "~":
        raise InputError("invalid graph6 character")
    if line[0] != "~":
        n = ord(line[0]) - 63
        pos = 1
    elif len(line) >= 2 and line[1] != "~":
        if len(line) < 4:
            raise InputError("truncated graph6 size field")
        n = int(line[1:4].translate(_SIX_BITS), 2)
        pos = 4
    else:
        if len(line) < 8:
            raise InputError("truncated graph6 size field")
        n = int(line[2:8].translate(_SIX_BITS), 2)
        pos = 8
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(line) - pos != need_bytes:
        raise InputError(
            f"graph6 body length {len(line) - pos} does not match n={n}"
        )
    # the body as one string of binary digits, read at its ones: digit
    # v(v-1)/2 + u is the edge uv, u < v; the padding must be zeros
    body = line[pos:].translate(_SIX_BITS)
    edges = []
    v = 1
    column = 0  # the digit of the edge 0v
    i = body.find("1")
    while 0 <= i < need_bits:
        while i >= column + v:
            column += v
            v += 1
        edges.append((i - column, v))
        i = body.find("1", i + 1)
    if i >= 0:
        raise InputError("graph6 padding bits are not zero")
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# other formats


def _parse_edgelist(lines: list[tuple[int, str]]) -> Graph:
    edges = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex") from None
        if u < 0 or v < 0:
            raise InputError(f"line {lineno}: negative vertex index")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    return graph_from_edges(edges)


def _ints(lineno: int, fields: list[str]) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise InputError(f"line {lineno}: non-integer field") from None


def _parse_dimacs(lines: list[tuple[int, str]]) -> Graph:
    n = None
    declared_m = None
    edges = []
    for lineno, line in lines:
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise InputError(f"line {lineno}: malformed problem line")
            n, declared_m = _ints(lineno, parts[2:])
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: malformed edge line")
            u, v = _ints(lineno, parts[1:])
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"line {lineno}: vertex out of range")
            if u == v:  # named as the file numbers it, from 1
                raise InputError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise InputError("missing DIMACS problem line")
    g = Graph(n, edges)  # a repeated edge, in either orientation, counts once
    if declared_m != g.edge_count:
        raise InputError(
            f"problem line declares {declared_m} edges, "
            f"found {g.edge_count} distinct"
        )
    return g


def parse_corpus(path: str, format: str) -> Iterator[CorpusEntry]:
    """Stream graphs from a corpus file.

    graph6 files hold one graph per line; edge-list and DIMACS files hold a
    single graph. Malformed content raises InputError with a line number.
    """
    if format not in FORMATS:
        raise InputError(f"unknown corpus format: {format}")
    with open(path, encoding="ascii") as fh:
        try:
            raw = fh.read().splitlines()
        except UnicodeDecodeError:
            raise InputError(f"{path}: not ASCII text") from None
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(raw)
        if line.strip()
    ]
    if format == "graph6":
        # a bare header line holds no graph and takes no entry id
        bodies = [(n, line.removeprefix(">>graph6<<")) for n, line in lines]
        for idx, (lineno, line) in enumerate((n, b) for n, b in bodies if b):
            try:
                yield CorpusEntry(idx, decode_graph6(line))
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
    elif format == "edgelist":
        yield CorpusEntry(0, _parse_edgelist(lines))
    else:
        yield CorpusEntry(0, _parse_dimacs(lines))


# ---------------------------------------------------------------------------
# JSON output
#
# The bytes are those of json.dumps(payload, indent=2). With an indent the
# stdlib leaves its C encoder for a Python one that handles every int
# apart; this one encodes the values reports hold (str keys, strs, plain
# ints, bools, None, lists and tuples) and joins a list of plain ints in
# one step. The holes of a hole report, its bulk, come already encoded
# (JsonIntLists). Any other value, a --timing float among them, goes to
# json.dumps itself.

_PLAIN_INT = {int}


class JsonIntLists:
    """A list of nonempty lists of ints in range(n), such as the holes of
    a graph on n vertices, kept as JSON text: each list is encoded as it
    is taken from `lists`, so a report holds text and not tuples.
    write_json writes the whole as json.dumps would write the lists.

    A list is held as its items without the brackets, at the indent they
    take in a list of lists written at the top level: one join over a
    table of the n vertex strings, with no test of their type.
    """

    __slots__ = ("texts",)

    def __init__(self, lists: Iterable[Sequence[int]], n: int):
        vertex = [f"\n    {v}" for v in range(n)].__getitem__
        join = ",".join
        self.texts = [join(map(vertex, items)) for items in lists]

    def __len__(self) -> int:
        return len(self.texts)


def _json_text(value: Any, newline: str) -> str:
    """value as indented JSON, its closing bracket preceded by `newline`
    (a line break and the indent of the line it opens on)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is JsonIntLists:
        if not value.texts:
            return "[]"
        # the list of lists at the top level, moved to this value's indent
        text = "[\n  [" + "\n  ],\n  [".join(value.texts) + "\n  ]\n]"
        return text.replace("\n", newline)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        if set(map(type, value)) == _PLAIN_INT:
            items = map(int.__repr__, value)
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        try:
            items = [
                encode_basestring_ascii(key) + ": " + _json_text(item, inner)
                for key, item in value.items()
            ]
        except TypeError:  # a key that is not a str, or a value json.dumps refuses
            pass
        else:
            return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value, indent=2).replace("\n", newline)


def write_json(payload: Any, path: str | None = None) -> None:
    """Write payload as JSON indented by two, plus a newline, to path or,
    without one, to stdout; every report goes through here, so the same
    payload gives the same bytes on either."""
    try:
        text = _json_text(payload, "\n") + "\n"
    except RecursionError:  # a circular payload: json.dumps refuses it
        text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
