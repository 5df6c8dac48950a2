"""Corpus ingestion (graph6, edge-list, and DIMACS .col formats) and the
JSON writer of every report.

graph6 encoding is bit-exact per the published format for n <= 62 (short
form) and n <= 2^36 - 1 (four-byte extended form): six bits per byte,
offset 63, upper-triangle adjacency in column-major order, zero-padded to a
byte boundary. Parsing is strict; malformed input raises InputError naming
the line number.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Any, Iterator

from .errors import InputError
from .graph import Graph

FORMATS = ("graph6", "edgelist", "dimacs")


@dataclass(frozen=True)
class CorpusEntry:
    """One parsed graph plus its provenance in the source file."""

    id: int
    graph: Graph
    source_format: str


# ---------------------------------------------------------------------------
# graph6


def encode_graph6(g: Graph) -> str:
    """Encode a graph in graph6 format (no header)."""
    n = g.n
    if n > 2**36 - 1:
        raise InputError("graph too large for graph6")
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(
            chr(((n >> s) & 63) + 63) for s in (12, 6, 0)
        )
    else:
        head = "~~" + "".join(
            chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0)
        )
    bits_out = []
    for v in range(1, n):
        col = g.adjacency_mask(v)
        for u in range(v):
            bits_out.append((col >> u) & 1)
    while len(bits_out) % 6:
        bits_out.append(0)
    chars = []
    for i in range(0, len(bits_out), 6):
        value = 0
        for b in bits_out[i : i + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return head + "".join(chars)


def decode_graph6(line: str) -> Graph:
    """Decode one graph6 line (no header)."""
    if not line:
        raise InputError("empty graph6 line")
    data = [ord(ch) - 63 for ch in line]
    if any(d < 0 or d > 63 for d in data):
        raise InputError("invalid graph6 character")
    pos = 0
    if data[0] != 63:
        n = data[0]
        pos = 1
    elif len(data) >= 2 and data[1] != 63:
        if len(data) < 4:
            raise InputError("truncated graph6 size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    else:
        if len(data) < 8:
            raise InputError("truncated graph6 size field")
        n = 0
        for d in data[2:8]:
            n = (n << 6) | d
        pos = 8
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(data) - pos != need_bytes:
        raise InputError(
            f"graph6 body length {len(data) - pos} does not match n={n}"
        )
    bit_iter = (
        (data[pos + i // 6] >> (5 - i % 6)) & 1 for i in range(need_bits)
    )
    edges = []
    for v in range(1, n):
        for u in range(v):
            if next(bit_iter):
                edges.append((u, v))
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
        edges.append((u, v))
    n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return Graph(n, edges)


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
        for idx, (lineno, line) in enumerate(lines):
            if line.startswith(">>graph6<<"):
                line = line[len(">>graph6<<") :]
                if not line:
                    continue
            try:
                yield CorpusEntry(idx, decode_graph6(line), "graph6")
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
    elif format == "edgelist":
        yield CorpusEntry(0, _parse_edgelist(lines), "edgelist")
    else:
        yield CorpusEntry(0, _parse_dimacs(lines), "dimacs")


# ---------------------------------------------------------------------------
# JSON output


def write_json(payload: Any, path: str | None = None) -> None:
    """Write payload as JSON indented by two, plus a newline, to path or,
    without one, to stdout; every report goes through here, so the same
    payload gives the same bytes on either."""
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
