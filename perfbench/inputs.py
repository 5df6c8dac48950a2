"""Seeded input generation for the benchmark.

Everything the program reads is made here, from the workload seed, without
importing holelab: a change to the program cannot change its own inputs.
Graphs are plain ``(n, edges)`` pairs; the writers below produce the graph6
and edge-list files the CLI parses.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Iterable, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
LE7_PATH = os.path.join(HERE, "data", "graphs_le7.g6")
# sha256 of data/graphs_le7.g6 (all 1253 graphs on at most 7 vertices); the
# campaign goldens are keyed by line index of exactly this file
LE7_SHA256 = "bf9cf6770c778e6a90ea2cf162e88114b7f3f0310606dc4b17c0adaec882a093"

Graph = tuple[int, list[tuple[int, int]]]


def rng_for(seed: int, *labels: object) -> random.Random:
    """An independent stream per (seed, purpose), stable across Pythons."""
    key = repr((seed,) + labels).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def random_gnm(rng: random.Random, n: int, m: int) -> Graph:
    """Uniform graph with exactly n vertices and m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, sorted(rng.sample(pairs, m))


def adjacency(graph: Graph) -> list[int]:
    n, edges = graph
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def findhole_gadget(ell: int, s1: int, s2: int, s3: int) -> Graph:
    """The subdivided K_{ell,ell} gadget of acceptance criterion 1.

    Sides A = 0..ell-1 and B = ell..2ell-1; the subdivision vertex of the
    edge (a_i, b_j) is 2ell + i*ell + j; the A-pairs {0,1}, {2,3}, {4,5} are
    joined by paths with s1, s2, s3 interior vertices appended after them.
    It holds an induced cycle of length exactly ell.
    """
    edges = []
    for i in range(ell):
        for j in range(ell):
            mid = 2 * ell + i * ell + j
            edges.append((i, mid))
            edges.append((mid, ell + j))
    nxt = 2 * ell + ell * ell
    for (x, y), s in zip(((0, 1), (2, 3), (4, 5)), (s1, s2, s3)):
        prev = x
        for _ in range(s):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, y))
    return nxt, edges


def encode_graph6(graph: Graph) -> str:
    """graph6 line of a graph with at most 62 vertices."""
    n, _ = graph
    if n > 62:
        raise ValueError("short-form graph6 holds at most 62 vertices")
    adj = adjacency(graph)
    body = [(adj[v] >> u) & 1 for v in range(1, n) for u in range(v)]
    body += [0] * (-len(body) % 6)
    chars = [chr(n + 63)]
    for i in range(0, len(body), 6):
        value = 0
        for b in body[i : i + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def write_graph6(path: str, graphs: Iterable[Graph]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(encode_graph6(g) + "\n")


def write_lines(path: str, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_edgelist(path: str, graph: Graph) -> None:
    write_lines(path, [f"{u} {v}" for u, v in graph[1]])


def read_le7() -> list[str]:
    with open(LE7_PATH, "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != LE7_SHA256:
        raise RuntimeError(f"{LE7_PATH} does not match its recorded digest")
    return raw.decode("ascii").split()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
