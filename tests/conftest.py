"""Shared fixtures and oracle helpers for the test suite.

The oracles here are deliberately naive and independent of the library's
algorithms: subset scans, exhaustive color assignments, 2^n stable-set
enumeration, and an unpruned recursive path search. Frozen expected values
in the tests were produced by these oracles.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from collections import deque
import shutil
import subprocess
import sysconfig
from pathlib import Path
from typing import Iterator

import pytest

import holelab.kernels
from holelab.budget import Budget
from holelab.graph import Graph, bits

DATA_DIR = Path(__file__).parent / "data"
CORPUS_LE7 = DATA_DIR / "graphs_le7.g6"
FASTCORE_C = Path(holelab.kernels.__file__).parent / "_fastcore.c"


def cycle_graph(n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [((i % n) + offset, ((i + 1) % n) + offset) for i in range(n)]


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def petersen_graph() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return Graph(10, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# independent oracles


def oracle_distances(g: Graph, source: int) -> list[float]:
    """BFS distances from one vertex by a queue; unreachable vertices get inf."""
    dist: list[float] = [float("inf")] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if dist[v] == float("inf"):
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def oracle_holes(g: Graph, min_len: int = 4, max_len: int | None = None) -> set[frozenset[int]]:
    """Every vertex subset inducing a single chordless cycle."""
    out = set()
    hi = max_len if max_len is not None else g.n
    for k in range(max(4, min_len), min(hi, g.n) + 1):
        for sub in itertools.combinations(range(g.n), k):
            if all(
                sum(1 for w in sub if g.has_edge(v, w)) == 2 for v in sub
            ):
                induced, _ = g.induced_subgraph(sub)
                if induced.is_connected():
                    out.add(frozenset(sub))
    return out


def oracle_induced_paths(
    g: Graph,
    source: int,
    target: int,
    allowed_mask: int,
    max_len: int,
    budget: Budget,
) -> Iterator[tuple[int, ...]]:
    """Induced source-target paths with at most max_len edges, by a
    recursive DFS with no prune: one frame per path vertex."""
    if source == target:
        return
    adj = g.adjacency_masks()

    def extend(path: list[int], banned: int) -> Iterator[tuple[int, ...]]:
        last = path[-1]
        if len(path) > max_len:
            return
        budget.tick()
        if (adj[last] >> target) & 1 and not (banned >> target) & 1:
            yield tuple(path) + (target,)
        for v in bits(adj[last] & allowed_mask & ~banned & ~(1 << target)):
            new_banned = banned | adj[last] | (1 << v)
            path.append(v)
            yield from extend(path, new_banned)
            path.pop()

    yield from extend([source], 1 << source)


def oracle_clique_number(g: Graph) -> int:
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if g.is_clique(sub):
                return r
    return 0


def oracle_chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")


def oracle_parity(g: Graph) -> tuple[int, int]:
    even = odd = 0
    for size in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            if g.is_stable(sub):
                if size % 2:
                    odd += 1
                else:
                    even += 1
    return even, odd


def oracle_has_ternary_cycle(g: Graph) -> bool:
    """Any induced cycle (triangles included) of length divisible by 3."""
    for k in range(3, g.n + 1):
        for sub in itertools.combinations(range(g.n), k):
            if k % 3:
                continue
            if all(
                sum(1 for w in sub if g.has_edge(v, w)) == 2 for v in sub
            ):
                induced, _ = g.induced_subgraph(sub)
                if induced.is_connected():
                    return True
    return False


@pytest.fixture(scope="session")
def corpus_le7():
    from holelab.io import parse_corpus

    return [entry.graph for entry in parse_corpus(str(CORPUS_LE7), "graph6")]


@pytest.fixture(scope="session")
def fastcore(tmp_path_factory):
    """The compiled kernel, built from _fastcore.c into a temporary
    directory and loaded from there; skips without a C compiler or
    Python.h. An installed build is never used, so the tests always run
    the C source in the tree, and any compiler warning fails the build."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    include = sysconfig.get_paths()["include"]
    if shutil.which(compiler) is None or not Path(include, "Python.h").exists():
        pytest.skip("no C compiler or Python.h to build the compiled kernel")
    target = tmp_path_factory.mktemp("fastcore") / (
        "_fastcore" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    build = subprocess.run(
        [compiler, "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC", f"-I{include}",
         str(FASTCORE_C), "-o", str(target)],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location(
        "holelab.kernels._fastcore", target
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
