"""Explicit gadget constructions and standard test-substrate families.

The CLI's parser reads FAMILY_PARAMS, so this module imports no more than
it must at load time: the multicover builders import structures, and the
random family imports random, when they run.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from .errors import InputError
from .graph import Graph

if TYPE_CHECKING:
    from .structures import CrestData, Multicover


def findhole_gadget(ell: int, s1: int, s2: int, s3: int) -> Graph:
    """Subdivided complete bipartite gadget containing a hole of length ell.

    Start from K_{ell,ell} with sides A = 0..ell-1 and B = ell..2*ell-1,
    subdivide every A-B edge once (subdivision vertex of the edge (a_i, b_j)
    has index 2*ell + i*ell + j), then join the three lowest-index A-pairs
    {0,1}, {2,3}, {4,5} by paths with s1, s2, s3 interior vertices
    respectively (appended after the cross-edge subdivision vertices).
    Vertex count: 2*ell + ell**2 + s1 + s2 + s3.
    """
    if ell < 24:
        raise InputError("gadget needs length at least 24")
    for s in (s1, s2, s3):
        if s not in (2, 4):
            raise InputError("subdivision counts must be 2 or 4")
    edges: list[tuple[int, int]] = []
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
    return Graph(nxt, edges)


def multicover_gadget(
    len_x: int, n_size: int, c_size: int
) -> tuple[Graph, Multicover]:
    """Canonical minimal stable multicover: no optional cross edges.

    Apexes are 0..len_x-1; each apex x owns a stable family of n_size
    vertices; the target C has c_size stable vertices, each adjacent to
    exactly one vertex of every family (spread round-robin so each family
    covers C).
    """
    from .structures import Multicover

    if min(len_x, n_size, c_size) < 1:
        raise InputError("all gadget sizes must be at least 1")
    edges = []
    fam_start = len_x
    c_start = len_x + len_x * n_size
    families = {}
    for x in range(len_x):
        fam = tuple(fam_start + x * n_size + t for t in range(n_size))
        families[x] = frozenset(fam)
        for v in fam:
            edges.append((x, v))
        for j in range(c_size):
            edges.append((fam[j % n_size], c_start + j))
    g = Graph(c_start + c_size, edges)
    mc = Multicover(
        host=g,
        X=frozenset(range(len_x)),
        families=families,
        C=frozenset(range(c_start, c_start + c_size)),
    )
    return g, mc


def crest_gadget(k: int, mc: Multicover) -> tuple[Graph, Multicover, CrestData]:
    """Extend a multicover's host with a crest: K_{k,|X|} subdivided once.

    New apexes a_1..a_k and one subdivision vertex per (apex, x) pair are
    appended after the host's vertices, wired only as the crest axioms
    demand. Returns the extended graph, the multicover re-hosted on it, and
    the crest data.
    """
    from .structures import CrestData, Multicover

    if k < 1:
        raise InputError("crest size must be at least 1")
    g = mc.host
    base = g.n
    xs = sorted(mc.X)
    apexes = tuple(base + i for i in range(k))
    subdivisions = {}
    nxt = base + k
    edges = list(g.edges())
    for i in range(k):
        for x in xs:
            subdivisions[(i, x)] = nxt
            edges.append((nxt, apexes[i]))
            edges.append((nxt, x))
            nxt += 1
    big = Graph(nxt, edges)
    mc2 = Multicover(host=big, X=mc.X, families=dict(mc.families), C=mc.C)
    return big, mc2, CrestData(apexes=apexes, subdivisions=subdivisions)


def _mycielski(g: Graph) -> Graph:
    """One Mycielski step: adds a shadow vertex per vertex plus one apex."""
    n = g.n
    edges = list(g.edges())
    for u, v in g.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    apex = 2 * n
    for u in range(n):
        edges.append((n + u, apex))
    return Graph(2 * n + 1, edges)


# the number of integer parameters each standard family kind takes
FAMILY_PARAMS = {
    "cycle": 1,
    "complete": 1,
    "complete_bipartite": 2,
    "petersen": 0,
    "mycielski_iterate": 1,
    "kneser": 2,
    "random": 2,
}


def standard_family(kind: str, *params: int, seed: int = 0) -> Graph:
    """Deterministic standard graphs used as test substrates; `kind` takes
    FAMILY_PARAMS[kind] integer parameters."""
    if kind not in FAMILY_PARAMS:
        raise InputError(f"unknown family kind: {kind}")
    if len(params) != FAMILY_PARAMS[kind]:
        raise InputError(
            f"family {kind} takes {FAMILY_PARAMS[kind]} integer parameters, "
            f"got {len(params)}"
        )
    if kind == "cycle":
        (n,) = params
        if n < 3:
            raise InputError("cycle needs at least 3 vertices")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        (n,) = params
        return Graph(n, list(combinations(range(n), 2)))
    if kind == "complete_bipartite":
        a, b = params
        if min(a, b) < 0:
            raise InputError("part sizes must be nonnegative")
        return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if kind == "petersen":
        return standard_family("kneser", 5, 2)
    if kind == "mycielski_iterate":
        (t,) = params
        if t < 0:
            raise InputError("iteration count must be nonnegative")
        g = Graph(2, [(0, 1)])
        for _ in range(t):
            g = _mycielski(g)
        return g
    if kind == "kneser":
        n, r = params
        if not 0 < r <= n:
            raise InputError("kneser needs 0 < r <= n")
        subsets = list(combinations(range(n), r))
        edges = [
            (i, j)
            for i in range(len(subsets))
            for j in range(i + 1, len(subsets))
            if not set(subsets[i]) & set(subsets[j])
        ]
        return Graph(len(subsets), edges)
    n, percent = params  # random
    if not 0 <= percent <= 100:
        raise InputError("edge probability percent must be in 0..100")
    import random

    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() * 100 < percent
    ]
    return Graph(n, edges)
