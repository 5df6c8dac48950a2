"""Immutable simple graphs over dense integer vertex indices.

Adjacency is stored as one Python-int bitmask per vertex, which makes the
set-level primitives (anticompleteness, covering, stability) single bitwise
operations. All derived structures elsewhere in the package hold a Graph by
reference plus index sets, so witnesses stay checkable against the original
graph. Every distance question (distances, balls, connectivity, and the
shower and path walks elsewhere) goes through the one bitset BFS,
`bfs_levels`, or `reach`, the union of its levels.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Iterator, Sequence

from .errors import InputError


def _as_set(vertices: Iterable[int]) -> frozenset[int]:
    return vertices if isinstance(vertices, frozenset) else frozenset(vertices)


class Graph:
    """A finite simple loopless graph with vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        try:
            adj = [0] * n
        except (MemoryError, OverflowError):
            raise InputError(f"vertex count {n} does not fit in memory") from None
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (adj[u] >> v) & 1:
                count += 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._edge_count = count

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def check_vertex(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")
        return v

    def check_set(self, vertices: Iterable[int]) -> frozenset[int]:
        s = _as_set(vertices)
        for v in s:
            self.check_vertex(v)
        return s

    def adjacency_mask(self, v: int) -> int:
        return self._adj[self.check_vertex(v)]

    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool((self._adj[u] >> v) & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self._adj[self.check_vertex(v)]))

    def degree(self, v: int) -> int:
        return self._adj[self.check_vertex(v)].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self._adj[u] >> (u + 1)):
                yield u, u + 1 + v

    def vertices(self) -> range:
        return range(self.n)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._edge_count})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    # -- derived graphs ---------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced on a vertex set.

        Returns the new graph together with the mapping from its vertex
        indices back to indices of this graph (sorted ascending).
        """
        keep = sorted(self.check_set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u in keep
            for v in bits(self._adj[u])
            if u < v and v in index
        ]
        return Graph(len(keep), edges), tuple(keep)

    def complement(self) -> "Graph":
        edges = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not (self._adj[u] >> v) & 1
        ]
        return Graph(self.n, edges)

    # -- metric queries ---------------------------------------------------

    def distances_from(self, source: int) -> list[float]:
        """BFS distances from one vertex; unreachable vertices get inf."""
        levels = bfs_levels(self._adj, 1 << self.check_vertex(source))
        dist: list[float] = [inf] * self.n
        for d, level in enumerate(levels):
            for v in bits(level):
                dist[v] = d
        return dist

    def distance(self, u: int, v: int) -> float:
        """Length of a shortest path between u and v, or inf."""
        self.check_vertex(v)
        return self.distances_from(u)[v]

    def ball(self, v: int, rho: int, closed: bool = True) -> frozenset[int]:
        """Vertices at distance exactly rho (open) or at most rho (closed)."""
        if rho < 0:
            raise InputError("radius must be nonnegative")
        mask = 0
        for d, level in enumerate(bfs_levels(self._adj, 1 << self.check_vertex(v))):
            if closed or d == rho:
                mask |= level
            if d == rho:
                break
        return set_of(mask)

    def is_connected(self) -> bool:
        return self.n == 0 or reach(self._adj, 1, -1) == self.full_mask()

    # -- set predicates ---------------------------------------------------

    def is_anticomplete(self, a: Iterable[int], b: Iterable[int]) -> bool:
        """True iff the two sets are disjoint with no edges between them."""
        ma = mask_of(self.check_set(a))
        mb = mask_of(self.check_set(b))
        if ma & mb:
            return False
        return all(not (self._adj[v] & mb) for v in bits(ma))

    def covers(self, b: Iterable[int], c: Iterable[int]) -> bool:
        """True iff b and c are disjoint and every vertex of c has a neighbor in b."""
        mb = mask_of(self.check_set(b))
        mc = mask_of(self.check_set(c))
        if mb & mc:
            return False
        return all(self._adj[v] & mb for v in bits(mc))

    def is_stable(self, s: Iterable[int]) -> bool:
        """True iff no edge joins two vertices of s."""
        ms = mask_of(self.check_set(s))
        return all(not (self._adj[v] & ms) for v in bits(ms))

    def is_clique(self, s: Iterable[int]) -> bool:
        ms = mask_of(self.check_set(s))
        return all((self._adj[v] & ms) == ms & ~(1 << v) for v in bits(ms))

    def closed_neighborhood(self, s: Iterable[int]) -> frozenset[int]:
        return set_of(closed_mask(self._adj, self.check_set(s)))


# -- bitmask helpers ------------------------------------------------------


def bits(mask: int) -> Iterator[int]:
    """Iterate indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bfs_levels(adj: Sequence[int], sources: int, within: int = -1) -> Iterator[int]:
    """The BFS levels from a vertex mask, as vertex masks, sources first.

    Level i holds the vertices of within at distance i from the sources in
    the subgraph induced on within plus the sources; within = -1 allows
    every vertex. Levels are computed as they are asked for, so a caller
    that stops early pays for no level beyond the last it read.
    """
    seen = level = sources
    while level:
        yield level
        nxt = 0
        rest = level
        while rest:
            low = rest & -rest
            rest ^= low
            nxt |= adj[low.bit_length() - 1]
        level = nxt & within & ~seen
        seen |= level


def reach(adj: Sequence[int], sources: int, within: int) -> int:
    """The vertex mask that the BFS from sources reaches inside within."""
    out = 0
    for level in bfs_levels(adj, sources, within):
        out |= level
    return out


def closed_mask(adj: Sequence[int], vertices: Iterable[int]) -> int:
    """The vertices in vertices or next to one of them, as a mask."""
    out = 0
    for v in vertices:
        out |= adj[v] | (1 << v)
    return out


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


# -- convenience constructors ---------------------------------------------


def graph_from_edges(edges: Iterable[tuple[int, int]], n: int | None = None) -> Graph:
    """Build a graph from an edge list, inferring n when not given."""
    edge_list = list(edges)
    if n is None:
        n = 1 + max((max(u, v) for u, v in edge_list), default=-1)
    return Graph(n, edge_list)
