"""Hole enumeration, residue coverage, peripherality, and hole families.

A hole is an induced cycle of length at least 4. Enumeration is delegated to
the selected kernel (compiled or pure); everything here works with holes as
canonical vertex tuples: the tuple starts at the cycle's minimum vertex and
the second vertex is the smaller of the anchor's two cycle-neighbors, so
each hole appears exactly once up to rotation and reflection.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .budget import Budget, ensure_budget
from .errors import BudgetExceededError, ChordError, InputError
from .graph import Graph, closed_mask, mask_of, set_of
from .kernels import find_holes

Hole = tuple[int, ...]  # a hole's vertices in canonical order


def validate_hole(g: Graph, vertices: Sequence[int]) -> None:
    """Raise unless vertices are a chordless cycle of g in canonical form."""
    k = len(vertices)
    if k < 4:
        raise InputError(f"hole length {k} is below 4")
    if len(set(vertices)) != k:
        raise InputError("hole vertices are not distinct")
    for v in vertices:
        g.check_vertex(v)
    defect = sequence_defect(g, vertices, cyclic=True)
    if defect is not None:
        u, v, consecutive = defect
        if consecutive:
            raise InputError(f"hole vertices {u} and {v} are not adjacent")
        raise ChordError(u, v)
    if vertices[0] != min(vertices) or vertices[1] > vertices[-1]:
        raise InputError("hole is not in canonical rotation")


def sequence_defect(
    g: Graph, vs: Sequence[int], cyclic: bool
) -> tuple[int, int, bool] | None:
    """None when vs is an induced path of g (an induced cycle when cyclic).
    Else (vs[i], vs[j], consecutive) for the first i < j where adjacency and
    being consecutive differ: True for a missing edge, False for a chord."""
    adj = g.adjacency_masks()
    k = len(vs)
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (cyclic and i == 0 and j == k - 1)
            if bool((adj[vs[i]] >> vs[j]) & 1) != consecutive:
                return vs[i], vs[j], consecutive
    return None


def canonical_hole(vertices: Sequence[int]) -> Hole:
    """The canonical vertex tuple of a cyclic vertex sequence."""
    vs = list(vertices)
    a = vs.index(min(vs))
    rot = vs[a:] + vs[:a]
    if rot[-1] < rot[1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def enumerate_holes(
    g: Graph,
    min_len: int = 4,
    max_len: int | None = None,
    budget: Budget | None = None,
) -> Iterator[Hole]:
    """Stream each hole of g exactly once, canonically oriented.

    The kernel may make budget.remaining DFS extensions. They are added to
    budget.used when the stream ends, is closed, or raises; a budget shared
    with other searches then trips at its next tick. On budget exhaustion
    raises BudgetExceededError; holes already yielded remain valid partial
    results. The kernel only counts: it ends the stream at node
    budget.remaining + 1, and the error is raised here.
    """
    if min_len < 4:
        raise InputError("minimum hole length is 4")
    budget = ensure_budget(budget)
    limit = budget.remaining
    nodes = [0]
    stream = find_holes(
        g.adjacency_masks(), g.n, min_len, max_len, limit, counter=nodes
    )
    count = 0
    try:
        for hole in stream:
            count += 1
            yield hole
    finally:
        # no tick here: an error raised while a dropped generator closes
        # would only be printed
        budget.used += nodes[0]
    if limit is not None and nodes[0] > limit:
        raise BudgetExceededError(
            f"hole search exceeded budget of {limit} nodes", partial=count
        )


def is_d_peripheral(
    g: Graph, h: Hole, d: int, budget: Budget | None = None
) -> tuple[bool, frozenset[int]]:
    """Is h d-peripheral in g? Also returns the exterior set X.

    X is the set of vertices outside the hole with no neighbor on it — the
    unique maximal such set, which suffices since chromatic number is
    monotone under taking induced subgraphs. The hole is d-peripheral when
    chi(G[X]) > d.
    """
    if d < 0:
        raise InputError("d must be nonnegative")
    from .invariants import _chromatic_exceeds

    validate_hole(g, h)
    exterior = g.full_mask() & ~closed_mask(g.adjacency_masks(), h)
    return _chromatic_exceeds(g, exterior, d, budget), set_of(exterior)


def residue_coverage(
    g: Graph,
    ell: int,
    d: int | None = None,
    min_len: int = 4,
    max_len: int | None = None,
    budget: Budget | None = None,
) -> dict[int, Hole]:
    """Residues mod ell realized by (optionally d-peripheral) hole lengths,
    as {residue: its first witness in enumeration order}.

    Exhaustive within the length window, so stops early once all residues
    are covered. Holes often share an exterior, so each distinct exterior is
    tested for d-peripherality once per call.
    """
    if ell < 1:
        raise InputError("modulus must be at least 1")
    if d is not None and d < 0:
        raise InputError("d must be nonnegative")
    if d is not None:
        # colouring is loaded only where a hole's exterior is tested
        from .invariants import _chromatic_exceeds
    budget = ensure_budget(budget)
    adj, full = g.adjacency_masks(), g.full_mask()
    witnesses: dict[int, Hole] = {}
    peripheral: dict[int, bool] = {}  # exterior mask -> chi > d
    for hole in enumerate_holes(g, min_len, max_len, budget):
        r = len(hole) % ell
        if r in witnesses:
            continue
        if d is not None:
            # the vertices outside the hole with no neighbor on it
            exterior = full & ~closed_mask(adj, hole)
            if exterior not in peripheral:
                peripheral[exterior] = _chromatic_exceeds(g, exterior, d, budget)
            if not peripheral[exterior]:
                continue
        witnesses[r] = hole
        if len(witnesses) == ell:
            break
    return witnesses


def anticomplete_hole_family(
    g: Graph,
    specs: Sequence[tuple[int, int]],
    budget: Budget | None = None,
) -> list[Hole] | None:
    """A pairwise-anticomplete hole family matching each (p_i, q_i) spec.

    Returns holes H_1..H_n with H_i of length p_i mod q_i and no edges (or
    shared vertices) between distinct members, or None when exhaustive
    search proves no such family exists. Budget exhaustion raises — an
    indeterminate outcome, deliberately distinct from the verified None.
    """
    for p, q in specs:
        if q < 1:
            raise InputError("residue modulus must be at least 1")
    if not specs:
        return []
    budget = ensure_budget(budget)
    holes = sorted(enumerate_holes(g, budget=budget), key=lambda h: (len(h), h))
    closed = [closed_mask(g.adjacency_masks(), h) for h in holes]
    by_spec: list[list[int]] = [
        [i for i, h in enumerate(holes) if len(h) % q == p % q]
        for p, q in specs
    ]
    chosen: list[int] = []

    def extend(spec_idx: int, used: int) -> bool:
        if spec_idx == len(specs):
            return True
        budget.tick()
        for i in by_spec[spec_idx]:
            # anticomplete to all chosen holes: no vertex of this hole lies
            # in or next to any of them
            if used & mask_of(holes[i]):
                continue
            chosen.append(i)
            if extend(spec_idx + 1, used | closed[i]):
                return True
            chosen.pop()
        return False

    try:
        if extend(0, 0):
            return [holes[i] for i in chosen]
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            "family search budget exceeded; existence undetermined",
            partial=[holes[i] for i in chosen],
        ) from exc
    return None


def consecutive_hole_pairs(
    g: Graph, ell: int, budget: Budget | None = None
) -> list[tuple[int, Hole, Hole]]:
    """All lengths t > ell with holes of lengths t and t+1, with witnesses."""
    budget = ensure_budget(budget)
    first: dict[int, Hole] = {}
    for hole in enumerate_holes(g, budget=budget):
        first.setdefault(len(hole), hole)
    return [
        (t, first[t], first[t + 1])
        for t in sorted(first)
        if t > ell and t + 1 in first
    ]
