"""Exact clique number, chromatic number, and local chromatic number.

All three searches are exact and budgeted: when the node budget trips they
raise BudgetExceededError carrying the best bracketing bounds found so far,
never a silent approximation. Branching ties always break toward the lowest
vertex index so witnesses are reproducible.
"""

from __future__ import annotations

from typing import Sequence

from .budget import Budget, ensure_budget
from .errors import BudgetExceededError, InputError, budget_message
from .graph import Graph, bits, mask_of


def clique_number(g: Graph, budget: Budget | None = None) -> tuple[int, frozenset[int]]:
    """Exact maximum clique size with a witness clique.

    Tomita-style branch and bound: pivot on the candidate vertex covering the
    most candidates, color-free bound |R| + |P|.
    """
    return _clique(g.adjacency_masks(), g.full_mask(), ensure_budget(budget))


def _clique(
    adj: Sequence[int], live: int, budget: Budget
) -> tuple[int, frozenset[int]]:
    """clique_number of the subgraph induced on the vertex mask live."""
    best_size = 0
    best_mask = 0

    def expand(r_mask: int, r_size: int, p_mask: int) -> None:
        nonlocal best_size, best_mask
        budget.tick()
        if not p_mask:
            if r_size > best_size:
                best_size = r_size
                best_mask = r_mask
            return
        if r_size + p_mask.bit_count() <= best_size:
            return
        # pivot: candidate whose neighborhood covers most of the candidates
        pivot = -1
        pivot_cover = -1
        for v in bits(p_mask):
            cover = (adj[v] & p_mask).bit_count()
            if cover > pivot_cover:
                pivot, pivot_cover = v, cover
        branch = p_mask & ~adj[pivot]
        for v in bits(branch):
            expand(r_mask | (1 << v), r_size + 1, p_mask & adj[v])
            p_mask &= ~(1 << v)
            if r_size + p_mask.bit_count() <= best_size:
                return

    try:
        expand(0, 0, live)
    except (BudgetExceededError, RecursionError) as exc:  # one frame per clique vertex
        raise BudgetExceededError(
            budget_message("clique search", exc),
            lower=best_size,
            upper=live.bit_count(),
            partial=frozenset(bits(best_mask)),
        ) from exc
    return best_size, frozenset(bits(best_mask))


# The colouring searches below take the host's adjacency masks and a vertex
# mask live, and colour the subgraph induced on live. Their colourings are
# host-indexed, with -1 outside live.


def _greedy_coloring(adj: Sequence[int], live: int) -> list[int]:
    """Greedy coloring in descending-degree order; upper bound seed.

    Each vertex takes the first colour class (a vertex mask) that holds none
    of its neighbours.
    """
    order = sorted(bits(live), key=lambda v: (-(adj[v] & live).bit_count(), v))
    colors = [-1] * len(adj)
    classes: list[int] = []
    for v in order:
        near = adj[v]
        for c, cls in enumerate(classes):
            if not cls & near:
                classes[c] = cls | 1 << v
                break
        else:
            c = len(classes)
            classes.append(1 << v)
        colors[v] = c
    return colors


def _k_colorable(
    adj: Sequence[int], live: int, k: int, clique: frozenset[int], budget: Budget
) -> list[int] | None:
    """Exact k-colorability by DSATUR-ordered backtracking on bitsets.

    A maximum clique is pre-colored to break color symmetry. blocked[c] holds
    the vertices with a neighbour of colour c, and buckets[s] the uncoloured
    live vertices with s colours blocked, so the next vertex (highest
    saturation, then highest degree in live, then lowest index) and the
    saturation updates cost O(k) mask operations, not a scan of the
    vertices. Returns a proper coloring with colors 0..k-1, or None.
    """
    colors = [-1] * len(adj)
    seed = sorted(clique)
    if len(seed) > k:
        return None
    blocked = [0] * k
    for c, v in enumerate(seed):
        colors[v] = c
        blocked[c] = adj[v]
    seeded = mask_of(seed)
    uncoloured = live & ~seeded
    buckets = [0] * (k + 1)
    # the live vertices of each degree in live, highest degree first
    by_degree: dict[int, int] = {}
    for v in bits(live):
        d = (adj[v] & live).bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
        if (uncoloured >> v) & 1:  # the seed's colours are distinct
            buckets[(adj[v] & seeded).bit_count()] |= 1 << v
    degree_classes = [by_degree[d] for d in sorted(by_degree, reverse=True)]

    def solve(uncoloured: int, used_max: int) -> bool:
        # used_max: the highest color in use; new-color symmetry allows at
        # most one color above it
        if not uncoloured:
            return True
        budget.tick()
        s = k
        while not buckets[s]:
            s -= 1
        top = buckets[s]
        for cls in degree_classes:
            if cls & top:
                break
        bit = cls & top
        bit &= -bit
        v = bit.bit_length() - 1
        buckets[s] ^= bit
        saved = buckets[:]
        uncoloured ^= bit
        near = adj[v] & uncoloured
        for c in range(min(k, used_max + 2)):
            block = blocked[c]
            if block & bit:
                continue
            # up one bucket each; v has a free colour, so s < k, and no
            # uncoloured vertex is above bucket s
            moved = near & ~block
            t = s
            while moved:
                up = buckets[t] & moved
                if up:
                    buckets[t] ^= up
                    buckets[t + 1] |= up
                    moved ^= up
                t -= 1
            blocked[c] = block | near
            colors[v] = c
            if solve(uncoloured, max(used_max, c)):
                return True
            blocked[c] = block
            buckets[:] = saved
        colors[v] = -1
        buckets[s] |= bit
        return False

    if solve(uncoloured, len(seed) - 1):
        return colors
    return None


def _deepen(
    adj: Sequence[int],
    live: int,
    lower: int,
    greedy: list[int],
    clique: frozenset[int],
    budget: Budget,
) -> tuple[int, tuple[int, ...]]:
    """The least k in [lower, greedy bound] for which G[live] is k-colorable.

    The greedy coloring is the witness when no k below its bound works. On
    budget exhaustion raises with the bracketing bounds proven so far.
    """
    upper = max(greedy) + 1
    try:
        for k in range(lower, upper):
            coloring = _k_colorable(adj, live, k, clique, budget)
            if coloring is not None:
                return k, tuple(coloring)
            lower = k + 1
    except (BudgetExceededError, RecursionError) as exc:  # one frame per vertex
        raise BudgetExceededError(
            budget_message("coloring search", exc),
            lower=lower,
            upper=upper,
            partial=tuple(greedy),
        ) from exc
    return upper, tuple(greedy)


def _chromatic_with_clique(
    g: Graph, clique: frozenset[int], budget: Budget
) -> tuple[int, tuple[int, ...]]:
    """chromatic_number for a caller that already holds a maximum clique."""
    if g.n == 0:
        return 0, ()
    if g.edge_count == 0:
        return 1, (0,) * g.n
    adj, live = g.adjacency_masks(), g.full_mask()
    return _deepen(adj, live, len(clique), _greedy_coloring(adj, live), clique, budget)


def chromatic_number(
    g: Graph, budget: Budget | None = None
) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a witness coloring.

    Iterative deepening from the clique lower bound up to the greedy upper
    bound. On budget exhaustion raises with the bracketing bounds proven so
    far in .lower / .upper.
    """
    budget = ensure_budget(budget)
    clique = clique_number(g, budget)[1] if g.edge_count else frozenset()
    return _chromatic_with_clique(g, clique, budget)


def _chromatic_above(adj: Sequence[int], live: int, floor: int, budget: Budget) -> int:
    """max(chi(G[live]), floor), settled the cheapest way that works.

    In order: at most floor vertices, or a greedy coloring with at most
    floor colors, settle it with no search; otherwise one floor-colorability
    test (when the clique number is at most floor) either settles it or
    starts the deepening above floor. A caller asking "is chi(G[live]) > t?"
    reads _chromatic_above(adj, live, t, budget) > t. On budget exhaustion
    the bounds bracket max(chi(G[live]), floor).
    """
    if live.bit_count() <= floor:
        return floor
    greedy = _greedy_coloring(adj, live)
    if max(greedy) < floor:
        return floor
    omega, clique = _clique(adj, live, budget)
    return _deepen(adj, live, max(omega, floor), greedy, clique, budget)[0]


def _chromatic_exceeds(
    g: Graph, live: int, t: int, budget: Budget | None = None
) -> bool:
    """Is chi(G[live]) > t, for a vertex mask live of g?"""
    return _chromatic_above(g.adjacency_masks(), live, t, ensure_budget(budget)) > t


def chi_rho(
    g: Graph, rho: int, budget: Budget | None = None, *, chi: int | None = None
) -> int:
    """Maximum chromatic number over all closed rho-balls; 0 for the null graph.

    Each distinct ball is asked only whether it beats the best value so far.
    When the caller passes chi, the chromatic number of g, the scan stops
    once that value reaches chi, or at a ball that is all of g, whose value
    is chi with no search. On budget exhaustion the bounds bracket chi_rho
    itself: lower is the best value proven so far, upper is chi when given,
    else the maximum degree plus one.
    """
    if rho < 1:
        raise InputError("radius must be at least 1")
    budget = ensure_budget(budget)
    adj, full = g.adjacency_masks(), g.full_mask()
    best = 0
    seen: set[int] = set()
    try:
        for v in g.vertices():
            if best == chi:
                break
            ball = mask_of(g.ball(v, rho, closed=True))
            if ball in seen:
                continue
            if ball == full and chi is not None:
                return chi
            seen.add(ball)
            best = _chromatic_above(adj, ball, best, budget)
    except BudgetExceededError as exc:
        if chi is None:
            chi = 1 + max(g.degree(v) for v in g.vertices())
        raise BudgetExceededError(
            "local chromatic number budget exceeded",
            lower=max(best, exc.lower),
            upper=chi,
        ) from exc
    return best

