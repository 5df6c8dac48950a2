"""Exact clique number, chromatic number, and local chromatic number.

All three searches are exact and budgeted: when the node budget trips they
raise BudgetExceededError carrying the best bracketing bounds found so far,
never a silent approximation. Branching ties always break toward the lowest
vertex index so witnesses are reproducible.
"""

from __future__ import annotations

from .budget import Budget, ensure_budget
from .errors import BudgetExceededError, InputError, budget_message
from .graph import Graph, bits


def clique_number(g: Graph, budget: Budget | None = None) -> tuple[int, frozenset[int]]:
    """Exact maximum clique size with a witness clique.

    Tomita-style branch and bound: pivot on the candidate vertex covering the
    most candidates, color-free bound |R| + |P|.
    """
    budget = ensure_budget(budget)
    adj = g.adjacency_masks()
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
        expand(0, 0, g.full_mask())
    except (BudgetExceededError, RecursionError) as exc:  # one frame per clique vertex
        raise BudgetExceededError(
            budget_message("clique search", exc),
            lower=best_size,
            upper=g.n,
            partial=frozenset(bits(best_mask)),
        ) from exc
    return best_size, frozenset(bits(best_mask))


def _greedy_coloring(g: Graph) -> list[int]:
    """Greedy coloring in descending-degree order; upper bound seed."""
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    adj = g.adjacency_masks()
    colors = [-1] * g.n
    for v in order:
        used = 0
        for w in bits(adj[v]):
            if colors[w] >= 0:
                used |= 1 << colors[w]
        c = 0
        while (used >> c) & 1:
            c += 1
        colors[v] = c
    return colors


def _k_colorable(
    g: Graph, k: int, clique: frozenset[int], budget: Budget
) -> list[int] | None:
    """Exact k-colorability by DSATUR-ordered backtracking.

    A maximum clique is pre-colored to break color symmetry. Returns a proper
    coloring with colors 0..k-1, or None.
    """
    n = g.n
    adj = g.adjacency_masks()
    colors = [-1] * n
    forbidden = [0] * n  # bitmask of colors blocked by colored neighbors
    full_k = (1 << k) - 1
    seed = sorted(clique)
    if len(seed) > k:
        return None
    for c, v in enumerate(seed):
        colors[v] = c
        for w in bits(adj[v]):
            forbidden[w] |= 1 << c

    def pick() -> int:
        # highest saturation, then highest degree, then lowest index
        best, key = -1, None
        for v in range(n):
            if colors[v] >= 0:
                continue
            cand = (
                -(forbidden[v] & full_k).bit_count(),
                -adj[v].bit_count(),
                v,
            )
            if key is None or cand < key:
                best, key = v, cand
        return best

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        touched = []
        bit = 1 << c
        for w in bits(adj[v]):
            if colors[w] < 0 and not forbidden[w] & bit:
                forbidden[w] |= bit
                touched.append(w)
        return touched

    def unassign(v: int, c: int, touched: list[int]) -> None:
        colors[v] = -1
        bit = 1 << c
        for w in touched:
            forbidden[w] &= ~bit

    def solve(remaining: int, used_max: int) -> bool:
        # used_max: the highest color in use; new-color symmetry allows at
        # most one color above it
        if remaining == 0:
            return True
        budget.tick()
        v = pick()
        avail = full_k & ~forbidden[v]
        for c in bits(avail):
            if c > used_max + 1:
                break
            touched = assign(v, c)
            if solve(remaining - 1, max(used_max, c)):
                return True
            unassign(v, c, touched)
        return False

    if solve(n - len(seed), len(seed) - 1):
        return colors
    return None


def _deepen(
    g: Graph, lower: int, greedy: list[int], clique: frozenset[int], budget: Budget
) -> tuple[int, tuple[int, ...]]:
    """The least k in [lower, greedy bound] for which g is k-colorable.

    The greedy coloring is the witness when no k below its bound works. On
    budget exhaustion raises with the bracketing bounds proven so far.
    """
    upper = max(greedy) + 1
    try:
        for k in range(lower, upper):
            coloring = _k_colorable(g, k, clique, budget)
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
    return _deepen(g, len(clique), _greedy_coloring(g), clique, budget)


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


def _chromatic_above(g: Graph, floor: int, budget: Budget) -> int:
    """max(chi(g), floor), settled the cheapest way that works.

    In order: at most floor vertices, or a greedy coloring with at most
    floor colors, settle it with no search; otherwise one floor-colorability
    test (when the clique number is at most floor) either settles it or
    starts the deepening above floor. A caller asking "is chi > t?" reads
    _chromatic_above(g, t, budget) > t. On budget exhaustion the bounds
    bracket max(chi(g), floor).
    """
    if g.n <= floor:
        return floor
    greedy = _greedy_coloring(g)
    if max(greedy) < floor:
        return floor
    omega, clique = clique_number(g, budget)
    return _deepen(g, max(omega, floor), greedy, clique, budget)[0]


def _chromatic_exceeds(
    g: Graph, vertices: frozenset[int], t: int, budget: Budget | None = None
) -> bool:
    """Is chi(G[vertices]) > t?"""
    sub, _ = g.induced_subgraph(vertices)
    return _chromatic_above(sub, t, ensure_budget(budget)) > t


def chi_rho(
    g: Graph, rho: int, budget: Budget | None = None, *, chi: int | None = None
) -> int:
    """Maximum chromatic number over all closed rho-balls; 0 for the null graph.

    Each distinct ball is asked only whether it beats the best value so far,
    and the scan stops once that value reaches chi, the chromatic number of
    g, when the caller passes it. On budget exhaustion the bounds bracket
    chi_rho itself: lower is the best value proven so far, upper is chi when
    given, else the maximum degree plus one.
    """
    if rho < 1:
        raise InputError("radius must be at least 1")
    budget = ensure_budget(budget)
    best = 0
    seen: set[frozenset[int]] = set()
    try:
        for v in g.vertices():
            if best == chi:
                break
            ball = g.ball(v, rho, closed=True)
            if ball in seen:
                continue
            seen.add(ball)
            sub, _ = g.induced_subgraph(ball)
            best = _chromatic_above(sub, best, budget)
    except BudgetExceededError as exc:
        if chi is None:
            chi = 1 + max(g.degree(v) for v in g.vertices())
        raise BudgetExceededError(
            "local chromatic number budget exceeded",
            lower=max(best, exc.lower),
            upper=chi,
        ) from exc
    return best

