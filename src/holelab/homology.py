"""Independence-complex invariants: Euler characteristics, Betti numbers,
stable-set parity counts, and k-balancedness.

The independence complex of a graph has the stable sets of cardinality n+1
as its n-faces. The empty stable set counts as an even stable set (this is
what makes a clique K_m have exactly one even stable set), which ties
k-balancedness to the reduced Euler characteristic; both the reduced and
unreduced readings are reported side by side.

Every answer is exact. Betti numbers come from ranks of the simplicial
boundary maps over the rationals, computed by fraction-free elimination on
sparse integer rows: no floating point and no modular reduction, so torsion
in the integral homology cannot lower a rank. Exhaustive k-balance reads
S_even - S_odd = I(S; -1), the independence polynomial at -1, for every
vertex subset S from one table filled by the deletion recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Iterable

from .budget import Budget, ensure_budget
from .errors import InputError
from .graph import Graph, bits, mask_of


@dataclass(frozen=True)
class BettiReport:
    """Invariants of one graph's independence complex.

    face_counts[n] is the number of n-faces, i.e. stable sets of size n+1.
    Betti numbers use the unreduced convention: betti[0] is the number of
    connected components of the complex.
    """

    face_counts: tuple[int, ...]
    euler_unreduced: int
    euler_reduced: int
    betti: tuple[int, ...] = ()
    total_betti: int | None = None
    parity: tuple[int, int] | None = None  # (S_even including empty, S_odd)


@dataclass(frozen=True)
class BalanceVerdict:
    """Outcome of a k-balancedness check."""

    k: int
    balanced: bool
    violation: frozenset[int] | None
    exhaustive: bool
    imbalance: int | None = None  # |S_even - S_odd| of the violation, if any


def independence_parity(
    g: Graph, budget: Budget | None = None
) -> tuple[int, int]:
    """Exact counts (S_even, S_odd) of stable sets by parity of cardinality.

    The empty set counts as even. Uses the independence-polynomial deletion
    recursion I(G;x) = I(G-v;x) + x*I(G-N[v];x) at x = -1 with memoization
    on the live vertex mask, branching on a maximum-degree vertex. Returns
    counts, recovered from the total stable-set count and the signed sum.
    """
    budget = ensure_budget(budget)
    adj = g.adjacency_masks()
    memo_signed: dict[int, int] = {}
    memo_total: dict[int, int] = {}

    def solve(mask: int) -> tuple[int, int]:
        """(I(mask; -1), number of stable sets in mask)."""
        if not mask:
            return 1, 1
        if mask in memo_signed:
            return memo_signed[mask], memo_total[mask]
        budget.tick()
        # branch on a maximum-degree live vertex; isolated vertices would
        # each double the count, handled by the same recursion cheaply
        v, best = -1, -1
        for u in bits(mask):
            d = (adj[u] & mask).bit_count()
            if d > best:
                v, best = u, d
        s1, t1 = solve(mask & ~(1 << v))
        s2, t2 = solve(mask & ~(adj[v] | (1 << v)))
        signed, total = s1 - s2, t1 + t2
        memo_signed[mask] = signed
        memo_total[mask] = total
        return signed, total

    signed, total = solve(g.full_mask())
    # signed = S_even - S_odd, total = S_even + S_odd
    s_even = (total + signed) // 2
    return s_even, total - s_even


def _stable_sets_by_size(g: Graph, budget: Budget) -> list[list[tuple[int, ...]]]:
    """Nonempty stable sets grouped by cardinality, lexicographic within."""
    adj = g.adjacency_masks()
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(g.n + 1)]
    stack: list[tuple[tuple[int, ...], int]] = [((), g.full_mask())]
    while stack:
        prefix, allowed = stack.pop()
        for v in bits(allowed):
            budget.tick()
            face = prefix + (v,)
            by_size[len(face)].append(face)
            higher = allowed & ~((1 << (v + 1)) - 1)
            nxt = higher & ~adj[v]
            if nxt:
                stack.append((face, nxt))
    for group in by_size:
        group.sort()
    return by_size


def euler_characteristic(g: Graph, budget: Budget | None = None) -> BettiReport:
    """Face counts and both Euler characteristics of the independence complex."""
    budget = ensure_budget(budget)
    by_size = _stable_sets_by_size(g, budget)
    counts = []
    for size in range(1, g.n + 1):
        if by_size[size]:
            counts.append(len(by_size[size]))
        else:
            break
    unreduced = sum((-1) ** n * c for n, c in enumerate(counts))
    return BettiReport(
        face_counts=tuple(counts),
        euler_unreduced=unreduced,
        euler_reduced=unreduced - 1,
    )


def _matrix_rank(rows: Iterable[dict[int, int]]) -> int:
    """Exact rank over the rationals of a sparse integer matrix.

    Each row maps column -> nonzero integer entry. Rows are reduced one at a
    time against pivot rows keyed by their leading (smallest) column,
    fraction-free: row <- p*row - a*pivot, where p is the pivot's leading
    entry and a the row's, then the row is divided by the gcd of its
    entries; a pivot of +-1 needs no scaling. Scaling by a nonzero integer
    and dividing by a common factor keep the rational row space, and the
    arithmetic is on unbounded integers, so the rank is the rank over Q
    exactly; nothing is reduced modulo a prime, where torsion would show.
    The input rows are not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, p = row[lead], pivot[lead]
            unit = p == 1 or p == -1
            if unit:
                a *= p  # row - (a / p) * pivot, as 1 / p == p
            else:
                row = {c: p * x for c, x in row.items()}
            for c, x in pivot.items():
                y = row.get(c, 0) - a * x
                if y:
                    row[c] = y
                else:
                    del row[c]
            if not unit and row:
                common = gcd(*row.values())
                if common > 1:
                    row = {c: x // common for c, x in row.items()}
    return len(pivots)


def betti_numbers(g: Graph, budget: Budget | None = None) -> BettiReport:
    """Rational Betti numbers of the independence complex, unreduced.

    b_n = dim ker(d_n) - dim im(d_{n+1}) with simplicial boundary maps over
    the rationals; b_0 counts the complex's connected components. Each
    boundary map is built as sparse +-1 integer rows and its rank taken by
    `_matrix_rank`, which is exact over Q, so the Betti numbers are the
    rational ones even when the integral homology has torsion. The parity
    counts are read off the face counts: S_even = 1 + f_1 + f_3 + ... and
    S_odd = f_0 + f_2 + ..., with f_n the number of n-faces.
    """
    budget = ensure_budget(budget)
    by_size = _stable_sets_by_size(g, budget)
    faces: list[list[tuple[int, ...]]] = []
    for size in range(1, g.n + 1):
        if by_size[size]:
            faces.append(by_size[size])
        else:
            break
    counts = tuple(len(f) for f in faces)
    unreduced = sum((-1) ** n * c for n, c in enumerate(counts))
    top = len(faces)  # dimensions 0 .. top-1 present
    # boundary_rank[n] = rank of d_n: C_n -> C_{n-1}; d_0 = 0
    boundary_rank = [0] * (top + 1)
    for n in range(1, top):
        index = {face: i for i, face in enumerate(faces[n - 1])}
        rows = []
        for face in faces[n]:
            budget.tick()
            rows.append(
                {
                    index[face[:j] + face[j + 1 :]]: -1 if j & 1 else 1
                    for j in range(len(face))
                }
            )
        boundary_rank[n] = _matrix_rank(rows)
    betti = []
    for n in range(top):
        kernel_dim = counts[n] - boundary_rank[n]
        betti.append(kernel_dim - boundary_rank[n + 1])
    while betti and betti[-1] == 0:
        betti.pop()
    return BettiReport(
        face_counts=counts,
        euler_unreduced=unreduced,
        euler_reduced=unreduced - 1,
        betti=tuple(betti),
        total_betti=sum(betti),
        parity=(1 + sum(counts[1::2]), sum(counts[0::2])),
    )


def _signed_counts(g: Graph) -> list[int]:
    """I(S; -1) = S_even - S_odd of the subgraph induced on every mask S.

    Fills the table by the deletion recurrence
    I(S; -1) = I(S - v; -1) - I(S - N[v]; -1) with v the highest vertex of
    S, so the masks below 2^(v+1) are one pass over the masks below 2^v.
    """
    table = [1]
    for v, nbrs in enumerate(g.adjacency_masks()):
        keep = ~nbrs
        table += [table[s] - table[s & keep] for s in range(1 << v)]
    return table


def is_k_balanced(
    g: Graph,
    k: int,
    subgraph_budget: int = 1 << 20,
    seed: int = 0,
    budget: Budget | None = None,
) -> BalanceVerdict:
    """Does every induced subgraph have |S_even - S_odd| <= k?

    Exhaustive over all vertex subsets when 2^n fits in subgraph_budget:
    the budget is charged 2^n nodes up front, one table holds
    S_even - S_odd = I(S; -1) for every subset S (see `_signed_counts`),
    and, if any entry exceeds k, subsets are scanned by size,
    lexicographically within a size, until the first violation. The table is integer arithmetic on exact counts,
    so the verdict is exact. Otherwise checks all subsets up to a size cap
    plus seeded random subsets, each through its induced subgraph and
    `independence_parity`, and marks the verdict as non-exhaustive. A
    returned violation witness is always definite.
    """
    if k < 0:
        raise InputError("balance threshold must be nonnegative")
    budget = ensure_budget(budget)

    def imbalance(subset: Iterable[int]) -> tuple[int, frozenset[int]]:
        sub, keep = g.induced_subgraph(subset)
        e, o = independence_parity(sub, budget)
        return abs(e - o), frozenset(keep)

    if (1 << g.n) <= subgraph_budget:
        budget.tick(1 << g.n)
        signed = _signed_counts(g)
        if max(map(abs, signed)) <= k:
            return BalanceVerdict(k, True, None, True)
        for size in range(g.n + 1):
            for subset in combinations(range(g.n), size):
                diff = abs(signed[mask_of(subset)])
                if diff > k:
                    return BalanceVerdict(k, False, frozenset(subset), True, diff)
        return BalanceVerdict(k, True, None, True)
    # sampled mode: small subsets exhaustively, then random ones
    import random

    checked = 0
    cap = 0
    while cap < g.n and checked + comb(g.n, cap + 1) <= subgraph_budget // 2:
        cap += 1
        checked += comb(g.n, cap)
    for size in range(cap + 1):
        for subset in combinations(range(g.n), size):
            diff, keep = imbalance(subset)
            if diff > k:
                return BalanceVerdict(k, False, keep, False, diff)
    rng = random.Random(seed)
    for _ in range(max(subgraph_budget // 2, 1)):
        subset = [v for v in range(g.n) if rng.random() < 0.5]
        diff, keep = imbalance(subset)
        if diff > k:
            return BalanceVerdict(k, False, keep, False, diff)
    return BalanceVerdict(k, True, None, False)

