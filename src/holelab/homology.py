"""Independence-complex invariants: Euler characteristics, Betti numbers,
stable-set parity counts, and k-balancedness.

The independence complex Ind(G) of a graph has the stable sets of
cardinality n+1 as its n-faces. The empty stable set counts as an even
stable set (this is what makes a clique K_m have exactly one even stable
set), which ties k-balancedness to the reduced Euler characteristic; both
the reduced and unreduced readings are reported side by side.

Every answer is exact, and no face is listed unless a rank needs it.

- Counting. One memoised deletion recursion on live-vertex masks,
  I(G) = I(G - v) + x*I(G - N[v]) branching on a maximum-degree vertex,
  and I(G) = I(A) * I(B) when G is the disjoint union of A and B, gives
  the independence polynomial. Its coefficients are the face counts; the
  Euler characteristics and the parity counts are read from them. A
  polynomial is one integer with a fixed-width field per coefficient, so
  each step of the recursion is one shift and one add, or one product.
- Folding. If N(u) is a subset of N(v) for u != v, Ind(G) and Ind(G - v)
  are homotopy equivalent (Engstroem, "Independence complexes of claw-free
  graphs", 2008). `betti_numbers` removes such v while one exists (an
  isolated vertex folds every other vertex away: a cone), splits what is
  left into connected components, whose complexes form a join, and lists
  faces only for those components. The face counts still come from the
  unfolded graph.
- Ranks. Betti numbers come from ranks of the simplicial boundary maps over
  the rationals, by fraction-free elimination on sparse integer rows: no
  floating point and no modular reduction, so torsion in the integral
  homology cannot lower a rank. Ranks are taken from the top dimension
  down, and a face that leads a pivot row one dimension up is left out
  ("clearing"; see `_reduced_betti`).
- Budget. Each node of the recursion charges one node plus one per
  `BITS_PER_NODE` bits of the polynomial it keeps, and each fold pass one
  node per pair of live vertices. Before the first face is listed, the
  folded components' face total, read from the same recursion, is charged
  at `FACE_NODES` nodes per face: a listed face, its boundary row and its
  share of the index and the pivots take about 200 bytes, so a node stands
  for about 20 bytes and the default budget of 10^8 nodes keeps a listing
  within about 2 GB. Elimination charges each row once, one node plus the
  pivot entries it touched, so fill-in is paid for as it is made. A graph
  too large for its budget raises BudgetExceededError, exit 3 on the
  command line, before the memory is taken. So does a graph whose
  recursion would pass the interpreter's recursion limit: it takes one
  frame per removed vertex, so only graphs of about a thousand vertices.

k-balance reads S_even - S_odd = I(S; -1) for every vertex subset S from
one table filled by the deletion recurrence, charged 2^n nodes before it is
built; the walk for a witness charges each subset size before it scans it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Callable, Iterable

from .budget import Budget, ensure_budget
from .errors import BudgetExceededError, InputError, budget_message
from .graph import Graph, bits, mask_of, reach

# the budget rates of the module docstring: nodes per listed face, and bits
# of a kept polynomial per node, both at about 20 bytes held per node
FACE_NODES = 10
BITS_PER_NODE = 160
# the recursion looks for components only in masks of more vertices than
# this: on the graphs of at most 7 vertices the search costs more than the
# products save, and on sparse graphs of 40 to 60 vertices it cuts the memo
# by a factor of 8 to over 10^4
SPLIT_ABOVE = 7


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
    imbalance: int | None = None  # |S_even - S_odd| of the violation, if any


def _polynomials(
    adj: tuple[int, ...], budget: Budget
) -> Callable[[int], list[int]]:
    """coefficients(mask): the independence polynomial of the subgraph
    induced on a vertex mask, lowest degree first, from one memo.

    A polynomial is packed into one integer with a field of width n+1 bits
    per coefficient, n = len(adj); no coefficient of a subgraph on k <= n
    vertices reaches 2^k, so fields never carry and packed addition,
    shifting and multiplication are those of the polynomials.
    """
    width = len(adj) + 1
    one_plus_x = 1 + (1 << width)
    memo: dict[int, int] = {}

    def solve(mask: int) -> int:
        packed = memo.get(mask)
        if packed is not None:
            return packed
        parts = _components(adj, mask) if mask.bit_count() > SPLIT_ABOVE else ()
        if len(parts) > 1:  # I of a disjoint union is the product
            packed = 1
            for part in parts:
                packed *= solve(part)
        else:
            v, best, rest = -1, 0, mask
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                d = (adj[u] & mask).bit_count()
                if d > best:
                    v, best = u, d
            if best:
                packed = solve(mask & ~(1 << v)) + (
                    solve(mask & ~(adj[v] | (1 << v))) << width
                )
            else:  # edgeless: (1 + x)^|mask|
                packed = one_plus_x ** mask.bit_count()
        budget.tick(1 + packed.bit_length() // BITS_PER_NODE)
        memo[mask] = packed
        return packed

    def coefficients(mask: int) -> list[int]:
        try:
            packed = solve(mask)
        except RecursionError as exc:  # one frame per vertex removed, as on a long path
            raise BudgetExceededError(
                budget_message(f"counting on {mask.bit_count()} vertices", exc)
            ) from None
        field = (1 << width) - 1
        out = []
        while packed:
            out.append(packed & field)
            packed >>= width
        return out

    return coefficients


def independence_polynomial(
    g: Graph, budget: Budget | None = None
) -> tuple[int, ...]:
    """Coefficients of I(G; x) = sum over stable sets S of x^|S|.

    coefficient k is the number of stable sets of size k; the constant term
    1 is the empty set. Read from the memoised deletion recursion on live
    vertex masks (see `_polynomials`); no stable set is listed.
    """
    budget = ensure_budget(budget)
    return tuple(_polynomials(g.adjacency_masks(), budget)(g.full_mask()))


def _parity(coefficients: list[int] | tuple[int, ...]) -> tuple[int, int]:
    return sum(coefficients[0::2]), sum(coefficients[1::2])


def independence_parity(
    g: Graph, budget: Budget | None = None
) -> tuple[int, int]:
    """Exact counts (S_even, S_odd) of stable sets by parity of cardinality.

    The empty set counts as even. Read from the independence polynomial:
    S_even sums its even coefficients and S_odd its odd ones.
    """
    return _parity(independence_polynomial(g, budget))


def _report(coefficients: list[int] | tuple[int, ...], **rest) -> BettiReport:
    counts = tuple(coefficients[1:])
    unreduced = sum(counts[0::2]) - sum(counts[1::2])
    return BettiReport(
        face_counts=counts,
        euler_unreduced=unreduced,
        euler_reduced=unreduced - 1,
        **rest,
    )


def euler_characteristic(g: Graph, budget: Budget | None = None) -> BettiReport:
    """Face counts and both Euler characteristics of the independence
    complex, counted by the independence polynomial; nothing is listed."""
    return _report(independence_polynomial(g, budget))


def _pivot_columns(
    rows: Iterable[dict[int, int]], budget: Budget | None = None
) -> set[int]:
    """The pivot columns of a sparse integer matrix over the rationals; their
    number is its rank.

    Each row maps column -> nonzero integer entry. Rows are reduced one at a
    time against pivot rows keyed by their leading (smallest) column,
    fraction-free: row <- p*row - a*pivot, where p is the pivot's leading
    entry and a the row's, then the row is divided by the gcd of its
    entries; a pivot of +-1 needs no scaling. Scaling by a nonzero integer
    and dividing by a common factor keep the rational row space, and the
    arithmetic is on unbounded integers, so the rank is the rank over Q
    exactly; nothing is reduced modulo a prime, where torsion would show.
    The input rows are not modified. Each row charges the budget once, one
    node plus one per pivot entry its elimination touched, so fill-in is
    paid for as it is made.
    """
    budget = ensure_budget(budget)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        touched = 1
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            touched += len(pivot)
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
        budget.tick(touched)
    return set(pivots)


def _fold(adj: tuple[int, ...], live: int, budget: Budget) -> int:
    """Remove v from live while some other live u has N(u) inside N(v);
    the independence complex keeps its homotopy type at every step. Each
    pass over the live pairs charges one node per pair."""
    folded = True
    while folded:
        folded = False
        budget.tick(live.bit_count() ** 2)
        for v in bits(live):
            nv = adj[v] & live
            for u in bits(live & ~(1 << v)):
                if not adj[u] & live & ~nv:
                    live &= ~(1 << v)
                    folded = True
                    break
    return live


def _components(adj: tuple[int, ...], live: int) -> list[int]:
    """The vertex masks of the connected components of the live graph."""
    out = []
    while live:
        comp = reach(adj, live & -live, live)
        out.append(comp)
        live &= ~comp
    return out


def _faces(adj: tuple[int, ...], live: int) -> list[list[int]]:
    """The faces of Ind(live) as vertex masks, grouped by dimension."""
    by_dim: list[list[int]] = []
    stack = [(0, live, 0)]
    while stack:
        face, allowed, dim = stack.pop()
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            if dim == len(by_dim):
                by_dim.append([])
            by_dim[dim].append(face | low)
            nxt = allowed & ~adj[low.bit_length() - 1]
            if nxt:
                stack.append((face | low, nxt, dim + 1))
    return by_dim


def _reduced_betti(faces: list[list[int]], budget: Budget) -> list[int]:
    """Reduced rational Betti numbers of a nonempty complex from its faces
    by dimension, index i of faces[n] being column i of d_(n+1).

    Ranks are taken from the top dimension down, and d_n leaves out the row
    of every n-face that is a pivot column of d_(n+1) ("clearing"): the
    pivot row r led by face t is a boundary, so d_n r = 0 writes d_n t as
    a combination of d_n of faces after t, and by induction downwards from
    the last face every such row lies in the span of the rows kept. The
    rank is unchanged, and the rows that would only reduce to zero, the
    costly ones, are never built.
    """
    # rank[n] = rank of d_n: C_n -> C_(n-1); d_0 = 0
    rank = [0] * (len(faces) + 1)
    cleared: set[int] = set()
    for n in range(len(faces) - 1, 0, -1):
        index = {face: i for i, face in enumerate(faces[n - 1])}
        rows = []
        for i, face in enumerate(faces[n]):
            if i in cleared:
                continue
            row, sign, rest = {}, 1, face
            while rest:
                low = rest & -rest
                rest ^= low
                row[index[face ^ low]] = sign
                sign = -sign
            rows.append(row)
        cleared = _pivot_columns(rows, budget)
        rank[n] = len(cleared)
    betti = [len(faces[n]) - rank[n] - rank[n + 1] for n in range(len(faces))]
    betti[0] -= 1
    return betti


def betti_numbers(g: Graph, budget: Budget | None = None) -> BettiReport:
    """Rational Betti numbers of the independence complex, unreduced.

    b_n = dim ker(d_n) - dim im(d_{n+1}) with simplicial boundary maps over
    the rationals; b_0 counts the complex's connected components. The graph
    is folded first and split into components (see the module docstring);
    Ind of a disjoint union is the join of the parts' complexes, so over Q
    its reduced Poincare polynomial is t^(c-1) times the product of the c
    components' ones. Each component's boundary maps are sparse +-1 integer
    rows whose ranks `_pivot_columns` takes exactly over Q, so the Betti
    numbers are the rational ones even when the integral homology has
    torsion. Face counts, Euler characteristics and the parity counts
    S_even = 1 + f_1 + f_3 + ... and S_odd = f_0 + f_2 + ... come from the
    unfolded graph's independence polynomial.
    """
    budget = ensure_budget(budget)
    adj = g.adjacency_masks()
    full = g.full_mask()
    coefficients = _polynomials(adj, budget)
    whole = coefficients(full)
    betti: list[int] = []
    if g.n:
        parts = _components(adj, _fold(adj, full, budget))
        budget.tick(FACE_NODES * sum(sum(coefficients(c)) - 1 for c in parts))
        reduced = [0] * (len(parts) - 1) + [1]  # t^(c-1)
        for part in parts:
            factor = _reduced_betti(_faces(adj, part), budget)
            product = [0] * (len(reduced) + len(factor) - 1)
            for i, x in enumerate(reduced):
                if x:
                    for j, y in enumerate(factor):
                        product[i + j] += x * y
            reduced = product
        betti = reduced
        betti[0] += 1  # at least 1, so trimming stops there
        while betti[-1] == 0:
            betti.pop()
    return _report(
        whole,
        betti=tuple(betti),
        total_betti=sum(betti),
        parity=_parity(whole),
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


def is_k_balanced(g: Graph, k: int, budget: Budget | None = None) -> BalanceVerdict:
    """Does every induced subgraph have |S_even - S_odd| <= k?

    Exhaustive over all vertex subsets: the budget is charged 2^n nodes up
    front, so a graph past it raises BudgetExceededError before anything
    is allocated. One table then holds S_even - S_odd = I(S; -1) for every
    subset S (see `_signed_counts`) and, if any entry exceeds k, subsets
    are scanned by size, lexicographically within a size, until the first
    violation, each size charged its number of subsets before its scan.
    The table is integer arithmetic on exact counts, so the verdict is
    exact.
    """
    if k < 0:
        raise InputError("balance threshold must be nonnegative")
    budget = ensure_budget(budget)
    budget.tick(1 << g.n)
    signed = _signed_counts(g)
    if max(map(abs, signed)) <= k:
        return BalanceVerdict(k, True, None)
    for size in range(g.n + 1):
        budget.tick(comb(g.n, size))
        for subset in combinations(range(g.n), size):
            diff = abs(signed[mask_of(subset)])
            if diff > k:
                return BalanceVerdict(k, False, frozenset(subset), diff)
    return BalanceVerdict(k, True, None)
