"""Pure-Python hole-search kernel.

Enumerates chordless cycles of length >= 4 exactly once up to rotation and
reflection: each cycle is reported anchored at its minimum vertex, with the
smaller of the anchor's two cycle-neighbors listed second.

The search is a DFS over induced paths rooted at the anchor, extending only
through vertices greater than the anchor. When an upper length bound is
given, each extension is pruned with a completion-feasibility test on the
residual graph, in two layers:

1. A bitset BFS from the path's end, at most `hi` levels deep. If the
   anchor is out of reach, no return path is short enough; if it is first
   reached at a depth that is itself an admissible length, the shortest
   path is a return path. Either way the answer is settled.
2. Otherwise degree-2 chains are contracted to weighted superedges,
   odd-weight superedges are treated as use-at-most-once resources, and a
   shortest-path sweep over (branch vertex, odd-superedge subset, weight
   residue) states decides whether a return path with an admissible total
   length can still exist.

Layer 1 only answers where the sweep of layer 2 answers the same, so the
prune's verdict does not depend on which layer gave it. The test only ever
rejects impossible completions, so pruning never changes the emitted set of
holes, and the compiled kernel, which runs the sweep on every call, agrees
with this one hole for hole.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Sequence

from ..errors import BudgetExceededError

IMPLEMENTATION = "pure"

MAX_TRACKED_ODD = 6
MAX_RESIDUE_MOD = 64


def _completion_feasible(
    adj: Sequence[int],
    allowed: int,
    start: int,
    anchor: int,
    lo: int,
    hi: int,
) -> bool:
    """Can some simple path from start to anchor with length in [lo, hi]
    (lo >= 2) exist within `allowed`?

    Layer 1 is a BFS over the residual graph `allowed | start | anchor`,
    at most hi levels deep. Every walk the sweep of _sweep_feasible counts
    is a walk in the residual graph, so an anchor beyond hi levels means the
    sweep rejects too. An anchor first reached at depth d >= lo (so d >= 2:
    the direct start-anchor edge never settles a call) gives a shortest
    path of admissible length; the sweep finds that state at distance d,
    since no walk is shorter, and accepts. Only calls that reach the anchor
    at a depth below lo go on to the sweep.
    """
    live = allowed | (1 << start) | (1 << anchor)
    anchor_bit = 1 << anchor
    seen = frontier = 1 << start
    for depth in range(1, hi + 1):
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & live & ~seen
        if frontier & anchor_bit:
            if depth >= lo:
                return True
            return _sweep_feasible(adj, live, start, anchor, lo, hi)
        if not frontier:
            return False
        seen |= frontier
    return False


def _sweep_feasible(
    adj: Sequence[int],
    live: int,
    start: int,
    anchor: int,
    lo: int,
    hi: int,
) -> bool:
    """The full test on the residual graph `live`, which holds start and
    anchor: is some walk weight in [lo, hi] achievable in its contraction?

    Maximal chains of degree-2 vertices collapse into superedges carrying
    their lengths. A simple path traverses any chain wholly or not at all,
    so path lengths in the residual graph are exactly walk weights in the
    contraction that use each odd superedge at most once and revisit no
    chain. The state sweep relaxes "revisit no chain" for even superedges
    only, which can only overestimate what is achievable, keeping the prune
    sound. Only the first MAX_TRACKED_ODD odd superedges, in the order
    listed below, are tracked; the others flip parity but are reusable.

    The sweep computes the shortest distance d of every state (branch
    vertex, subset of tracked superedges used, d mod modulus) up to hi and
    accepts when an anchor state at d >= 2 has an admissible length r >= d
    with r = d (mod modulus). The verdict depends only on those distances,
    so they are found level by level (Dial's algorithm), with the vertices
    of a level held as one bitmask per subset.
    """
    start_bit = 1 << start
    branch = start_bit | (1 << anchor)
    # scanning the binary digits beats peeling low bits off a wide mask
    for v, digit in enumerate(bin(live)[:1:-1]):
        if digit == "1" and (adj[v] & live).bit_count() != 2:
            branch |= 1 << v
    # Superedges are listed from their lower end u, in order of u and then
    # of the neighbour of u they start with. A chain is walked once, from
    # its lower end, and its last interior vertex is marked so that the
    # other end skips it. moves[v] maps weight << MAX_TRACKED_ODD | bit,
    # where bit is the superedge's subset bit (0 if untracked or even), to
    # the mask of the superedges' other ends.
    moves: dict[int, dict[int, int]] = {}
    n_tracked = 0
    g = 0
    walked = 0
    rest = branch
    while rest:
        u_bit = rest & -rest
        rest ^= u_bit
        u = u_bit.bit_length() - 1
        moves_u = moves.setdefault(u, {})
        nbrs = adj[u] & live & ~walked
        while nbrs:
            w_bit = nbrs & -nbrs
            nbrs ^= w_bit
            prev_bit, cur_bit, weight = u_bit, w_bit, 1
            if w_bit & branch:
                if w_bit < u_bit:
                    continue
            else:
                while not cur_bit & branch:
                    nxt = adj[cur_bit.bit_length() - 1] & live & ~prev_bit
                    prev_bit, cur_bit = cur_bit, nxt & -nxt
                    weight += 1
                if cur_bit == u_bit:
                    nbrs &= ~prev_bit  # a chain from u back to u: no superedge
                    continue
                walked |= prev_bit
            bit = 0
            if not weight & 1:
                g = gcd(g, weight)
            elif n_tracked < MAX_TRACKED_ODD:
                bit = 1 << n_tracked
                n_tracked += 1
            key = weight << MAX_TRACKED_ODD | bit
            moves_u[key] = moves_u.get(key, 0) | cur_bit
            moves_v = moves.setdefault(cur_bit.bit_length() - 1, {})
            moves_v[key] = moves_v.get(key, 0) | u_bit
    modulus = 2 * g if 0 < 2 * g <= MAX_RESIDUE_MOD else 2
    bit_mask = (1 << MAX_TRACKED_ODD) - 1
    anchor_bit = 1 << anchor
    # levels[d][subset]: vertices reached at distance d with that subset;
    # settled[subset, residue]: vertices whose distance is already final
    levels: list[dict[int, int]] = [{} for _ in range(hi + 1)]
    levels[0][0] = start_bit
    settled: dict[tuple[int, int], int] = {}
    for d in range(hi + 1):
        residue = d % modulus
        # is there an r in [lo, hi] with r >= d and r = d (mod modulus)?
        admissible = d >= 2 and (d >= lo or lo + (d - lo) % modulus <= hi)
        for subset, mask in levels[d].items():
            done = settled.get((subset, residue), 0)
            mask &= ~done
            if not mask:
                continue
            if admissible and mask & anchor_bit:
                return True
            settled[subset, residue] = done | mask
            while mask:
                v_bit = mask & -mask
                mask ^= v_bit
                for key, ends in moves[v_bit.bit_length() - 1].items():
                    nd = d + (key >> MAX_TRACKED_ODD)
                    bit = key & bit_mask
                    if nd > hi or subset & bit:
                        continue
                    level = levels[nd]
                    nsubset = subset | bit
                    level[nsubset] = level.get(nsubset, 0) | ends
    return False


def find_holes(
    adj: Sequence[int],
    n: int,
    min_len: int = 4,
    max_len: int | None = None,
    budget: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield each hole of the graph once, canonically oriented.

    adj: per-vertex neighbor bitmasks. budget: maximum number of DFS
    extensions before raising BudgetExceededError (partial results already
    yielded remain valid).
    """
    if min_len < 4:
        min_len = 4
    if max_len is not None and max_len < min_len:
        return
    nodes = 0
    for anchor in range(n):
        anchor_bit = 1 << anchor
        gt_mask = ((1 << n) - 1) & ~((anchor_bit << 1) - 1)
        adj_anchor = adj[anchor]
        root_cands = adj_anchor & gt_mask
        path = [anchor]
        ext_stack = [root_cands]
        clos_stack = [0]
        banned_stack = [anchor_bit]
        while path:
            depth = len(path)
            clos = clos_stack[-1]
            if clos:
                u = clos & -clos
                clos_stack[-1] = clos ^ u
                yield tuple(path) + (u.bit_length() - 1,)
                continue
            ext = ext_stack[-1]
            if not ext:
                path.pop()
                ext_stack.pop()
                clos_stack.pop()
                banned_stack.pop()
                continue
            u_bit = ext & -ext
            ext_stack[-1] = ext ^ u_bit
            u = u_bit.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(
                    f"hole search exceeded budget of {budget} nodes"
                )
            new_depth = depth + 1
            if depth >= 2:
                banned = banned_stack[-1] | adj[path[-1]] | u_bit
            else:
                banned = banned_stack[-1] | u_bit
            cand = adj[u] & gt_mask & ~banned
            clos_new = 0
            if new_depth + 1 >= min_len and new_depth + 1 >= 4:
                if max_len is None or new_depth + 1 <= max_len:
                    clos_new = cand & adj_anchor
            if clos_new and depth >= 2:
                # kill reflections: closing vertex must exceed the second one
                clos_new &= ~((1 << (path[1] + 1)) - 1)
            ext_new = cand & ~adj_anchor
            if max_len is not None and new_depth + 2 > max_len:
                ext_new = 0
            if ext_new and max_len is not None:
                allowed = gt_mask & ~banned
                edges_used = new_depth - 1
                lo = max(min_len - edges_used, 2)
                hi = max_len - edges_used
                if not _completion_feasible(adj, allowed, u, anchor, lo, hi):
                    ext_new = 0
            if clos_new or ext_new:
                path.append(u)
                ext_stack.append(ext_new)
                clos_stack.append(clos_new)
                banned_stack.append(banned)
