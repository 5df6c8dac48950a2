"""Pure-Python hole-search kernel.

Enumerates chordless cycles of length >= 4 exactly once up to rotation and
reflection: each cycle is reported anchored at its minimum vertex, with the
smaller of the anchor's two cycle-neighbors listed second.

The search is a DFS over induced paths rooted at the anchor, extending only
through vertices greater than the anchor. Each DFS node (one extension of
the path, the unit a budget counts) is a few operations on vertex
bitmasks: the frame of the path's end is held in local variables, saved on
a stack only when the path grows, and a node hands back the holes it
closes as soon as it is made (see find_holes). Before the DFS pushes the
frame of an extension, it asks whether the frame's subtree can hold a hole
that is wanted, and drops the extension's children where it cannot.

Every search asks for the holes of a window [min_len, max_len], and with
no max_len the window is [min_len, n], since no hole is longer than the
graph. So one prune serves every search: whether a hole of the window can
still close below the extension, a completion-feasibility test in three
layers (see _completion_feasible):

1. The route: the fewest edges d from one of the children, through the
   vertices that could grow the path past them, to one of the vertices
   that would close it, looked for up to the most edges a hole of the
   window leaves. The subtree's shortest hole has d more vertices than
   the path with the extension and its closing vertex. With no route
   short enough, no hole of the window lies below, and the children are
   dropped; where that shortest hole is long enough for the window, it is
   a hole of the window, and they are kept.
2. Otherwise, with a route too short for the window, the gate: where the
   branch vertices of the contraction below, start and anchor included,
   are more than 1/GATE_RATIO of the residual graph's vertices, the
   residual barely contracts, and the call is accepted with no
   contraction made and no sweep run. The residual graph is the vertices
   still allowed on the path, with its end (start) and the anchor.
3. Otherwise degree-2 chains of the residual graph are contracted to
   weighted superedges and a shortest-path sweep over (branch vertex,
   odd-superedge subset, weight residue) states decides whether a return
   path from start to the anchor with an admissible total length can
   still exist (see _sweep).

The route settles a call exactly: a shortest route, with its closing
vertex, is chordless, so it makes a hole with the path, one the DFS
reaches by taking the route's vertices one by one; and the part of any
hole below the extension is such a route (the argument behind
chordless-path enumeration, Uno & Satoh 2014). Its length is so that of
the subtree's shortest hole, and a route reject drops only subtrees that
hold no hole of the window. The layer it replaced, a BFS from the path's
end to the anchor through the whole residual graph, could not tell a
return path that touches the anchor's other neighbours or closes below
the second vertex: on perfbench holes-window (seed 1) the route halves
the DFS nodes, 22,603 to 11,049, and about halves the prune's time.

With min_len 4 any hole is long enough, so the route settles every call
alone and the prune is an exact cut: it drops only subtrees that close no
hole and leaves the stream as it was; every frame pushed closes a hole,
and a budget of DFS nodes lasts longer. On the sparse random graphs of
perfbench holes-enum (seed 1), 619,221 of the 730,562 nodes made without
the cut lay in subtrees that close no hole; with it the search makes
156,433.

The route grows from the children alone. Grown from both ends, the
smaller frontier stepping first (Pohl 1971, "Bi-directional search"), it
made perfbench holes-window's wall_s about 7 % lower but holes-enum's
about 3 % higher (seed 1, 10 alternating rounds each), for more code.

A simple path traverses any chain wholly or not at all, so path lengths in
the residual graph are exactly walk weights in the contraction that use
each odd superedge at most once and revisit no chain. The sweep relaxes
"revisit no chain" for even superedges only, and tracks as use-once only
the first MAX_TRACKED_ODD odd superedges in (lower end, first neighbour)
order; the others flip parity but are reusable. That can only overestimate
what is achievable, so the prune stays sound. A tracked superedge is named
by its rank alone: the i-th odd superedge takes subset bit i. The verdict
so depends on the contraction through three facts only: the superedges
with their weights, their order, which fixes the tracked ones, and the gcd
g of the even weights, which sets the residue modulus 2g (2 when there is
no even superedge or 2g > MAX_RESIDUE_MOD).

One DFS step removes one vertex and its neighbours from the residual graph,
and siblings differ only in their start vertex, so the contraction is not
rebuilt per call: the prune keeps the last one it made at each DFS depth
and patches it, or the one of the depth above, redoing only the superedges
through vertices whose residual neighbours or role changed (see _patch).
The gate reads the branch vertices that the build or the patch works out
first anyway, before any chain is walked (_branch_vertices, _patch_branch).
A patch reproduces the contraction exactly, and patches may start from any
kept contraction, so verdicts do not depend on how the contraction was
made, nor on the depths where a gate accept left the kept one stale.

The gate is not the sweep's verdict: it may accept a call that the sweep
would reject, and the sweep may accept a call that the route rejects, as
it overestimates. Accepting is always sound, since the test only ever
rejects impossible completions, so pruning never changes the emitted set
of holes; but a gate accept lets the DFS grow paths that the sweep would
have cut, so where the DFS goes, and its node count, depends on the gate.
The compiled kernel (_fastcore.c) runs the same three layers, with the
same GATE_RATIO on the same residual graphs, and differs only in building
the contraction afresh for each call that reaches the sweep. So the two
kernels give the same verdicts and agree hole for hole and DFS node for
DFS node. This kernel is the compiled one's fallback where no C compiler
is present, and its oracle in the tests.

Both kernels only count. They report DFS nodes through the caller's
`counter` and end the stream, raising nothing, at the node past their
budget; holes.enumerate_holes raises the budget error (see find_holes).
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from math import gcd
from typing import Iterator, Sequence

IMPLEMENTATION = "pure"

MAX_TRACKED_ODD = 6
MAX_RESIDUE_MOD = 64
# A kept contraction is patched when the patch (sized as in _patch_source)
# is at most 1/REBUILD_RATIO of the live vertices, and the contraction is
# built afresh otherwise: on random, Mycielski and gadget residuals of 20 to
# 1000 vertices, patches of a third to a half of that size took about as
# long as a build, and smaller ones less. Patching is this kernel's second
# way to make a contraction, which the compiled kernel does without, and it
# stays for a measured gain: a copy that always built afresh gave the same
# holes, but perfbench holes-window (seed 1, 3 alternating runs, pure
# kernel, 2-vCPU Xeon) went from first_hit_s 0.092-0.095 s and wall_s
# 0.111-0.114 s to 0.512-0.514 s and 0.531-0.532 s.
REBUILD_RATIO = 3
# A call the route leaves open is accepted unswept when its branch vertices
# (start and anchor included) are more than 1/GATE_RATIO of its live
# vertices, in both kernels. Measured branch/live on such calls: first hits
# on 72 findhole gadgets (l = 24..32, paths in {2, 4}^3), 4873 calls, 90th
# percentile 0.086, at most 0.101, and 3177 of their 4873 sweeps reject;
# Myc4 windows [11, 11] and [13, 13], about 13,000 calls each, and random
# n = 130 window [6, 9], 473 calls, 10th percentile 0.63 or more; Myc4
# window [5, 8], 189 calls, 10th percentile 0.40, and none of its 25
# sweeps rejects. A half sits in the gap, so the gate never fires on a
# gadget, whose chains the sweep needs, and settles most calls where
# nearly nothing contracts and a sweep costs more than the nodes it saves:
# compiled, Myc4's window [13, 13] makes 33389 nodes in 0.005 s with the
# gate, against 28805 nodes in 0.045 s without.
GATE_RATIO = 2


def _completion_feasible(
    adj: Sequence[int],
    allowed: int,
    start: int,
    anchor: int,
    lo: int,
    hi: int,
    contractions: list[_Contraction | None],
    depth: int,
    children: int,
    region: int,
    target: int,
) -> bool:
    """Can some simple path from start to anchor with length in [lo, hi]
    exist within `allowed`, the vertices still allowed on the path with
    start? lo and hi are the window's bounds less the `depth` edges of the
    path, and lo may be below 2. The three layers of the module docstring,
    in order.

    Layer 1 is the route: the fewest edges d from a vertex of `children`,
    start's children, through `region` to a vertex of `target`, looked for
    up to hi - 2 edges. With no such route the call rejects, and with
    d + 2 >= lo it accepts. Only a call whose route is too short for the
    window goes on to the gate and the sweep (_gate_and_sweep); there
    lo > d + 2 >= 3.

    The route is a level BFS from `children` through `region` that stops
    at the first vertex with a neighbour in `target`: the vertices of a
    level are `edges - 1` steps from the children, and no level before had
    such a neighbour, so no route is shorter. Each level's vertices leave
    `region`, so none is visited twice.

    The DFS asks it before it pushes the frame of an extension start. Let
    `grown` be the vertices still allowed once start joins the path:
    `allowed` minus start and its neighbours. `children` holds start's
    children, `region` the vertices of `grown` off the anchor's
    neighbours, through which the path can grow, and `target` those among
    the anchor's neighbours above the path's second vertex, which close it
    (the bound kills reflections); the three are disjoint. Take a shortest
    route from a child through `region` to a vertex next to some z of
    `target`. Its vertices that are not consecutive are not adjacent, and
    z is adjacent to its last one only, or a shorter route would exist;
    the child alone is adjacent to start, and no vertex of it to the
    anchor or to the path before start. So the path, the route and z make
    a hole of start's subtree, and the DFS reaches it by taking the
    route's vertices one by one as children. Conversely, the part of any
    hole in start's subtree after start is such a route. So where the
    answer is d, the subtree's shortest hole has exactly d + 2 more edges
    than the path from the anchor to start.
    """
    # a while loop, not a range: most calls end within a step or two, and
    # a range made per call cost holes-enum about 4 % of its wall_s
    frontier = children
    edges = 1
    bound = hi - 2
    while edges <= bound:
        reach = 0
        while frontier:
            low = frontier & -frontier
            nbrs = adj[low.bit_length() - 1]
            if nbrs & target:
                return edges + 2 >= lo or _gate_and_sweep(
                    adj, allowed, start, anchor, lo, hi, contractions, depth
                )
            reach |= nbrs
            frontier ^= low
        frontier = reach & region
        if not frontier:
            return False
        region ^= frontier
        edges += 1
    return False


def _gate_and_sweep(
    adj: Sequence[int],
    allowed: int,
    start: int,
    anchor: int,
    lo: int,
    hi: int,
    contractions: list[_Contraction | None],
    depth: int,
) -> bool:
    """Layers 2 and 3 of the prune, on the residual graph `allowed | start
    | anchor`. They read the contraction that _patch_source picks to patch
    from `contractions`, the last one made at each DFS depth, or build one
    afresh. The branch vertices are worked out first, by the scan a fresh
    build starts with or the first half of the patch, and the gate reads
    them. A gate accept returns True with no contraction made, and leaves
    the one kept for this depth as it was; otherwise the contraction is
    finished, kept and swept.
    """
    forced = (1 << start) | (1 << anchor)
    live = allowed | forced
    source = _patch_source(adj, contractions, depth, live, forced)
    if source is None:
        branch = _branch_vertices(adj, live, forced)
    else:
        branch, redo = _patch_branch(adj, source, live, forced)
    if GATE_RATIO * branch.bit_count() > live.bit_count():
        return True
    if source is None:
        con = _contract(adj, live, forced, branch)
    else:
        con = _patch(adj, source, live, forced, (branch, redo))
    contractions[depth] = con
    return _sweep(con, start, anchor, lo, hi)


class _Contraction:
    """The chain contraction of the residual graph `live`, in which the
    vertices of `forced` (start and anchor) are branch vertices whatever
    their degree, in the form the sweep reads (see the module docstring).

    `branch` holds `forced` and the vertices of residual degree other than
    2. A superedge is a maximal chain of degree-2 vertices between branch
    vertices x < y, named by the tuple (x, first, y, weight), where first
    is the neighbour of x on the chain. `odd` lists the odd superedges in
    order, and its first MAX_TRACKED_ODD are the tracked ones. The other
    superedges are untracked: moves[v] maps a weight to the mask of the
    other ends of v's untracked superedges of that weight (it may be empty,
    or missing, where v has none), and extra[x, y, weight] counts those
    joining x and y beyond the first. `evens` counts the even superedges by
    weight.
    """

    __slots__ = ("live", "forced", "branch", "moves", "extra", "odd", "evens")

    def __init__(
        self,
        live: int,
        forced: int,
        branch: int,
        moves: dict[int, dict[int, int]],
        extra: dict[tuple[int, int, int], int],
        odd: list[tuple[int, int, int, int]],
        evens: dict[int, int],
    ):
        self.live = live
        self.forced = forced
        self.branch = branch
        self.moves = moves
        self.extra = extra
        self.odd = odd
        self.evens = evens


def _branch_vertices(adj: Sequence[int], live: int, forced: int) -> int:
    """The branch vertices of the contraction of `live` with `forced`:
    those of `forced` and those of residual degree other than 2."""
    branch = forced
    # scanning the binary digits beats peeling low bits off a wide mask
    for v, digit in enumerate(bin(live)[:1:-1]):
        if digit == "1" and (adj[v] & live).bit_count() != 2:
            branch |= 1 << v
    return branch


def _contract(
    adj: Sequence[int], live: int, forced: int, branch: int | None = None
) -> _Contraction:
    """The contraction of `live` with branch vertices `forced`, from
    scratch; `branch` is their _branch_vertices mask, scanned for where not
    given."""
    if branch is None:
        branch = _branch_vertices(adj, live, forced)
    con = _Contraction(live, forced, branch, {}, {}, [], {})
    moves, extra, odd, evens = con.moves, con.extra, con.odd, con.evens
    # Superedges are found in order: a chain is walked once, from its lower
    # end, and its last interior vertex is marked so that the other end
    # skips it. The tracked ones, the first odd ones found, stay out of moves.
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
            if w_bit & branch:
                # A direct edge, the most common superedge where chains are
                # short, has its own copy of the steps below: its weight is
                # 1, and no other superedge is parallel to it.
                if w_bit < u_bit:
                    continue
                v = w_bit.bit_length() - 1
                odd.append((u, v, v, 1))
                if len(odd) > MAX_TRACKED_ODD:
                    moves_u[1] = moves_u.get(1, 0) | w_bit
                    moves_v = moves.setdefault(v, {})
                    moves_v[1] = moves_v.get(1, 0) | u_bit
                continue
            end, last, weight, _ = _walk(adj, live, branch, u_bit, w_bit)
            if end == u_bit:
                nbrs &= ~last  # a chain from u back to u: no superedge
                continue
            walked |= last
            v = end.bit_length() - 1
            if not weight & 1:
                evens[weight] = evens.get(weight, 0) + 1
            else:
                odd.append((u, w_bit.bit_length() - 1, v, weight))
                if len(odd) <= MAX_TRACKED_ODD:
                    continue
            ends = moves_u.get(weight, 0)
            if ends & end:
                extra[u, v, weight] = extra.get((u, v, weight), 0) + 1
                continue
            moves_u[weight] = ends | end
            moves_v = moves.setdefault(v, {})
            moves_v[weight] = moves_v.get(weight, 0) | u_bit
    return con


def _walk(
    adj: Sequence[int], live: int, branch: int, prev_bit: int, cur_bit: int
) -> tuple[int, int, int, int]:
    """Follow a chain from the edge prev-cur to the first branch vertex,
    or back to prev on a cycle without one: (that end, the vertex before
    it, the length walked, the mask of the vertices passed)."""
    stop = prev_bit
    weight, passed = 1, 0
    while not cur_bit & branch and cur_bit != stop:
        passed |= cur_bit
        nxt = adj[cur_bit.bit_length() - 1] & live & ~prev_bit
        prev_bit, cur_bit = cur_bit, nxt & -nxt
        weight += 1
    return cur_bit, prev_bit, weight, passed


def _chains_through(
    adj: Sequence[int], live: int, branch: int, through: int
) -> set[tuple[int, int, int, int]]:
    """The superedges of the contraction (live, branch) that hold a vertex
    of `through`."""
    chains = set()
    seen = 0  # the inner vertices of the chains walked so far
    while through:
        v_bit = through & -through
        through ^= v_bit
        if v_bit & seen:
            continue
        nbrs = adj[v_bit.bit_length() - 1] & live
        if not v_bit & branch:
            # v is inside a chain: walk to one of its ends, and then the
            # chain from there
            end, last, _, passed = _walk(adj, live, branch, v_bit, nbrs & -nbrs)
            if end == v_bit:
                seen |= passed | v_bit  # a cycle without branch vertices
                continue
            v_bit, nbrs = end, last
        v = v_bit.bit_length() - 1
        while nbrs:
            w_bit = nbrs & -nbrs
            nbrs ^= w_bit
            if w_bit & seen:
                continue
            end, last, weight, passed = _walk(adj, live, branch, v_bit, w_bit)
            seen |= passed
            if end == v_bit:
                continue  # a chain from v back to v: no superedge
            if v_bit < end:
                chains.add((v, w_bit.bit_length() - 1, end.bit_length() - 1, weight))
            else:
                chains.add((end.bit_length() - 1, last.bit_length() - 1, v, weight))
    return chains


def _toggle(
    con: _Contraction, owned: set[int], x: int, y: int, weight: int, step: int
) -> None:
    """Add (step 1) or remove (step -1) one untracked superedge x < y of
    this weight in con.moves.

    con may share moves dicts with the contraction it was patched from;
    `owned` holds the vertices whose dict is its own, and any other is
    copied before it changes.
    """
    moves = con.moves
    pair = (x, y, weight)
    more = con.extra.get(pair, 0)
    if step > 0 and x in moves and moves[x].get(weight, 0) >> y & 1:
        con.extra[pair] = more + 1
        return
    if step < 0 and more:
        if more > 1:
            con.extra[pair] = more - 1
        else:
            del con.extra[pair]
        return
    for v, end in ((x, y), (y, x)):
        moves_v = moves.get(v)
        if moves_v is None or v not in owned:
            moves_v = moves[v] = dict(moves_v) if moves_v else {}
            owned.add(v)
        # the bit of `end` is clear when adding and set when removing
        ends = moves_v.get(weight, 0) ^ (1 << end)
        if ends:
            moves_v[weight] = ends
        else:
            del moves_v[weight]
            if not moves_v:
                del moves[v]


def _patch_branch(
    adj: Sequence[int], con: _Contraction, live: int, forced: int
) -> tuple[int, int]:
    """The branch vertices of `live` with `forced`, read off con's where
    no residual neighbour or role changes and recounted elsewhere, and the
    vertices whose superedges _patch redoes."""
    old_live, old_branch = con.live, con.branch
    changed = old_live ^ live
    # the vertices whose residual neighbours or forced status change
    dirty = changed | (con.forced ^ forced)
    rest = changed
    while rest:
        v_bit = rest & -rest
        rest ^= v_bit
        dirty |= adj[v_bit.bit_length() - 1]
    dirty &= old_live | live
    branch = (old_branch & ~dirty) | forced
    rest = dirty & live & ~forced
    while rest:
        v_bit = rest & -rest
        rest ^= v_bit
        if (adj[v_bit.bit_length() - 1] & live).bit_count() != 2:
            branch |= v_bit
    return branch, dirty & ~(old_branch & branch)


def _patch(
    adj: Sequence[int],
    con: _Contraction,
    live: int,
    forced: int,
    cut: tuple[int, int] | None = None,
) -> _Contraction:
    """The contraction of `live` with branch vertices `forced`, made from
    con by redoing only the superedges that change; con is left as it
    was. `cut` is _patch_branch's answer, worked out where not given."""
    old_live, old_branch = con.live, con.branch
    branch, redo = cut if cut is not None else _patch_branch(adj, con, live, forced)
    # A chain without a vertex of `redo` is a superedge on both sides: its
    # inside keeps its neighbours, its ends stay branch vertices. So the
    # superedges of `gone` and `made` are the only ones that differ.
    gone = _chains_through(adj, old_live, old_branch, redo & old_live)
    made = _chains_through(adj, live, branch, redo & live)
    new = _Contraction(
        live, forced, branch, dict(con.moves), dict(con.extra),
        list(con.odd), dict(con.evens),
    )
    owned: set[int] = set()
    odd, evens = new.odd, new.evens
    was = odd[:MAX_TRACKED_ODD]
    for edge in gone:
        x, _, y, weight = edge
        if weight & 1:
            del odd[bisect_left(odd, edge)]
        else:
            count = evens[weight] - 1
            if count:
                evens[weight] = count
            else:
                del evens[weight]
        if edge not in was:
            _toggle(new, owned, x, y, weight, -1)
    for edge in made:
        weight = edge[3]
        if weight & 1:
            insort(odd, edge)
        else:
            evens[weight] = evens.get(weight, 0) + 1
    now = odd[:MAX_TRACKED_ODD]
    if now != was:
        # a kept superedge that stops being tracked goes into moves, and
        # one that starts comes out
        for edge in set(was).symmetric_difference(now) - gone - made:
            x, _, y, weight = edge
            _toggle(new, owned, x, y, weight, 1 if edge in was else -1)
    for edge in made:
        if edge not in now:
            x, _, y, weight = edge
            _toggle(new, owned, x, y, weight, 1)
    return new


def _patch_source(
    adj: Sequence[int],
    contractions: list[_Contraction | None],
    depth: int,
    live: int,
    forced: int,
) -> _Contraction | None:
    """The kept contraction to patch into the one of `live` for a call at
    this DFS depth, or None where it is cheaper to build it afresh.

    The candidates are the contraction kept for this depth (a sibling's,
    which differs in the start vertex only) and the one kept for the depth
    above (the parent's, which differs in the neighbours of the vertex the
    path grew by); the one needing the smaller patch wins, and neither does
    when both would need more than 1/REBUILD_RATIO of the live vertices. A
    patch redoes the superedges at the vertices that come or go, so its
    size is counted as those vertices and their edges, plus the vertices
    that only become or stop being forced: that changes a superedge only
    where the vertex has degree 2.
    """
    best = None
    fewest = live.bit_count() // REBUILD_RATIO
    for source in contractions[depth], contractions[depth - 1]:
        if source is None:
            continue
        changed = source.live ^ live
        size = (changed | source.forced ^ forced).bit_count()
        around = source.live | live
        while changed and size <= fewest:
            v_bit = changed & -changed
            changed ^= v_bit
            size += (adj[v_bit.bit_length() - 1] & around).bit_count()
        if size <= fewest:
            best, fewest = source, size
    return best


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
    (See the module docstring for what the sweep counts.)

    It builds the contraction from scratch with _contract, which is also
    where the contractions that the DFS keeps per depth and patches start
    (see _patch_source); the tests use it as their oracle.
    """
    return _sweep(
        _contract(adj, live, (1 << start) | (1 << anchor)), start, anchor, lo, hi
    )


def _sweep(con: _Contraction, start: int, anchor: int, lo: int, hi: int) -> bool:
    """The state sweep of _sweep_feasible over the contraction con, whose
    tracked superedges and modulus are those of the module docstring.

    It computes the shortest distance d of every state (branch vertex,
    subset of tracked superedges used, d mod modulus) up to hi and accepts
    when a move from a state at its shortest distance reaches the anchor
    at some d >= 2 that has an admissible length r >= d with
    r = d (mod modulus). That holds even where the anchor state was
    reached before: the direct start-anchor edge reaches it at d = 1,
    which is no return path, so it must not hide the longer ones. The
    distances are found level by level (Dial's algorithm), with the
    vertices of a level held as one bitmask per subset.
    """
    moves = con.moves
    # tracked[v]: (weight, subset bit, other end) of v's tracked superedges
    tracked: dict[int, list[tuple[int, int, int]]] = {}
    for i, (x, _, y, weight) in enumerate(con.odd[:MAX_TRACKED_ODD]):
        tracked.setdefault(x, []).append((weight, 1 << i, 1 << y))
        tracked.setdefault(y, []).append((weight, 1 << i, 1 << x))
    g = gcd(*con.evens)
    modulus = 2 * g if 0 < 2 * g <= MAX_RESIDUE_MOD else 2
    anchor_bit = 1 << anchor
    # levels[d][subset]: vertices reached at distance d with that subset;
    # settled[subset, residue]: vertices whose distance is already final
    levels: list[dict[int, int]] = [{} for _ in range(hi + 1)]
    levels[0][0] = 1 << start
    settled: dict[tuple[int, int], int] = {}
    for d in range(hi + 1):
        residue = d % modulus
        # is there an r in [lo, hi] with r >= d and r = d (mod modulus)?
        admissible = d >= 2 and (d >= lo or lo + (d - lo) % modulus <= hi)
        for subset, mask in levels[d].items():
            # before the settled vertices go: the direct start-anchor edge
            # settles an anchor state at d = 1, which is no return path
            if admissible and mask & anchor_bit:
                return True
            done = settled.get((subset, residue), 0)
            mask &= ~done
            if not mask:
                continue
            settled[subset, residue] = done | mask
            while mask:
                v_bit = mask & -mask
                mask ^= v_bit
                v = v_bit.bit_length() - 1
                if v in moves:
                    for weight, ends in moves[v].items():
                        nd = d + weight
                        if nd <= hi:
                            level = levels[nd]
                            level[subset] = level.get(subset, 0) | ends
                for weight, bit, end in tracked.get(v, ()):
                    nd = d + weight
                    if nd <= hi and not subset & bit:
                        level = levels[nd]
                        level[subset | bit] = level.get(subset | bit, 0) | end
    return False


def find_holes(
    adj: Sequence[int],
    n: int,
    min_len: int = 4,
    max_len: int | None = None,
    budget: int | None = None,
    counter: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield each hole of the graph once, canonically oriented.

    adj: per-vertex neighbor bitmasks of a loopless graph. min_len and
    max_len: the window of hole lengths, clamped to [4, n]; no max_len is
    max_len = n, since no hole is longer than the graph. counter: a
    one-item list; whenever the kernel hands control back (a hole, the end
    of the stream) counter[0] holds the number of DFS extensions made so
    far, so a caller can charge them to its own budget. budget: the number
    of DFS extensions allowed. The kernel only counts: the extension past
    the budget ends the stream with counter[0] == budget + 1 and raises
    nothing, so the caller tells exhaustion from the counter (holes already
    yielded remain valid). A budget that is negative or comes without a
    counter raises ValueError before any extension. The compiled kernel
    takes the same arguments, ints of any size included, and counts the
    same extensions.

    The frame of the path's end lives in locals: `ext`, the children still
    to try; `allowed`, the vertices greater than the anchor that are
    neither on the path nor adjacent to a path vertex other than the
    anchor, which are the candidates for a child's own children; and
    `close` and `extend`, the parts of `allowed` through which a child
    closes a hole or grows the path, each empty where the length window
    rules that out at the child's depth. A frame is pushed on the stack as
    one tuple only when the DFS descends, which it does where the
    completion test leaves the child children of its own, and popped when
    its children are done. A node hands back the holes it closes as soon
    as it is made, in increasing order of the closing vertex, and before
    its own children are tried.
    """
    if budget is not None and budget < 0:
        raise ValueError("find_holes budget must be nonnegative")
    if counter is None:
        if budget is not None:
            raise ValueError("find_holes budget needs a counter")
        counter = [0]
    if min_len < 4:
        min_len = 4
    if max_len is None or max_len > n:
        max_len = n  # no hole is longer than the graph
    nodes = counter[0] = 0
    if max_len < min_len:
        return
    limit = budget if budget is not None else sys.maxsize
    # a frame at depth d (d vertices on the path) makes children that close
    # holes of length d + 2, and children that can be extended when a hole
    # of length d + 3 still fits; so no frame is deeper than max_len - 2
    close_lo = min_len - 2
    extend_hi = max_len - 3
    # the last contraction the prune built at each DFS depth
    contractions: list[_Contraction | None] = [None] * (n + 1)
    for anchor in range(n):
        anchor_bit = 1 << anchor
        allowed = ((1 << n) - 1) & ~((anchor_bit << 1) - 1)
        adj_anchor = adj[anchor]
        far = allowed & ~adj_anchor
        ext = allowed & adj_anchor
        close = 0  # a child of the anchor would close a triangle
        extend = far  # max_len >= 4, so extend_hi >= 1
        path = [anchor]
        depth = 1
        stack = []
        while True:
            if not ext:
                if not stack:
                    break
                ext, allowed, close, extend = stack.pop()
                path.pop()
                depth -= 1
                continue
            u_bit = ext & -ext
            ext ^= u_bit
            u = u_bit.bit_length() - 1
            nodes += 1
            if nodes > limit:
                counter[0] = nodes
                return
            adj_u = adj[u]
            ext_new = adj_u & extend
            if depth == 1:
                # kill reflections: a closing vertex must exceed the
                # anchor's first neighbour on the path
                closing = adj_anchor & ~((u_bit << 1) - 1)
            if ext_new:
                # keep u's children only where a hole of the window may
                # still close below them; the return path has `depth` fewer
                # edges than the hole
                grown = allowed & ~(u_bit | adj_u)
                target = grown & closing
                if not target or not _completion_feasible(
                    adj, allowed, u, anchor, min_len - depth, max_len - depth,
                    contractions, depth, ext_new, grown & far, target,
                ):
                    ext_new = 0
            clos_new = adj_u & close
            if clos_new:
                head = (*path, u)
                while clos_new:
                    c_bit = clos_new & -clos_new
                    clos_new ^= c_bit
                    counter[0] = nodes
                    yield (*head, c_bit.bit_length() - 1)
            if ext_new:
                stack.append((ext, allowed, close, extend))
                path.append(u)
                depth += 1
                ext = ext_new
                allowed &= ~(u_bit | adj_u)
                close = allowed & closing if depth >= close_lo else 0
                extend = allowed & far if depth <= extend_hi else 0
    counter[0] = nodes
