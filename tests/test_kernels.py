"""The two hole-search kernels must emit identical canonical streams.

The compiled kernel is the `fastcore` fixture of conftest.py: built from the
C source in the tree for this session, so its cases skip only where no C
compiler is present.
"""

import random
import subprocess
import sys

import pytest

from holelab.budget import Budget
from holelab.errors import BudgetExceededError
from holelab.gadgets import findhole_gadget, standard_family
from holelab.graph import Graph
from holelab.holes import enumerate_holes
from holelab.kernels import _pycore

from conftest import cycle_graph, oracle_holes, petersen_graph, random_graph


@pytest.fixture(params=["pure", "compiled"])
def kernel(request):
    if request.param == "pure":
        return _pycore
    return request.getfixturevalue("fastcore")


def holes_of(kernel, g, min_len=4, max_len=None):
    return list(kernel.find_holes(g.adjacency_masks(), g.n, min_len, max_len))


def node_count(kernel, g, min_len=4, max_len=None):
    counter = [0]
    for _ in kernel.find_holes(g.adjacency_masks(), g.n, min_len, max_len, counter=counter):
        pass
    return counter[0]


# sizes crossing the 64-bit word boundary and going past two words, with
# mean degrees low enough that the full hole stream stays small
PRUNE_GRAPHS = [(18, 4.0), (30, 4.0), (63, 2.8), (64, 2.8), (65, 2.8), (130, 2.0)]
PRUNE_WINDOWS = [(6, 9), (5, 5)]
# Myc4, triangle-free with chromatic number 6, where the prune's residual
# graphs barely contract; it has no hole of length 13, so that window is a
# full search
MYC4_WINDOWS = [(5, 8), (11, 11), (13, 13)]


def prune_graphs():
    rng = random.Random(3)
    return [random_graph(rng, n, deg / (n - 1)) for n, deg in PRUNE_GRAPHS]


def test_cycle_graph_single_hole(kernel):
    g = Graph(6, cycle_graph(6))
    assert holes_of(kernel, g) == [(0, 1, 2, 3, 4, 5)]


def test_triangle_and_chorded_cycle_have_no_holes(kernel):
    assert holes_of(kernel, Graph(3, cycle_graph(3))) == []
    chorded = Graph(5, cycle_graph(5) + [(0, 2)])
    assert holes_of(kernel, chorded) == [(0, 2, 3, 4)]


def test_canonical_form(kernel):
    g = petersen_graph()
    for vs in holes_of(kernel, g):
        assert vs[0] == min(vs)
        assert vs[1] < vs[-1]


def test_against_subset_oracle(kernel):
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(4, 10), rng.uniform(0.2, 0.6))
        got = {frozenset(vs) for vs in holes_of(kernel, g)}
        assert got == oracle_holes(g)


def test_length_window(kernel):
    g = petersen_graph()
    assert all(len(v) == 5 for v in holes_of(kernel, g, 5, 5))
    assert holes_of(kernel, g, 7, None) == []
    rng = random.Random(5)
    for _ in range(30):
        h = random_graph(rng, 9, 0.35)
        windowed = {frozenset(v) for v in holes_of(kernel, h, 5, 7)}
        assert windowed == oracle_holes(h, 5, 7)


def test_streams_identical_across_kernels(fastcore):
    rng = random.Random(99)
    for _ in range(120):
        g = random_graph(rng, rng.randrange(0, 13), rng.uniform(0.1, 0.7))
        for lo, hi in ((4, None), (5, 8), (6, 6)):
            assert holes_of(_pycore, g, lo, hi) == holes_of(fastcore, g, lo, hi)
    for g in prune_graphs():
        for lo, hi in PRUNE_WINDOWS:
            assert holes_of(_pycore, g, lo, hi) == holes_of(fastcore, g, lo, hi)


def test_budget_exhaustion_ends_the_stream(kernel):
    """The node past the budget ends the stream with no error, counted in
    counter[0]; a budget that is negative or comes without a counter is
    refused before any node."""
    g = petersen_graph()
    counter = [0]
    stopped = list(kernel.find_holes(g.adjacency_masks(), g.n, 4, None, 3, counter))
    assert counter[0] == 4
    assert stopped == holes_of(kernel, g)[: len(stopped)]
    for budget, counter in ((-1, [7]), (-(10**30), [7]), (3, None)):
        with pytest.raises(ValueError):
            list(kernel.find_holes(g.adjacency_masks(), g.n, 4, None, budget, counter))
        assert counter is None or counter == [7]  # no node was counted


# (min_len, max_len, budget) beyond any machine integer, on the Petersen
# graph as `gadget petersen` builds it, with the holes and nodes they give:
# the searches with no max_len run the cut, the others the prune
HUGE_ARGUMENTS = [
    pytest.param((10**11, None, None), 0, 53, id="min-len-1e11"),
    pytest.param((5, 10**20, None), 22, 77, id="max-len-1e20"),
    pytest.param((4, -(10**20), None), 0, 0, id="max-len-minus-1e20"),
    pytest.param((-(10**20), None, 10**23), 22, 53, id="budget-1e23"),
    pytest.param((4, 2**63, 2**63), 22, 77, id="budget-2e63"),
    pytest.param((4, None, 2**63 - 1), 22, 53, id="budget-2e63-less-1"),
]


@pytest.mark.parametrize("args, holes, nodes", HUGE_ARGUMENTS)
def test_out_of_range_arguments_are_clamped(kernel, args, holes, nodes):
    """Both kernels read min_len, max_len and budget as ints of any size: a
    length window is clamped to [4, n] and a budget past 2^63 never runs
    out."""
    g = standard_family("kneser", 5, 2)
    counter = [0]
    got = list(kernel.find_holes(g.adjacency_masks(), g.n, *args, counter))
    assert (len(got), counter[0]) == (holes, nodes)
    lo, hi = args[0], args[1] if args[1] is not None else g.n
    assert got == [h for h in holes_of(kernel, g) if lo <= len(h) <= hi]


def test_compiled_kernel_needs_no_python_package(fastcore):
    """The compiled kernel runs budgeted searches to exhaustion with
    holelab.errors unimportable: it only counts."""
    g = petersen_graph()
    total = node_count(fastcore, g)
    code = (
        "import importlib.util, sys\n"
        "sys.modules['holelab.errors'] = None\n"
        f"spec = importlib.util.spec_from_file_location('_fastcore', {fastcore.__file__!r})\n"
        "fastcore = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(fastcore)\n"
        "counter = [0]\n"
        f"for budget in (0, {total // 2}, {total - 1}):\n"
        f"    list(fastcore.find_holes({g.adjacency_masks()!r}, {g.n}, 4, None, budget, counter))\n"
        "    assert counter[0] == budget + 1, counter\n"
        "print('ok')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout == "ok\n", out.stderr


def test_trivial_graphs(kernel):
    assert holes_of(kernel, Graph(0)) == []
    assert holes_of(kernel, Graph(1)) == []
    assert holes_of(kernel, Graph(4, [(0, 1), (1, 2)])) == []


@pytest.mark.parametrize("expected", ["pure", "compiled"])
def test_kernel_selected_by_import(expected, request):
    """holelab.kernels selects _fastcore whenever it imports, else _pycore."""
    if expected == "compiled":
        # the session's build, registered before holelab.kernels is imported
        path = request.getfixturevalue("fastcore").__file__
        setup = (
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location("
            f"'holelab.kernels._fastcore', {path!r})\n"
            "sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(sys.modules[spec.name])\n"
        )
    else:
        setup = "sys.modules['holelab.kernels._fastcore'] = None\n"
    code = (
        "import sys\n" + setup
        + "from holelab.kernels import IMPLEMENTATION; print(IMPLEMENTATION)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.strip() == expected, out.stderr


def test_enumerate_holes_wrapper_respects_budget():
    from holelab.holes import enumerate_holes

    g = petersen_graph()
    budget = Budget(3)
    with pytest.raises(BudgetExceededError):
        list(enumerate_holes(g, budget=budget))


def gate_meets(adj, live, start, anchor):
    """Does the residual graph `live` contract so little that the gate
    accepts, read off a contraction built from scratch?"""
    branch = _pycore._contract(adj, live, (1 << start) | (1 << anchor)).branch
    return _pycore.GATE_RATIO * branch.bit_count() > live.bit_count()


def test_prune_verdicts_match_full_sweep(monkeypatch):
    """The prune rejects only where the sweep rejects, and accepts only
    where the sweep accepts or the gate may: the BFS layer settles a call
    only where the sweep gives the same verdict.

    The call and reject counts pin the verdicts: any change of verdict
    moves the DFS and with it these counts. They are those of the compiled
    kernel, which test_node_counts_identical_across_kernels checks node
    for node. No call of the gadget search meets the gate, so there every
    verdict is the sweep's.
    """
    calls = []
    feasible = _pycore._completion_feasible

    def record(adj, allowed, start, anchor, lo, hi, *kept):
        verdict = feasible(adj, allowed, start, anchor, lo, hi, *kept)
        calls.append((adj, allowed, start, anchor, lo, hi, verdict))
        return verdict

    monkeypatch.setattr(_pycore, "_completion_feasible", record)
    for g in prune_graphs():
        for lo, hi in PRUNE_WINDOWS:
            holes_of(_pycore, g, lo, hi)
    on_graphs = len(calls)
    gadget = findhole_gadget(24, 2, 2, 4)
    search = _pycore.find_holes(gadget.adjacency_masks(), gadget.n, 24, 24, 10_000, [0])
    assert len(next(search)) == 24
    verdicts = [verdict for *_, verdict in calls]
    assert (len(verdicts), verdicts.count(False)) == (6765, 2664)
    gated = 0
    for i, (adj, allowed, start, anchor, lo, hi, verdict) in enumerate(calls):
        live = allowed | (1 << start) | (1 << anchor)
        swept = _pycore._sweep_feasible(adj, live, start, anchor, lo, hi)
        meets = gate_meets(adj, live, start, anchor)
        assert not (i >= on_graphs and meets)
        if verdict != swept:
            assert verdict and meets
            gated += 1
    assert gated > 0


def contraction_facts(con):
    """What the sweep reads from a contraction: its branch vertices, the
    untracked superedges with their multiplicities, the odd superedges in
    order (the first MAX_TRACKED_ODD tracked) and the even weights that
    set the modulus. A vertex without untracked superedges may have an
    empty moves dict or none."""
    assert sorted(con.odd) == con.odd
    moves = {v: moves_v for v, moves_v in con.moves.items() if moves_v}
    return con.branch, moves, con.extra, con.odd, con.evens


def test_patched_contraction_equals_fresh_one(monkeypatch):
    """Every contraction a sweep reads, patched along the DFS, is the one
    built from scratch on the same residual graph.

    A gate accept leaves the contraction kept for its depth as it was, so
    the kept ones can be stale; the sweeps must still read contractions
    built afresh and patched from both a sibling's and the parent's. The gate leaves few sweeps on the random graphs; the
    gadgets, where it never accepts, make most of the patches, and Myc4's
    window [11, 11] most of the fresh builds."""
    feasible, sweep, patch, contract = (
        _pycore._completion_feasible, _pycore._sweep, _pycore._patch, _pycore._contract
    )
    call = {}
    checked = fresh_builds = 0
    patched = {"sibling": 0, "parent": 0}

    def record_call(adj, allowed, start, anchor, lo, hi, contractions, depth):
        call.update(
            adj=adj, live=allowed | (1 << start) | (1 << anchor),
            sibling=contractions[depth], parent=contractions[depth - 1],
        )
        return feasible(adj, allowed, start, anchor, lo, hi, contractions, depth)

    def check_sweep(con, start, anchor, lo, hi):
        nonlocal checked
        assert con.live == call["live"]
        assert con.forced == (1 << start) | (1 << anchor)
        fresh = contract(call["adj"], con.live, con.forced)
        assert contraction_facts(con) == contraction_facts(fresh)
        verdict = sweep(con, start, anchor, lo, hi)
        assert sweep(fresh, start, anchor, lo, hi) == verdict
        checked += 1
        return verdict

    def count_patch(adj, source, live, forced, *cut):
        source_is = [name for name in patched if call[name] is source]
        assert len(source_is) == 1
        patched[source_is[0]] += 1
        return patch(adj, source, live, forced, *cut)

    def count_contract(*args):
        nonlocal fresh_builds
        fresh_builds += 1
        return contract(*args)

    monkeypatch.setattr(_pycore, "_completion_feasible", record_call)
    monkeypatch.setattr(_pycore, "_sweep", check_sweep)
    monkeypatch.setattr(_pycore, "_patch", count_patch)
    monkeypatch.setattr(_pycore, "_contract", count_contract)
    for g in prune_graphs():
        for lo, hi in PRUNE_WINDOWS:
            holes_of(_pycore, g, lo, hi)
    holes_of(_pycore, standard_family("mycielski_iterate", 4), 11, 11)
    for ell in range(24, 33):
        for paths in ((2, 2, 4), (4, 4, 2)):
            gadget = findhole_gadget(ell, *paths)
            assert len(first_hit_count(_pycore, gadget, ell, ell)[0]) == ell
    assert checked == fresh_builds + sum(patched.values())
    assert checked > 1000 and sum(patched.values()) > checked // 2
    assert fresh_builds > 50 and min(patched.values()) > 100, patched


def test_patch_between_any_two_residual_graphs():
    """_patch is exact between unrelated residual graphs and forced sets
    too, including chains that close into cycles and parallel chains."""
    rng = random.Random(8)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(4, 40), rng.uniform(0.03, 0.3))
        adj = g.adjacency_masks()
        cons = []
        for _ in range(4):
            live = rng.getrandbits(g.n) | rng.getrandbits(g.n)
            forced = live & rng.getrandbits(g.n) & rng.getrandbits(g.n)
            cons.append(_pycore._contract(adj, live, forced))
        for source in cons:
            for target in cons:
                con = _pycore._patch(adj, source, target.live, target.forced)
                assert contraction_facts(con) == contraction_facts(target)
        # patching leaves its sources as they were
        for con in cons:
            fresh = _pycore._contract(adj, con.live, con.forced)
            assert contraction_facts(con) == contraction_facts(fresh)


def test_window_keeps_hole_behind_untracked_anchor_edge(kernel):
    """Seven pendant edges at the anchor take the tracked odd superedges, so
    the start-anchor edge is untracked. Its arrival at the anchor at
    distance 1 is no return path and must not hide the one of length 5."""
    edges = [(0, v) for v in range(1, 9)] + cycle_graph(5, 8)[:4] + [(12, 0)]
    g = Graph(13, edges)
    assert holes_of(kernel, g) == [(0, 8, 9, 10, 11, 12)]
    assert holes_of(kernel, g, 6, 6) == [(0, 8, 9, 10, 11, 12)]


def test_windowed_stream_is_filtered_full_stream(kernel):
    # the unwindowed search runs no prune, so it is an independent reference
    cases = [(g, PRUNE_WINDOWS) for g in prune_graphs()]
    cases.append((standard_family("mycielski_iterate", 4), MYC4_WINDOWS))
    for g, windows in cases:
        full = holes_of(kernel, g)
        for lo, hi in windows:
            expected = [h for h in full if lo <= len(h) <= hi]
            assert holes_of(kernel, g, lo, hi) == expected


def budget_graphs():
    rng = random.Random(41)
    graphs = [petersen_graph(), Graph(0), Graph(6, cycle_graph(6))]
    return graphs + [
        random_graph(rng, rng.randrange(4, 14), rng.uniform(0.2, 0.6)) for _ in range(30)
    ]


# (4, 200) runs the prune with a window wider than the graph
BUDGET_WINDOWS = [(4, None), (5, 8), (6, 6), (4, 200)]


def first_hit_count(kernel, g, min_len, max_len):
    """The first hole and the DFS nodes made until it was handed back."""
    counter = [0]
    hole = next(kernel.find_holes(g.adjacency_masks(), g.n, min_len, max_len, counter=counter))
    return hole, counter[0]


def reaches_closing(adj, children, region, target):
    """The cut, by a depth-first search over a stack of vertex masks: can a
    path from a vertex of `children`, continued through `region`, end next
    to a vertex of `target`?"""
    stack = [children]  # the unvisited neighbours at each level
    seen = children
    while stack:
        todo = stack[-1]
        if not todo:
            stack.pop()
            continue
        v_bit = todo & -todo
        stack[-1] = todo ^ v_bit
        nbrs = adj[v_bit.bit_length() - 1]
        if nbrs & target:
            return True
        stack.append(nbrs & region & ~seen)
        seen |= nbrs & region
    return False


def reference_find_holes(
    adj, n, min_len=4, max_len=None, budget=None, counter=None, cut=True, barren=None
):
    """The pure kernel's DFS loop as it was before the frame moved into
    locals: four parallel stacks, one closing hole handed back per pass.
    The kernel must match it hole for hole, in the counter at every yield,
    and in where a budget stops it.

    With no max_len, a child's frame is pushed only where its subtree
    closes a hole (the cut); cut=False pushes it wherever the path can
    grow, which makes the loop the plain enumeration of induced paths.
    barren, a list, gets the path of each frame popped with no hole handed
    back since its push, which a fifth stack, of hole counts, tells.
    """
    if counter is None:
        counter = [0]
    if min_len < 4:
        min_len = 4
    if max_len is not None and max_len > n:
        max_len = n
    nodes = counter[0] = 0
    if max_len is not None and max_len < min_len:
        return
    contractions = [None] * (n + 1)
    yielded = 0
    for anchor in range(n):
        anchor_bit = 1 << anchor
        gt_mask = ((1 << n) - 1) & ~((anchor_bit << 1) - 1)
        adj_anchor = adj[anchor]
        path = [anchor]
        ext_stack = [adj_anchor & gt_mask]
        clos_stack = [0]
        banned_stack = [anchor_bit]
        holes_stack = [yielded]  # the holes handed back before each push
        while path:
            depth = len(path)
            clos = clos_stack[-1]
            if clos:
                u = clos & -clos
                clos_stack[-1] = clos ^ u
                counter[0] = nodes
                yielded += 1
                yield tuple(path) + (u.bit_length() - 1,)
                continue
            ext = ext_stack[-1]
            if not ext:
                if barren is not None and depth >= 2 and holes_stack[-1] == yielded:
                    barren.append(tuple(path))
                path.pop()
                ext_stack.pop()
                clos_stack.pop()
                banned_stack.pop()
                holes_stack.pop()
                continue
            u_bit = ext & -ext
            ext_stack[-1] = ext ^ u_bit
            u = u_bit.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                counter[0] = nodes
                return
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
                clos_new &= ~((1 << (path[1] + 1)) - 1)
            ext_new = cand & ~adj_anchor
            if max_len is not None and new_depth + 2 > max_len:
                ext_new = 0
            if ext_new and max_len is not None:
                lo = max(min_len - (new_depth - 1), 2)
                hi = max_len - (new_depth - 1)
                if not _pycore._completion_feasible(
                    adj, gt_mask & ~banned, u, anchor, lo, hi, contractions, depth
                ):
                    ext_new = 0
            elif ext_new and cut:
                grown = gt_mask & ~banned & ~adj[u]
                second = path[1] if depth >= 2 else u
                closing = adj_anchor & ~((1 << (second + 1)) - 1)
                if not reaches_closing(adj, ext_new, grown & ~adj_anchor, grown & closing):
                    ext_new = 0
            if clos_new or ext_new:
                path.append(u)
                ext_stack.append(ext_new)
                clos_stack.append(clos_new)
                banned_stack.append(banned)
                holes_stack.append(yielded)
    counter[0] = nodes


def trace(find_holes, g, min_len, max_len, budget=None):
    """Each hole with counter[0] as it is handed back, then the final
    counter, which exceeds the budget where the budget stopped the search."""
    counter = [0]
    out = []
    for hole in find_holes(g.adjacency_masks(), g.n, min_len, max_len, budget, counter):
        out.append((hole, counter[0]))
    return out, counter[0]


ALL_WINDOWS = BUDGET_WINDOWS + PRUNE_WINDOWS


def loop_cases(corpus_le7):
    return [
        (g, lo, hi)
        for g in corpus_le7 + budget_graphs() + prune_graphs()
        for lo, hi in ALL_WINDOWS
    ]


def budgets_up_to(total):
    """Every budget up to the total where that is cheap, else the first 50,
    a few spread over the rest, and the last two."""
    if total <= 200:
        return range(total + 1)
    return sorted({*range(50), *range(50, total, total // 6), total - 1, total})


def budgeted(full, budget):
    """The trace of a search under a node budget, read off the trace of the
    same search without one: the holes handed back by node `budget`, then
    the stop at node budget + 1."""
    holes, total = full
    if budget >= total:
        return full
    return [(hole, at) for hole, at in holes if at <= budget], budget + 1


def test_reference_loop_stops_where_budgeted_says():
    for g in budget_graphs():
        for lo, hi in ALL_WINDOWS:
            full = trace(reference_find_holes, g, lo, hi)
            for budget in range(full[1] + 1):
                assert trace(reference_find_holes, g, lo, hi, budget) == budgeted(full, budget)


def cut_graphs(corpus_le7):
    return corpus_le7 + budget_graphs() + prune_graphs() + [
        standard_family("kneser", 5, 2),
        standard_family("mycielski_iterate", 3),
        standard_family("mycielski_iterate", 4),
    ]


@pytest.fixture(scope="module")
def unpruned(corpus_le7):
    """Each graph of cut_graphs with the holes of the plain enumeration of
    its induced paths and the number of frames that enumeration pushes
    with no hole in their subtree."""
    out = []
    for g in cut_graphs(corpus_le7):
        barren = []
        holes = list(reference_find_holes(g.adjacency_masks(), g.n, cut=False, barren=barren))
        out.append((g, holes, len(barren)))
    return out


def test_cut_search_streams_the_unpruned_enumeration(kernel, unpruned):
    """With no max_len, a kernel hands back the holes of the plain
    enumeration, in its order, and matches the reference loop, cut
    included, node for node."""
    for g, holes, _ in unpruned:
        got = trace(kernel.find_holes, g, 4, None)
        assert [hole for hole, _ in got[0]] == holes
        assert got == trace(reference_find_holes, g, 4, None)


def test_cut_keeps_only_frames_that_close_a_hole(unpruned):
    """With no max_len, every frame pushed has a hole in its subtree,
    where the plain enumeration pushes many that have none."""
    for g, holes, _ in unpruned:
        barren = []
        assert list(reference_find_holes(g.adjacency_masks(), g.n, barren=barren)) == holes
        assert barren == []
    assert sum(count for *_, count in unpruned) > 100_000


def test_loop_matches_reference_loop(corpus_le7):
    """Hole for hole, in counter[0] at every yield, and under every budget
    (a sample of them where the search is long)."""
    stopped = 0
    for g, lo, hi in loop_cases(corpus_le7):
        full = trace(reference_find_holes, g, lo, hi)
        assert trace(_pycore.find_holes, g, lo, hi) == full
        for budget in budgets_up_to(full[1]):
            got = trace(_pycore.find_holes, g, lo, hi, budget)
            assert got == budgeted(full, budget)
            stopped += got[1] > budget
    assert stopped > 100_000


def test_node_counts_identical_across_kernels(fastcore, corpus_le7):
    """The compiled kernel hands back each hole at the same DFS node as the
    pure one, and a budget stops it at the same node."""
    for g, lo, hi in loop_cases(corpus_le7):
        pure = trace(_pycore.find_holes, g, lo, hi)
        assert trace(fastcore.find_holes, g, lo, hi) == pure
        for budget in budgets_up_to(pure[1]):
            assert trace(fastcore.find_holes, g, lo, hi, budget) == budgeted(pure, budget)
    # Myc4's windows, where the gate settles most of the calls the BFS
    # leaves open
    myc4 = standard_family("mycielski_iterate", 4)
    for lo, hi in MYC4_WINDOWS:
        pure = trace(_pycore.find_holes, myc4, lo, hi)
        assert trace(fastcore.find_holes, myc4, lo, hi) == pure
        total = pure[1]
        for budget in (0, 1, total // 3, total // 2, total - 1, total):
            assert trace(fastcore.find_holes, myc4, lo, hi, budget) == budgeted(pure, budget)
    # first hits on findhole gadgets, as the windowed first-hit jobs make
    for ell in range(24, 33):
        gadget = findhole_gadget(ell, 2, 2, 4)
        pure = first_hit_count(_pycore, gadget, ell, ell)
        assert first_hit_count(fastcore, gadget, ell, ell) == pure
        assert len(pure[0]) == ell and pure[1] > 0


def test_enumerate_holes_charges_kernel_nodes(kernel, monkeypatch):
    """One shared Budget is charged exactly the kernel's DFS nodes."""
    import holelab.holes

    monkeypatch.setattr(holelab.holes, "find_holes", kernel.find_holes)
    budget = Budget(None)
    expected = 0
    for g in budget_graphs():
        for lo, hi in BUDGET_WINDOWS:
            expected += node_count(kernel, g, lo, hi)
            list(enumerate_holes(g, lo, hi, budget))
            assert budget.used == expected
    # a stream closed early is charged for the nodes made so far
    g = petersen_graph()
    counter = [0]
    next(kernel.find_holes(g.adjacency_masks(), g.n, counter=counter))
    stream = enumerate_holes(g, budget=budget)
    next(stream)
    stream.close()
    assert budget.used == expected + counter[0] > expected


def test_enumerate_holes_yields_the_kernel_stream(kernel, monkeypatch):
    """enumerate_holes hands on the kernel's holes unchanged, each a tuple
    of plain ints, with no budget and under budgets that cut the stream."""
    import holelab.holes

    monkeypatch.setattr(holelab.holes, "find_holes", kernel.find_holes)
    cut = 0
    for g in budget_graphs():
        for lo, hi in BUDGET_WINDOWS:
            full = trace(kernel.find_holes, g, lo, hi)
            for limit in (None, *budgets_up_to(full[1])):
                want = full if limit is None else budgeted(full, limit)
                got = []
                try:
                    for hole in enumerate_holes(g, lo, hi, Budget(limit)):
                        got.append(hole)
                except BudgetExceededError as exc:
                    assert str(exc) == f"hole search exceeded budget of {limit} nodes"
                    assert exc.partial == len(got)
                    assert want[1] > limit
                    cut += 1
                else:
                    assert limit is None or want[1] <= limit
                assert got == [hole for hole, _ in want[0]]
                assert all(type(h) is tuple and {type(v) for v in h} == {int} for h in got)
    assert cut > 1000


def test_hole_search_exhausts_a_shared_budget(kernel, monkeypatch):
    import holelab.holes

    monkeypatch.setattr(holelab.holes, "find_holes", kernel.find_holes)
    g = petersen_graph()
    counter = [0]
    before_budget = list(kernel.find_holes(g.adjacency_masks(), g.n, 4, None, 30, counter))
    assert counter[0] == 31
    budget = Budget(50)
    budget.tick(20)
    with pytest.raises(BudgetExceededError) as info:
        list(enumerate_holes(g, budget=budget))
    # the kernel was given the 30 remaining nodes and made one more
    assert budget.used == 51
    assert info.value.partial == len(before_budget) > 0
    with pytest.raises(BudgetExceededError):
        budget.tick()
