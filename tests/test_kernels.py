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
from holelab.gadgets import findhole_gadget
from holelab.graph import Graph
from holelab.holes import enumerate_holes
from holelab.kernels import _pycore

from conftest import cycle_graph, oracle_holes, petersen_graph, random_graph


@pytest.fixture(params=["pure", "compiled"])
def kernel(request):
    if request.param == "pure":
        return _pycore
    return request.getfixturevalue("fastcore")


def holes_of(kernel, g, min_len=4, max_len=None, budget=None):
    return list(kernel.find_holes(g.adjacency_masks(), g.n, min_len, max_len, budget))


def node_count(kernel, g, min_len=4, max_len=None):
    counter = [0]
    for _ in kernel.find_holes(g.adjacency_masks(), g.n, min_len, max_len, counter=counter):
        pass
    return counter[0]


# sizes crossing the 64-bit word boundary and going past two words, with
# mean degrees low enough that the full hole stream stays small
PRUNE_GRAPHS = [(18, 4.0), (30, 4.0), (63, 2.8), (64, 2.8), (65, 2.8), (130, 2.0)]
PRUNE_WINDOWS = [(6, 9), (5, 5)]


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


def test_budget_exhaustion_raises(kernel):
    g = petersen_graph()
    with pytest.raises(BudgetExceededError):
        list(kernel.find_holes(g.adjacency_masks(), g.n, 4, None, 3))


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


def test_prune_verdicts_match_full_sweep(monkeypatch):
    """The BFS layer of the prune settles a call only where the sweep
    would give the same verdict.

    The call and reject counts pin the verdicts: any change of verdict
    moves the DFS and with it these counts. They are those of the compiled
    kernel's sweep, which test_node_counts_identical_across_kernels checks
    node for node.
    """
    calls = []
    feasible = _pycore._completion_feasible

    def record(adj, allowed, start, anchor, lo, hi):
        verdict = feasible(adj, allowed, start, anchor, lo, hi)
        calls.append((adj, allowed, start, anchor, lo, hi, verdict))
        return verdict

    monkeypatch.setattr(_pycore, "_completion_feasible", record)
    for g in prune_graphs():
        for lo, hi in PRUNE_WINDOWS:
            holes_of(_pycore, g, lo, hi)
    gadget = findhole_gadget(24, 2, 2, 4)
    search = _pycore.find_holes(gadget.adjacency_masks(), gadget.n, 24, 24, 10_000)
    assert len(next(search)) == 24
    verdicts = [verdict for *_, verdict in calls]
    assert (len(verdicts), verdicts.count(False)) == (6416, 2625)
    for adj, allowed, start, anchor, lo, hi, verdict in calls:
        live = allowed | (1 << start) | (1 << anchor)
        assert _pycore._sweep_feasible(adj, live, start, anchor, lo, hi) == verdict


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
    for g in prune_graphs():
        full = holes_of(kernel, g)
        for lo, hi in PRUNE_WINDOWS:
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


def test_node_counts_identical_across_kernels(fastcore):
    cases = [(g, lo, hi) for g in budget_graphs() for lo, hi in BUDGET_WINDOWS]
    cases += [(g, lo, hi) for g in prune_graphs() for lo, hi in PRUNE_WINDOWS]
    counts = {
        kernel: [node_count(kernel, g, lo, hi) for g, lo, hi in cases]
        for kernel in (_pycore, fastcore)
    }
    assert counts[_pycore] == counts[fastcore]
    assert sum(counts[_pycore]) > 0


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


def test_hole_search_exhausts_a_shared_budget(kernel, monkeypatch):
    import holelab.holes

    monkeypatch.setattr(holelab.holes, "find_holes", kernel.find_holes)
    g = petersen_graph()
    before_budget = []
    with pytest.raises(BudgetExceededError):
        for hole in kernel.find_holes(g.adjacency_masks(), g.n, 4, None, 30):
            before_budget.append(hole)
    budget = Budget(50)
    budget.tick(20)
    with pytest.raises(BudgetExceededError) as info:
        list(enumerate_holes(g, budget=budget))
    # the kernel was given the 30 remaining nodes and made one more
    assert budget.used == 51
    assert info.value.partial == len(before_budget) > 0
    with pytest.raises(BudgetExceededError):
        budget.tick()
