"""The two hole-search kernels must emit identical canonical streams."""

import os
import random
import subprocess
import sys

import pytest

from holelab.budget import Budget
from holelab.errors import BudgetExceededError
from holelab.gadgets import findhole_gadget
from holelab.graph import Graph
from holelab.kernels import _pycore

from conftest import cycle_graph, oracle_holes, petersen_graph, random_graph

try:
    from holelab.kernels import _fastcore as fastcore
except ImportError:
    fastcore = None

needs_fastcore = pytest.mark.skipif(
    fastcore is None, reason="compiled kernel _fastcore is not built"
)

KERNELS = [
    pytest.param(_pycore, id="pure"),
    pytest.param(fastcore, id="compiled", marks=needs_fastcore),
]


def holes_of(kernel, g, min_len=4, max_len=None, budget=None):
    return list(kernel.find_holes(g.adjacency_masks(), g.n, min_len, max_len, budget))


# sizes crossing the 64-bit word boundary and going past two words, with
# mean degrees low enough that the full hole stream stays small
PRUNE_GRAPHS = [(18, 4.0), (30, 4.0), (63, 2.8), (64, 2.8), (65, 2.8), (130, 2.0)]
PRUNE_WINDOWS = [(6, 9), (5, 5)]


def prune_graphs():
    rng = random.Random(3)
    return [random_graph(rng, n, deg / (n - 1)) for n, deg in PRUNE_GRAPHS]


@pytest.mark.parametrize("kernel", KERNELS)
def test_cycle_graph_single_hole(kernel):
    g = Graph(6, cycle_graph(6))
    assert holes_of(kernel, g) == [(0, 1, 2, 3, 4, 5)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_triangle_and_chorded_cycle_have_no_holes(kernel):
    assert holes_of(kernel, Graph(3, cycle_graph(3))) == []
    chorded = Graph(5, cycle_graph(5) + [(0, 2)])
    assert holes_of(kernel, chorded) == [(0, 2, 3, 4)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_canonical_form(kernel):
    g = petersen_graph()
    for vs in holes_of(kernel, g):
        assert vs[0] == min(vs)
        assert vs[1] < vs[-1]


@pytest.mark.parametrize("kernel", KERNELS)
def test_against_subset_oracle(kernel):
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(4, 10), rng.uniform(0.2, 0.6))
        got = {frozenset(vs) for vs in holes_of(kernel, g)}
        assert got == oracle_holes(g)


@pytest.mark.parametrize("kernel", KERNELS)
def test_length_window(kernel):
    g = petersen_graph()
    assert all(len(v) == 5 for v in holes_of(kernel, g, 5, 5))
    assert holes_of(kernel, g, 7, None) == []
    rng = random.Random(5)
    for _ in range(30):
        h = random_graph(rng, 9, 0.35)
        windowed = {frozenset(v) for v in holes_of(kernel, h, 5, 7)}
        assert windowed == oracle_holes(h, 5, 7)


@needs_fastcore
def test_streams_identical_across_kernels():
    rng = random.Random(99)
    for _ in range(120):
        g = random_graph(rng, rng.randrange(0, 13), rng.uniform(0.1, 0.7))
        for lo, hi in ((4, None), (5, 8), (6, 6)):
            assert holes_of(_pycore, g, lo, hi) == holes_of(fastcore, g, lo, hi)
    for g in prune_graphs():
        for lo, hi in PRUNE_WINDOWS:
            assert holes_of(_pycore, g, lo, hi) == holes_of(fastcore, g, lo, hi)


@pytest.mark.parametrize("kernel", KERNELS)
def test_budget_exhaustion_raises(kernel):
    g = petersen_graph()
    with pytest.raises(BudgetExceededError):
        list(kernel.find_holes(g.adjacency_masks(), g.n, 4, None, 3))


@pytest.mark.parametrize("kernel", KERNELS)
def test_trivial_graphs(kernel):
    assert holes_of(kernel, Graph(0)) == []
    assert holes_of(kernel, Graph(1)) == []
    assert holes_of(kernel, Graph(4, [(0, 1), (1, 2)])) == []


@pytest.mark.parametrize(
    "pure_env, expected",
    [
        pytest.param("1", "pure", id="pure"),
        pytest.param(None, "compiled", id="compiled", marks=needs_fastcore),
    ],
)
def test_env_var_forces_pure_kernel(pure_env, expected):
    code = "from holelab.kernels import IMPLEMENTATION; print(IMPLEMENTATION)"
    env = dict(os.environ)
    env.pop("HOLELAB_PURE", None)
    if pure_env is not None:
        env["HOLELAB_PURE"] = pure_env
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == expected


def test_enumerate_holes_wrapper_respects_budget():
    from holelab.holes import enumerate_holes

    g = petersen_graph()
    budget = Budget(3)
    with pytest.raises(BudgetExceededError):
        list(enumerate_holes(g, budget=budget))


def test_prune_verdicts_match_full_sweep(monkeypatch):
    """The BFS layer of the prune settles a call only where the sweep
    would give the same verdict.

    The call and reject counts are those of the single-layer prune this
    one replaced, which swept every call: any change of verdict moves the
    DFS and with it these counts.
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
    assert (len(verdicts), verdicts.count(False)) == (6413, 2627)
    for adj, allowed, start, anchor, lo, hi, verdict in calls:
        live = allowed | (1 << start) | (1 << anchor)
        assert _pycore._sweep_feasible(adj, live, start, anchor, lo, hi) == verdict


@pytest.mark.parametrize("kernel", KERNELS)
def test_windowed_stream_is_filtered_full_stream(kernel):
    # the unwindowed search runs no prune, so it is an independent reference
    for g in prune_graphs():
        full = holes_of(kernel, g)
        for lo, hi in PRUNE_WINDOWS:
            expected = [h for h in full if lo <= len(h) <= hi]
            assert holes_of(kernel, g, lo, hi) == expected
