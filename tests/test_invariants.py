import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holelab.invariants as invariants
from holelab.budget import Budget
from holelab.cli import EXIT_BUDGET, EXIT_CLEAN, main
from holelab.errors import BudgetExceededError, InputError
from holelab.gadgets import standard_family
from holelab.graph import Graph, bits, mask_of
from holelab.invariants import (
    _chromatic_above,
    _clique,
    _greedy_coloring,
    _k_colorable,
    chi_rho,
    chromatic_number,
    clique_number,
)

from conftest import (
    CORPUS_LE7,
    complete_graph,
    cycle_graph,
    oracle_chromatic_number,
    oracle_clique_number,
    petersen_graph,
    random_graph,
)


def test_clique_number_known_values():
    assert clique_number(Graph(0))[0] == 0
    assert clique_number(Graph(3))[0] == 1
    assert clique_number(complete_graph(6))[0] == 6
    assert clique_number(petersen_graph())[0] == 2
    assert clique_number(Graph(5, cycle_graph(5)))[0] == 2


def test_clique_witness_is_a_clique():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 11), rng.uniform(0.2, 0.8))
        size, witness = clique_number(g)
        assert len(witness) == size
        assert g.is_clique(witness)
        assert size == oracle_clique_number(g)


def test_chromatic_number_known_values():
    assert chromatic_number(Graph(0)) == (0, ())
    assert chromatic_number(Graph(4))[0] == 1
    assert chromatic_number(complete_graph(5))[0] == 5
    assert chromatic_number(Graph(5, cycle_graph(5)))[0] == 3
    assert chromatic_number(Graph(6, cycle_graph(6)))[0] == 2
    assert chromatic_number(petersen_graph())[0] == 3


def test_coloring_witness_is_proper_and_tight():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 10), rng.uniform(0.2, 0.8))
        chi, coloring = chromatic_number(g)
        assert len(coloring) == g.n
        assert all(coloring[u] != coloring[v] for u, v in g.edges())
        assert len(set(coloring)) == max(chi, 0 if g.n else 0)
        assert chi == oracle_chromatic_number(g)


def test_chi_rho_values():
    g = petersen_graph()
    # radius-1 balls in a triangle-free graph are stars: two-colorable
    assert chi_rho(g, 1) == 2
    # radius-2 balls cover all of the Petersen graph (diameter 2)
    assert chi_rho(g, 2) == 3
    assert chi_rho(Graph(0), 1) == 0
    with pytest.raises(InputError):
        chi_rho(g, 0)


def test_chi_rho_monotone_in_radius():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, 9, 0.4)
        values = [chi_rho(g, rho) for rho in (1, 2, 3)]
        assert values == sorted(values)
        chi, _ = chromatic_number(g)
        assert values[-1] <= chi


def test_budget_carries_bracketing_bounds():
    g = complete_graph(12)
    with pytest.raises(BudgetExceededError) as exc:
        clique_number(g, Budget(5))
    assert 0 <= exc.value.lower <= 12
    assert exc.value.upper == 12

    with pytest.raises(BudgetExceededError) as exc:
        chromatic_number(petersen_graph(), Budget(1))
    assert exc.value.lower <= 3 <= exc.value.upper


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
            ).filter(lambda e: e[0] != e[1]),
            max_size=20,
        )
    ) if n > 1 else []
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_omega_le_chi_le_degree_bound(g):
    omega, _ = clique_number(g)
    chi, _ = chromatic_number(g)
    assert omega <= chi
    max_deg = max((g.degree(v) for v in g.vertices()), default=-1)
    assert chi <= max(max_deg + 1, 1 if g.n else 0)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_chi_matches_exhaustive_assignment(g):
    chi, _ = chromatic_number(g)
    assert chi == oracle_chromatic_number(g)


MYC3_COLORING = [0, 1, 0, 1, 2, 0, 1, 0, 1, 3, 2, 0, 1, 0, 1, 2, 0, 1, 0, 1, 4, 2, 3]


def test_k_colorable_branching_is_pinned():
    # Myc3 (n = 23, omega = 2, chi = 5): node counts and the witness of the
    # DSATUR search, which invariants prints, must not move
    g = standard_family("mycielski_iterate", 3)
    adj, live = g.adjacency_masks(), g.full_mask()
    clique = clique_number(g)[1]
    budget = Budget()
    assert _k_colorable(adj, live, 4, clique, budget) is None
    assert budget.used == 692
    budget = Budget()
    coloring = _k_colorable(adj, live, 5, clique, budget)
    assert budget.used == 21
    assert coloring == MYC3_COLORING


def test_k_colorable_on_a_mask_is_the_search_on_its_copy():
    # vertices 0..22 of Myc4 induce Myc3, so the search on that mask of
    # Myc4 makes the pinned search on Myc3, with -1 on the other vertices
    g4 = standard_family("mycielski_iterate", 4)
    live = (1 << 23) - 1
    assert g4.induced_subgraph(range(23))[0] == standard_family("mycielski_iterate", 3)
    adj = g4.adjacency_masks()
    clique = _clique(adj, live, Budget())[1]
    budget = Budget()
    assert _k_colorable(adj, live, 4, clique, budget) is None
    assert budget.used == 692
    budget = Budget()
    coloring = _k_colorable(adj, live, 5, clique, budget)
    assert budget.used == 21
    assert coloring == MYC3_COLORING + [-1] * (g4.n - 23)


def _search_outcome(search, budget):
    """(value, nodes) of a search, or its budget error's (lower, upper)."""
    try:
        return search(budget), budget.used
    except BudgetExceededError as exc:
        return "budget", exc.lower, exc.upper


def test_searches_on_a_mask_are_the_searches_on_its_copy():
    """The clique and colouring searches on (adj, mask) give the value,
    the witness, the nodes and the budget error bounds of the same call on
    the copy induced_subgraph makes, whose vertices keep their order."""
    rng = random.Random(25)
    errors = 0
    for _ in range(60):
        n = rng.randrange(1, 19)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        live = rng.getrandbits(n)
        sub, keep = g.induced_subgraph(bits(live))
        adj, sub_adj, sub_live = g.adjacency_masks(), sub.adjacency_masks(), sub.full_mask()

        def lift(coloring):
            """The copy's colouring on g's vertices, -1 off the mask."""
            if coloring is None:
                return None
            out = [-1] * n
            for i, c in enumerate(coloring):
                out[keep[i]] = c
            return out

        assert _greedy_coloring(adj, live) == lift(_greedy_coloring(sub_adj, sub_live))
        clique, sub_clique = _clique(adj, live, Budget())[1], _clique(sub_adj, sub_live, Budget())[1]
        for k in range(len(clique), len(clique) + 3):
            budget, sub_budget = Budget(), Budget()
            assert _k_colorable(adj, live, k, clique, budget) == lift(
                _k_colorable(sub_adj, sub_live, k, sub_clique, sub_budget)
            )
            assert budget.used == sub_budget.used
        for limit in (None, 1, 3, 10, 30):
            for floor in range(4):
                got = _search_outcome(
                    lambda b: _chromatic_above(adj, live, floor, b), Budget(limit)
                )
                want = _search_outcome(
                    lambda b: _chromatic_above(sub_adj, sub_live, floor, b), Budget(limit)
                )
                assert got == want, (g, live, limit, floor)
                errors += got[0] == "budget"
            got = _search_outcome(lambda b: _clique(adj, live, b), Budget(limit))
            want = _search_outcome(lambda b: _clique(sub_adj, sub_live, b), Budget(limit))
            if want[0] != "budget":
                (size, witness), nodes = want
                want = (size, frozenset(keep[v] for v in witness)), nodes
            assert got == want, (g, live, limit)
            errors += got[0] == "budget"
    assert errors


def test_chromatic_above_is_max_of_chi_and_floor():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randrange(0, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.7) if n < 9 else 0.3)
        chi = oracle_chromatic_number(g)
        for t in range(n + 2):
            assert _chromatic_above(
                g.adjacency_masks(), g.full_mask(), t, Budget()
            ) == max(chi, t)


def _chi_rho_reference(g, rho):
    """Every ball searched in full, in vertex order: (chi_rho, the balls in
    the order chi_rho first meets them, the number of vertices scanned
    before the running maximum reaches chi(G))."""
    chi = chromatic_number(g)[0]
    best, balls, reached = 0, [], None
    for v in g.vertices():
        ball = g.ball(v, rho, closed=True)
        balls.append(mask_of(ball))
        best = max(best, chromatic_number(g.induced_subgraph(ball)[0])[0])
        if best == chi and reached is None:
            reached = v + 1
    return best, balls, reached


def _check_chi_rho(graphs, monkeypatch):
    calls = []
    real = invariants._chromatic_above

    def counted(adj, live, floor, budget):
        calls.append(live.bit_count())
        return real(adj, live, floor, budget)

    monkeypatch.setattr(invariants, "_chromatic_above", counted)
    repeated = stopped = 0
    for g in graphs:
        chi = chromatic_number(g)[0]
        for rho in (1, 2, 3):
            want, balls, reached = _chi_rho_reference(g, rho)
            del calls[:]
            assert chi_rho(g, rho) == want
            # one call per distinct ball
            assert len(calls) == len(set(balls))
            repeated += len(set(balls)) < len(balls)
            del calls[:]
            assert chi_rho(g, rho, chi=chi) == want
            # ... met before the maximum reaches chi
            scanned = balls[: reached if reached is not None else g.n]
            assert len(calls) == len(set(scanned))
            stopped += len(scanned) < g.n
    assert repeated and stopped


def test_chi_rho_matches_per_ball_search_on_le7(corpus_le7, monkeypatch):
    _check_chi_rho(corpus_le7, monkeypatch)


def test_chi_rho_matches_per_ball_search_on_random_graphs(monkeypatch):
    rng = random.Random(17)
    graphs = [
        random_graph(rng, rng.randrange(8, 16), rng.uniform(0.1, 0.5))
        for _ in range(30)
    ]
    _check_chi_rho(graphs, monkeypatch)


def test_chi_rho_budget_bounds_bracket_chi_rho(tmp_path):
    # C5 plus K4: chi_rho(2) = chi = 4, reached only at the K4's balls
    path = tmp_path / "g.txt"
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    edges += [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    out = tmp_path / "out.json"
    tripped_in_chi_rho = 0
    lowers = []
    for limit in range(0, 60):
        code = main(
            [
                "--budget-nodes", str(limit), "--format", "edgelist",
                "--json-out", str(out), "invariants", str(path), "--rho", "2",
            ]
        )
        (row,) = json.loads(out.read_text())
        if code == EXIT_CLEAN:
            assert row["chi_rho_2"] == 4
            continue
        assert code == EXIT_BUDGET
        lower, upper = row["bounds"]
        assert lower <= 4 <= upper
        if "chi" in row:
            tripped_in_chi_rho += 1
            lowers.append(lower)
    assert tripped_in_chi_rho
    # more budget never proves less: lower keeps the best value so far
    # (3, from the C5's balls) when the K4's ball trips
    assert lowers == sorted(lowers) and 3 in lowers
    g = Graph(9, edges)
    lowers = []
    for limit in range(0, 40):
        try:
            assert chi_rho(g, 2, Budget(limit)) == 4
        except BudgetExceededError as exc:
            # without chi(G) the upper bound is the maximum degree plus one
            assert exc.lower <= 4 <= exc.upper == 4
            lowers.append(exc.lower)
    assert lowers == sorted(lowers) and 3 in lowers


def test_invariants_json_is_byte_stable(tmp_path):
    out = tmp_path / "inv.json"
    code = main(
        ["--json-out", str(out), "invariants", str(CORPUS_LE7), "--rho", "1", "2", "3"]
    )
    assert code == EXIT_CLEAN
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "db1b744e710cb6a90c376344773f7087cf8d2c1538d845eb64cd3d8514c52a9f"
    )
