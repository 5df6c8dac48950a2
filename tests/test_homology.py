import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holelab.budget import Budget
from holelab.errors import BudgetExceededError, InputError
from holelab import homology
from holelab.graph import Graph
from holelab.homology import (
    BalanceVerdict,
    _matrix_rank,
    betti_numbers,
    euler_characteristic,
    independence_parity,
    is_k_balanced,
)

from conftest import (
    CORPUS_LE7,
    complete_graph,
    cycle_graph,
    oracle_parity,
    random_graph,
)


def test_parity_known_values():
    # a complete graph's stable sets: the empty set plus each vertex
    for m in range(1, 8):
        assert independence_parity(complete_graph(m)) == (1, m)
    assert independence_parity(Graph(0)) == (1, 0)
    # edgeless graph: binomial halves, 2^(n-1) each for n >= 1
    assert independence_parity(Graph(5)) == (16, 16)
    assert independence_parity(Graph(5, cycle_graph(5))) == (6, 5)


def test_parity_matches_enumeration():
    rng = random.Random(17)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(0, 11), rng.uniform(0.1, 0.8))
        assert independence_parity(g) == oracle_parity(g)


def test_euler_characteristic_face_counts():
    rep = euler_characteristic(Graph(5, cycle_graph(5)))
    assert rep.face_counts == (5, 5)  # vertices and the five stable pairs
    assert rep.euler_unreduced == 0
    assert rep.euler_reduced == -1
    empty = euler_characteristic(Graph(0))
    assert empty.face_counts == ()
    assert empty.euler_unreduced == 0 and empty.euler_reduced == -1


def test_euler_consistent_with_parity():
    rng = random.Random(40)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(0, 10), rng.uniform(0.2, 0.7))
        rep = euler_characteristic(g)
        e, o = independence_parity(g)
        assert rep.euler_reduced == o - e
        assert rep.euler_unreduced == o - e + 1


def test_betti_known_complexes():
    # Ind(C4) is two disjoint edges; Ind(C5) and Ind(C6) are circles
    assert betti_numbers(Graph(4, cycle_graph(4))).betti == (2,)
    assert betti_numbers(Graph(5, cycle_graph(5))).betti == (1, 1)
    assert betti_numbers(Graph(6, cycle_graph(6))).betti == (1, 2)
    # Ind(K_m) is m isolated points
    assert betti_numbers(complete_graph(4)).betti == (4,)
    # a cone point (isolated graph vertex) makes the complex contractible
    assert betti_numbers(Graph(5, cycle_graph(4))).betti == (1,)


def test_betti_alternating_sum_is_euler():
    rng = random.Random(8)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9), rng.uniform(0.2, 0.7))
        rep = betti_numbers(g)
        assert sum((-1) ** i * b for i, b in enumerate(rep.betti)) == rep.euler_unreduced
        assert rep.total_betti == sum(rep.betti)
        assert rep.parity == independence_parity(g)
        assert all(b >= 0 for b in rep.betti)


def test_balance_small_cases():
    # K2: every subgraph has imbalance at most 1; the whole has (1, 2)
    v = is_k_balanced(Graph(2, [(0, 1)]), 1)
    assert v.balanced and v.exhaustive and v.violation is None
    # K3 contains K2 with |e - o| = 1 > 0
    v = is_k_balanced(complete_graph(3), 0)
    assert not v.balanced and v.exhaustive
    assert v.imbalance > 0
    # the violation witness is definite: recompute its imbalance
    sub, _ = complete_graph(3).induced_subgraph(v.violation)
    e, o = independence_parity(sub)
    assert abs(e - o) == v.imbalance > 0
    # edgeless graphs are 1-balanced but not 0-balanced (single vertex)
    assert is_k_balanced(Graph(4), 1).balanced
    assert not is_k_balanced(Graph(4), 0).balanced
    with pytest.raises(InputError):
        is_k_balanced(Graph(2), -1)


def test_balance_k3_is_2_balanced():
    # K_m has parity (1, m): imbalance m - 1, so K3 violates k = 1
    v = is_k_balanced(complete_graph(3), 1)
    assert not v.balanced and v.imbalance == 2
    assert is_k_balanced(complete_graph(3), 2).balanced


def test_balance_sampled_mode_flags_non_exhaustive():
    g = Graph(8, cycle_graph(8))
    v = is_k_balanced(g, 1, subgraph_budget=64, seed=3)
    assert not v.exhaustive
    # the same check run exhaustively must agree or find more
    full = is_k_balanced(g, 1)
    assert full.exhaustive
    if v.balanced:
        pass  # sampling may miss violations but must not invent them
    else:
        assert not full.balanced


def test_budget_propagates():
    with pytest.raises(BudgetExceededError):
        independence_parity(Graph(8, cycle_graph(8)), Budget(2))


# ---------------------------------------------------------------------------
# oracles for the exact fast paths


def oracle_rank(rows: list[list[int]]) -> int:
    """Rank over Q by dense Gaussian elimination on Fractions."""
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for r in range(rank + 1, n_rows):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n_cols):
                    m[r][c] -= factor * m[rank][c]
        rank += 1
        if rank == n_rows:
            break
    return rank


def subset_imbalances(g: Graph):
    """(subset, |S_even - S_odd|) of every induced subgraph, in the scan
    order of exhaustive balance: by size, lexicographic within a size; each
    through its own induced subgraph and parity recursion."""
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            sub, keep = g.induced_subgraph(subset)
            e, o = independence_parity(sub)
            yield frozenset(keep), abs(e - o)


def oracle_balance(scan: list, k: int) -> BalanceVerdict:
    """The verdict of a subset scan: its first subset with imbalance > k."""
    for keep, diff in scan:
        if diff > k:
            return BalanceVerdict(k, False, keep, True, diff)
    return BalanceVerdict(k, True, None, True)


def test_rank_matches_fraction_elimination():
    rng = random.Random(23)
    deficient = non_unit = 0
    for _ in range(400):
        n_rows, n_cols = rng.randrange(0, 9), rng.randrange(1, 9)
        density = rng.uniform(0.2, 0.9)
        dense = [
            [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        if n_rows > 1 and rng.random() < 0.3:
            dense[-1] = [-x for x in dense[0]]  # a dependent row
        sparse = [{c: x for c, x in enumerate(row) if x} for row in dense]
        want = oracle_rank(dense)
        assert _matrix_rank(sparse) == want, dense
        assert sparse == [{c: x for c, x in enumerate(row) if x} for row in dense]
        deficient += want < min(n_rows, n_cols)
        non_unit += any(abs(x) > 1 for row in dense for x in row)
    assert deficient > 50 and non_unit > 300


def _gf2_rank(rows) -> int:
    basis: dict[int, int] = {}  # leading bit -> row as a bitmask of odd entries
    for row in rows:
        mask = sum(1 << c for c, x in row.items() if x % 2)
        while mask:
            lead = mask & -mask
            if lead not in basis:
                basis[lead] = mask
                break
            mask ^= basis[lead]
    return len(basis)


def test_betti_over_q_ignores_torsion(monkeypatch):
    # Ind of this graph is the barycentric subdivision of the 6-vertex RP^2:
    # vertices are the 31 faces of RP^2, and two are adjacent unless one
    # contains the other, so stable sets are chains of faces
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    faces = sorted(
        {sub for t in triangles for r in (1, 2, 3) for sub in combinations(t, r)},
        key=lambda f: (len(f), f),
    )
    edges = [
        (i, j)
        for i, j in combinations(range(len(faces)), 2)
        if not set(faces[i]) <= set(faces[j])
    ]
    g = Graph(len(faces), edges)
    rep = betti_numbers(g)
    assert rep.face_counts == (31, 90, 60)
    assert rep.betti == (1,)  # RP^2 is acyclic over Q
    # H_1(RP^2; Z) = Z/2, so a mod-2 rank reads homology in every dimension
    monkeypatch.setattr(homology, "_matrix_rank", _gf2_rank)
    assert betti_numbers(g).betti == (1, 1, 1)


def test_balance_matches_subset_scan_on_le7(corpus_le7):
    assert len(corpus_le7) == 1253
    for g in corpus_le7:
        scan = list(subset_imbalances(g))
        for k in (0, 1, 2):
            assert is_k_balanced(g, k) == oracle_balance(scan, k), (g, k)


def test_balance_matches_subset_scan_on_random_graphs():
    rng = random.Random(31)
    for n in range(10, 15):
        g = random_graph(rng, n, rng.uniform(0.2, 0.5))
        scan = list(subset_imbalances(g))
        worst = max(diff for _, diff in scan)
        for k in sorted({0, 1, 2, worst - 1, worst}):
            assert is_k_balanced(g, k) == oracle_balance(scan, k), (n, k)


def test_exhaustive_balance_charges_its_table_first(monkeypatch):
    g = Graph(8, cycle_graph(8))

    def unbuilt(graph):
        raise AssertionError("subset table built before the budget was charged")

    with monkeypatch.context() as m:
        m.setattr(homology, "_signed_counts", unbuilt)
        with pytest.raises(BudgetExceededError):
            is_k_balanced(g, 1, budget=Budget((1 << 8) - 1))
    budget = Budget(1 << 8)
    assert is_k_balanced(g, 3, budget=budget).balanced
    assert budget.used == 1 << 8


@pytest.mark.parametrize("subgraph_budget", [0, -1])
def test_balance_rejects_subgraph_budget_below_one(subgraph_budget):
    with pytest.raises(InputError):
        is_k_balanced(Graph(4, cycle_graph(4)), 1, subgraph_budget=subgraph_budget)
