import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holelab.budget import Budget
from holelab.errors import BudgetExceededError, ChordError, InputError
from holelab.graph import Graph
from holelab.gadgets import standard_family
from holelab.invariants import chromatic_number
from holelab.holes import (
    anticomplete_hole_family,
    canonical_hole,
    consecutive_hole_pairs,
    enumerate_holes,
    is_d_peripheral,
    residue_coverage,
    sequence_defect,
    validate_hole,
)

from conftest import cycle_graph, oracle_holes, petersen_graph, random_graph


def test_validate_catches_defects():
    g = Graph(6, cycle_graph(6))
    validate_hole(g, (0, 1, 2, 3, 4, 5))
    with pytest.raises(InputError):
        validate_hole(g, (0, 1, 2))  # too short
    with pytest.raises(InputError):
        validate_hole(g, (0, 1, 2, 3))  # 3-0 is not an edge
    with pytest.raises(InputError):
        validate_hole(g, (1, 2, 3, 4, 5, 0))  # wrong rotation
    chorded = Graph(5, cycle_graph(5) + [(0, 2)])
    with pytest.raises(ChordError) as exc:
        validate_hole(chorded, (0, 1, 2, 3, 4))
    assert set(exc.value.chord) == {0, 2}


def test_sequence_defect_reports_first_pair():
    g = Graph(6, cycle_graph(6) + [(1, 4), (0, 3)])
    assert sequence_defect(g, (0, 1, 2), cyclic=False) is None
    assert sequence_defect(g, (5, 0, 1), cyclic=False) is None
    # (0, 1, 2) closed into a cycle misses the edge 0-2
    assert sequence_defect(g, (0, 1, 2), cyclic=True) == (0, 2, True)
    # chords 0-3 and 1-4: the pair with the smaller first position wins
    assert sequence_defect(g, (0, 1, 2, 3, 4, 5), cyclic=True) == (0, 3, False)
    assert sequence_defect(g, (1, 2, 3, 4), cyclic=False) == (1, 4, False)
    # an open path does not need its ends adjacent, a cycle does
    assert sequence_defect(g, (1, 2, 3), cyclic=False) is None
    assert sequence_defect(g, (1, 2, 3), cyclic=True) == (1, 3, True)


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 10), st.integers(0, 20), st.data())
def test_canonical_hole_kills_rotation_and_reflection(k, rot, data):
    base = list(range(0, 2 * k, 2))
    random.Random(7).shuffle(base)
    rotated = base[rot % k :] + base[: rot % k]
    if data.draw(st.booleans()):
        rotated.reverse()
    assert canonical_hole(rotated) == canonical_hole(base)
    vs = canonical_hole(base)
    assert vs[0] == min(vs) and vs[1] < vs[-1]


def test_petersen_hole_census():
    g = petersen_graph()
    holes = list(enumerate_holes(g))
    by_len = {}
    for h in holes:
        by_len[len(h)] = by_len.get(len(h), 0) + 1
    assert by_len == {5: 12, 6: 10}
    for h in holes:
        validate_hole(g, h)
    assert len(set(holes)) == 22


def test_enumerate_matches_oracle():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(4, 10), rng.uniform(0.2, 0.6))
        got = {frozenset(h) for h in enumerate_holes(g)}
        assert got == oracle_holes(g)


def test_min_len_below_four_rejected():
    with pytest.raises(InputError):
        list(enumerate_holes(Graph(5, cycle_graph(5)), min_len=3))


def test_d_peripheral():
    # C4 plus a far-away triangle: chi of the exterior is 3
    g = Graph(7, cycle_graph(4) + [(4, 5), (5, 6), (4, 6)])
    hole = (0, 1, 2, 3)
    ok, exterior = is_d_peripheral(g, hole, 2)
    assert ok and exterior == frozenset({4, 5, 6})
    ok3, _ = is_d_peripheral(g, hole, 3)
    assert not ok3
    # within one graph, peripherality is antitone in d
    for d in range(4):
        if is_d_peripheral(g, hole, d + 1)[0]:
            assert is_d_peripheral(g, hole, d)[0]
    # a negative d is refused, also where the exterior is empty
    c5 = Graph(5, cycle_graph(5))
    with pytest.raises(InputError):
        is_d_peripheral(c5, (0, 1, 2, 3, 4), -1)
    with pytest.raises(InputError):
        residue_coverage(c5, 3, d=-1)


def test_d_peripheral_matches_chromatic_number_of_exterior():
    rng = random.Random(43)
    checked = {True: 0, False: 0}
    for _ in range(25):
        g = random_graph(rng, rng.randrange(8, 14), rng.uniform(0.15, 0.35))
        for hole in list(enumerate_holes(g))[:6]:
            exterior = frozenset(g.vertices()) - g.closed_neighborhood(hole)
            chi = chromatic_number(g.induced_subgraph(exterior)[0])[0]
            for d in range(0, 5):
                ok, x = is_d_peripheral(g, hole, d)
                assert x == exterior
                assert ok == (chi > d)
                checked[ok] += 1
    assert min(checked.values()) > 50


def test_residue_coverage_with_d_matches_uncached_scan():
    # Myc3 (the Grötzsch graph, chi = 4) and seeded random graphs: the
    # verdict cache by exterior leaves the first witness per residue alone
    rng = random.Random(5)
    graphs = [standard_family("mycielski_iterate", 3)]
    graphs += [random_graph(rng, 12, 0.25) for _ in range(8)]
    found = 0
    for g in graphs:
        for ell, d in ((3, 1), (4, 2), (5, 1)):
            want = {}
            for hole in enumerate_holes(g):
                r = len(hole) % ell
                x = frozenset(g.vertices()) - g.closed_neighborhood(hole)
                if r not in want and chromatic_number(g.induced_subgraph(x)[0])[0] > d:
                    want[r] = hole
            assert residue_coverage(g, ell, d=d) == want
            found += len(want)
    assert found


def test_residue_coverage():
    g = petersen_graph()
    cov = residue_coverage(g, 3)
    assert cov.keys() == {2, 0}  # lengths 5 and 6
    assert len(cov) != 3
    assert len(cov[2]) == 5
    assert len(cov[0]) == 6
    full = residue_coverage(g, 2)
    assert len(full) == 2
    with pytest.raises(InputError):
        residue_coverage(g, 0)


def test_residue_coverage_with_peripherality():
    # hole plus distant odd cycle: the C4 is 2-peripheral, nothing is
    # 3-peripheral
    g = Graph(9, cycle_graph(4) + cycle_graph(5, offset=4))
    cov = residue_coverage(g, 4, d=2)
    assert len(cov[0]) == 4
    assert 1 not in cov  # the C5 exterior contains the C4, chi = 2
    cov3 = residue_coverage(g, 4, d=3)
    assert cov3.keys() == set()


def test_anticomplete_hole_family():
    g = Graph(9, cycle_graph(4) + cycle_graph(5, offset=4))
    family = anticomplete_hole_family(g, [(0, 4), (1, 4)])
    assert family is not None
    lengths = sorted(len(h) for h in family)
    assert lengths == [4, 5]
    assert g.is_anticomplete(family[0], family[1])
    # two disjoint C4s cannot be found: only one 4-hole exists
    assert anticomplete_hole_family(g, [(0, 4), (0, 4)]) is None
    assert anticomplete_hole_family(g, []) == []
    with pytest.raises(InputError):
        anticomplete_hole_family(g, [(1, 0)])


def test_anticomplete_family_budget_is_indeterminate():
    g = Graph(9, cycle_graph(4) + cycle_graph(5, offset=4))
    with pytest.raises(BudgetExceededError):
        anticomplete_hole_family(g, [(0, 4), (0, 4)], budget=Budget(4))
    # the hole search takes 19 nodes; the family search trips on its second
    # and says how far it got
    with pytest.raises(BudgetExceededError) as exc:
        anticomplete_hole_family(g, [(0, 4), (0, 4)], budget=Budget(20))
    assert str(exc.value) == "family search budget exceeded; existence undetermined"
    assert exc.value.partial == [(0, 1, 2, 3)]


def test_consecutive_hole_pairs():
    g = petersen_graph()
    pairs = consecutive_hole_pairs(g, 4)
    assert [t for t, _, _ in pairs] == [5]
    t, h5, h6 = pairs[0]
    assert (len(h5), len(h6)) == (5, 6)
    # threshold at or above the pair suppresses it
    assert consecutive_hole_pairs(g, 5) == []
    assert consecutive_hole_pairs(Graph(4, cycle_graph(4)), 4) == []
