import pytest

from holelab.errors import InputError
from holelab.gadgets import (
    FAMILY_PARAMS,
    crest_gadget,
    findhole_gadget,
    multicover_gadget,
    standard_family,
)
from holelab.holes import enumerate_holes, validate_hole
from holelab.invariants import chromatic_number, clique_number

from conftest import petersen_graph


def test_findhole_gadget_shape():
    ell = 24
    g = findhole_gadget(ell, 2, 4, 2)
    assert g.n == 2 * ell + ell * ell + 8
    # A-side vertices have degree ell plus their extra-path attachments
    assert g.degree(6) == ell  # A vertex on no extra path
    assert g.degree(0) == ell + 1
    assert g.degree(ell) == ell  # B vertex
    assert g.degree(2 * ell) == 2  # subdivision vertex
    with pytest.raises(InputError):
        findhole_gadget(23, 2, 2, 2)
    with pytest.raises(InputError):
        findhole_gadget(24, 3, 2, 2)


def test_findhole_gadget_contains_target_hole():
    ell = 24
    g = findhole_gadget(ell, 2, 2, 4)
    hole = next(iter(enumerate_holes(g, min_len=ell, max_len=ell)))
    assert len(hole) == ell
    validate_hole(g, hole)


def test_multicover_gadget_shape():
    g, mc = multicover_gadget(3, 2, 4)
    assert g.n == 3 + 6 + 4
    assert mc.X == frozenset({0, 1, 2})
    assert mc.C == frozenset({9, 10, 11, 12})
    assert mc.families[1] == frozenset({5, 6})
    with pytest.raises(InputError):
        multicover_gadget(0, 1, 1)


def test_crest_gadget_shape():
    base, mc = multicover_gadget(2, 2, 2)
    big, mc2, crest = crest_gadget(3, mc)
    assert big.n == base.n + 3 + 3 * 2
    assert crest.apexes == (base.n, base.n + 1, base.n + 2)
    assert set(crest.subdivisions) == {(i, x) for i in range(3) for x in (0, 1)}
    # the original graph survives as an induced subgraph
    sub, _ = big.induced_subgraph(range(base.n))
    assert sub == base
    with pytest.raises(InputError):
        crest_gadget(0, mc)


def test_standard_cycle_and_complete():
    c5 = standard_family("cycle", 5)
    assert c5.n == 5 and c5.edge_count == 5
    k6 = standard_family("complete", 6)
    assert k6.edge_count == 15
    kb = standard_family("complete_bipartite", 2, 3)
    assert kb.n == 5 and kb.edge_count == 6
    with pytest.raises(InputError):
        standard_family("cycle", 2)
    with pytest.raises(InputError):
        standard_family("nonsense", 1)


def test_kneser_is_petersen():
    g = standard_family("kneser", 5, 2)
    assert g.n == 10 and g.edge_count == 15
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert list(enumerate_holes(g, 4, 4)) == []  # girth 5
    assert len(list(enumerate_holes(g, 5, 5))) == 12
    assert standard_family("petersen") == g
    # same hole census as the classically labeled Petersen graph
    classic = petersen_graph()
    assert len(list(enumerate_holes(classic, 5, 5))) == 12


def test_mycielski_iterates():
    # chi climbs by one per step while the graph stays triangle-free
    for t in range(4):
        g = standard_family("mycielski_iterate", t)
        assert chromatic_number(g)[0] == t + 2
        assert clique_number(g)[0] == 2
    grotzsch = standard_family("mycielski_iterate", 2)
    assert grotzsch.n == 11
    with pytest.raises(InputError):
        standard_family("mycielski_iterate", -1)


def test_random_family_deterministic():
    a = standard_family("random", 12, 40, seed=9)
    b = standard_family("random", 12, 40, seed=9)
    c = standard_family("random", 12, 40, seed=10)
    assert a == b
    assert a != c
    assert standard_family("random", 8, 0).edge_count == 0
    assert standard_family("random", 8, 100).edge_count == 28
    with pytest.raises(InputError):
        standard_family("random", 5, 101)


def test_family_refuses_a_wrong_parameter_count():
    for kind, want in FAMILY_PARAMS.items():
        standard_family(kind, *[5] * want)
        for count in {want - 1, want + 1} - {-1}:
            with pytest.raises(InputError, match=f"takes {want} integer parameters"):
                standard_family(kind, *[5] * count)
    with pytest.raises(InputError, match="unknown family kind"):
        standard_family("wheel", 5)


def test_family_refuses_a_negative_size():
    for kind, params in [
        ("complete", (-2,)),
        ("complete_bipartite", (-1, 2)),
        ("complete_bipartite", (2, -1)),
    ]:
        with pytest.raises(InputError):
            standard_family(kind, *params)
    empty_part = standard_family("complete_bipartite", 0, 2)
    assert (empty_part.n, empty_part.edge_count) == (2, 0)
