import random

import pytest

from holelab.budget import Budget
from holelab.errors import BudgetExceededError, ChordError, InputError, RefinementError
from holelab.gadgets import crest_gadget, multicover_gadget
from holelab.graph import Graph, mask_of
from holelab.structures import (
    Multicover,
    Oddity,
    RefinementBudget,
    Shower,
    bloodline,
    close_hole,
    earliest_parent,
    enumerate_jets,
    find_oddity,
    find_recirculator,
    grading_from_cover,
    is_compatible,
    refine_multicover,
    shower_from_bfs,
    square_edges,
    verify_multicover,
    verify_oddity,
    verify_shower,
    _simple_induced_paths,
)

from conftest import cycle_graph, random_graph


# ---------------------------------------------------------------------------
# multicovers


def two_apex_multicover(extra_edges=()):
    """Apexes 0, 1 with families {2,3}, {4,5} covering C = {6,7}."""
    edges = [
        (0, 2), (0, 3), (1, 4), (1, 5),
        (2, 6), (3, 7), (4, 6), (5, 7),
        (6, 7),
    ] + list(extra_edges)
    g = Graph(8, edges)
    mc = Multicover(
        host=g,
        X=frozenset({0, 1}),
        families={0: frozenset({2, 3}), 1: frozenset({4, 5})},
        C=frozenset({6, 7}),
    )
    return g, mc


def test_verify_multicover_accepts_valid():
    _, mc = two_apex_multicover()
    report = verify_multicover(mc, stable=True)
    assert report.valid, report.failures
    assert report.cover_clique_number == 1


def test_verify_multicover_axiom_failures():
    g, mc = two_apex_multicover()
    # X not stable
    bad = Multicover(
        host=Graph(8, list(g.edges()) + [(0, 1)]),
        X=mc.X, families=mc.families, C=mc.C,
    )
    assert "X is not stable" in verify_multicover(bad).failures
    # apex adjacent to the target
    bad = Multicover(
        host=Graph(8, list(g.edges()) + [(0, 6)]),
        X=mc.X, families=mc.families, C=mc.C,
    )
    assert any("neighbor in the target" in f for f in verify_multicover(bad).failures)
    # cross edge apex-to-other-family
    bad = Multicover(
        host=Graph(8, list(g.edges()) + [(0, 4)]),
        X=mc.X, families=mc.families, C=mc.C,
    )
    assert any(
        "has a neighbor in the family" in f for f in verify_multicover(bad).failures
    )
    # shared closed families
    bad = Multicover(
        host=g,
        X=mc.X,
        families={0: frozenset({2, 3}), 1: frozenset({3, 4, 5})},
        C=mc.C,
    )
    report = verify_multicover(bad)
    assert any("shared by the closed families" in f for f in report.failures)
    # family not covering C is reported
    bad = Multicover(
        host=g,
        X=mc.X,
        families={0: frozenset({2}), 1: frozenset({4, 5})},
        C=mc.C,
    )
    assert any("does not cover" in f for f in verify_multicover(bad).failures)


def test_multicover_gadget_is_valid():
    for sizes in ((1, 1, 1), (3, 2, 4), (4, 3, 5)):
        _, mc = multicover_gadget(*sizes)
        report = verify_multicover(mc, stable=True)
        assert report.valid, report.failures
        assert report.cover_clique_number == 1
        assert mc.length == sizes[0]


def test_crest_gadget_is_valid():
    _, base_mc = multicover_gadget(3, 2, 3)
    big, mc, crest = crest_gadget(2, base_mc)
    assert crest.k == 2
    report = verify_multicover(mc, stable=True, crest=crest)
    assert report.valid, report.failures


def test_crest_axiom_failures():
    _, base_mc = multicover_gadget(2, 2, 2)
    big, mc, crest = crest_gadget(2, base_mc)
    # adjacent crest apexes
    worse = Graph(big.n, list(big.edges()) + [crest.apexes])
    mc_bad = Multicover(host=worse, X=mc.X, families=mc.families, C=mc.C)
    report = verify_multicover(mc_bad, crest=crest)
    assert any("are adjacent" in f for f in report.failures)
    # crest apex touching the ground set
    worse = Graph(big.n, list(big.edges()) + [(crest.apexes[0], 0)])
    mc_bad = Multicover(host=worse, X=mc.X, families=mc.families, C=mc.C)
    report = verify_multicover(mc_bad, crest=crest)
    assert any("neighbor in the ground set" in f for f in report.failures)


# ---------------------------------------------------------------------------
# oddities


def test_find_oddity_length_five():
    g, mc = two_apex_multicover()
    oddity = find_oddity(
        mc,
        B1=frozenset({2, 3}),
        B2=frozenset({4, 5}),
        D=frozenset({6, 7}),
        Z=frozenset({6, 7}),
    )
    assert oddity is not None
    assert oddity.path == (0, 2, 6, 7, 5, 1)
    assert oddity.length == 5
    assert verify_oddity(oddity).valid


def test_find_oddity_length_three():
    g, mc = two_apex_multicover(extra_edges=[(2, 5)])
    oddity = find_oddity(
        mc,
        B1=frozenset({2, 3}),
        B2=frozenset({4, 5}),
        D=frozenset({6, 7}),
        Z=frozenset({6, 7}),
    )
    assert oddity is not None
    assert oddity.path == (0, 2, 5, 1)
    assert oddity.length == 3


def test_find_oddity_rejects_bad_inputs():
    g, mc = two_apex_multicover()
    with pytest.raises(InputError):
        find_oddity(mc, frozenset({2, 3}), frozenset({4, 5}),
                    frozenset({6, 7}), frozenset({2, 6}))  # Z not inside D
    with pytest.raises(InputError):
        find_oddity(mc, frozenset({2}), frozenset({4, 5}),
                    frozenset({6, 7}), frozenset({6, 7}))  # B1 misses 7
    with pytest.raises(InputError):
        find_oddity(mc, frozenset({2, 3}), frozenset({2, 3}),
                    frozenset({6, 7}), frozenset({6, 7}))  # same family


def test_find_oddity_none_when_y1_sees_all_of_z():
    # give 2 a neighbor in every Z vertex: selection cannot find z2
    g, mc = two_apex_multicover(extra_edges=[(2, 7)])
    oddity = find_oddity(
        mc,
        B1=frozenset({2, 3}),
        B2=frozenset({4, 5}),
        D=frozenset({6, 7}),
        Z=frozenset({6, 7}),
    )
    assert oddity is None


def test_verify_oddity_failures():
    g, mc = two_apex_multicover()
    bad = Oddity(path=(0, 2, 6, 7), multicover=mc)  # 7 not in X
    report = verify_oddity(bad)
    assert not report.valid
    assert any("ends are not both in X" in f for f in report.failures)
    bad = Oddity(path=(0, 2, 6, 7, 5, 4, 1), multicover=mc)
    assert not verify_oddity(bad).valid


# ---------------------------------------------------------------------------
# refinement


def test_refine_multicover_two_rounds():
    _, mc = multicover_gadget(2, 2, 3)
    rounds = refine_multicover(mc, RefinementBudget((0, 0)))
    assert [r.apex for r in rounds] == [0, 1]
    assert rounds[0].A == frozenset({3})
    assert rounds[0].covered_side == "C"
    assert rounds[1].A == frozenset({5})
    assert rounds[1].C == frozenset({7})
    assert rounds[1].D == frozenset({6, 8})


def test_refine_multicover_unreachable_threshold():
    _, mc = multicover_gadget(2, 2, 3)
    with pytest.raises(RefinementError) as exc:
        refine_multicover(mc, RefinementBudget((5, 5)))
    assert exc.value.round_index == 1


def test_refinement_budget_validation():
    with pytest.raises(InputError):
        RefinementBudget((-1,))
    _, mc = multicover_gadget(2, 2, 3)
    with pytest.raises(InputError):
        refine_multicover(mc, RefinementBudget((0,)))  # wrong arity


# ---------------------------------------------------------------------------
# gradings and square edges


def grading_fixture():
    # parents 0, 1 covering C = {2, 3, 4} with one C-edge (3, 4)
    g = Graph(5, [(0, 2), (0, 3), (1, 4), (3, 4)])
    return g, [0, 1], frozenset({2, 3, 4})


def test_earliest_parent():
    g, b_enum, c = grading_fixture()
    assert earliest_parent(g, b_enum, 3) == 0
    assert earliest_parent(g, b_enum, 4) == 1
    with pytest.raises(InputError):
        earliest_parent(g, [1], 2)


def test_grading_from_cover():
    g, b_enum, c = grading_fixture()
    grading = grading_from_cover(g, b_enum, c)
    assert grading.parts == (frozenset({2, 3}), frozenset({4}))
    assert grading.ground_set() == c
    assert grading.part_of(4) == 1
    assert grading.part_of(0) is None
    with pytest.raises(InputError):
        grading_from_cover(g, [0], c)  # 0 alone does not cover 4


def test_square_edges():
    g, b_enum, c = grading_fixture()
    assert square_edges(g, b_enum, c) == [(3, 4)]
    # once a parent sees across the edge, it stops being square
    g2 = Graph(5, list(g.edges()) + [(0, 4)])
    assert square_edges(g2, b_enum, c) == []


def test_is_compatible():
    g, b_enum, c = grading_fixture()
    grading = grading_from_cover(g, b_enum, c)
    assert is_compatible(b_enum, grading)
    # reversed enumeration breaks strict parent ordering
    g3 = Graph(5, [(0, 2), (0, 3), (1, 4), (1, 3), (3, 4)])
    grading3 = grading_from_cover(g3, [0, 1], c)
    flipped = grading3.__class__(
        host=g3, parts=(grading3.parts[1], grading3.parts[0])
    )
    assert not is_compatible([0, 1], flipped)


# ---------------------------------------------------------------------------
# showers, jets, recirculators


def test_shower_from_bfs_on_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    s = shower_from_bfs(g, 0, 3, 3)
    assert s is not None
    assert s.layers == (
        frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})
    )
    assert s.head == 0 and s.drain == 3 and s.k == 3
    report, floor = verify_shower(s)
    assert report.valid
    assert floor == frozenset({3})


def test_shower_from_bfs_on_cycle():
    g = Graph(6, cycle_graph(6))
    s = shower_from_bfs(g, 0, 3, 3)
    assert s is not None
    assert s.layers[1] == frozenset({1, 5})
    assert s.layers[2] == frozenset({2, 4})
    assert s.layers[3] == frozenset({3})
    assert verify_shower(s)[0].valid


def test_shower_from_bfs_rejects_wrong_depth():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert shower_from_bfs(g, 0, 2, 3) is None  # drain not at distance 2
    assert shower_from_bfs(g, 0, -1, 0) is None


def test_shower_last_layer_restricted_to_drain_component():
    # two distance-2 vertices in separate components of G[L_2]
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)])
    s = shower_from_bfs(g, 0, 2, 3)
    assert s is not None
    assert s.layers[2] == frozenset({3})  # 4 dropped: other component
    assert verify_shower(s)[0].valid


def test_verify_shower_failures():
    g = Graph(6, cycle_graph(6))
    bad = Shower(
        host=g,
        layers=(frozenset({0, 1}), frozenset({2})),
        drain=2,
    )
    report, _ = verify_shower(bad)
    assert "first layer does not have exactly one vertex" in report.failures
    # layer-skip edge
    bad = Shower(
        host=Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        layers=(frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})),
        drain=3,
    )
    report, _ = verify_shower(bad)
    assert any("edge between layer" in f for f in report.failures)


def test_enumerate_jets_on_cycle_shower():
    g = Graph(6, cycle_graph(6))
    s = shower_from_bfs(g, 0, 3, 3)
    jets, summary = enumerate_jets(s, 5, ell=3)
    assert jets == [(0, 1, 2, 3), (0, 5, 4, 3)]
    assert summary.lengths == frozenset({3})
    assert summary.residues == frozenset({0})
    assert summary.completeness == 1


def test_jet_summary_completeness_run():
    from holelab.structures import _longest_cyclic_run

    assert _longest_cyclic_run(frozenset(), 5) == 0
    assert _longest_cyclic_run(frozenset({0, 1, 2, 3, 4}), 5) == 5
    assert _longest_cyclic_run(frozenset({4, 0, 1}), 5) == 3  # wraps
    assert _longest_cyclic_run(frozenset({0, 2}), 5) == 1


def test_bloodline():
    g = Graph(5, [(2, 3), (3, 4), (2, 4)])
    path = bloodline(g, frozenset({2, 3, 4}), 2, 4)
    assert path == (4, 2)  # 2 is the lowest-index predecessor at distance 0
    g2 = Graph(5, [(2, 3), (3, 4)])
    assert bloodline(g2, frozenset({2, 3, 4}), 2, 4) == (4, 3, 2)
    with pytest.raises(InputError):
        bloodline(g2, frozenset({2, 3}), 2, 4)
    disconnected = Graph(5, [(2, 3)])
    with pytest.raises(InputError):
        bloodline(disconnected, frozenset({2, 3, 4}), 2, 4)


def test_find_recirculator_and_close_hole():
    # shower path 0-1-2 plus an external return path 2-3-4-0: gluing the
    # unique jet and recirculator yields the five-cycle
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    s = Shower(
        host=g,
        layers=(frozenset({0}), frozenset({1}), frozenset({2})),
        drain=2,
    )
    assert verify_shower(s)[0].valid
    assert s.vertex_set() == frozenset({0, 1, 2})
    recirc = find_recirculator(g, s, 4)
    assert recirc == (2, 3, 4, 0)
    jets, _ = enumerate_jets(s, 3)
    assert jets == [(0, 1, 2)]
    hole = close_hole(jets[0], recirc, g)
    assert hole.vertices == (0, 1, 2, 3, 4)
    hole.validate(g)


def test_find_recirculator_none_without_exit():
    g = Graph(6, cycle_graph(6))
    s = shower_from_bfs(g, 0, 3, 3)
    assert find_recirculator(g, s, 6) is None


def test_close_hole_rejects_chords_and_bad_glue():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    with pytest.raises(ChordError) as exc:
        close_hole((0, 1, 2), (2, 3, 4, 0), g)
    assert set(exc.value.chord) == {1, 3}
    good = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(InputError):
        close_hole((0, 1, 2), (2, 3, 4, 1), good)  # endpoints differ
    with pytest.raises(InputError):
        close_hole((0,), (0, 1), good)  # degenerate jet
    with pytest.raises(InputError):
        close_hole((0, 1, 2), (2, 1, 0), good)  # shared internal vertex


def test_find_recirculator_charges_the_vertices_it_reaches():
    g = Graph(6, [(0, 1), (1, 2), (0, 3), (0, 5), (3, 4), (4, 2)])
    s = Shower(
        host=g,
        layers=(frozenset({0}), frozenset({1}), frozenset({2})),
        drain=2,
    )
    # the BFS from the head reaches 3 and 5, then 4, then the drain 2
    budget = Budget(4)
    assert find_recirculator(g, s, 4, budget) == (2, 4, 3, 0)
    assert budget.used == 4
    with pytest.raises(BudgetExceededError):
        find_recirculator(g, s, 4, Budget(3))


def test_close_hole_names_a_chord_among_several():
    # a 7-cycle glued from a jet and a recirculator, with three chords
    chords = {(1, 3), (2, 5), (0, 4)}
    g = Graph(7, cycle_graph(7) + sorted(chords))
    for jet, recirc in (
        ((0, 1, 2, 3), (3, 4, 5, 6, 0)),
        ((3, 2, 1, 0), (3, 4, 5, 6, 0)),
        ((5, 4, 3, 2, 1), (1, 0, 6, 5)),
    ):
        with pytest.raises(ChordError) as exc:
            close_hole(jet, recirc, g)
        assert tuple(sorted(exc.value.chord)) in chords


# ---------------------------------------------------------------------------
# path oracles: the enumerate-and-sort recirculator and the subgraph-based
# bloodline that the shared least-shortest-path walk replaced


def oracle_find_recirculator(g, s, max_len):
    v_set = s.vertex_set()
    ends_mask = (1 << s.head) | (1 << s.drain)
    interior_forbidden = mask_of(v_set) & ~ends_mask
    admissible = [
        v
        for v in g.vertices()
        if v not in v_set and not (g.adjacency_mask(v) & interior_forbidden)
    ]
    allowed = mask_of(admissible) | ends_mask
    paths = sorted(
        _simple_induced_paths(g, s.drain, s.head, allowed, max_len, Budget(None)),
        key=lambda p: (len(p), p),
    )
    return paths[0] if paths else None


def oracle_bloodline(g, last_layer, drain, v):
    """None when v is not connected to the drain inside the layer."""
    sub, keep = g.induced_subgraph(last_layer)
    index = {u: i for i, u in enumerate(keep)}
    dist = sub.distances_from(index[drain])
    if dist[index[v]] == float("inf"):
        return None
    path = [v]
    cur = v
    while cur != drain:
        d = dist[index[cur]]
        cur = keep[min(u for u in sub.neighbors(index[cur]) if dist[u] == d - 1)]
        path.append(cur)
    return tuple(path)


def lifted_bfs_showers(g, keep_mask):
    """Every BFS shower of G[keep], read as a shower of g.

    Showers of g itself only have the head-drain edge as a recirculator;
    a shower of an induced subgraph leaves the other vertices as
    admissible interior vertices.
    """
    h, keep = g.induced_subgraph(v for v in g.vertices() if keep_mask >> v & 1)
    for root in h.vertices():
        dist = h.distances_from(root)
        for drain in h.vertices():
            if dist[drain] == float("inf"):
                continue
            s = shower_from_bfs(h, root, int(dist[drain]), drain)
            if s is not None:
                layers = tuple(frozenset(keep[v] for v in layer) for layer in s.layers)
                yield Shower(host=g, layers=layers, drain=keep[drain])


def test_path_walks_match_enumeration_oracles():
    rng = random.Random(4711)
    seen = dict.fromkeys(("k0", "found", "cut", "absent", "unreachable"), 0)
    for trial in range(120):
        g = random_graph(rng, rng.randrange(5, 15), rng.uniform(0.1, 0.5))
        keep_mask = g.full_mask() if trial % 2 else rng.getrandbits(g.n)
        for s in lifted_bfs_showers(g, keep_mask):
            assert verify_shower(s)[0].valid
            seen["k0"] += s.k == 0
            for max_len in (1, 2, 4, 8, g.n):
                got = find_recirculator(g, s, max_len)
                assert got == oracle_find_recirculator(g, s, max_len)
                if got is not None:
                    seen["found"] += 1
                elif find_recirculator(g, s, g.n) is not None:
                    seen["cut"] += 1
                else:
                    seen["absent"] += 1
            last = s.layers[-1]
            for v in sorted(last):
                assert bloodline(g, last, s.drain, v) == oracle_bloodline(
                    g, last, s.drain, v
                )
        # bloodlines in arbitrary layers, where v may not reach the drain
        layer = frozenset(v for v in g.vertices() if rng.random() < 0.6) | {0}
        for v in sorted(layer):
            want = oracle_bloodline(g, layer, 0, v)
            if want is None:
                seen["unreachable"] += 1
                with pytest.raises(InputError):
                    bloodline(g, layer, 0, v)
            else:
                assert bloodline(g, layer, 0, v) == want
    assert all(seen.values()), seen
