import random

import pytest

import holelab.holes as holes_module
from holelab import structures
from holelab.budget import Budget
from holelab.errors import BudgetExceededError, ChordError, InputError, RefinementError
from holelab.gadgets import crest_gadget, multicover_gadget, standard_family
from holelab.graph import Graph, mask_of
from holelab.holes import validate_hole
from holelab.invariants import _chromatic_exceeds
from holelab.kernels import _pycore
from holelab.structures import (
    Grading,
    Multicover,
    Oddity,
    RefinementBudget,
    RefinementRound,
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
)

from conftest import cycle_graph, oracle_chromatic_number, oracle_induced_paths, random_graph


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


def test_crest_subdivision_axiom_failures():
    """One edge of the crest gadget added or removed breaks one subdivision
    axiom each, and is reported by it alone."""
    _, base_mc = multicover_gadget(2, 2, 2)
    big, mc, crest = crest_gadget(2, base_mc)
    sub = crest.subdivisions
    a1, a2 = crest.apexes
    x, y = sorted(mc.X)

    def failures(drop=None, add=None):
        edges = [e for e in big.edges() if set(e) != set(drop or ())]
        host = Graph(big.n, edges + ([add] if add else []))
        mc_bad = Multicover(host=host, X=mc.X, families=mc.families, C=mc.C)
        return verify_multicover(mc_bad, crest=crest).failures

    assert failures() == ()
    assert failures(drop=(sub[0, x], x)) == (
        f"subdivision vertex for (a_1, {x}) misses {x}",
    )
    assert failures(add=(sub[0, x], min(mc.families[x]))) == (
        f"subdivision vertex for (a_1, {x}) touches the ground set beyond its own apex",
    )
    assert failures(drop=(sub[0, x], a1)) == (
        f"subdivision vertex for (a_1, {x}) misses a_1",
    )
    assert failures(add=(sub[0, x], a2)) == (
        f"subdivision vertex for (a_1, {x}) touches a_2",
    )
    assert failures(add=(sub[0, x], sub[1, y])) == (
        f"subdivision vertices over distinct apexes ({x}, {y}) are adjacent",
        f"subdivision vertices over distinct apexes ({y}, {x}) are adjacent",
    )


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


def reference_refine(mc, budget, exceeds):
    """The refinement as it stood with a separate round-1 branch, a D side
    set only from round 2 and a minimal() that re-tests the whole family;
    exceeds(g, vertices, t) answers "is chi(G[vertices]) > t?"."""
    g = mc.host
    xs = sorted(mc.X)

    def f(a):
        am = mask_of(a)
        return frozenset(v for v in mc.C if g.adjacency_mask(v) & am)

    def minimal(n_x, holds):
        if not holds(n_x):
            return None
        a = set(n_x)
        for v in sorted(n_x):
            if holds(frozenset(a - {v})):
                a.discard(v)
        return frozenset(a)

    rounds = []
    cur_c, cur_d = mc.C, None
    for idx, (x, c_i) in enumerate(zip(xs, budget.thresholds), start=1):
        n_x = mc.families[x]
        if idx == 1:
            a = minimal(n_x, lambda s: exceeds(g, f(s), c_i))
            if a is None:
                raise RefinementError(1, "threshold unreachable at round 1")
            new_c, new_d, side = f(a), mc.C - f(a), "C"
        else:
            def c_side(s):
                return exceeds(g, f(s) & cur_c, c_i)

            def d_side(s):
                return exceeds(g, f(s) & cur_d, c_i)

            if c_side(n_x):
                a = minimal(n_x, c_side)
                new_c, new_d, side = f(a) & cur_c, cur_d - f(a), "C"
            elif d_side(n_x):
                a = minimal(n_x, d_side)
                new_c, new_d, side = cur_c - f(a), f(a) & cur_d, "D"
            else:
                raise RefinementError(idx, f"threshold unreachable at round {idx}")
        rounds.append(RefinementRound(x, a, new_c, new_d, side))
        for r in rounds:
            covered = new_c if g.covers(r.A, new_c) else None
            if covered is None and g.covers(r.A, new_d):
                covered = new_d
            other = new_d if covered is new_c else new_c
            if covered is None or not g.is_anticomplete(r.A, other):
                raise RefinementError(
                    idx, f"round {idx} postcondition failed for apex {r.apex}"
                )
        cur_c, cur_d = new_c, new_d
    return rounds


def random_refinement_input(rng):
    """A multicover gadget with random edges inside C and between the
    families and C, and a threshold of 0, 1 or 2 per apex."""
    g, mc = multicover_gadget(rng.randint(2, 4), rng.randint(1, 4), rng.randint(3, 9))
    cs, fam = sorted(mc.C), sorted(mc.family_union())
    p = rng.uniform(0.2, 0.8)
    extra = [(u, v) for i, u in enumerate(cs) for v in cs[i + 1:] if rng.random() < p]
    extra += [(u, v) for u in fam for v in cs if rng.random() < 0.15]
    host = Graph(g.n, list(g.edges()) + extra)
    thresholds = tuple(rng.choice((0, 1, 1, 2)) for _ in mc.X)
    return Multicover(host, mc.X, mc.families, mc.C), RefinementBudget(thresholds)


def test_refinement_matches_the_reference_with_no_more_chromatic_tests(monkeypatch):
    """Rounds (apex, A, C, D, side) and errors (round, text) are those of
    the reference on 400 random multicovers, D-side rounds and later-round
    errors among them, and no input takes more chi tests."""
    calls = [0]

    def counting(g, vertices, t, budget=None):
        # the reference passes vertex sets, refine_multicover masks
        calls[0] += 1
        live = vertices if isinstance(vertices, int) else mask_of(vertices)
        return _chromatic_exceeds(g, live, t, budget)

    def outcome(run):
        calls[0] = 0
        try:
            result = run(), None
        except RefinementError as exc:
            result = None, (exc.round_index, str(exc))
        return result, calls[0]

    monkeypatch.setattr(structures, "_chromatic_exceeds", counting)
    rng = random.Random(0)
    d_rounds = fewer = 0
    error_at_round_1 = error_later = False
    for _ in range(400):
        mc, budget = random_refinement_input(rng)
        want, want_calls = outcome(lambda: reference_refine(mc, budget, counting))
        got, got_calls = outcome(lambda: refine_multicover(mc, budget))
        assert got == want, (mc, budget)
        assert got_calls <= want_calls
        fewer += got_calls < want_calls
        rounds, error = want
        if error is None:
            d_rounds += sum(r.covered_side == "D" for r in rounds)
        else:
            error_at_round_1 |= error[0] == 1
            error_later |= error[0] > 1
    assert d_rounds >= 20 and error_at_round_1 and error_later and fewer >= 200


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


def test_gradings_match_their_per_pair_definitions():
    """On random covers: W_i holds the vertices whose first neighbor in the
    enumeration is b_i; an edge uv of G[C] is square when neither earliest
    parent sees the other end; a grading is compatible when u in an earlier
    part than v always has an earlier earliest parent. Shuffled and random
    gradings give incompatible cases too, and an enumeration that misses a
    vertex or repeats one is refused."""
    rng = random.Random(11)
    verdicts = set()
    refused = set()
    compared = 0
    for _ in range(250):
        g = random_graph(rng, rng.randint(3, 11), rng.uniform(0.2, 0.7))
        vertices = list(g.vertices())
        rng.shuffle(vertices)
        cut = rng.randint(1, g.n - 1)
        b_enum, c = vertices[:cut], frozenset(vertices[cut:])
        b_mask = mask_of(b_enum)
        # a parent for most vertices that have none
        adopted = [
            (rng.choice(b_enum), v)
            for v in sorted(c)
            if not g.adjacency_mask(v) & b_mask and rng.random() < 0.9
        ]
        g = Graph(g.n, list(g.edges()) + adopted)
        if rng.random() < 0.05:
            b_enum.append(b_enum[0])
        first = {
            v: next((i for i, b in enumerate(b_enum) if g.has_edge(b, v)), None)
            for v in c
        }
        if len(set(b_enum)) < len(b_enum) or None in first.values():
            with pytest.raises(InputError) as exc:
                grading_from_cover(g, b_enum, c)
            refused.add(str(exc.value))
            continue
        compared += 1
        grading = grading_from_cover(g, b_enum, c)
        assert grading.parts == tuple(
            frozenset(v for v in c if first[v] == i) for i in range(len(b_enum))
        )
        assert square_edges(g, b_enum, c) == sorted(
            (u, v)
            for u in c
            for v in c
            if u < v
            and g.has_edge(u, v)
            and not g.has_edge(b_enum[first[u]], v)
            and not g.has_edge(b_enum[first[v]], u)
        )
        shuffled = list(grading.parts)
        rng.shuffle(shuffled)
        labels = {v: rng.randrange(3) for v in c}
        random_parts = [frozenset(v for v in c if labels[v] == i) for i in range(3)]
        for parts in (grading.parts, tuple(shuffled), tuple(random_parts)):
            want = all(
                first[u] < first[v]
                for i, earlier in enumerate(parts)
                for later in parts[i + 1:]
                for u in earlier
                for v in later
            )
            assert is_compatible(b_enum, Grading(g, parts)) == want
            verdicts.add(want)
        assert is_compatible(b_enum, grading)
    assert compared >= 200 and verdicts == {True, False}
    assert refused == {
        "enumeration has repeated vertices",
        "the enumeration does not cover the target set",
    }


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
    with pytest.raises(InputError):
        shower_from_bfs(g, 0, -1, 0)


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


def test_verify_shower_names_far_layer_edges_only():
    """Vertex 6 lies in layers 1 and 3 but has no neighbour in layer 3; the
    edges 0-6 and 1-4 join layers 0 and 3, and 1 and 4."""
    g = Graph(7, [(0, 1), (0, 6), (1, 2), (2, 6), (2, 3), (3, 4), (1, 4)])
    layers = ({0}, {1, 6}, {2}, {3, 6}, {4})
    report, _ = verify_shower(Shower(g, tuple(map(frozenset, layers)), 4))
    assert report.failures == (
        "layers are not pairwise disjoint",
        "edge between layer 0 and layer 3",
        "edge between layer 1 and layer 4",
    )


def test_far_layer_check_is_the_per_pair_scan():
    """On random layerings, overlapping ones included, verify_shower names
    the far-layer pairs that a scan of each pair's vertices finds, in order,
    and a disconnected last layer."""
    rng = random.Random(17)
    named = overlapping = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(3, 14), rng.uniform(0.1, 0.5))
        layers = tuple(
            frozenset(v for v in g.vertices() if rng.random() < 0.3) | {rng.randrange(g.n)}
            for _ in range(rng.randint(1, 6))
        )
        want = [
            f"edge between layer {i} and layer {j}"
            for i in range(len(layers))
            for j in range(i + 2, len(layers))
            if any(g.adjacency_mask(v) & mask_of(layers[i]) for v in layers[j])
        ]
        report, _ = verify_shower(Shower(g, layers, min(layers[-1])))
        assert [f for f in report.failures if f.startswith("edge between")] == want
        connected = g.induced_subgraph(layers[-1])[0].is_connected()
        assert connected != ("last layer does not induce a connected subgraph" in report.failures)
        named += bool(want)
        overlapping += "layers are not pairwise disjoint" in report.failures
    assert named > 50 and overlapping > 50


def test_enumerate_jets_on_cycle_shower():
    g = Graph(6, cycle_graph(6))
    s = shower_from_bfs(g, 0, 3, 3)
    jets, summary = enumerate_jets(s, 5, ell=3)
    assert jets == [(0, 1, 2, 3), (0, 5, 4, 3)]
    assert summary.lengths == frozenset({3})
    assert summary.residues == frozenset({0})
    assert summary.completeness == 1


def test_jets_with_d_keep_the_peripheral_lengths():
    """With d given, a jet's length counts when the floor vertices neither on
    the jet nor next to it induce a subgraph of chromatic number above d,
    by the exhaustive colouring oracle."""
    rng = random.Random(5)
    outcomes = set()
    for _ in range(40):
        g = random_graph(rng, rng.randint(6, 10), rng.uniform(0.25, 0.5))
        for depth, drain in ((k, v) for k in (2, 3) for v in g.vertices()):
            s = shower_from_bfs(g, 0, depth, drain)
            if s is None:
                continue
            floor = s.floor()
            jets, _ = enumerate_jets(s, 6)
            for d in (0, 1, 2):
                got_jets, summary = enumerate_jets(s, 6, ell=3, d=d)
                want = set()
                for jet in jets:
                    exterior = sorted(
                        v for v in floor
                        if v not in jet and not any(g.has_edge(v, w) for w in jet)
                    )
                    index = {v: i for i, v in enumerate(exterior)}
                    sub = Graph(
                        len(exterior),
                        [(index[u], index[v]) for u, v in g.edges()
                         if u in index and v in index],
                    )
                    if oracle_chromatic_number(sub) > d:
                        want.add(len(jet) - 1)
                assert got_jets == jets
                assert summary.lengths == want
                assert summary.residues == {t % 3 for t in want}
                outcomes.add((bool(want), want == {len(j) - 1 for j in jets}))
    assert outcomes == {(True, True), (True, False), (False, False)}


def random_shower_jets(find_holes, monkeypatch):
    """(shower, max_len, jets, budget.used) for seeded random BFS showers,
    n = 4..20, depth 0..4 and every drain, under the given hole kernel."""
    monkeypatch.setattr(holes_module, "find_holes", find_holes)
    rng = random.Random(26)
    runs = []
    for _ in range(100):
        g = random_graph(rng, rng.randint(4, 20), rng.uniform(0.1, 0.4))
        root = rng.randrange(g.n)
        for depth in range(5):
            for drain in g.vertices():
                s = shower_from_bfs(g, root, depth, drain)
                for max_len in (0, 1, 2, 5, 40) if s else ():
                    budget = Budget()
                    jets, _ = enumerate_jets(s, max_len, budget=budget)
                    runs.append((s, max_len, jets, budget.used))
    return runs


@pytest.mark.parametrize("kernel", ["pure", "compiled"])
def test_jets_are_the_recursive_path_search(kernel, request, monkeypatch):
    """Jets read off the hole kernel are the sorted induced paths of the
    unpruned recursive oracle; the compiled kernel gives the pure kernel's
    jets and charges the same nodes."""
    runs = random_shower_jets(_pycore.find_holes, monkeypatch)
    lengths = set()
    for s, max_len, jets, _ in runs:
        allowed = mask_of(s.vertex_set())
        assert jets == sorted(
            oracle_induced_paths(s.host, s.head, s.drain, allowed, max_len, Budget(None))
        )
        lengths |= {len(j) - 1 for j in jets}
    assert set(range(1, 7)) <= lengths
    if kernel == "compiled":
        compiled = random_shower_jets(request.getfixturevalue("fastcore").find_holes, monkeypatch)
        assert [run[2:] for run in compiled] == [run[2:] for run in runs]


# enumerate_jets on Myc4's depth-2 BFS showers drained at 46, jets of at
# most 14 edges: root, number of jets, budget.used, and budget.used with
# ell = 3 and d = 2
MYC4_JETS = [(0, 548, 1_092, 1_304), (7, 542, 1_082, 1_250), (14, 522, 1_043, 1_185)]


@pytest.mark.parametrize("kernel", ["pure", "compiled"])
def test_jets_on_myc4_showers_are_pinned(kernel, request, monkeypatch):
    impl = _pycore if kernel == "pure" else request.getfixturevalue("fastcore")
    monkeypatch.setattr(holes_module, "find_holes", impl.find_holes)
    g = standard_family("mycielski_iterate", 4)
    for root, count, nodes, nodes_d in MYC4_JETS:
        s = shower_from_bfs(g, root, 2, 46)
        budget = Budget()
        jets, _ = enumerate_jets(s, 14, budget=budget)
        assert (len(jets), budget.used) == (count, nodes), root
        budget = Budget()
        got, summary = enumerate_jets(s, 14, ell=3, d=2, budget=budget)
        assert (got, budget.used) == (jets, nodes_d), root
        assert (summary.lengths, summary.residues, summary.completeness) == ({2, 3}, {0, 2}, 2)
        if root == 0:
            assert (jets[0], jets[-1]) == ((0, 1, 2, 9, 21, 45, 46), (0, 42, 46))


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
    assert hole == (0, 1, 2, 3, 4)
    validate_hole(g, hole)


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
        oracle_induced_paths(g, s.drain, s.head, allowed, max_len, Budget(None)),
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
