import random

import pytest

from holelab.errors import InputError
from holelab.graph import Graph, bits, graph_from_edges, mask_of, set_of
from holelab.homology import _components
from holelab.structures import Shower, shower_from_bfs, verify_shower

from conftest import (
    complete_graph,
    cycle_graph,
    oracle_distances,
    petersen_graph,
    random_graph,
)

INF = float("inf")


def test_basic_construction():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.neighbors(1) == [0, 2]
    assert g.degree(1) == 2
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_duplicate_edges_counted_once():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(2, [(0, 2)])
    with pytest.raises(InputError):
        Graph(2, [(1, 1)])
    with pytest.raises(InputError):
        Graph(-1)


def test_induced_subgraph_mapping():
    g = petersen_graph()
    sub, keep = g.induced_subgraph({0, 1, 2, 5})
    assert keep == (0, 1, 2, 5)
    assert sub.n == 4
    # edges 0-1, 1-2, 0-5 survive under the index mapping
    assert sorted(sub.edges()) == [(0, 1), (0, 3), (1, 2)]


def test_complement_involution():
    g = Graph(5, cycle_graph(5))
    assert g.complement().complement() == g
    assert g.complement().edge_count == 10 - 5


def test_distances_and_balls():
    g = Graph(6, cycle_graph(6))
    assert g.distance(0, 3) == 3
    assert g.ball(0, 1) == frozenset({0, 1, 5})
    assert g.ball(0, 1, closed=False) == frozenset({1, 5})
    disconnected = Graph(4, [(0, 1), (2, 3)])
    assert disconnected.distance(0, 2) == float("inf")
    assert not disconnected.is_connected()
    assert Graph(0).is_connected()


def test_set_predicates():
    g = petersen_graph()
    assert g.is_stable({0, 2, 8})  # 0-2 nonadj, 0-8, 2-8 nonadj
    assert not g.is_stable({0, 1})
    assert complete_graph(4).is_clique({0, 1, 2, 3})
    assert g.is_anticomplete({0}, {2, 3, 7})
    assert not g.is_anticomplete({0}, {1})
    assert not g.is_anticomplete({0}, {0})  # overlap fails
    assert g.covers({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9})
    assert not g.covers({0}, {0, 5})  # overlap fails


def test_closed_neighborhood():
    g = Graph(5, cycle_graph(5))
    assert g.closed_neighborhood({0}) == frozenset({0, 1, 4})
    assert g.closed_neighborhood({0, 2}) == frozenset({0, 1, 2, 3, 4})


def test_bitmask_helpers():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([0, 3]) == 0b1001
    assert set_of(0b1001) == frozenset({0, 3})


def test_graph_from_edges_infers_n():
    g = graph_from_edges([(0, 4)])
    assert g.n == 5
    assert graph_from_edges([]).n == 0


def test_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 2)])


# ---------------------------------------------------------------------------
# every BFS user against the queue BFS of conftest


def oracle_components(g: Graph, live: int) -> list[int]:
    """Component masks of G[live], lowest vertex first, by queue BFS."""
    sub, keep = g.induced_subgraph(v for v in g.vertices() if live >> v & 1)
    out, done = [], set()
    for start in range(sub.n):
        if start not in done:
            dist = oracle_distances(sub, start)
            comp = {v for v in range(sub.n) if dist[v] != INF}
            done |= comp
            out.append(mask_of(keep[v] for v in comp))
    return out


def oracle_shower_layers(g: Graph, dist: list[float], k: int, drain: int):
    """BFS layers of depth k with the last cut to the drain's component in
    G[last layer]; None when the drain is not at distance k."""
    if k < 0 or dist[drain] != k:
        return None
    layers = [frozenset(v for v in g.vertices() if dist[v] == i) for i in range(k + 1)]
    last, keep = g.induced_subgraph(layers[k])
    comp = oracle_distances(last, keep.index(drain))
    layers[k] = frozenset(keep[i] for i in range(last.n) if comp[i] != INF)
    return tuple(layers)


def check_bfs_users(g: Graph, rng: random.Random) -> None:
    adj = g.adjacency_masks()
    connected = g.n == 0 or INF not in oracle_distances(g, 0)
    assert g.is_connected() == connected
    for live in {g.full_mask(), rng.getrandbits(g.n)}:
        assert _components(adj, live) == oracle_components(g, live)
    for root in g.vertices():
        dist = oracle_distances(g, root)
        assert g.distances_from(root) == dist
        for rho in range(g.n + 1):
            assert g.ball(root, rho) == {v for v in g.vertices() if dist[v] <= rho}
            assert g.ball(root, rho, closed=False) == {
                v for v in g.vertices() if dist[v] == rho
            }
        depth = max(d for d in dist if d != INF)
        for k in range(-1, int(depth) + 2):
            for drain in g.vertices():
                s = shower_from_bfs(g, root, k, drain)
                want = oracle_shower_layers(g, dist, k, drain)
                assert (s and s.layers) == want
            # the whole level k is a shower exactly when it induces a
            # connected subgraph
            if 0 < k <= depth:
                levels = tuple(
                    frozenset(v for v in g.vertices() if dist[v] == i)
                    for i in range(k + 1)
                )
                last, _ = g.induced_subgraph(levels[k])
                whole = Shower(host=g, layers=levels, drain=min(levels[k]))
                want = INF not in oracle_distances(last, 0)
                assert verify_shower(whole)[0].valid == want


def test_bfs_users_match_queue_bfs_on_le7(corpus_le7):
    rng = random.Random(17)
    for g in corpus_le7:
        check_bfs_users(g, rng)


def test_bfs_users_match_queue_bfs_on_random_graphs():
    rng = random.Random(2024)
    disconnected = 0
    for _ in range(150):
        p = rng.choice((0.08, 0.15, 0.3, 0.5))
        g = random_graph(rng, rng.randrange(1, 16), p)
        disconnected += not g.is_connected()
        check_bfs_users(g, rng)
    assert disconnected > 30
