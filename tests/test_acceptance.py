"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete. Every expected value here is either asserted directly or
recomputed by an independent oracle (subset scans, exhaustive color
assignments, zeta-transform imbalance tables, 2^n stable-set enumeration).
"""

import itertools
import random
import sys
import time

import pytest

from holelab.gadgets import findhole_gadget, multicover_gadget, crest_gadget
from holelab.graph import Graph
from holelab.holes import enumerate_holes, validate_hole
from holelab.homology import (
    betti_numbers,
    euler_characteristic,
    independence_parity,
    is_k_balanced,
)
from holelab.invariants import chi_rho, chromatic_number, clique_number
from holelab.structures import (
    Shower,
    close_hole,
    enumerate_jets,
    find_recirculator,
    shower_from_bfs,
    verify_multicover,
    verify_shower,
)

from conftest import (
    complete_graph,
    cycle_graph,
    oracle_chromatic_number,
    oracle_has_ternary_cycle,
    oracle_holes,
    petersen_graph,
    random_graph,
)


def report(number: int, description: str, ok: bool = True) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {description}: {status}", file=sys.stderr)


class Criterion:
    """Prints the pass/fail line even when an assertion inside fails."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        report(self.number, self.description, ok=exc_type is None)
        return False


def test_criterion_1_gadget_holes_within_time_bound():
    with Criterion(1, "all 72 gadget instances yield their target hole in under 5 minutes"):
        start = time.monotonic()
        count = 0
        for ell in range(24, 33):
            for s1, s2, s3 in itertools.product((2, 4), repeat=3):
                g = findhole_gadget(ell, s1, s2, s3)
                hole = next(iter(enumerate_holes(g, min_len=ell, max_len=ell)))
                assert len(hole) == ell
                validate_hole(g, hole)
                count += 1
        elapsed = time.monotonic() - start
        assert count == 72
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_2_complete_graph_parity():
    with Criterion(2, "complete graphs K_(k+2) have stable-set parity (1, k+2) for k = 0..6"):
        for k in range(7):
            assert independence_parity(complete_graph(k + 2)) == (1, k + 2)


def test_criterion_3_euler_identities_on_random_graphs():
    with Criterion(3, "Euler identities hold on 200 seeded random graphs in under 2 minutes"):
        start = time.monotonic()
        rng = random.Random(303)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(1, 11), rng.uniform(0.2, 0.6))
            e, o = independence_parity(g)
            plain = euler_characteristic(g)
            full = betti_numbers(g)
            assert plain.euler_reduced == o - e
            assert plain.euler_unreduced == o - e + 1
            assert full.face_counts == plain.face_counts
            assert (
                sum((-1) ** i * b for i, b in enumerate(full.betti))
                == full.euler_unreduced
            )
            assert full.parity == (e, o)
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_4_hole_enumeration_matches_oracle():
    with Criterion(4, "hole streams match the subset oracle on 100 random graphs and the Petersen census"):
        rng = random.Random(404)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(0, 11), 0.3)
            assert {frozenset(h) for h in enumerate_holes(g)} == oracle_holes(g)
        census = {}
        for h in enumerate_holes(petersen_graph()):
            census[len(h)] = census.get(len(h), 0) + 1
        assert census == {5: 12, 6: 10}


def _max_imbalance(g: Graph) -> int:
    """Independent oracle: max |S_even - S_odd| over all induced subgraphs.

    Builds the signed indicator of stable sets and takes its subset-sum
    (zeta) transform, so entry[mask] is the signed stable-set count of the
    subgraph induced on mask.
    """
    n = g.n
    adj = g.adjacency_masks()
    table = [0] * (1 << n)
    for mask in range(1 << n):
        stable = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if adj[v] & m:
                stable = False
                break
        if stable:
            table[mask] = -1 if bin(mask).count("1") % 2 else 1
    for v in range(n):
        bit = 1 << v
        for mask in range(1 << n):
            if mask & bit:
                table[mask] += table[mask ^ bit]
    return max(abs(x) for x in table)


def test_criterion_5_balance_implies_clique_bound(corpus_le7):
    with Criterion(5, "exhaustively k-balanced graphs on at most 7 vertices have clique number at most k+1 (k = 1, 2)"):
        for g in corpus_le7:
            max_imb = _max_imbalance(g)
            omega, _ = clique_number(g)
            for k in (1, 2):
                verdict = is_k_balanced(g, k)
                assert verdict.balanced == (max_imb <= k)
                assert verdict.balanced or k < verdict.imbalance <= max_imb
                if verdict.balanced:
                    assert omega <= k + 1


def test_criterion_6_ternary_cycle_free_euler(corpus_le7):
    with Criterion(6, "graphs on at most 6 vertices without ternary induced cycles have reduced Euler characteristic in {-1, 0, 1} (under 10 minutes)"):
        start = time.monotonic()
        checked = 0
        for g in corpus_le7:
            if g.n > 6:
                continue
            if oracle_has_ternary_cycle(g):
                continue
            e, o = independence_parity(g)
            assert o - e in (-1, 0, 1), f"violated on {list(g.edges())}"
            checked += 1
        assert checked > 50  # the ternary-free class is well represented
        assert time.monotonic() - start < 600


def test_criterion_7_structure_round_trips():
    with Criterion(7, "50 seeded structure round-trips verify cleanly"):
        rng = random.Random(707)
        closures = 0
        for trial in range(50):
            # multicover and crest gadgets verify under their own axioms
            lx = rng.randrange(1, 4)
            ns = rng.randrange(1, 4)
            cs = rng.randrange(1, 5)
            g, mc = multicover_gadget(lx, ns, cs)
            assert verify_multicover(mc, stable=True).valid
            big, mc2, crest = crest_gadget(rng.randrange(1, 3), mc)
            assert verify_multicover(mc2, stable=True, crest=crest).valid
            # a BFS shower on a random connected graph verifies
            while True:
                h = random_graph(rng, rng.randrange(5, 10), rng.uniform(0.25, 0.6))
                if h.n and h.is_connected():
                    break
            root = rng.randrange(h.n)
            dist = h.distances_from(root)
            depth = int(max(dist))
            drain = min(v for v in h.vertices() if dist[v] == depth)
            shower = shower_from_bfs(h, root, depth, drain)
            if shower is not None:
                rep, _ = verify_shower(shower)
                assert rep.valid
            # a cycle split into a path-shower plus its complement closes
            length = rng.randrange(5, 13)
            cyc = Graph(length, cycle_graph(length))
            cut = length // 2
            s = Shower(
                host=cyc,
                layers=tuple(frozenset({i}) for i in range(cut + 1)),
                drain=cut,
            )
            assert verify_shower(s)[0].valid
            jets, _ = enumerate_jets(s, cut)
            assert jets == [tuple(range(cut + 1))]
            recirc = find_recirculator(cyc, s, length)
            assert recirc is not None
            hole = close_hole(jets[0], recirc, cyc)
            assert len(hole) == length
            validate_hole(cyc, hole)
            closures += 1
        assert closures == 50


def test_criterion_8_invariants_against_oracles(corpus_le7):
    with Criterion(8, "exact invariants verified on 100 random graphs plus color-assignment oracle on every graph with at most 7 vertices"):
        rng = random.Random(808)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 13), rng.uniform(0.2, 0.7))
            omega, clique = clique_number(g)
            chi, coloring = chromatic_number(g)
            assert g.is_clique(clique) and len(clique) == omega
            assert all(coloring[u] != coloring[v] for u, v in g.edges())
            assert len(set(coloring)) == chi
            assert omega <= chi
            assert chi_rho(g, 1) <= chi
        for g in corpus_le7:
            chi, _ = chromatic_number(g)
            assert chi == oracle_chromatic_number(g)


def test_criterion_9_parity_recursion_vs_direct_enumeration(corpus_le7):
    with Criterion(9, "stable-set parity recursion matches direct 2^n enumeration up to n = 15"):
        def direct(g: Graph) -> tuple[int, int]:
            adj = g.adjacency_masks()
            even = odd = 0
            for mask in range(1 << g.n):
                m, ok = mask, True
                while m:
                    v = (m & -m).bit_length() - 1
                    m &= m - 1
                    if adj[v] & m:
                        ok = False
                        break
                if ok:
                    if bin(mask).count("1") % 2:
                        odd += 1
                    else:
                        even += 1
            return even, odd

        for g in corpus_le7:
            assert independence_parity(g) == direct(g)
        rng = random.Random(909)
        for n in range(8, 16):
            g = random_graph(rng, n, 0.4)
            assert independence_parity(g) == direct(g)
