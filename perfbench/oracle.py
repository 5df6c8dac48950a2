"""Independent answer checks: networkx and small exact oracles.

Nothing here imports holelab. Each check takes the parsed JSON a CLI job
wrote and returns a list of error strings (empty when the answer is right).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Iterable, Sequence

import networkx as nx
import numpy as np

from inputs import Graph, adjacency

# ---------------------------------------------------------------------------
# holes


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate to start at the minimum, then go toward its smaller neighbour."""
    vs = list(cycle)
    a = vs.index(min(vs))
    rot = vs[a:] + vs[:a]
    if rot[-1] < rot[1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def chordless_cycles(graph: Graph, lo: int, hi: int | None) -> set[tuple[int, ...]]:
    """Canonical holes of the graph with lo <= length <= hi, via networkx."""
    n, edges = graph
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    return {
        canonical_cycle(c)
        for c in nx.chordless_cycles(g, length_bound=hi)
        if len(c) >= lo
    }


def check_hole_rows(rows: list, expected: list[set[tuple[int, ...]]]) -> list[str]:
    """A `holes` report without --ell against the oracle hole sets."""
    errors = []
    if [r.get("entry") for r in rows] != list(range(len(expected))):
        return [f"entries {[r.get('entry') for r in rows][:5]}... != 0..{len(expected) - 1}"]
    for row, want in zip(rows, expected):
        got = [tuple(h) for h in row.get("holes", ())]
        if row.get("count") != len(got):
            errors.append(f"entry {row['entry']}: count {row.get('count')} != {len(got)} holes listed")
        if len(set(got)) != len(got):
            errors.append(f"entry {row['entry']}: a hole is listed twice")
        if any(h != canonical_cycle(h) for h in got):
            errors.append(f"entry {row['entry']}: a hole is not in canonical rotation")
        if set(got) != want:
            errors.append(
                f"entry {row['entry']}: {len(set(got) - want)} holes not in the oracle, "
                f"{len(want - set(got))} oracle holes missing"
            )
    return errors


def check_first_hit(rows: list, graph: Graph, ell: int) -> list[str]:
    """A `holes --ell 1 --min-len ell --max-len ell` report on one gadget:
    its witness must be an induced cycle of exactly ell vertices."""
    if len(rows) != 1:
        return [f"{len(rows)} rows for a one-graph corpus"]
    row = rows[0]
    if row.get("covered") != [0]:
        return [f"covered {row.get('covered')} != [0]"]
    cycle = row["witnesses"]["0"]
    n, _ = graph
    adj = adjacency(graph)
    k = len(cycle)
    if k != ell:
        return [f"first hit has length {k}, wanted {ell}"]
    if len(set(cycle)) != k or not all(0 <= v < n for v in cycle):
        return ["first hit repeats a vertex or leaves the graph"]
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            if bool((adj[cycle[i]] >> cycle[j]) & 1) != consecutive:
                what = "missing edge" if consecutive else "chord"
                return [f"first hit has a {what} {cycle[i]}-{cycle[j]}"]
    return []


# ---------------------------------------------------------------------------
# campaign goldens


def answer_fields(command: str, payload) -> list:
    """The answers of a report, in corpus order, without its config echo.

    `verify` reports echo predicate, params, seed and timing; rows of the
    other commands echo `entry` and `k`. Only the answers are compared.
    """
    if command == "verify":
        bad = set(payload["counterexamples"])
        return [
            {
                "ok": v["ok"],
                "budget_exceeded": v["budget_exceeded"],
                "detail": v["detail"],
                "counterexample": v["entry"] in bad,
            }
            for v in payload["verdicts"]
        ]
    return [{k: v for k, v in row.items() if k not in ("entry", "k")} for row in payload]


def answers_digest(answers: Iterable) -> str:
    text = json.dumps(list(answers), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_golden(command: str, payload, order: Sequence[int], golden: str) -> list[str]:
    """Compare answers of a shuffled-corpus job with a golden digest.

    order[i] is the original line index of entry i; answers are put back in
    original order before hashing, so the digest is seed-independent.
    """
    answers = answer_fields(command, payload)
    if len(answers) != len(order):
        return [f"{len(answers)} answers for {len(order)} entries"]
    original = [None] * len(order)
    for i, src in enumerate(order):
        original[src] = answers[i]
    if answers_digest(original) != golden:
        return ["answers differ from the goldens"]
    return []


# ---------------------------------------------------------------------------
# exact invariants


def stable_faces(graph: Graph) -> list[list[tuple[int, ...]]]:
    """Nonempty stable sets grouped by size 1, 2, ... up to the largest."""
    n, _ = graph
    adj = adjacency(graph)
    out: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    stack: list[tuple[tuple[int, ...], int]] = [((), (1 << n) - 1)]
    while stack:
        prefix, allowed = stack.pop()
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            v = low.bit_length() - 1
            face = prefix + (v,)
            out[len(face)].append(face)
            rest = allowed & ~adj[v]
            if rest:
                stack.append((face, rest))
    return [f for f in out[1:] if f]


PRIME = 1_000_003


def rank_mod_p(rows: np.ndarray) -> int:
    """Rank over GF(PRIME); equals the rational rank for these ±1 boundary
    matrices unless PRIME divides a torsion coefficient of the complex."""
    m = rows.astype(np.int64) % PRIME
    rank = 0
    n_rows, n_cols = m.shape
    for col in range(n_cols):
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), PRIME - 2, PRIME)
        m[rank] = (m[rank] * inv) % PRIME
        below = rank + 1 + np.nonzero(m[rank + 1 :, col])[0]
        if below.size:
            m[below] = (m[below] - np.outer(m[below, col], m[rank])) % PRIME
        rank += 1
        if rank == n_rows:
            break
    return rank


def homology_answer(graph: Graph) -> dict:
    """face_counts, Euler characteristics, Betti numbers and parity."""
    faces = stable_faces(graph)
    counts = [len(f) for f in faces]
    unreduced = sum((-1) ** i * c for i, c in enumerate(counts))
    s_odd = sum(counts[0::2])
    s_even = 1 + sum(counts[1::2])
    ranks = [0] * (len(faces) + 1)
    for d in range(1, len(faces)):
        index = {f: i for i, f in enumerate(faces[d - 1])}
        mat = np.zeros((len(faces[d]), len(faces[d - 1])), dtype=np.int64)
        for r, face in enumerate(faces[d]):
            for j in range(len(face)):
                mat[r, index[face[:j] + face[j + 1 :]]] = (-1) ** j
        ranks[d] = rank_mod_p(mat)
    betti = [counts[d] - ranks[d] - ranks[d + 1] for d in range(len(faces))]
    while betti and betti[-1] == 0:
        betti.pop()
    return {
        "face_counts": counts,
        "euler_unreduced": unreduced,
        "euler_reduced": unreduced - 1,
        "betti": betti,
        "total_betti": sum(betti),
        "parity": [s_even, s_odd],
    }


def max_imbalance(graph: Graph) -> int:
    """max |S_even - S_odd| over all induced subgraphs (zeta transform)."""
    n, _ = graph
    adj = adjacency(graph)
    table = [0] * (1 << n)
    table[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if table[rest] and not adj[v] & rest:
            table[mask] = -table[rest]
    for v in range(n):
        bit = 1 << v
        for mask in range(1 << n):
            if mask & bit:
                table[mask] += table[mask ^ bit]
    return max(abs(x) for x in table)


def clique_number(graph: Graph) -> int:
    n, edges = graph
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    return max((len(c) for c in nx.find_cliques(g)), default=0)


def _colorable(adj: Sequence[int], order: Sequence[int], k: int) -> bool:
    colors = {}

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        blocked = 0
        for w, c in colors.items():
            if (adj[v] >> w) & 1:
                blocked |= 1 << c
        for c in range(min(k, used + 1)):
            if not (blocked >> c) & 1:
                colors[v] = c
                if place(i + 1, max(used, c + 1)):
                    return True
                del colors[v]
        return False

    return place(0, 0)


def chromatic_number(graph: Graph) -> int:
    """Smallest k with a proper k-colouring, by plain backtracking."""
    n, _ = graph
    if n == 0:
        return 0
    adj = adjacency(graph)
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    k = max(clique_number(graph), 1)
    while not _colorable(adj, order, k):
        k += 1
    return k


def induced(graph: Graph, keep: Iterable[int]) -> Graph:
    keep = sorted(keep)
    index = {v: i for i, v in enumerate(keep)}
    return len(keep), [(index[u], index[v]) for u, v in graph[1] if u in index and v in index]


def ball(graph: Graph, v: int, rho: int) -> frozenset[int]:
    adj = adjacency(graph)
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        if dist[u] == rho:
            continue
        w_mask = adj[u]
        while w_mask:
            low = w_mask & -w_mask
            w_mask ^= low
            w = low.bit_length() - 1
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return frozenset(dist)


def invariants_errors(row: dict, graph: Graph, radii: Sequence[int]) -> list[str]:
    """omega, chi and chi_rho against the oracles; witnesses must be valid."""
    n, edges = graph
    adj = adjacency(graph)
    errors = []
    omega, chi = clique_number(graph), chromatic_number(graph)
    clique = row.get("clique", [])
    if row.get("omega") != omega or len(clique) != omega:
        errors.append(f"omega {row.get('omega')} != {omega}")
    if any((adj[u] >> v) & 1 == 0 for i, u in enumerate(clique) for v in clique[i + 1 :]):
        errors.append("clique witness is not a clique")
    coloring = row.get("coloring", [])
    if row.get("chi") != chi:
        errors.append(f"chi {row.get('chi')} != {chi}")
    if len(coloring) != n or len(set(coloring)) != chi or any(coloring[u] == coloring[v] for u, v in edges):
        errors.append("colouring witness is not a proper chi-colouring")
    cache: dict[frozenset[int], int] = {}
    for rho in radii:
        best = 0
        for v in range(n):
            b = ball(graph, v, rho)
            if b not in cache:
                cache[b] = chromatic_number(induced(graph, b))
            best = max(best, cache[b])
        if row.get(f"chi_rho_{rho}") != best:
            errors.append(f"chi_rho_{rho} {row.get(f'chi_rho_{rho}')} != {best}")
    return errors
