"""The benchmark's workloads: the CLI jobs of one pass and their checks.

Why each workload exists (see README.md for the measured spreads):

holes-enum     `holes` with no length window over sparse random graphs. Bound
               by output: kernel DFS, the Hole wrapper and json.dumps of a few
               MB. The completion prune never runs (max_len is None), so a
               prune change must leave this workload unchanged.
holes-window   `holes --min-len 6 --max-len 9` over random graphs, plus
               first-hit jobs (`--min-len l --max-len l --ell 1`) on findhole
               gadgets from the grid of acceptance criterion 1. Bound by the
               completion prune; first_hit_s keeps the gadget part apart so a
               faster random part cannot hide a slower gadget part.
campaign-le7   every `verify` predicate plus `homology`, `balance --k 1` and
               `invariants --rho 1` over all 1253 graphs on at most 7
               vertices. Thousands of tiny calls per job, so per-call overhead
               in io and campaign shows, and so does a change that helps large
               inputs but slows small ones.
exact-medium   `homology`, exhaustive `balance` and `invariants --rho 1 2` on
               medium graphs, with no hole search: the bypass for every
               hole-kernel change, and the load for parity, Betti, k-balance,
               colouring and induced_subgraph.

Random inputs are drawn from the seed and then kept or skipped so that
every seed gives a pass about the same amount of work (a target total of
oracle hole vertices, or of boundary-matrix size); without this, hole
counts of sparse random graphs differ by 30 % from seed to seed and so
would the timings. holes-window's random graphs and exact-medium's
homology and invariants graphs are the same on every seed, in seeded order
(see holes_window and exact_medium).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import inputs
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens", "campaign_le7.json")

# acceptance criterion 1 grid is ell = 24..32 x s in {2,4}^3; one
# subdivision pattern per length keeps a pass short and seed-independent
GADGETS = [(ell, 2, 2, 4) for ell in range(24, 33)]

# the campaign-le7 jobs: (name, CLI arguments after the corpus, expected exit)
LE7_JOBS = [
    ("verify-kalai_balance", ["verify", "kalai_balance"], []),
    ("verify-ternary_euler", ["verify", "ternary_euler"], []),
    ("verify-clique_parity", ["verify", "clique_parity"], []),
    ("verify-hole_mod_coverage", ["verify", "hole_mod_coverage"], []),
    ("verify-consecutive_holes", ["verify", "consecutive_holes"], []),
    ("homology", ["homology"], []),
    ("balance-k1", ["balance"], ["--k", "1"]),
    ("invariants-rho1", ["invariants"], ["--rho", "1"]),
]

MAX_MISSES = 25


@dataclass
class Job:
    name: str
    argv: list[str]
    out: str
    expect_exit: int
    check: Callable[[object], list[str]]
    # first_hit_s times these: the gadget jobs on holes-window; the other
    # workloads have no separate first-hit part, so all their jobs count
    first_hit: bool = True


@dataclass
class Workload:
    jobs: list[Job]
    digests: dict[str, str] = field(default_factory=dict)
    # the inputs the hole workloads give the kernel: (adj, n, lo, hi, first_only)
    kernel_inputs: list[tuple] = field(default_factory=list)


def _fill(rng: random.Random, n: int, m: int, target: int, weigh) -> list[tuple[inputs.Graph, object]]:
    """Draw G(n, m) graphs, keeping each whose weight still fits under target.

    Stops at 98 % of target, or after MAX_MISSES draws in a row that do not
    fit, so the total lands just under target whatever the seed.
    """
    chosen, total, misses = [], 0, 0
    while total < 0.98 * target and misses < MAX_MISSES:
        g = inputs.random_gnm(rng, n, m)
        weight, data = weigh(g)
        if total + weight <= target:
            chosen.append((g, data))
            total += weight
            misses = 0
        else:
            misses += 1
    if total < 0.9 * target:
        raise RuntimeError(f"G({n},{m}) graphs reached only {total} of a weight of {target}")
    return chosen


def _holes_weigh(lo: int, hi: int | None):
    def weigh(g):
        holes = oracle.chordless_cycles(g, lo, hi)
        return sum(len(h) for h in holes), holes

    return weigh


def _graph6_job(work: str, wl: Workload, name: str, graphs: list, args: list[str], check, first_hit: bool = True) -> Job:
    path = os.path.join(work, "in", name + ".g6")
    inputs.write_graph6(path, graphs)
    wl.digests[name] = inputs.file_digest(path)
    out = os.path.join(work, "out", name + ".json")
    return Job(name, ["--json-out", out, args[0], path] + args[1:], out, 0, check, first_hit)


def holes_enum(seed: int, work: str) -> Workload:
    wl = Workload([])
    rng = inputs.rng_for(seed, "holes-enum")
    for j in range(4):
        drawn = _fill(rng, 36, 66, 100_000, _holes_weigh(4, None))
        graphs = [g for g, _ in drawn]
        expected = [h for _, h in drawn]
        wl.jobs.append(_graph6_job(work, wl, f"enum-{j}", graphs, ["holes"],
                                   lambda rows, e=expected: oracle.check_hole_rows(rows, e)))
        wl.kernel_inputs += [(inputs.adjacency(g), g[0], 4, None, False) for g in graphs]
    return wl


def holes_window(seed: int, work: str) -> Workload:
    """The random graphs come from one fixed stream and the seed only orders
    them within each job: the time of a windowed search differs by 22 %
    from one G(30, 54) to the next, and more than its in-window hole count
    explains, so seeded draws moved wall_s by up to 9 %."""
    wl = Workload([])
    rng = inputs.rng_for(seed, "holes-window")
    pool = inputs.rng_for(0, "holes-window", "pool")
    for j in range(2):
        drawn = _fill(pool, 30, 54, 10_000, _holes_weigh(6, 9))
        rng.shuffle(drawn)
        graphs = [g for g, _ in drawn]
        expected = [h for _, h in drawn]
        wl.jobs.append(_graph6_job(work, wl, f"window-{j}", graphs, ["holes", "--min-len", "6", "--max-len", "9"],
                                   lambda rows, e=expected: oracle.check_hole_rows(rows, e), first_hit=False))
        wl.kernel_inputs += [(inputs.adjacency(g), g[0], 6, 9, False) for g in graphs]
    for ell, s1, s2, s3 in GADGETS:
        name = f"gadget-{ell}-{s1}{s2}{s3}"
        g = inputs.findhole_gadget(ell, s1, s2, s3)
        path = os.path.join(work, "in", name + ".txt")
        inputs.write_edgelist(path, g)
        wl.digests[name] = inputs.file_digest(path)
        out = os.path.join(work, "out", name + ".json")
        argv = ["--json-out", out, "--format", "edgelist", "holes", path,
                "--min-len", str(ell), "--max-len", str(ell), "--ell", "1"]
        wl.jobs.append(Job(name, argv, out, 0,
                           lambda rows, g=g, ell=ell: oracle.check_first_hit(rows, g, ell)))
        wl.kernel_inputs.append((inputs.adjacency(g), g[0], ell, ell, True))
    return wl


def campaign_le7(seed: int, work: str) -> Workload:
    wl = Workload([])
    lines = inputs.read_le7()
    order = list(range(len(lines)))
    inputs.rng_for(seed, "campaign-le7").shuffle(order)
    path = os.path.join(work, "in", "le7.g6")
    inputs.write_lines(path, [lines[i] for i in order])
    wl.digests["le7"] = inputs.file_digest(path)
    with open(GOLDENS_PATH, encoding="ascii") as fh:
        goldens = json.load(fh)
    for name, head, tail in LE7_JOBS:
        out = os.path.join(work, "out", name + ".json")
        golden = goldens[name]
        wl.jobs.append(Job(name, ["--json-out", out] + head + [path] + tail, out, golden["exit"],
                           lambda payload, c=head[0], d=golden["answers"]: oracle.check_golden(c, payload, order, d)))
    return wl


def _rows_check(graphs: list, per_row) -> Callable[[list], list[str]]:
    def check(rows):
        if [r.get("entry") for r in rows] != list(range(len(graphs))):
            return ["entries are not 0..k-1"]
        errors = []
        for row, g in zip(rows, graphs):
            errors += [f"entry {row['entry']}: {e}" for e in per_row(row, g)]
        return errors

    return check


def _homology_errors(row: dict, g: inputs.Graph) -> list[str]:
    want = dict(oracle.homology_answer(g), n=g[0])
    got = {k: v for k, v in row.items() if k != "entry"}
    return [] if got == want else [f"homology {got} != {want}"]


def _boundary_weight(g: inputs.Graph):
    counts = [len(f) for f in oracle.stable_faces(g)]
    return sum(a * b for a, b in zip(counts, counts[1:])), None


def exact_medium(seed: int, work: str) -> Workload:
    """Homology and invariants graphs come from one fixed stream and the seed
    only orders them: the time of exact homology or colouring differs by
    25-35 % from one random graph to the next, and a seeded draw of a few
    graphs moved a pass by that much. Exhaustive balance costs the same on
    every G(13, 27), so its graphs are drawn from the seed."""
    wl = Workload([])
    rng = inputs.rng_for(seed, "exact-medium")
    pool = inputs.rng_for(0, "exact-medium", "pool")
    drawn = [g for g, _ in _fill(pool, 14, 30, 200_000, _boundary_weight)]
    for j in range(4):
        hom = drawn[j::4]
        rng.shuffle(hom)
        wl.jobs.append(_graph6_job(work, wl, f"homology-{j}", hom, ["homology"], _rows_check(hom, _homology_errors)))
    for j in range(2):
        bal = [inputs.random_gnm(rng, 13, 27)]
        # k at the largest imbalance: the verdict is "balanced" only after
        # all 2^n induced subgraphs were scanned
        k = max(oracle.max_imbalance(g) for g in bal)

        def balance_errors(row, g, k=k):
            want = {"entry": 0, "k": k, "balanced": True, "exhaustive": True}
            return [] if row == want else [f"balance {row} != {want}"]

        wl.jobs.append(_graph6_job(work, wl, f"balance-{j}", bal, ["balance", "--k", str(k)],
                                   _rows_check(bal, balance_errors)))
    for j in range(2):
        inv = [inputs.random_gnm(pool, 24, 140) for _ in range(5)]
        rng.shuffle(inv)
        wl.jobs.append(_graph6_job(work, wl, f"invariants-{j}", inv, ["invariants", "--rho", "1", "2"],
                                   _rows_check(inv, lambda row, g: oracle.invariants_errors(row, g, (1, 2)))))
    return wl


WORKLOADS = {
    "holes-enum": holes_enum,
    "holes-window": holes_window,
    "campaign-le7": campaign_le7,
    "exact-medium": exact_medium,
}
