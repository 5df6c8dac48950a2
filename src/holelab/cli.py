"""Command-line interface: batch verification over graph corpora.

Exit codes: 0 clean, 1 counterexample found, 2 input error, 3 a budget was
exhausted somewhere. JSON output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .budget import DEFAULT_NODE_BUDGET, Budget
from .campaign import (
    PREDICATES,
    emit_report,
    report_as_dict,
    run_campaign,
)
from .errors import BudgetExceededError, InputError
from .gadgets import crest_gadget, findhole_gadget, multicover_gadget, standard_family
from .holes import enumerate_holes, residue_coverage
from .homology import betti_numbers, is_k_balanced
from .invariants import chi_rho, chromatic_number, clique_number
from .io import FORMATS, CorpusEntry, encode_graph6, parse_corpus
from .structures import (
    Multicover,
    enumerate_jets,
    shower_from_bfs,
    verify_multicover,
    verify_shower,
)

EXIT_CLEAN = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _load_corpus(path: str, fmt: str) -> list[CorpusEntry]:
    return list(parse_corpus(path, fmt))


def _emit(payload: Any, json_out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if json_out:
        with open(json_out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_invariants(args) -> int:
    budget_hit = False
    results = []
    for entry in _load_corpus(args.corpus, args.format):
        budget = Budget(args.budget_nodes)
        row: dict[str, Any] = {"entry": entry.id, "n": entry.graph.n}
        try:
            omega, clique = clique_number(entry.graph, budget)
            chi, coloring = chromatic_number(entry.graph, budget)
            row.update(
                omega=omega,
                chi=chi,
                clique=sorted(clique),
                coloring=list(coloring),
            )
            for rho in args.rho:
                row[f"chi_rho_{rho}"] = chi_rho(entry.graph, rho, budget)
        except BudgetExceededError as exc:
            row["budget_error"] = str(exc)
            row["bounds"] = [exc.lower, exc.upper]
            budget_hit = True
        results.append(row)
    _emit(results, args.json_out)
    return EXIT_BUDGET if budget_hit else EXIT_CLEAN


def _cmd_holes(args) -> int:
    budget_hit = False
    results = []
    for entry in _load_corpus(args.corpus, args.format):
        budget = Budget(args.budget_nodes)
        row: dict[str, Any] = {"entry": entry.id, "n": entry.graph.n}
        try:
            if args.ell is not None:
                cov = residue_coverage(
                    entry.graph,
                    args.ell,
                    d=args.d,
                    min_len=args.min_len,
                    max_len=args.max_len,
                    budget=budget,
                )
                row["ell"] = args.ell
                row["covered"] = sorted(cov.covered)
                row["witnesses"] = {
                    str(r): list(cov.witnesses[r].vertices)
                    for r in sorted(cov.witnesses)
                }
            else:
                holes = list(
                    enumerate_holes(
                        entry.graph, args.min_len, args.max_len, budget
                    )
                )
                row["holes"] = [list(h.vertices) for h in holes]
                row["count"] = len(holes)
        except BudgetExceededError as exc:
            row["budget_error"] = str(exc)
            budget_hit = True
        results.append(row)
    _emit(results, args.json_out)
    return EXIT_BUDGET if budget_hit else EXIT_CLEAN


def _cmd_homology(args) -> int:
    budget_hit = False
    results = []
    for entry in _load_corpus(args.corpus, args.format):
        budget = Budget(args.budget_nodes)
        row: dict[str, Any] = {"entry": entry.id, "n": entry.graph.n}
        try:
            rep = betti_numbers(entry.graph, budget)
            row.update(
                face_counts=list(rep.face_counts),
                euler_unreduced=rep.euler_unreduced,
                euler_reduced=rep.euler_reduced,
                betti=list(rep.betti),
                total_betti=rep.total_betti,
                parity=list(rep.parity),
            )
        except BudgetExceededError as exc:
            row["budget_error"] = str(exc)
            budget_hit = True
        results.append(row)
    _emit(results, args.json_out)
    return EXIT_BUDGET if budget_hit else EXIT_CLEAN


def _cmd_balance(args) -> int:
    found = False
    budget_hit = False
    results = []
    for entry in _load_corpus(args.corpus, args.format):
        budget = Budget(args.budget_nodes)
        row: dict[str, Any] = {"entry": entry.id, "k": args.k}
        try:
            verdict = is_k_balanced(
                entry.graph,
                args.k,
                subgraph_budget=args.subgraph_budget,
                seed=args.seed,
                budget=budget,
            )
            row["balanced"] = verdict.balanced
            row["exhaustive"] = verdict.exhaustive
            if verdict.violation is not None:
                row["violation"] = sorted(verdict.violation)
                row["imbalance"] = verdict.imbalance
                found = True
        except BudgetExceededError as exc:
            row["budget_error"] = str(exc)
            budget_hit = True
        results.append(row)
    _emit(results, args.json_out)
    if found:
        return EXIT_COUNTEREXAMPLE
    return EXIT_BUDGET if budget_hit else EXIT_CLEAN


# the number of integer parameters each gadget kind takes
GADGET_PARAMS = {
    "findhole": 4,
    "multicover": 3,
    "crest": 4,
    "cycle": 1,
    "complete": 1,
    "complete_bipartite": 2,
    "petersen": 0,
    "mycielski_iterate": 1,
    "kneser": 2,
    "random": 2,
}


def _cmd_gadget(args) -> int:
    want = GADGET_PARAMS[args.kind]
    if len(args.params) != want:
        raise InputError(
            f"gadget {args.kind} takes {want} integer parameters, "
            f"got {len(args.params)}"
        )
    if args.kind == "findhole":
        g = findhole_gadget(*args.params)
    elif args.kind == "multicover":
        g, _ = multicover_gadget(*args.params)
    elif args.kind == "crest":
        base, mc = multicover_gadget(*args.params[1:])
        g, _, _ = crest_gadget(args.params[0], mc)
    else:
        g = standard_family(args.kind, *args.params, seed=args.seed)
    if args.format == "edgelist":
        text = "\n".join(f"{u} {v}" for u, v in g.edges())
    else:
        text = encode_graph6(g)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_CLEAN


def _cmd_shower(args) -> int:
    entries = _load_corpus(args.corpus, args.format)
    if not (0 <= args.entry < len(entries)):
        raise InputError(f"corpus has no entry {args.entry}")
    g = entries[args.entry].graph
    shower = shower_from_bfs(g, args.root, args.depth, args.drain)
    if shower is None:
        _emit({"shower": None}, args.json_out)
        return EXIT_CLEAN
    report, floor = verify_shower(shower)
    row: dict[str, Any] = {
        "layers": [sorted(layer) for layer in shower.layers],
        "drain": shower.drain,
        "head": shower.head,
        "floor": sorted(floor),
        "valid": report.valid,
    }
    if args.jets:
        budget = Budget(args.budget_nodes)
        try:
            jets, summary = enumerate_jets(
                shower, args.jets, ell=args.ell, d=args.d, budget=budget
            )
            row["jets"] = [list(j) for j in jets]
            if summary is not None:
                row["jet_summary"] = {
                    "modulus": summary.modulus,
                    "lengths": sorted(summary.lengths),
                    "residues": sorted(summary.residues),
                    "completeness": summary.completeness,
                }
        except BudgetExceededError as exc:
            row["budget_error"] = str(exc)
            _emit(row, args.json_out)
            return EXIT_BUDGET
    _emit(row, args.json_out)
    return EXIT_CLEAN


def _read_witness(path: str) -> dict[str, Any]:
    """The X, families and C of a multicover from a JSON witness file of
    the shape {"X": [...], "families": {"<apex>": [...], ...}, "C": [...]}."""
    try:
        with open(path, encoding="ascii") as fh:
            witness = json.load(fh)
    except UnicodeDecodeError:
        raise InputError(f"{path}: not ASCII text") from None
    try:
        families = {int(x): frozenset(n) for x, n in witness["families"].items()}
        fields = {"X": frozenset(witness["X"]), "C": frozenset(witness["C"])}
    except (AttributeError, KeyError, TypeError, ValueError):
        raise InputError("witness needs X, C and families keyed by integers") from None
    if any(type(v) is not int for s in [*fields.values(), *families.values()] for v in s):
        raise InputError("witness vertex sets are not lists of integers")
    return {**fields, "families": families}


def _cmd_structures(args) -> int:
    entries = _load_corpus(args.corpus, args.format)
    if not (0 <= args.entry < len(entries)):
        raise InputError(f"corpus has no entry {args.entry}")
    mc = Multicover(host=entries[args.entry].graph, **_read_witness(args.witness))
    mc.host.check_set(mc.ground_set())  # a vertex out of range is an input error
    report = verify_multicover(mc, stable=args.stable)
    row = {
        "valid": report.valid,
        "failures": list(report.failures),
        "cover_clique_number": report.cover_clique_number,
    }
    _emit(row, args.json_out)
    return EXIT_CLEAN if report.valid else EXIT_COUNTEREXAMPLE


def _cmd_verify(args) -> int:
    corpus = _load_corpus(args.corpus, args.format)
    params: dict[str, Any] = {}
    for item in args.param:
        key, _, value = item.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    report = run_campaign(
        args.predicate,
        corpus,
        params,
        seed=args.seed,
        budget_nodes=args.budget_nodes,
    )
    if args.json_out:
        emit_report(report, args.json_out, include_timing=args.timing)
    else:
        print(json.dumps(report_as_dict(report, include_timing=args.timing), indent=2))
    if not report.clean:
        return EXIT_COUNTEREXAMPLE
    if report.any_budget_exceeded:
        return EXIT_BUDGET
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holelab",
        description="Exact desk-scale toolkit for holes, multicovers, "
        "showers, and independence-complex invariants.",
    )
    parser.add_argument(
        "--budget-nodes",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="search-node budget per entry (default 10^8)",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--format", choices=FORMATS, default="graph6", help="corpus format"
    )
    parser.add_argument("--json-out", help="write JSON output to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="clique, chromatic, local chromatic")
    p.add_argument("corpus")
    p.add_argument("--rho", type=int, nargs="*", default=[])
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("holes", help="enumerate holes or residue coverage")
    p.add_argument("corpus")
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=_cmd_holes)

    p = sub.add_parser("homology", help="independence-complex invariants")
    p.add_argument("corpus")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("balance", help="k-balancedness verdicts")
    p.add_argument("corpus")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--subgraph-budget", type=int, default=1 << 20)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("gadget", help="emit a generated graph")
    p.add_argument("kind", choices=list(GADGET_PARAMS))
    p.add_argument("params", type=int, nargs="*")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("shower", help="build and inspect a BFS shower")
    p.add_argument("corpus")
    p.add_argument("--entry", type=int, default=0)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--drain", type=int, required=True)
    p.add_argument("--jets", type=int, default=None, help="max jet length")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=_cmd_shower)

    p = sub.add_parser("structures", help="verify a multicover witness")
    p.add_argument("corpus")
    p.add_argument("--entry", type=int, default=0)
    p.add_argument("--witness", required=True, help="JSON witness file")
    p.add_argument("--stable", action="store_true")
    p.set_defaults(func=_cmd_structures)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("predicate", choices=PREDICATES)
    p.add_argument("corpus")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="campaign parameter (repeatable)",
    )
    p.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock timing (breaks byte-stable output)",
    )
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
