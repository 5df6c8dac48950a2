"""Command-line interface: batch verification over graph corpora.

Exit codes: 0 clean, 1 counterexample found, 2 input error, 3 a budget was
exhausted somewhere. JSON output is deterministic for identical inputs.

A subcommand imports only its own modules: this module loads the pieces
every subcommand shares (budget, errors, graph, io) and the tables the
parser needs, and each _cmd_* imports the library modules it runs when it
runs, so `holelab holes` never loads structures, campaign or homology.
`python -X importtime -m holelab.cli holes corpus.g6` shows what a run
loads.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from .budget import DEFAULT_NODE_BUDGET, Budget
from .errors import BudgetExceededError, InputError
from .graph import Graph
from .io import FORMATS, JsonIntLists, encode_graph6, parse_corpus, write_json

EXIT_CLEAN = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


def _per_entry(args, fill: Callable[[dict, Graph, Budget], bool | None]) -> int:
    """Fill one row per corpus entry, write the rows, and pick the exit code.

    fill(row, graph, budget) adds its keys to a row that starts as
    {"entry": id}, under a fresh budget of --budget-nodes per entry, and
    returns True when the row is a counterexample. A budget that runs out
    adds budget_error to the row. fill runs once on the null graph, with no
    node limit, before the corpus is read: an argument the library rejects
    is an input error whatever the corpus holds.
    """
    fill({}, Graph(0), Budget(None))
    found = budget_hit = False
    rows = []
    # parsed whole first, so a malformed line fails before any search
    for entry in list(parse_corpus(args.corpus, args.format)):
        row: dict[str, Any] = {"entry": entry.id}
        try:
            found |= bool(fill(row, entry.graph, Budget(args.budget_nodes)))
        except BudgetExceededError as exc:
            row["budget_error"] = str(exc)
            budget_hit = True
        rows.append(row)
    write_json(rows, args.json_out)
    if found:
        return EXIT_COUNTEREXAMPLE
    return EXIT_BUDGET if budget_hit else EXIT_CLEAN


def _cmd_invariants(args) -> int:
    from .invariants import _chromatic_with_clique, chi_rho, clique_number

    def fill(row: dict, g: Graph, budget: Budget) -> None:
        row["n"] = g.n
        try:
            omega, clique = clique_number(g, budget)
            chi, coloring = _chromatic_with_clique(g, clique, budget)
            row.update(
                omega=omega, chi=chi, clique=sorted(clique), coloring=list(coloring)
            )
            for rho in args.rho:
                row[f"chi_rho_{rho}"] = chi_rho(g, rho, budget, chi=chi)
        except BudgetExceededError as exc:
            # the driver sets budget_error again, in the same place
            row.update(budget_error=str(exc), bounds=[exc.lower, exc.upper])
            raise

    return _per_entry(args, fill)


def _needs(args, option: str, *others: str) -> None:
    """Refuse each of `others` given without `option`, which it only acts
    with."""
    for other in others:
        if getattr(args, other) is not None and getattr(args, option) is None:
            raise InputError(f"--{other} needs --{option}")


def _cmd_holes(args) -> int:
    _needs(args, "ell", "d")
    from .holes import enumerate_holes, residue_coverage

    def fill(row: dict, g: Graph, budget: Budget) -> None:
        row["n"] = g.n
        if args.ell is not None:
            cov = residue_coverage(
                g,
                args.ell,
                d=args.d,
                min_len=args.min_len,
                max_len=args.max_len,
                budget=budget,
            )
            row["ell"] = args.ell
            row["covered"] = sorted(cov)
            row["witnesses"] = {str(r): cov[r] for r in sorted(cov)}
        else:
            holes = JsonIntLists(
                enumerate_holes(g, args.min_len, args.max_len, budget), g.n
            )
            row["holes"] = holes
            row["count"] = len(holes)

    return _per_entry(args, fill)


def _cmd_homology(args) -> int:
    from .homology import betti_numbers

    def fill(row: dict, g: Graph, budget: Budget) -> None:
        row["n"] = g.n
        rep = betti_numbers(g, budget)
        row.update(
            face_counts=list(rep.face_counts),
            euler_unreduced=rep.euler_unreduced,
            euler_reduced=rep.euler_reduced,
            betti=list(rep.betti),
            total_betti=rep.total_betti,
            parity=list(rep.parity),
        )

    return _per_entry(args, fill)


def _cmd_balance(args) -> int:
    from .homology import is_k_balanced

    def fill(row: dict, g: Graph, budget: Budget) -> bool:
        row["k"] = args.k
        verdict = is_k_balanced(g, args.k, budget)
        row["balanced"] = verdict.balanced
        row["exhaustive"] = True  # every verdict is; the key keeps the rows' bytes
        if verdict.violation is None:
            return False
        row["violation"] = sorted(verdict.violation)
        row["imbalance"] = verdict.imbalance
        return True

    return _per_entry(args, fill)


# the number of integer parameters each gadget kind takes: the builders',
# then gadgets.FAMILY_PARAMS restated, and campaign.PREDICATES restated, so
# that the parser imports neither module; tests/test_hygiene.py checks that
# these agree with their owners
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
PREDICATES = (
    "kalai_balance",
    "ternary_euler",
    "clique_parity",
    "hole_mod_coverage",
    "consecutive_holes",
)


def _cmd_gadget(args) -> int:
    from .gadgets import crest_gadget, findhole_gadget, multicover_gadget, standard_family

    if args.format == "dimacs":
        raise InputError("gadget writes graph6 or edgelist, not dimacs")
    if args.json_out:
        raise InputError("gadget writes no JSON; use --out for its graph")
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
        _, mc = multicover_gadget(*args.params[1:])
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


def _entry_graph(args) -> Graph:
    """The graph of corpus entry --entry; the whole corpus is parsed."""
    entries = list(parse_corpus(args.corpus, args.format))
    if not (0 <= args.entry < len(entries)):
        raise InputError(f"corpus has no entry {args.entry}")
    return entries[args.entry].graph


def _cmd_shower(args) -> int:
    _needs(args, "jets", "ell", "d")
    from .structures import Shower, enumerate_jets, shower_from_bfs, verify_shower

    if args.jets is not None:
        # on a one-vertex shower first: a jet argument the library rejects
        # is an input error whether or not the corpus gives a shower
        one = Shower(Graph(1), (frozenset({0}),), 0)
        enumerate_jets(one, args.jets, ell=args.ell, d=args.d, budget=Budget(None))
    g = _entry_graph(args)
    shower = shower_from_bfs(g, args.root, args.depth, args.drain)
    if shower is None:
        write_json({"shower": None}, args.json_out)
        return EXIT_CLEAN
    report, floor = verify_shower(shower)
    row: dict[str, Any] = {
        "layers": [sorted(layer) for layer in shower.layers],
        "drain": shower.drain,
        "head": shower.head,
        "floor": sorted(floor),
        "valid": report.valid,
    }
    if args.jets is not None:
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
            write_json(row, args.json_out)
            return EXIT_BUDGET
    write_json(row, args.json_out)
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
    from .structures import Multicover, verify_multicover

    mc = Multicover(host=_entry_graph(args), **_read_witness(args.witness))
    mc.host.check_set(mc.ground_set())  # a vertex out of range is an input error
    budget_error = None
    try:
        report = verify_multicover(
            mc, stable=args.stable, budget=Budget(args.budget_nodes)
        )
    except BudgetExceededError as exc:
        report, budget_error = exc.partial, str(exc)
    row = {
        "valid": report.valid,
        "failures": list(report.failures),
        "cover_clique_number": report.cover_clique_number,
    }
    if budget_error is not None:
        row["budget_error"] = budget_error
    write_json(row, args.json_out)
    if not report.valid:
        return EXIT_COUNTEREXAMPLE
    return EXIT_CLEAN if budget_error is None else EXIT_BUDGET


def _cmd_verify(args) -> int:
    from .campaign import report_as_dict, run_campaign

    corpus = list(parse_corpus(args.corpus, args.format))
    params: dict[str, Any] = {}
    for item in args.param:
        key, _, value = item.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    report = run_campaign(
        args.predicate, corpus, params, budget_nodes=args.budget_nodes
    )
    write_json(report_as_dict(report, include_timing=args.timing), args.json_out)
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
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of gadget random",
    )
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
        Budget(args.budget_nodes)  # a negative limit fails here, for every command
        return args.func(args)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
