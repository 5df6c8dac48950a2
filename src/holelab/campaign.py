"""Theorem-predicate verification campaigns over graph corpora.

A campaign evaluates one predicate on every corpus entry, collects
counterexample witnesses, and serializes to a JSON report whose bytes are a
function of (corpus, predicate, params) only — wall-clock timing is
kept in memory but excluded from the default serialization so reruns with
identical configuration produce identical files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .budget import Budget
from .errors import BudgetExceededError, HolelabError, InputError
from .graph import Graph
from .holes import consecutive_hole_pairs, enumerate_holes, residue_coverage
from .homology import independence_parity, is_k_balanced
from .invariants import clique_number
from .io import CorpusEntry

@dataclass(frozen=True)
class EntryVerdict:
    entry_id: int
    ok: bool
    detail: dict[str, Any]
    budget_exceeded: bool = False


@dataclass(frozen=True)
class CampaignReport:
    predicate: str
    params: dict[str, Any]
    verdicts: tuple[EntryVerdict, ...]
    counterexamples: tuple[EntryVerdict, ...]
    elapsed_seconds: float

    @property
    def clean(self) -> bool:
        return not self.counterexamples

    @property
    def any_budget_exceeded(self) -> bool:
        return any(v.budget_exceeded for v in self.verdicts)


def _has_ternary_cycle(g: Graph, budget: Budget) -> bool:
    """Does g contain an induced cycle of length divisible by three?

    Triangles count: an induced cycle of length three is a triangle, so
    they are checked directly before holes are enumerated.
    """
    for a, b in g.edges():
        common = g.adjacency_mask(a) & g.adjacency_mask(b)
        if common:
            return True
    for hole in enumerate_holes(g, budget=budget):
        if len(hole) % 3 == 0:
            return True
    return False


def _as_int(key: str, value: Any) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"parameter {key}={value!r} is not an integer") from None


def _read_params(predicate: str, params: dict) -> dict:
    """The values the predicate's check uses, as ints, read once per
    campaign, keyed by parameter name; a key the check does not read is
    refused, and a value out of range is refused here (require_pair, a
    flag of 0 or 1) or by the check itself."""
    opts: dict[str, Any] = {}
    if predicate == "kalai_balance":
        opts = {"k": _as_int("k", params.get("k", 1))}
    elif predicate == "hole_mod_coverage":
        d = params.get("d")
        required = params.get("require", ())
        if isinstance(required, (int, str)):  # one residue, or "a,b,..." text
            required = str(required).split(",")
        opts = {
            "ell": _as_int("ell", params.get("ell", 3)),
            "d": None if d is None else _as_int("d", d),
            "require": [_as_int("require", r) for r in required],
        }
    elif predicate == "consecutive_holes":
        opts = {
            "ell": _as_int("ell", params.get("ell", 4)),
            "require_pair": _as_int("require_pair", params.get("require_pair", 0)),
        }
        if opts["require_pair"] not in (0, 1):
            raise InputError(
                f"parameter require_pair={params['require_pair']!r} is not 0 or 1"
            )
    unknown = sorted(set(params) - set(opts))
    if unknown:
        reads = ", ".join(sorted(opts)) or "no parameters"
        raise InputError(
            f"unknown parameter {unknown[0]!r} for {predicate}, which reads {reads}"
        )
    return opts


def _check_kalai_balance(
    g: Graph, opts: dict, budget: Budget
) -> tuple[bool, dict]:
    k = opts["k"]
    verdict = is_k_balanced(g, k, budget=budget)
    detail: dict[str, Any] = {"k": k, "balanced": verdict.balanced}
    if not verdict.balanced:
        return True, detail
    omega, clique = clique_number(g, budget)
    detail["omega"] = omega
    detail["clique"] = sorted(clique)
    return omega <= k + 1, detail


def _check_ternary_euler(
    g: Graph, opts: dict, budget: Budget
) -> tuple[bool, dict]:
    if _has_ternary_cycle(g, budget):
        return True, {"has_ternary_cycle": True}
    e, o = independence_parity(g, budget)
    reduced = o - e
    return reduced in (-1, 0, 1), {
        "has_ternary_cycle": False,
        "euler_reduced": reduced,
        "parity": [e, o],
    }


def _check_clique_parity(
    g: Graph, opts: dict, budget: Budget
) -> tuple[bool, dict]:
    e, o = independence_parity(g, budget)
    detail: dict[str, Any] = {"parity": [e, o]}
    complete = g.edge_count == g.n * (g.n - 1) // 2 and g.n >= 1
    detail["complete"] = complete
    if complete and (e, o) != (1, g.n):
        return False, detail
    if g.n <= 12:  # cross-check the recursion against direct enumeration
        # stable[S] for every vertex mask S, adding vertex v as the highest
        stable = [True]
        for v, nbrs in enumerate(g.adjacency_masks()):
            stable += [s and not nbrs & m for m, s in enumerate(stable)]
        bo = sum(1 for m, s in enumerate(stable) if s and m.bit_count() % 2)
        be = stable.count(True) - bo
        detail["enumerated"] = [be, bo]
        if (be, bo) != (e, o):
            return False, detail
    return True, detail


def _check_hole_mod_coverage(
    g: Graph, opts: dict, budget: Budget
) -> tuple[bool, dict]:
    ell = opts["ell"]
    cov = residue_coverage(g, ell, d=opts["d"], budget=budget)
    detail = {
        "ell": ell,
        "covered": sorted(cov),
        "witness_lengths": {str(r): len(cov[r]) for r in sorted(cov)},
    }
    missing = {r % ell for r in opts["require"]} - cov.keys()
    if missing:
        detail["missing"] = sorted(missing)
        return False, detail
    return True, detail


def _check_consecutive_holes(
    g: Graph, opts: dict, budget: Budget
) -> tuple[bool, dict]:
    ell = opts["ell"]
    pairs = consecutive_hole_pairs(g, ell, budget=budget)
    detail = {"ell": ell, "pair_lengths": [t for t, _, _ in pairs]}
    if opts["require_pair"] and not pairs:
        return False, detail
    return True, detail


_CHECKS: dict[str, Callable[[Graph, dict, Budget], tuple[bool, dict]]] = {
    "kalai_balance": _check_kalai_balance,
    "ternary_euler": _check_ternary_euler,
    "clique_parity": _check_clique_parity,
    "hole_mod_coverage": _check_hole_mod_coverage,
    "consecutive_holes": _check_consecutive_holes,
}
PREDICATES = tuple(_CHECKS)


def run_campaign(
    predicate: str,
    corpus: Sequence[CorpusEntry],
    params: dict[str, Any] | None = None,
    budget_nodes: int | None = None,
) -> CampaignReport:
    """Evaluate one predicate over a corpus, deterministically.

    Entries are evaluated one after another, each under a fresh budget of
    budget_nodes; per-entry budget errors are recorded on the verdict, never
    fatal. Verdicts are ordered by entry id. The check runs once on the null
    graph, with no node limit, before any entry: a parameter it rejects is
    an input error whatever the corpus holds.
    """
    if predicate not in _CHECKS:
        raise HolelabError(f"unknown campaign predicate: {predicate}")
    params = dict(params or {})
    check = _CHECKS[predicate]
    opts = _read_params(predicate, params)
    check(Graph(0), opts, Budget(None))
    start = time.monotonic()

    def evaluate(entry: CorpusEntry) -> EntryVerdict:
        budget = Budget(budget_nodes)
        try:
            ok, detail = check(entry.graph, opts, budget)
            return EntryVerdict(entry.id, ok, detail)
        except BudgetExceededError as exc:
            return EntryVerdict(
                entry.id, True, {"budget_error": str(exc)}, budget_exceeded=True
            )

    verdicts = sorted((evaluate(e) for e in corpus), key=lambda v: v.entry_id)
    return CampaignReport(
        predicate=predicate,
        params=params,
        verdicts=tuple(verdicts),
        counterexamples=tuple(v for v in verdicts if not v.ok),
        elapsed_seconds=time.monotonic() - start,
    )


def report_as_dict(report: CampaignReport, include_timing: bool = False) -> dict:
    """Stable-field-order dict form of a report; timing off by default."""
    return {
        "predicate": report.predicate,
        "params": {k: report.params[k] for k in sorted(report.params)},
        "entries": len(report.verdicts),
        "verdicts": [
            {
                "entry": v.entry_id,
                "ok": v.ok,
                "budget_exceeded": v.budget_exceeded,
                "detail": {k: v.detail[k] for k in sorted(v.detail)},
            }
            for v in report.verdicts
        ],
        "counterexamples": [v.entry_id for v in report.counterexamples],
        "elapsed_seconds": report.elapsed_seconds if include_timing else None,
    }
