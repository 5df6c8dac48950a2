"""Theorem-predicate verification campaigns over graph corpora.

A campaign evaluates one predicate on every corpus entry, collects
counterexample witnesses, and serializes to a JSON report whose bytes are a
function of (corpus, predicate, params, seed) only — wall-clock timing is
kept in memory but excluded from the default serialization so reruns with
identical configuration produce identical files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .budget import Budget
from .errors import BudgetExceededError, HolelabError, InputError
from .graph import Graph
from .holes import consecutive_hole_pairs, residue_coverage
from .homology import independence_parity, is_k_balanced
from .invariants import clique_number
from .io import CorpusEntry

PREDICATES = (
    "kalai_balance",
    "ternary_euler",
    "clique_parity",
    "hole_mod_coverage",
    "consecutive_holes",
)


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
    seed: int
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
    from .holes import enumerate_holes

    for hole in enumerate_holes(g, budget=budget):
        if hole.length % 3 == 0:
            return True
    return False


def _as_int(key: str, value: Any) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"parameter {key}={value!r} is not an integer") from None


def _read_params(predicate: str, params: dict) -> dict:
    """The values the predicate's check uses, read once per campaign so
    that a bad value is an input error whatever the corpus holds."""
    if predicate == "kalai_balance":
        k = _as_int("k", params.get("k", 1))
        if k < 0:
            raise InputError("balance threshold must be nonnegative")
        return {"k": k}
    if predicate == "hole_mod_coverage":
        ell = _as_int("ell", params.get("ell", 3))
        if ell < 1:
            raise InputError("modulus must be at least 1")
        d = params.get("d")
        required = params.get("require", ())
        if isinstance(required, (int, str)):  # one residue, or "a,b,..." text
            required = str(required).split(",")
        return {
            "ell": ell,
            "d": _as_int("d", d) if d is not None else None,
            "require": [_as_int("require", r) for r in required],
        }
    if predicate == "consecutive_holes":
        return {
            "ell": _as_int("ell", params.get("ell", 4)),
            "require_pair": params.get("require_pair"),
        }
    return {}


def _check_kalai_balance(
    g: Graph, opts: dict, seed: int, budget: Budget
) -> tuple[bool, dict]:
    k = opts["k"]
    verdict = is_k_balanced(g, k, seed=seed, budget=budget)
    if not verdict.exhaustive:
        return True, {"skipped": "balance check not exhaustive"}
    detail: dict[str, Any] = {"k": k, "balanced": verdict.balanced}
    if not verdict.balanced:
        return True, detail
    omega, clique = clique_number(g, budget)
    detail["omega"] = omega
    detail["clique"] = sorted(clique)
    return omega <= k + 1, detail


def _check_ternary_euler(
    g: Graph, opts: dict, seed: int, budget: Budget
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
    g: Graph, opts: dict, seed: int, budget: Budget
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
    g: Graph, opts: dict, seed: int, budget: Budget
) -> tuple[bool, dict]:
    ell = opts["ell"]
    cov = residue_coverage(g, ell, d=opts["d"], budget=budget)
    detail = {
        "ell": ell,
        "covered": sorted(cov.covered),
        "witness_lengths": {
            str(r): cov.witnesses[r].length for r in sorted(cov.witnesses)
        },
    }
    missing = [r % ell for r in opts["require"] if r % ell not in cov.covered]
    if missing:
        detail["missing"] = sorted(missing)
        return False, detail
    return True, detail


def _check_consecutive_holes(
    g: Graph, opts: dict, seed: int, budget: Budget
) -> tuple[bool, dict]:
    ell = opts["ell"]
    pairs = consecutive_hole_pairs(g, ell, budget=budget)
    detail = {"ell": ell, "pair_lengths": [t for t, _, _ in pairs]}
    if opts["require_pair"] and not pairs:
        return False, detail
    return True, detail


_CHECKS: dict[str, Callable[[Graph, dict, int, Budget], tuple[bool, dict]]] = {
    "kalai_balance": _check_kalai_balance,
    "ternary_euler": _check_ternary_euler,
    "clique_parity": _check_clique_parity,
    "hole_mod_coverage": _check_hole_mod_coverage,
    "consecutive_holes": _check_consecutive_holes,
}


def run_campaign(
    predicate: str,
    corpus: Sequence[CorpusEntry],
    params: dict[str, Any] | None = None,
    seed: int = 0,
    budget_nodes: int | None = None,
) -> CampaignReport:
    """Evaluate one predicate over a corpus; deterministic given the seed.

    Entries are evaluated one after another, each under a fresh budget of
    budget_nodes; per-entry budget errors are recorded on the verdict, never
    fatal. The seed goes to every predicate check (it seeds the sampled
    mode of kalai_balance's balance check) and is echoed in the report.
    Verdicts are ordered by entry id.
    """
    if predicate not in _CHECKS:
        raise HolelabError(f"unknown campaign predicate: {predicate}")
    params = dict(params or {})
    check = _CHECKS[predicate]
    opts = _read_params(predicate, params)
    start = time.monotonic()

    def evaluate(entry: CorpusEntry) -> EntryVerdict:
        budget = Budget(budget_nodes)
        try:
            ok, detail = check(entry.graph, opts, seed, budget)
            return EntryVerdict(entry.id, ok, detail)
        except BudgetExceededError as exc:
            return EntryVerdict(
                entry.id, True, {"budget_error": str(exc)}, budget_exceeded=True
            )

    verdicts = sorted((evaluate(e) for e in corpus), key=lambda v: v.entry_id)
    return CampaignReport(
        predicate=predicate,
        params=params,
        seed=seed,
        verdicts=tuple(verdicts),
        counterexamples=tuple(v for v in verdicts if not v.ok),
        elapsed_seconds=time.monotonic() - start,
    )


def report_as_dict(report: CampaignReport, include_timing: bool = False) -> dict:
    """Stable-field-order dict form of a report; timing off by default."""
    return {
        "predicate": report.predicate,
        "params": {k: report.params[k] for k in sorted(report.params)},
        "seed": report.seed,
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


def emit_report(
    report: CampaignReport, path: str, include_timing: bool = False
) -> None:
    """Write the JSON report; byte-identical for identical configurations."""
    payload = report_as_dict(report, include_timing=include_timing)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
