import json
import random

import pytest

from holelab import campaign
from holelab.campaign import (
    PREDICATES,
    report_as_dict,
    run_campaign,
)
from holelab.errors import HolelabError, InputError
from holelab.graph import Graph
from holelab.homology import is_k_balanced
from holelab.io import CorpusEntry, parse_corpus, write_json

from conftest import (
    CORPUS_LE7,
    complete_graph,
    cycle_graph,
    oracle_parity,
    petersen_graph,
    random_graph,
)


def entries_of(*graphs):
    return [CorpusEntry(i, g) for i, g in enumerate(graphs)]


def test_unknown_predicate():
    with pytest.raises(HolelabError):
        run_campaign("no_such_thing", [])


def test_clique_parity_clean_on_complete_graphs():
    corpus = entries_of(*(complete_graph(m) for m in range(1, 7)))
    report = run_campaign("clique_parity", corpus)
    assert report.clean
    assert not report.any_budget_exceeded
    assert [v.detail["parity"] for v in report.verdicts] == [
        [1, m] for m in range(1, 7)
    ]


def test_clique_parity_enumeration_matches_subset_scan(corpus_le7):
    rng = random.Random(1212)
    graphs = corpus_le7 + [
        random_graph(rng, n, rng.uniform(0.1, 0.6)) for n in (0, 9, 10, 11, 12, 12)
    ]
    report = run_campaign("clique_parity", entries_of(*graphs))
    assert report.clean
    for g, verdict in zip(graphs, report.verdicts):
        assert verdict.detail["enumerated"] == list(oracle_parity(g))
    # above 12 vertices the cross-check is skipped
    big = run_campaign("clique_parity", entries_of(Graph(13)))
    assert "enumerated" not in big.verdicts[0].detail


def test_ternary_euler_on_small_corpus():
    corpus = entries_of(
        Graph(4, cycle_graph(4)),  # 4-hole, no ternary cycle
        Graph(6, cycle_graph(6)),  # ternary hole
        complete_graph(3),  # triangle counts as ternary
        Graph(3),
    )
    report = run_campaign("ternary_euler", corpus)
    assert report.clean
    details = {v.entry_id: v.detail for v in report.verdicts}
    assert details[0]["has_ternary_cycle"] is False
    assert details[0]["euler_reduced"] in (-1, 0, 1)
    assert details[1]["has_ternary_cycle"] is True
    assert details[2]["has_ternary_cycle"] is True
    assert details[3]["has_ternary_cycle"] is False


def test_kalai_balance_on_corpus_sample():
    graphs = [e.graph for e in parse_corpus(str(CORPUS_LE7), "graph6")]
    corpus = entries_of(*graphs[:120])
    report = run_campaign("kalai_balance", corpus, {"k": 1})
    assert report.clean


def test_hole_mod_coverage_require():
    corpus = entries_of(petersen_graph())
    ok = run_campaign("hole_mod_coverage", corpus, {"ell": 3, "require": [0, 2]})
    assert ok.clean
    bad = run_campaign("hole_mod_coverage", corpus, {"ell": 3, "require": [1]})
    assert not bad.clean
    assert bad.counterexamples[0].detail["missing"] == [1]


def test_consecutive_holes_require_pair():
    good = run_campaign(
        "consecutive_holes", entries_of(petersen_graph()),
        {"ell": 4, "require_pair": 1},
    )
    assert good.clean
    assert good.verdicts[0].detail["pair_lengths"] == [5]
    bad = run_campaign(
        "consecutive_holes", entries_of(Graph(4, cycle_graph(4))),
        {"ell": 4, "require_pair": 1},
    )
    assert not bad.clean
    unasked = run_campaign(
        "consecutive_holes", entries_of(Graph(4, cycle_graph(4))),
        {"ell": 4, "require_pair": 0},
    )
    assert unasked.clean


def test_budget_exhaustion_recorded_not_fatal():
    corpus = entries_of(petersen_graph(), complete_graph(2))
    report = run_campaign("ternary_euler", corpus, budget_nodes=2)
    assert report.any_budget_exceeded
    assert report.clean  # budget entries are not counterexamples
    assert report.verdicts[0].budget_exceeded


def test_report_serialization_is_deterministic(tmp_path):
    corpus = entries_of(petersen_graph(), complete_graph(4))
    a = run_campaign("clique_parity", corpus)
    b = run_campaign("clique_parity", corpus)
    assert report_as_dict(a) == report_as_dict(b)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_json(report_as_dict(a), str(pa))
    write_json(report_as_dict(b), str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    payload = json.loads(pa.read_text())
    assert payload["predicate"] == "clique_parity"
    assert list(payload) == [
        "predicate", "params", "entries", "verdicts", "counterexamples",
        "elapsed_seconds",
    ]
    assert payload["elapsed_seconds"] is None  # timing excluded by default
    write_json(report_as_dict(a, include_timing=True), str(pa))
    assert json.loads(pa.read_text())["elapsed_seconds"] is not None


def test_kalai_balance_skips_a_graph_too_large_for_exhaustion(monkeypatch):
    """An entry on more than 20 vertices is skipped before any search: a
    sampled balance check could not settle the predicate."""
    sizes = []

    def recording(g, k, subgraph_budget=1 << 20, seed=0, budget=None):
        sizes.append(g.n)
        return is_k_balanced(g, k, subgraph_budget, seed, budget)

    monkeypatch.setattr(campaign, "is_k_balanced", recording)
    corpus = entries_of(Graph(21, cycle_graph(21)), Graph(4, cycle_graph(4)))
    out = report_as_dict(run_campaign("kalai_balance", corpus, {"k": 1}))
    assert sizes == [0, 4]  # the null-graph probe of the parameters, then C4
    assert out["verdicts"][0]["detail"] == {"skipped": "balance check not exhaustive"}
    assert out["verdicts"][1]["detail"]["balanced"] is True


def test_predicates_tuple_matches_registry():
    for p in PREDICATES:
        report = run_campaign(p, [])
        assert report.clean and report.verdicts == ()


@pytest.mark.parametrize(
    "predicate, params",
    [
        ("kalai_balance", {"k": "x"}),
        ("kalai_balance", {"k": -1}),
        ("hole_mod_coverage", {"ell": 0}),
        ("hole_mod_coverage", {"ell": "x"}),
        ("hole_mod_coverage", {"d": "x"}),
        ("hole_mod_coverage", {"require": "0,x"}),
        ("consecutive_holes", {"ell": "x"}),
        ("hole_mod_coverage", {"ell": 3, "requre": 1}),
        ("consecutive_holes", {"k": 1}),
        ("ternary_euler", {"ell": 3}),
        ("consecutive_holes", {"require_pair": "false"}),
        ("consecutive_holes", {"require_pair": 2}),
    ],
)
def test_params_are_read_before_any_entry(predicate, params):
    for corpus in ([], entries_of(petersen_graph())):
        with pytest.raises(InputError):
            run_campaign(predicate, corpus, params)


def test_unknown_param_names_the_keys_read():
    with pytest.raises(InputError, match="'requre' for hole_mod_coverage, which reads d, ell, require"):
        run_campaign("hole_mod_coverage", [], {"ell": 3, "requre": 1})
    with pytest.raises(InputError, match="clique_parity, which reads no parameters"):
        run_campaign("clique_parity", [], {"k": 1})
