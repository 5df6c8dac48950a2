import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import holelab

from holelab.cli import (
    EXIT_BUDGET,
    EXIT_CLEAN,
    EXIT_COUNTEREXAMPLE,
    EXIT_INPUT_ERROR,
    main,
)
from holelab.graph import Graph
from holelab.io import decode_graph6, encode_graph6

from conftest import complete_graph, cycle_graph, petersen_graph, random_graph


@pytest.fixture
def corpus(tmp_path):
    def write(*graphs, name="corpus.g6"):
        path = tmp_path / name
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        return str(path)

    return write


def test_invariants_command(corpus, tmp_path):
    out = tmp_path / "inv.json"
    code = main(
        [
            "--json-out", str(out),
            "invariants", corpus(petersen_graph(), complete_graph(4)),
            "--rho", "1",
        ]
    )
    assert code == EXIT_CLEAN
    rows = json.loads(out.read_text())
    assert rows[0]["omega"] == 2 and rows[0]["chi"] == 3
    assert rows[0]["chi_rho_1"] == 2
    assert rows[1]["omega"] == 4 and rows[1]["chi"] == 4


def test_holes_command(corpus, tmp_path):
    out = tmp_path / "holes.json"
    code = main(["--json-out", str(out), "holes", corpus(petersen_graph())])
    assert code == EXIT_CLEAN
    rows = json.loads(out.read_text())
    assert rows[0]["count"] == 22
    code = main(
        ["--json-out", str(out), "holes", corpus(petersen_graph()), "--ell", "3"]
    )
    assert code == EXIT_CLEAN
    rows = json.loads(out.read_text())
    assert rows[0]["covered"] == [0, 2]


def test_homology_command(corpus, tmp_path):
    out = tmp_path / "h.json"
    code = main(["--json-out", str(out), "homology", corpus(Graph(6, cycle_graph(6)))])
    assert code == EXIT_CLEAN
    rows = json.loads(out.read_text())
    assert rows[0]["betti"] == [1, 2]
    assert rows[0]["parity"] == [10, 8]


def g50_corpus(corpus) -> str:
    """A seeded G(50, 0.15) with 47,186,286 stable sets: listing them all
    does not fit in memory, folding leaves about a million faces."""
    return corpus(random_graph(random.Random(1), 50, 0.15), name="g50.g6")


def test_homology_small_budget_refuses_with_exit_3(corpus, tmp_path, capsys):
    out = tmp_path / "h.json"
    argv = ["--budget-nodes", "2000000", "--json-out", str(out), "homology", g50_corpus(corpus)]
    assert main(argv) == EXIT_BUDGET
    (row,) = json.loads(out.read_text())
    assert row["n"] == 50 and "budget_error" in row
    assert "Traceback" not in capsys.readouterr().err


def test_homology_default_budget_within_address_space_limit(corpus):
    """Under the default budget and a 3 GB address-space limit the run
    finishes or refuses: exit 0 or 3, never a MemoryError's exit 1."""
    limit = 3_000_000 * 1024

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(holelab.__file__).parent.parent))
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-m", "holelab.cli", "homology", g50_corpus(corpus)],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=60,
    )
    assert time.monotonic() - start < 60
    assert run.returncode in (EXIT_CLEAN, EXIT_BUDGET), run.stderr
    assert "Traceback" not in run.stderr
    (row,) = json.loads(run.stdout)
    if run.returncode == EXIT_CLEAN:
        assert sum(row["face_counts"]) == 47_186_286
        assert row["euler_unreduced"] == sum((-1) ** i * b for i, b in enumerate(row["betti"]))


def crown_and_path(extra: int = 0) -> Graph:
    """The crown graph S_4 with interleaved indices (2i ~ 2j+1 for i != j),
    which greedy colouring by degree gives four colours (omega = 2), a path
    on 1,200 more vertices, then a cycle on `extra` vertices (none for 0)."""
    edges = [(2 * i, 2 * j + 1) for i in range(4) for j in range(4) if i != j]
    edges += [(v, v + 1) for v in range(8, 1207)]
    edges += cycle_graph(extra, offset=1208) if extra else []
    return Graph(1208 + extra, edges)


# inputs on which a search takes one Python frame per vertex, deeper than
# the interpreter allows
DEEP = [
    pytest.param(lambda: complete_graph(1100), "invariants {c}", id="clique"),
    pytest.param(crown_and_path, "invariants {c}", id="coloring"),
    # the C5's exterior is the rest: d-peripherality needs its colouring
    pytest.param(lambda: crown_and_path(5), "holes {c} --ell 3 --d 1", id="peripheral"),
    pytest.param(
        lambda: Graph(1500, [(v, v + 1) for v in range(1499)]),
        "shower {c} --root 0 --depth 1400 --drain 1400 --jets 1500",
        id="jets",
    ),
]


@pytest.mark.parametrize("make_graph, command", DEEP)
def test_recursion_deeper_than_allowed_exits_3(corpus, tmp_path, capsys, make_graph, command):
    out = tmp_path / "deep.json"
    argv = ["--json-out", str(out), *command.format(c=corpus(make_graph())).split()]
    assert main(argv) == EXIT_BUDGET
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads(out.read_text())
    row = payload[0] if isinstance(payload, list) else payload
    assert row["budget_error"].endswith("recurses deeper than the interpreter allows")


def test_stdout_and_json_out_write_the_same_bytes(corpus, tmp_path, capsys):
    from holelab.campaign import report_as_dict, run_campaign
    from holelab.io import parse_corpus, write_json

    path = corpus(petersen_graph(), complete_graph(4))
    out = tmp_path / "o.json"
    for argv in (["verify", "clique_parity", path], ["homology", path]):
        capsys.readouterr()
        assert main(argv) == EXIT_CLEAN
        printed = capsys.readouterr().out
        assert main(["--json-out", str(out)] + argv) == EXIT_CLEAN
        assert out.read_text() == printed
        assert printed == json.dumps(json.loads(printed), indent=2) + "\n"
    report = run_campaign("clique_parity", list(parse_corpus(path, "graph6")))
    write_json(report_as_dict(report), str(tmp_path / "r.json"))
    main(["--json-out", str(out), "verify", "clique_parity", path])
    assert (tmp_path / "r.json").read_bytes() == out.read_bytes()


def test_balance_command_exit_codes(corpus, tmp_path):
    out = tmp_path / "b.json"
    code = main(
        ["--json-out", str(out), "balance", corpus(complete_graph(2)), "--k", "1"]
    )
    assert code == EXIT_CLEAN
    code = main(
        ["--json-out", str(out), "balance", corpus(complete_graph(3)), "--k", "1"]
    )
    assert code == EXIT_COUNTEREXAMPLE
    row = json.loads(out.read_text())[0]
    assert row["balanced"] is False and row["imbalance"] == 2


def test_balance_budget_exit_code(corpus, tmp_path):
    # exhaustive balance charges 2^n nodes before it builds its table; the
    # argument check on the null graph charges no budget of the caller's
    out = tmp_path / "b.json"
    for limit in ("2", "0"):
        code = main(
            [
                "--json-out", str(out), "--budget-nodes", limit,
                "balance", corpus(complete_graph(2)), "--k", "1",
            ]
        )
        assert code == EXIT_BUDGET
        assert "budget_error" in json.loads(out.read_text())[0]


def test_gadget_command(tmp_path, capsys):
    code = main(["gadget", "cycle", "5"])
    assert code == EXIT_CLEAN
    assert decode_graph6(capsys.readouterr().out.strip()) == Graph(5, cycle_graph(5))
    out = tmp_path / "g.g6"
    assert main(["gadget", "petersen", "--out", str(out)]) == EXIT_CLEAN
    g = decode_graph6(out.read_text().strip())
    assert g.n == 10 and g.edge_count == 15
    assert main(["--format", "edgelist", "gadget", "complete", "3"]) == EXIT_CLEAN
    assert capsys.readouterr().out.strip().splitlines() == ["0 1", "0 2", "1 2"]
    assert main(["gadget", "multicover", "2", "2", "2"]) == EXIT_CLEAN
    assert main(["gadget", "crest", "1", "2", "2", "2"]) == EXIT_CLEAN
    # the graph goes to stdout or --out only, as graph6 or an edge list
    capsys.readouterr()
    json_out = tmp_path / "g.json"
    assert main(["--json-out", str(json_out), "gadget", "cycle", "5"]) == EXIT_INPUT_ERROR
    assert main(["--format", "dimacs", "gadget", "cycle", "5"]) == EXIT_INPUT_ERROR
    assert not json_out.exists() and capsys.readouterr().out == ""


def test_shower_command(corpus, tmp_path):
    out = tmp_path / "s.json"
    code = main(
        [
            "--json-out", str(out),
            "shower", corpus(Graph(6, cycle_graph(6))),
            "--root", "0", "--depth", "3", "--drain", "3",
            "--jets", "5", "--ell", "3",
        ]
    )
    assert code == EXIT_CLEAN
    row = json.loads(out.read_text())
    assert row["valid"] is True
    assert row["layers"] == [[0], [1, 5], [2, 4], [3]]
    assert row["jets"] == [[0, 1, 2, 3], [0, 5, 4, 3]]
    assert row["jet_summary"]["residues"] == [0]
    # a maximum jet length of 0 is a jet search that finds nothing
    argv = [
        "--json-out", str(out), "shower", corpus(Graph(8, cycle_graph(8))),
        "--root", "0", "--depth", "3", "--drain", "3", "--jets", "0",
    ]
    assert main(argv) == EXIT_CLEAN
    assert json.loads(out.read_text())["jets"] == []
    c8 = ["--json-out", str(out), "shower", corpus(Graph(8, cycle_graph(8))), "--root", "0"]
    # no shower: vertex 3 of C8 is not at distance 2 from 0
    assert main(c8 + ["--depth", "2", "--drain", "3"]) == EXIT_CLEAN
    assert json.loads(out.read_text()) == {"shower": None}
    # a jet search out of budget keeps the shower and names the error
    jets = ["--depth", "3", "--drain", "3", "--jets", "5"]
    assert main(["--budget-nodes", "1"] + c8 + jets) == EXIT_BUDGET
    row = json.loads(out.read_text())
    assert row["valid"] is True and "jets" not in row
    assert row["budget_error"]


def test_structures_command(corpus, tmp_path):
    from holelab.gadgets import multicover_gadget

    g, mc = multicover_gadget(2, 2, 2)
    witness = tmp_path / "w.json"
    witness.write_text(
        json.dumps(
            {
                "X": sorted(mc.X),
                "families": {str(k): sorted(v) for k, v in mc.families.items()},
                "C": sorted(mc.C),
            }
        )
    )
    out = tmp_path / "mc.json"
    code = main(
        [
            "--json-out", str(out),
            "structures", corpus(g),
            "--witness", str(witness), "--stable",
        ]
    )
    assert code == EXIT_CLEAN
    assert json.loads(out.read_text())["valid"] is True
    # corrupt the witness: X not stable after adding an edge is not testable
    # here, so break the cover instead
    witness.write_text(
        json.dumps({"X": sorted(mc.X), "families": {"0": [2], "1": [4, 5]}, "C": sorted(mc.C)})
    )
    code = main(
        ["--json-out", str(out), "structures", corpus(g), "--witness", str(witness)]
    )
    assert code == EXIT_COUNTEREXAMPLE
    # --budget-nodes bounds the cover clique search: an invalid witness still
    # exits 1, a valid one 3, and both rows keep the axioms' verdict
    for families, code in (({"0": [2], "1": [4, 5]}, EXIT_COUNTEREXAMPLE), (None, EXIT_BUDGET)):
        families = families or {str(k): sorted(v) for k, v in mc.families.items()}
        witness.write_text(
            json.dumps({"X": sorted(mc.X), "families": families, "C": sorted(mc.C)})
        )
        argv = ["--json-out", str(out), "--budget-nodes", "0", "structures", corpus(g)]
        assert main(argv + ["--witness", str(witness)]) == code
        row = json.loads(out.read_text())
        assert row["valid"] is (code == EXIT_BUDGET)
        assert bool(row["failures"]) is (code == EXIT_COUNTEREXAMPLE)
        assert row["cover_clique_number"] is None
        assert row["budget_error"] == "clique search budget exceeded"


def test_verify_command(corpus, tmp_path):
    out = tmp_path / "v.json"
    code = main(
        [
            "--json-out", str(out),
            "verify", "clique_parity",
            corpus(complete_graph(3), complete_graph(5)),
        ]
    )
    assert code == EXIT_CLEAN
    payload = json.loads(out.read_text())
    assert payload["counterexamples"] == []
    # byte-identical reruns
    out2 = tmp_path / "v2.json"
    main(
        [
            "--json-out", str(out2),
            "verify", "clique_parity",
            corpus(complete_graph(3), complete_graph(5)),
        ]
    )
    assert out.read_bytes() == out2.read_bytes()
    code = main(
        [
            "--json-out", str(out),
            "verify", "consecutive_holes",
            corpus(Graph(4, cycle_graph(4))),
            "--param", "require_pair=1",
        ]
    )
    assert code == EXIT_COUNTEREXAMPLE
    code = main(
        [
            "--budget-nodes", "2", "--json-out", str(out),
            "verify", "ternary_euler", corpus(petersen_graph()),
        ]
    )
    assert code == EXIT_BUDGET


def test_input_error_exit_code(corpus, tmp_path, capsys):
    assert main(["holes", str(tmp_path / "missing.g6")]) == EXIT_INPUT_ERROR
    bad = tmp_path / "bad.g6"
    bad.write_text("Cx~~~\n")
    assert main(["holes", str(bad)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "error:" in err
    # a modulus of 0 is refused, not read as "no modulus"
    assert main(["holes", corpus(petersen_graph()), "--ell", "0"]) == EXIT_INPUT_ERROR
    assert main(["gadget", "cycle"]) == EXIT_INPUT_ERROR
    assert main(["gadget", "kneser", "5"]) == EXIT_INPUT_ERROR
    dimacs = tmp_path / "bad.col"
    dimacs.write_text("p edge 2 1\ne 1 x\n")
    assert main(["--format", "dimacs", "holes", str(dimacs)]) == EXIT_INPUT_ERROR
    # a repeated edge, in either orientation, is one of the declared m
    dimacs.write_text("p edge 2 2\ne 1 2\ne 2 1\n")
    assert main(["--format", "dimacs", "holes", str(dimacs)]) == EXIT_INPUT_ERROR
    dimacs.write_text("p edge 3 1\ne 1 2\ne 2 1\n")
    assert main(["--format", "dimacs", "holes", str(dimacs)]) == EXIT_CLEAN
    latin = tmp_path / "latin.g6"
    latin.write_bytes("Ch\n# caf\u00e9\n".encode("latin-1"))
    assert main(["holes", str(latin)]) == EXIT_INPUT_ERROR
    assert "Traceback" not in capsys.readouterr().err


def test_verify_require_param_forms(corpus, tmp_path):
    # the Petersen graph has holes of lengths 5 and 6: residues 2 and 0 mod 3
    out = tmp_path / "v.json"
    argv = ["--json-out", str(out), "verify", "hole_mod_coverage", corpus(petersen_graph())]
    assert main(argv + ["--param", "ell=3", "--param", "require=0,2"]) == EXIT_CLEAN
    assert json.loads(out.read_text())["params"] == {"ell": 3, "require": "0,2"}
    assert main(argv + ["--param", "ell=3", "--param", "require=4"]) == EXIT_COUNTEREXAMPLE
    payload = json.loads(out.read_text())
    assert payload["params"] == {"ell": 3, "require": 4}
    assert payload["verdicts"][0]["detail"]["missing"] == [1]


WITNESS = {"X": [0, 1], "families": {"0": [2, 3], "1": [4, 5]}, "C": [6, 7]}

# every command that reads a corpus, with {c} for the corpus
CORPUS_COMMANDS = {
    "invariants": "invariants {c}",
    "holes": "holes {c}",
    "homology": "homology {c}",
    "balance": "balance {c} --k 1",
    "shower": "shower {c} --root 0 --depth 1 --drain 1",
    "structures": "structures {c} --witness {witness}",
    "verify": "verify clique_parity {c}",
}
STRUCTURES = "structures {ok} --witness {w}"
SHOWER = "shower {ok} --root 0 --depth 1 --drain 1"

# {ok}: a valid corpus; {bad}: a graph6 line whose body does not match n;
# {latin}: a file that is not ASCII; {missing}: no such file;
# {witness}: WITNESS; {w}: the case's own witness; {empty}: a corpus with
# no graphs
MALFORMED = [
    *(
        pytest.param(command.replace("{c}", "{" + kind + "}"), None, id=f"{name}-{kind}")
        for name, command in CORPUS_COMMANDS.items()
        for kind in ("bad", "latin", "missing")
    ),
    pytest.param(STRUCTURES, {"X": [0]}, id="witness-missing-key"),
    pytest.param(STRUCTURES, [0, 1], id="witness-list"),
    pytest.param(
        STRUCTURES,
        {**WITNESS, "families": {"a": [2, 3], "1": [4, 5]}},
        id="witness-family-key",
    ),
    pytest.param(STRUCTURES, {**WITNESS, "families": [[2, 3]]}, id="witness-families"),
    pytest.param(STRUCTURES, {**WITNESS, "X": ["0", 1]}, id="witness-vertex"),
    pytest.param(STRUCTURES, {**WITNESS, "X": [0, 99]}, id="witness-vertex-range"),
    pytest.param(STRUCTURES, {**WITNESS, "C": [6, -1]}, id="witness-vertex-negative"),
    pytest.param("structures {ok} --witness {latin}", None, id="witness-latin"),
    pytest.param("structures {ok} --entry 1 --witness {witness}", None, id="witness-entry"),
    pytest.param("verify hole_mod_coverage {ok} --param ell=abc", None, id="param-ell"),
    pytest.param("verify hole_mod_coverage {ok} --param d=x", None, id="param-d"),
    pytest.param("verify kalai_balance {ok} --param k=x", None, id="param-k"),
    pytest.param("verify hole_mod_coverage {ok} --param require=0,x", None, id="param-require"),
    pytest.param("verify consecutive_holes {ok} --param ell=x", None, id="param-pairs-ell"),
    pytest.param("verify kalai_balance {empty} --param k=x", None, id="param-k-empty"),
    # require_pair is a flag of 0 or 1, not any truthy text
    *(
        pytest.param(
            f"verify consecutive_holes {{{kind}}} --param ell=20 --param require_pair={value}",
            None,
            id=f"param-require-pair-{value}-{kind}",
        )
        for kind in ("ok", "empty")
        for value in ("false", "no", "2")
    ),
    pytest.param("verify hole_mod_coverage {empty} --param require=x", None, id="param-require-empty"),
    pytest.param("verify kalai_balance {empty} --param k=-1", None, id="param-k-range-empty"),
    pytest.param("verify hole_mod_coverage {empty} --param ell=0", None, id="param-ell-range-empty"),
    pytest.param("verify hole_mod_coverage {ok} --param d=-1", None, id="param-d-range"),
    pytest.param("verify hole_mod_coverage {empty} --param d=-1", None, id="param-d-range-empty"),
    # a key the predicate does not read, as a misspelling or on a predicate
    # that reads none
    pytest.param(
        "verify hole_mod_coverage {ok} --param ell=3 --param requre=1", None, id="param-unknown"
    ),
    pytest.param("verify kalai_balance {empty} --param ell=3", None, id="param-unknown-empty"),
    pytest.param("verify clique_parity {ok} --param k=1", None, id="param-none-read"),
    pytest.param("shower {ok} --root 9 --depth 1 --drain 1", None, id="shower-root"),
    pytest.param("shower {ok} --root 0 --depth 1 --drain -1", None, id="shower-drain"),
    pytest.param("shower {ok} --entry 1 --root 0 --depth 1 --drain 1", None, id="shower-entry"),
    pytest.param("shower {ok} --root 0 --depth -1 --drain 1", None, id="shower-depth"),
    pytest.param(SHOWER + " --jets 3 --ell 1", None, id="shower-ell"),
    pytest.param(
        "shower {ok} --root 0 --depth 2 --drain 2 --jets 3 --ell 2 --d -2", None, id="shower-d"
    ),
    # with a shower (vertex 3 of C8 is at distance 3 from 0) and without one
    *(
        pytest.param(
            f"shower {{ok}} --root 0 --depth 3 --drain {drain} --jets 4 {arg}",
            None,
            id=f"shower-{name}-drain-{drain}",
        )
        for drain in (3, 0)
        for name, arg in (("d", "--d -1"), ("ell", "--ell 1"))
    ),
    *(
        pytest.param(
            f"shower {{ok}} --root 0 --depth 3 --drain {drain} --jets -1",
            None,
            id=f"shower-jets-drain-{drain}",
        )
        for drain in (3, 0)
    ),
    # an option that only acts with another is refused without it
    *(
        pytest.param(f"holes {{{kind}}} --d {d}", None, id=f"holes-d-{d}-without-ell-{kind}")
        for kind in ("ok", "empty")
        for d in ("2", "-5")
    ),
    pytest.param("shower {ok} --root 0 --depth 3 --drain 3 --ell 3", None, id="shower-ell-without-jets"),
    pytest.param("shower {ok} --root 0 --depth 3 --drain 3 --d 1", None, id="shower-d-without-jets"),
    pytest.param("holes {ok} --ell 0", None, id="holes-ell"),
    pytest.param("holes {ok} --min-len 3", None, id="holes-min-len"),
    pytest.param("holes {ok} --ell 3 --d -1", None, id="holes-d"),
    pytest.param("balance {ok} --k -1", None, id="balance-k"),
    pytest.param("balance {ok} --k 1 --subgraph-budget 0", None, id="balance-subgraph-budget-0"),
    pytest.param("balance {ok} --k 1 --subgraph-budget -1", None, id="balance-subgraph-budget-neg"),
    pytest.param("invariants {ok} --rho 0", None, id="invariants-rho"),
    # an argument is rejected before any graph is read, so an empty corpus
    # fails the same way
    pytest.param("holes {empty} --ell 0", None, id="holes-ell-empty"),
    pytest.param("holes {empty} --min-len 3", None, id="holes-min-len-empty"),
    pytest.param("holes {empty} --ell 3 --d -1", None, id="holes-d-empty"),
    pytest.param("balance {empty} --k -1", None, id="balance-k-empty"),
    pytest.param(
        "balance {empty} --k 1 --subgraph-budget 0",
        None,
        id="balance-subgraph-budget-0-empty",
    ),
    pytest.param(
        "balance {empty} --k 1 --subgraph-budget -1",
        None,
        id="balance-subgraph-budget-neg-empty",
    ),
    pytest.param("invariants {empty} --rho 0", None, id="invariants-rho-empty"),
    *(
        pytest.param(
            "--budget-nodes -1 " + command.replace("{c}", "{" + kind + "}"),
            None,
            id=f"budget-nodes-{name}-{kind}",
        )
        for name, command in CORPUS_COMMANDS.items()
        # an empty corpus has no entry 0 for shower and structures: an error anyway
        for kind in ["ok" if name in ("shower", "structures") else "empty"]
    ),
    pytest.param("--budget-nodes -1 gadget cycle 5", None, id="budget-nodes-gadget"),
    pytest.param("gadget kneser 5", None, id="gadget-arity"),
    pytest.param("--format dimacs gadget cycle 5", None, id="gadget-format-dimacs"),
    pytest.param("--json-out {missing} gadget cycle 5", None, id="gadget-json-out"),
    pytest.param("gadget cycle 2", None, id="gadget-value"),
    pytest.param("--budget-nodes -1 holes {ok}", None, id="budget-nodes"),
]


@pytest.mark.parametrize("argv, case_witness", MALFORMED)
def test_malformed_input_exits_2(tmp_path, capsys, argv, case_witness):
    files = {
        "ok": ("ok.g6", encode_graph6(Graph(8, cycle_graph(8))) + "\n"),
        "bad": ("bad.g6", "Cx~~~\n"),
        "latin": ("latin.txt", "Ch\n# café\n"),
        "witness": ("witness.json", json.dumps(WITNESS)),
        "w": ("w.json", json.dumps(case_witness)),
        "empty": ("empty.g6", ""),
    }
    paths = {"missing": str(tmp_path / "missing.g6")}
    for key, (name, text) in files.items():
        path = tmp_path / name
        path.write_bytes(text.encode("latin-1"))
        paths[key] = str(path)
    assert main([arg.format(**paths) for arg in argv.split()]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
