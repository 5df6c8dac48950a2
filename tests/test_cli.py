import json

import pytest

from holelab.cli import (
    EXIT_BUDGET,
    EXIT_CLEAN,
    EXIT_COUNTEREXAMPLE,
    EXIT_INPUT_ERROR,
    main,
)
from holelab.graph import Graph
from holelab.io import decode_graph6, encode_graph6

from conftest import complete_graph, cycle_graph, petersen_graph


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
    # exhaustive balance charges 2^n nodes before it builds its table
    out = tmp_path / "b.json"
    code = main(
        [
            "--json-out", str(out), "--budget-nodes", "2",
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
    latin = tmp_path / "latin.g6"
    latin.write_bytes("Ch\n# caf\u00e9\n".encode("latin-1"))
    assert main(["holes", str(latin)]) == EXIT_INPUT_ERROR
    assert "Traceback" not in capsys.readouterr().err
