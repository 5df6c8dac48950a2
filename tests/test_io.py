import random

import pytest

from holelab.errors import InputError
from holelab.graph import Graph
from holelab.io import decode_graph6, encode_graph6, parse_corpus

from conftest import (
    CORPUS_LE7,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_graph,
)

# reference strings produced by an independent encoder
KNOWN_GRAPH6 = [
    (Graph(0), "?"),
    (Graph(1), "@"),
    (Graph(4, [(0, 1), (1, 2), (2, 3)]), "Ch"),
    (complete_graph(4), "C~"),
    (Graph(5, cycle_graph(5)), "Dhc"),
    (petersen_graph(), "IheA@GUAo"),
]


@pytest.mark.parametrize("graph,text", KNOWN_GRAPH6, ids=lambda x: str(x)[:12])
def test_graph6_known_vectors(graph, text):
    assert encode_graph6(graph) == text


@pytest.mark.parametrize("graph,text", KNOWN_GRAPH6, ids=lambda x: str(x)[:12])
def test_graph6_known_vectors_decode(graph, text):
    assert decode_graph6(text) == graph


def test_graph6_roundtrip_random():
    rng = random.Random(2)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 40), rng.random())
        assert decode_graph6(encode_graph6(g)) == g


def test_graph6_long_form_size_field():
    g = Graph(70)
    text = encode_graph6(g)
    assert text.startswith("~?@E")
    assert decode_graph6(text) == g


def test_graph6_rejects_malformed():
    with pytest.raises(InputError):
        decode_graph6("")
    with pytest.raises(InputError):
        decode_graph6("Ch\x19")  # character below the printable range
    with pytest.raises(InputError):
        decode_graph6("C")  # body too short for n=4
    with pytest.raises(InputError):
        decode_graph6("Chh")  # body too long


def test_parse_corpus_graph6(tmp_path):
    path = tmp_path / "c.g6"
    path.write_text(">>graph6<<Dhc\nC~\n\n@\n")
    entries = list(parse_corpus(str(path), "graph6"))
    assert [e.id for e in entries] == [0, 1, 2]
    assert entries[0].graph == Graph(5, cycle_graph(5))
    assert entries[1].graph == complete_graph(4)
    assert entries[2].graph.n == 1
    assert all(e.source_format == "graph6" for e in entries)


def test_parse_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Dhc\nCx~~~\n")
    with pytest.raises(InputError) as exc:
        list(parse_corpus(str(path), "graph6"))
    assert "line 2" in str(exc.value)


def test_parse_corpus_edgelist(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n\n2 3\n")
    (entry,) = parse_corpus(str(path), "edgelist")
    assert entry.graph == Graph(4, [(0, 1), (1, 2), (2, 3)])
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\nx y\n")
    with pytest.raises(InputError) as exc:
        list(parse_corpus(str(bad), "edgelist"))
    assert "line 2" in str(exc.value)


def test_parse_corpus_dimacs(tmp_path):
    path = tmp_path / "g.col"
    path.write_text("c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    (entry,) = parse_corpus(str(path), "dimacs")
    assert entry.graph == Graph(4, [(0, 1), (1, 2), (2, 3)])
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 4 5\ne 1 2\n")
    with pytest.raises(InputError):
        list(parse_corpus(str(bad), "dimacs"))
    bad2 = tmp_path / "bad2.col"
    bad2.write_text("e 1 2\n")
    with pytest.raises(InputError) as exc:
        list(parse_corpus(str(bad2), "dimacs"))
    assert "line 1" in str(exc.value)
    for text in ("p edge 4 1\ne 1 x\n", "p edge four 1\n"):
        bad3 = tmp_path / "bad3.col"
        bad3.write_text(text)
        with pytest.raises(InputError, match="non-integer"):
            list(parse_corpus(str(bad3), "dimacs"))


def test_dimacs_counts_a_repeated_edge_once(tmp_path):
    path = tmp_path / "g.col"
    path.write_text("p edge 3 1\ne 1 2\ne 2 1\n")
    (entry,) = parse_corpus(str(path), "dimacs")
    assert entry.graph == Graph(3, [(0, 1)])
    path.write_text("p edge 2 2\ne 1 2\ne 2 1\n")
    with pytest.raises(InputError, match="declares 2 edges, found 1 distinct"):
        list(parse_corpus(str(path), "dimacs"))


def test_parse_corpus_rejects_non_ascii(tmp_path):
    path = tmp_path / "latin.g6"
    path.write_bytes("Ch\nCh \u00e9\n".encode("latin-1"))
    with pytest.raises(InputError, match="not ASCII"):
        list(parse_corpus(str(path), "graph6"))


def test_parse_corpus_unknown_format(tmp_path):
    path = tmp_path / "x"
    path.write_text("")
    with pytest.raises(InputError):
        list(parse_corpus(str(path), "gml"))


def test_bundled_corpus_integrity():
    entries = list(parse_corpus(str(CORPUS_LE7), "graph6"))
    assert len(entries) == 1253
    by_n = {}
    for e in entries:
        by_n[e.graph.n] = by_n.get(e.graph.n, 0) + 1
    assert by_n == {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    # round-trips exactly
    for e in entries[:100]:
        assert decode_graph6(encode_graph6(e.graph)) == e.graph
