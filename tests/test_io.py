import contextlib
import enum
import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holelab.cli
from holelab.errors import InputError
from holelab.graph import Graph
from holelab.io import decode_graph6, encode_graph6, parse_corpus, write_json

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


def encode_graph6_per_bit(g: Graph) -> str:
    """The reference encoder: the edge bits one at a time, folded six to a
    character."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits_out = []
    for v in range(1, n):
        col = g.adjacency_mask(v)
        for u in range(v):
            bits_out.append((col >> u) & 1)
    while len(bits_out) % 6:
        bits_out.append(0)
    chars = []
    for i in range(0, len(bits_out), 6):
        value = 0
        for b in bits_out[i : i + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return head + "".join(chars)


def test_graph6_encoder_matches_the_per_bit_reference():
    rng = random.Random(5)
    for n in range(131):  # both the short and the four-character size field
        for density in (0.0, rng.random(), 1.0):
            g = random_graph(rng, n, density)
            assert encode_graph6(g) == encode_graph6_per_bit(g), (n, density)


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
    with pytest.raises(InputError, match="padding"):
        decode_graph6("Dhf")  # the 5-cycle "Dhc" with a padding bit set


def test_parse_corpus_graph6(tmp_path):
    path = tmp_path / "c.g6"
    path.write_text(">>graph6<<Dhc\nC~\n\n@\n")
    entries = list(parse_corpus(str(path), "graph6"))
    assert [e.id for e in entries] == [0, 1, 2]
    assert entries[0].graph == Graph(5, cycle_graph(5))
    assert entries[1].graph == complete_graph(4)
    assert entries[2].graph.n == 1


def test_a_bare_graph6_header_takes_no_entry_id(tmp_path, capsys):
    path = tmp_path / "h.g6"
    path.write_text(">>graph6<<\nDhc\n>>graph6<<Dhc\n")
    assert [e.id for e in parse_corpus(str(path), "graph6")] == [0, 1]
    shower = ["shower", str(path), "--root", "0", "--depth", "1", "--drain", "1"]
    assert holelab.cli.main(shower + ["--entry", "1"]) == holelab.cli.EXIT_CLEAN
    assert holelab.cli.main(shower + ["--entry", "2"]) == holelab.cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: corpus has no entry 2\n"
    # a malformed line after a bare header is named by its own line number
    path.write_text(">>graph6<<\nDhc\nCx~~~\n")
    with pytest.raises(InputError, match="line 3"):
        list(parse_corpus(str(path), "graph6"))


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


# ---------------------------------------------------------------------------
# the JSON writer: the bytes of json.dumps(payload, indent=2), the oracle


def written(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_json(payload)
    return out.getvalue()


def stdlib_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


class Count(int):
    """An int subclass whose repr is not its digits."""

    def __repr__(self):
        return "Count()"


# any code point: control characters, non-ASCII and lone surrogates
TEXT = st.text(st.one_of(st.characters(exclude_categories=()), st.characters(categories=["Cs"])))
INTS = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.sampled_from(list(Level)),
    st.integers(-5, 5).map(Count),
)
LEAVES = st.one_of(
    st.none(),
    INTS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    TEXT,
)
KEYS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none(), st.sampled_from(list(Level)))
# lists of plain ints, as hole reports hold, and of ints of any kind
PLAIN_INTS = st.lists(st.integers(), min_size=1, max_size=8)
ANY_INTS = st.lists(INTS, max_size=8)
PAYLOADS = st.recursive(
    st.one_of(
        LEAVES,
        PLAIN_INTS,
        PLAIN_INTS.map(tuple),
        ANY_INTS,
        st.lists(st.one_of(PLAIN_INTS.map(tuple), ANY_INTS), max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_write_json_gives_the_bytes_of_json_dumps(payload):
    assert written(payload) == stdlib_text(payload)


def test_write_json_on_edge_values():
    payloads = [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [(), ()],
        [1, True, 2], [True, False], [Level.HIGH, 3], [Count(2), 1], [[1, 2], [True]],
        [10**100, -(10**100), 0], [-0.0, 0.0, math.nan, math.inf, -math.inf],
        {1: "a", 2.5: "b", True: "c", None: "d", math.nan: "e", Level.LOW: "f", -math.inf: "g"},
        "\ud800 \udfff \u00e9 \x00 \x1f \x7f \u2028 \U0001f600 \"\\/",
        -0.0, math.nan, 3, True, None, Level.HIGH,
    ]
    for payload in payloads:
        assert written(payload) == stdlib_text(payload), payload


@pytest.mark.parametrize(
    "payload",
    [object(), [1, {2}], {"a": [1, b"x"]}, {(1, 2): 3}, {"a": {frozenset(): 1}}, [1, 2.5, 1j]],
    ids=["object", "set", "bytes", "tuple-key", "frozenset-key", "complex"],
)
def test_write_json_refuses_what_json_dumps_refuses(payload, tmp_path):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(payload, indent=2)
    path = tmp_path / "out.json"
    with pytest.raises(TypeError) as ours:
        write_json(payload, str(path))
    assert str(ours.value) == str(stdlib.value)
    assert not path.exists()  # nothing is written before the text is whole


def test_write_json_refuses_a_circular_payload():
    loop = [1, 2]
    loop.append([loop])
    table = {"a": 1}
    table["b"] = [table]
    for payload in (loop, table):
        with pytest.raises(ValueError, match="Circular reference detected"):
            write_json(payload)
    shared = [1, 2]
    assert written([shared, shared, {"x": shared}]) == stdlib_text([shared, shared, {"x": shared}])


CLI_REPORTS = [
    ["holes", "{c}"],
    ["holes", "{c}", "--min-len", "5", "--max-len", "6"],
    ["holes", "{c}", "--ell", "3", "--d", "0"],
    ["invariants", "{c}", "--rho", "1", "2"],
    ["homology", "{c}"],
    ["balance", "{c}", "--k", "1"],
    ["shower", "{c}", "--entry", "1000", "--root", "0", "--depth", "2", "--drain", "1",
     "--jets", "5", "--ell", "2"],
    ["structures", "{c}", "--entry", "1252", "--witness", "{w}"],
    *(["verify", predicate, "{c}"] for predicate in holelab.cli.PREDICATES),
    ["verify", "clique_parity", "{c}", "--timing"],
    ["verify", "kalai_balance", "{c}", "--timing"],
    ["--budget-nodes", "3", "holes", "{c}"],
    ["--budget-nodes", "3", "invariants", "{c}", "--rho", "1"],
    ["--budget-nodes", "3", "verify", "ternary_euler", "{c}"],
    ["--format", "edgelist", "holes", "{e}"],
    ["--format", "dimacs", "invariants", "{d}", "--rho", "1"],
]


@pytest.mark.parametrize(
    "argv", CLI_REPORTS, ids=lambda argv: "-".join(arg for arg in argv if "{" not in arg)
)
def test_cli_reports_are_the_bytes_of_json_dumps(argv, tmp_path, monkeypatch):
    """Every report the CLI writes on the le7 corpus, --timing floats and
    budget errors too, and on an edge-list and a DIMACS corpus."""
    payloads = []

    def record(payload, path=None):
        payloads.append(payload)
        write_json(payload, path)

    monkeypatch.setattr(holelab.cli, "write_json", record)
    witness = tmp_path / "w.json"
    witness.write_text('{"X": [0], "families": {"0": [1, 2]}, "C": [3]}')
    edgelist = tmp_path / "g.edges"
    edgelist.write_text("".join(f"{u} {v}\n" for u, v in petersen_graph().edges()))
    dimacs = tmp_path / "g.col"
    dimacs.write_text("p edge 6 6\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in cycle_graph(6)))
    out = tmp_path / "out.json"
    fields = {"c": str(CORPUS_LE7), "w": str(witness), "e": str(edgelist), "d": str(dimacs)}
    holelab.cli.main(["--json-out", str(out)] + [arg.format(**fields) for arg in argv])
    (payload,) = payloads
    assert out.read_text(encoding="ascii") == stdlib_text(payload)
