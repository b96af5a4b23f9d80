import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat import formats
from cxtcat.cli import main
from cxtcat.context import make_context
from cxtcat.corpus import (
    chain_poset,
    diamond_poset,
    k2_context,
    random_context,
    random_join_semilattice,
    random_poset,
)
from cxtcat.errors import FormatError
from cxtcat.logic import close_entailment
from cxtcat.mappings import enumerate_mappings
from cxtcat.order import JoinSemilattice, validate_poset
from cxtcat.topology import scott_topology
from cxtcat.order import FiniteLattice


# ---------------------------------------------------------------------------
# posets


@given(st.integers(0, 10**6), st.integers(0, 13))
@settings(max_examples=60, deadline=None)
def test_leq_is_written_in_name_order(seed, n):
    """The writers read the order off the masks and give the bytes of the
    sorted pair list, also when element order is not name order (random
    posets from 11 elements, shuffled ones, duals)."""
    rng = random.Random(seed)
    P = random_poset(rng, n)
    els = list(P.elements)
    rng.shuffle(els)
    S = random_join_semilattice(rng, 6)
    for Q in (P, validate_poset(els, P.leq), P.dual(), S.poset, S.dual().poset):
        pairs = sorted([a, b] for a, b in Q.leq)
        want = formats._doc("poset", elements=sorted(Q.elements), leq=pairs)
        assert formats.dump_poset(Q) == want
    assert formats.semilattice_doc(S)["leq"] == sorted([a, b] for a, b in S.poset.leq)


# ---------------------------------------------------------------------------
# CXT


def test_cxt_exact_bytes():
    K2 = k2_context()
    want = "B\n\n2\n2\n\no1\no2\na\nb\nX.\n.X\n"
    assert formats.dump_cxt(K2) == want


def test_cxt_round_trip_byte_identical():
    for P in (k2_context(), make_context([], [], []), random_context(random.Random(7), 4, 5)):
        text = formats.dump_cxt(P)
        assert formats.dump_cxt(formats.parse_cxt(text)) == text
        assert formats.parse_cxt(text) == P


_name = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
).filter(lambda s: s == s.strip() and s != "B")


@given(
    st.lists(_name, min_size=0, max_size=4, unique=True),
    st.lists(_name, min_size=0, max_size=4, unique=True),
    st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_cxt_round_trips_arbitrary_names(objects, attributes, seed):
    rng = random.Random(seed)
    incidence = {
        (o, a) for o in objects for a in attributes if rng.random() < 0.5
    }
    P = make_context(objects, attributes, incidence)
    text = formats.dump_cxt(P)
    assert formats.parse_cxt(text) == P
    assert formats.dump_cxt(formats.parse_cxt(text)) == text


@given(
    st.lists(_name, min_size=0, max_size=4, unique=True),
    st.lists(_name, min_size=0, max_size=4, unique=True),
    st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_context_json_round_trips_arbitrary_names(objects, attributes, seed):
    rng = random.Random(seed)
    incidence = {
        (o, a) for o in objects for a in attributes if rng.random() < 0.5
    }
    P = make_context(sorted(objects), sorted(attributes), incidence)
    text = formats.dump_context(P)
    assert formats.load_context(text) == P


def test_cxt_parse_errors():
    with pytest.raises(FormatError):
        formats.parse_cxt("B\n\n1\n1\n\no\na\nX")  # no trailing newline
    with pytest.raises(FormatError):
        formats.parse_cxt("C\n\n0\n0\n\n")
    with pytest.raises(FormatError):
        formats.parse_cxt("B\n\n1\n1\n\no\na\nY\n")  # bad cell character


# ---------------------------------------------------------------------------
# JSON documents


def test_poset_json_round_trip():
    P = diamond_poset()
    text = formats.dump_poset(P)
    Q = formats.load_poset(text)
    assert set(Q.elements) == set(P.elements) and Q.leq == P.leq
    assert formats.dump_poset(Q) == text


def test_context_json_round_trip_sorted():
    P = k2_context()
    text = formats.dump_context(P)
    doc = json.loads(text)
    assert doc["objects"] == sorted(doc["objects"])
    assert doc["incidence"] == sorted(doc["incidence"])
    assert formats.load_context(text) == make_context(
        sorted(P.objects), sorted(P.attributes), P.incidence
    )


def test_mapping_json_round_trip():
    S = JoinSemilattice(chain_poset(2))
    m = enumerate_mappings(S, S)[1]
    text = formats.dump_mapping(m)
    back = formats.load_mapping(text)
    assert back.pairs == m.pairs


def test_infosys_json_round_trip():
    s = close_entailment(["a", "b"], [({"a"}, "b")])
    assert formats.load_infosys(formats.dump_infosys(s)) == s


def test_space_json_round_trip():
    T = scott_topology(FiniteLattice(diamond_poset()))
    back = formats.load_space(formats.dump_space(T))
    assert set(back.points) == set(T.points) and back.opens == T.opens
    assert formats.dump_space(back) == formats.dump_space(T)


def test_version_rejected():
    bad = json.dumps({"kind": "poset", "version": 99, "elements": [], "leq": []})
    with pytest.raises(FormatError):
        formats.load_poset(bad)


# ---------------------------------------------------------------------------
# sequents


def test_sequent_round_trip():
    seqs = [
        (frozenset({"a", "b"}), frozenset({"c"})),
        (frozenset(), frozenset({"a"})),
        (frozenset({"c"}), frozenset()),
    ]
    text = formats.dump_sequents(seqs)
    assert "T |- a" in text and "c |- T" in text
    assert set(formats.parse_sequents(text)) == set(seqs)


def test_sequent_parse_errors():
    with pytest.raises(FormatError):
        formats.parse_sequents("a, |- b")
    with pytest.raises(FormatError):
        formats.parse_sequents("a b c")


# ---------------------------------------------------------------------------
# DOT


def test_dot_stable_and_bottom_up():
    P = diamond_poset()
    a = formats.dot_hasse(P)
    b = formats.dot_hasse(P)
    assert a == b
    assert '"bot" -> "a";' in a and '"a" -> "top";' in a
    assert '"bot" -> "top";' not in a  # covers only


# ---------------------------------------------------------------------------
# the command line


@pytest.fixture()
def files(tmp_path):
    K2 = k2_context()
    paths = {}
    paths["k2"] = tmp_path / "k2.cxt"
    paths["k2"].write_text(formats.dump_cxt(K2))
    paths["terminal"] = tmp_path / "terminal.cxt"
    paths["terminal"].write_text(formats.dump_cxt(make_context([], [], [])))
    paths["poset"] = tmp_path / "chain.json"
    paths["poset"].write_text(formats.dump_poset(chain_poset(2)))
    paths["seq"] = tmp_path / "queries.txt"
    paths["seq"].write_text("c0 |- c1\nT |- c0\n")
    paths["tmp"] = tmp_path
    return paths


def test_validate_terminal(files, capsys):
    assert main(["validate", str(files["terminal"])]) == 0
    assert "Sem size 1" in capsys.readouterr().out


def test_concepts_lexicographic(files, capsys):
    assert main(["concepts", str(files["k2"])]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["{a,b}", "{a}", "{b}", "{}"]
    assert out == sorted(out)


def test_validate_failure_prints_witness(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "poset",
                "version": 1,
                "elements": ["x", "y"],
                "leq": [["x", "x"], ["y", "y"], ["x", "y"], ["y", "x"]],
            }
        )
    )
    assert main(["validate", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["law"] == "poset:antisymmetry"


def test_usage_and_io_errors(files):
    assert main(["validate", str(files["tmp"] / "missing.cxt")]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"kind": "poset", "version": 1, "elements": "ab", "leq": []}, "elements"),
        ({"kind": "poset", "version": 1, "elements": ["a"]}, "leq"),
        (
            {"kind": "context", "version": 1, "objects": ["o"], "attributes": ["a"],
             "incidence": [["o"]]},
            "incidence[0]",
        ),
        (
            {"kind": "mapping", "version": 1, "source": {"elements": ["a"]},
             "target": {"elements": ["a"], "leq": [["a", "a"]]}, "pairs": []},
            "source.leq",
        ),
        ({"kind": "infosys", "version": 1, "propositions": ["p"], "entails": [["p", "p"]]},
         "entails[0][0]"),
        ({"kind": "space", "version": 1, "points": ["x"], "opens": [[], "x"]}, "opens[1]"),
        ({"kind": ["poset"], "version": 1}, "kind"),
        ({"kind": "poset", "version": True, "elements": [], "leq": []}, "version"),
        ({"kind": "poset", "version": 1.0, "elements": [], "leq": []}, "version"),
    ],
)
def test_malformed_json_exits_2_naming_the_path(files, capsys, doc, path):
    bad = files["tmp"] / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


def test_dot_of_non_string_kind_exits_2(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text(json.dumps({"kind": ["poset"], "version": 1}))
    assert main(["dot", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", ["B\n\n-1\n3\n\na\n", "B\n\n-2\n5\n\nx\n"])
def test_negative_cxt_count_exits_2(files, capsys, text):
    bad = files["tmp"] / "bad.cxt"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "negative" in err


@pytest.mark.parametrize("count", ["+1", " 1", "0_1"])
def test_cxt_counts_are_ascii_digits_only(files, capsys, count):
    bad = files["tmp"] / "bad.cxt"
    for line in (3, 4):
        counts = [count, "1"] if line == 3 else ["1", count]
        bad.write_text("B\n\n" + "\n".join(counts) + "\n\no\na\nX\n")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"line {line}" in err and repr(count) in err


def test_non_utf8_input_exits_2_naming_the_path(files, capsys):
    bad = files["tmp"] / "bad.cxt"
    bad.write_bytes(b"\xff\xfe\x00bad")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


def test_guard_exit_code(files):
    big = files["tmp"] / "big.json"
    big.write_text(formats.dump_poset(chain_poset(6)))
    assert main(["compacts", str(big), "--guard", "3"]) == 3


def test_idl_and_compacts(files, capsys):
    out = files["tmp"] / "idl.json"
    assert main(["idl", str(files["poset"]), "-o", str(out)]) == 0
    lat = formats.load_poset(out.read_text())
    assert len(lat.elements) == 2
    assert main(["compacts", str(files["poset"])]) == 0
    assert capsys.readouterr().out.splitlines() == ["c0", "c1"]


def test_product_and_tensor_verbs(files):
    out = files["tmp"] / "prod.json"
    assert main(["product", str(files["k2"]), str(files["k2"]), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "context" and "provenance" in doc
    assert main(["validate", str(out)]) == 0
    out2 = files["tmp"] / "tens.json"
    assert main(["tensor", str(files["k2"]), str(files["k2"]), "-o", str(out2)]) == 0
    assert main(["validate", str(out2)]) == 0


def test_funcspace_curry_uncurry_verbs(files, tmp_path):
    c2 = tmp_path / "c2.cxt"
    from cxtcat.corpus import chain_context

    c2.write_text(formats.dump_cxt(chain_context(2)))
    fsout = tmp_path / "fs.json"
    assert main(["funcspace", str(c2), str(c2), "-o", str(fsout)]) == 0
    # a mapping out of the product, written then curried back and forth
    from cxtcat.category import product
    from cxtcat.context import sem_lattice as sl

    P = formats.parse_cxt(c2.read_text())
    prod = product(P, P)
    m = enumerate_mappings(prod.sem.semilattice, sl(P).semilattice)[2]
    mfile = tmp_path / "m.json"
    mfile.write_text(formats.dump_mapping(m))
    cur = tmp_path / "cur.json"
    assert main(["curry", str(c2), str(c2), str(c2), str(mfile), "-o", str(cur)]) == 0
    uncur = tmp_path / "uncur.json"
    assert main(["uncurry", str(c2), str(c2), str(c2), str(cur), "-o", str(uncur)]) == 0
    assert formats.load_mapping(uncur.read_text()).pairs == m.pairs


def test_convert_verbs(files, tmp_path):
    isf = tmp_path / "k2.is.json"
    assert main(["convert", str(files["k2"]), "--to", "infosys", "-o", str(isf)]) == 0
    assert main(["validate", str(isf)]) == 0
    seq = tmp_path / "k2.ccp.txt"
    assert main(["convert", str(files["k2"]), "--to", "ccp", "-o", str(seq)]) == 0
    back = tmp_path / "back.is.json"
    assert main(["convert", str(seq), "--to", "infosys", "-o", str(back)]) == 0
    sl = tmp_path / "k2.sem.json"
    assert main(["convert", str(files["k2"]), "--to", "semilattice", "-o", str(sl)]) == 0
    ctx = tmp_path / "sem.ctx.json"
    assert main(["convert", str(sl), "--to", "context", "-o", str(ctx)]) == 0
    assert main(["validate", str(ctx)]) == 0


def test_rz_verb(files, capsys):
    assert main(["rz", str(files["poset"]), str(files["seq"])]) == 0
    out = capsys.readouterr().out
    assert "c0 |- c1 : false" in out
    assert "T |- c0 : true" in out


def test_topology_verbs(files, tmp_path, capsys):
    out = tmp_path / "space.json"
    assert main(["topology", str(files["poset"]), "-o", str(out)]) == 0
    T = formats.load_space(out.read_text())
    assert len(T.opens) == 3
    assert main(["topology", str(files["poset"]), "--report", "points"]) == 0
    capsys.readouterr()
    assert main(["topology", str(files["poset"]), "--report", "stone"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cor6.17"]["ok"] and doc["lemma6.16"]["ok"]


def test_dot_verb_stable(files, tmp_path):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    assert main(["dot", str(files["k2"]), "-o", str(a)]) == 0
    assert main(["dot", str(files["k2"]), "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_dot_of_open_set_lattice(files, tmp_path):
    space = tmp_path / "space.json"
    assert main(["topology", str(files["poset"]), "-o", str(space)]) == 0
    out = tmp_path / "opens.dot"
    assert main(["dot", str(space), "-o", str(out)]) == 0
    assert "digraph" in out.read_text()


def test_laws_verb_unknown(capsys):
    assert main(["laws", "thm9.9"]) == 2


@pytest.mark.parametrize("value", ["-3", "0", "two"])
def test_laws_max_sem_must_be_a_positive_int(value, capsys):
    assert main(["laws", "prop5.10", "--max-sem", value]) == 2
    assert "--max-sem" in capsys.readouterr().err


def test_laws_failure_prints_witness(monkeypatch, capsys):
    from cxtcat import cli
    from cxtcat.laws import LawReport

    def broken(seed=None, max_sem=None):
        return LawReport("thm3.6", True).fail("forced failure", detail=[1, 2])

    monkeypatch.setattr(cli, "run_law", lambda name, seed, max_sem: broken())
    assert main(["laws", "thm3.6"]) == 1
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["ok"] is False and doc["law"] == "thm3.6"


def test_parser_is_built_once_and_keeps_no_state_between_calls(monkeypatch, tmp_path, capsys):
    from cxtcat import cli
    from cxtcat.corpus import DEFAULT_SEED
    from cxtcat.laws import LawReport

    built, runs = [], []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    monkeypatch.setattr(
        cli, "run_law", lambda name, seed, max_sem: runs.append((name, seed, max_sem)) or LawReport(name, True)
    )
    cli._parser.cache_clear()
    f = tmp_path / "chain.json"
    f.write_text(formats.dump_poset(chain_poset(2)))
    assert main(["laws", "prop5.10", "--seed", "4", "--max-sem", "3"]) == 0
    assert main(["laws", "prop5.10"]) == 0
    assert main(["validate", str(f)]) == 0
    assert main(["laws", "thm3.6", "--max-sem", "0"]) == 2
    assert main(["compacts", str(f)]) == 0
    assert main(["laws", "thm3.6", "--seed", "9"]) == 0
    assert runs == [("prop5.10", 4, 3), ("prop5.10", DEFAULT_SEED, None), ("thm3.6", 9, None)]
    assert capsys.readouterr().out.splitlines()[-3:] == ["c0", "c1", "thm3.6: PASS"]
    assert built == [1]


def test_validate_reports_order_shape(tmp_path, capsys):
    f = tmp_path / "lat.json"
    f.write_text(formats.dump_poset(diamond_poset()))
    assert main(["validate", str(f)]) == 0
    assert "OK lattice" in capsys.readouterr().out
    g = tmp_path / "bare.json"
    g.write_text(
        formats.dump_poset(validate_poset(("a", "b"), {("a", "a"), ("b", "b")}))
    )
    assert main(["validate", str(g)]) == 0
    assert "OK poset" in capsys.readouterr().out


def test_laws_verb_prop510(capsys):
    assert main(["laws", "prop5.10", "--max-sem", "2"]) == 0
    out = capsys.readouterr().out
    assert "hom-sets: 6 = 6" in out
    assert "PASS" in out


# ---------------------------------------------------------------------------
# robustness: every input gets a documented exit code


_VALID_DOCUMENTS = [
    formats.dump_cxt(k2_context()),
    formats.dump_context(k2_context()),
    formats.dump_poset(chain_poset(3)),
    formats.dump_poset(diamond_poset()),
    formats.dump_infosys(close_entailment(["p", "q"], [({"p"}, "q")])),
    formats.dump_space(scott_topology(FiniteLattice(chain_poset(2)))),
    "p |- q\nT |- p\n",
    formats.dump_mapping(
        enumerate_mappings(
            JoinSemilattice(chain_poset(2)), JoinSemilattice(diamond_poset())
        )[4]
    ),
]
_NOISE = st.sampled_from(list(b'{}[]",:019-.\nXB aT|e\\\x00\xff'))


@st.composite
def mutated_documents(draw):
    """A valid document with one to four bytes flipped, dropped or inserted."""
    data = bytearray(draw(st.sampled_from(_VALID_DOCUMENTS)).encode())
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["flip", "drop", "insert"]))
        if op == "flip":
            data[i] = draw(_NOISE)
        elif op == "drop":
            del data[i]
        else:
            data.insert(i, draw(_NOISE))
    return bytes(data)


_VERBS = [
    ["validate"],
    ["concepts"],
    ["dot"],
    ["convert", "--to", "context"],
    ["convert", "--to", "infosys"],
    ["idl"],
    ["compacts"],
    ["topology"],
]


@given(st.one_of(st.binary(max_size=64), mutated_documents()))
@settings(max_examples=60, deadline=None)
def test_every_input_gets_a_documented_exit_code(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed-input"
    path.write_bytes(data)
    for verb in _VERBS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([verb[0], str(path), *verb[1:]])
        assert code in (0, 1, 2, 3), (verb, data)
