import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat import formats
from cxtcat.cli import main
from cxtcat.context import make_context
from cxtcat.corpus import (
    chain_context,
    chain_poset,
    diamond_poset,
    k2_context,
    random_context,
    random_join_semilattice,
    random_poset,
)
from cxtcat.errors import FormatError, ValidationError
from cxtcat.logic import close_entailment
from cxtcat.mappings import enumerate_mappings, identity_mapping
from cxtcat.order import JoinSemilattice, ideal_completion, validate_poset
from cxtcat.topology import TopSpace, scott_topology
from cxtcat.order import FiniteLattice


# ---------------------------------------------------------------------------
# posets


def oracle(kind: str, **fields) -> str:
    """The bytes every JSON writer must give: the standard library's layout."""
    doc = {"kind": kind, "version": 1, **fields}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def poset_fields(P) -> dict:
    return {"elements": sorted(P.elements), "leq": sorted([a, b] for a, b in P.leq)}


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
        want = oracle("poset", elements=sorted(Q.elements), leq=pairs)
        assert formats.dump_poset(Q) == want
    doc = json.loads(formats.dump_mapping(identity_mapping(S)))
    assert doc["source"]["leq"] == sorted([a, b] for a, b in S.poset.leq)


# Names that need escaping: quotes, backslashes, control characters,
# non-ASCII text (also outside the BMP) and the empty string.
NAMES = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t é'), st.characters(codec="utf-8")),
    max_size=4,
)


def relabel(P, names: list[str]):
    """``P`` with its elements renamed to distinct ``names``, in ``names`` order."""
    new = dict(zip(P.elements, names))
    return validate_poset(names[: P.n], [(new[a], new[b]) for a, b in P.leq])


@given(st.lists(NAMES, min_size=6, max_size=6, unique=True), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_poset_and_mapping_writers_equal_the_json_dumps_layout(names, seed):
    rng = random.Random(seed)
    P = relabel(random_poset(rng, rng.randrange(0, 7)), names)
    els = list(P.elements)
    rng.shuffle(els)
    for Q in (P, validate_poset(els, P.leq), P.dual()):
        assert formats.dump_poset(Q) == oracle("poset", **poset_fields(Q))
    S = JoinSemilattice(relabel(random_join_semilattice(rng, 3).poset, names))
    T = JoinSemilattice(relabel(random_join_semilattice(rng, 3).poset, names[::-1]))
    m = rng.choice(enumerate_mappings(S, T))
    assert formats.dump_mapping(m) == oracle(
        "mapping",
        source=poset_fields(S.poset),
        target=poset_fields(T.poset),
        pairs=sorted([a, b] for a, b in m.pairs),
    )


@given(
    st.lists(NAMES, max_size=4, unique=True),
    st.lists(NAMES, max_size=4, unique=True),
    st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_context_writer_equals_the_json_dumps_layout(objects, attributes, seed):
    """With and without provenance; empty name lists and empty sides too."""
    rng = random.Random(seed)
    incidence = {(o, a) for o in objects for a in attributes if rng.random() < 0.5}
    P = make_context(objects, attributes, incidence)
    fields = {
        "objects": sorted(objects),
        "attributes": sorted(attributes),
        "incidence": sorted([o, a] for o, a in incidence),
    }
    assert formats.dump_context(P) == oracle("context", **fields)
    provenance = {
        "objects": {o: rng.sample(attributes, rng.randrange(len(attributes) + 1)) for o in objects},
        "attributes": {a: [a, rng.choice(objects)] if objects else [] for a in attributes},
        "scalars": [0, -7, 2.5, True, None, {}, (), [[]]],
    }
    assert formats.dump_context(P, provenance=provenance) == oracle(
        "context", provenance=provenance, **fields
    )


@given(st.lists(NAMES, max_size=4, unique=True), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_infosys_and_space_writers_equal_the_json_dumps_layout(names, seed):
    rng = random.Random(seed)
    raw = [
        (set(rng.sample(names, rng.randrange(len(names)))), rng.choice(names))
        for _ in range(rng.randrange(3))
        if names
    ]
    s = close_entailment(names, raw)
    assert formats.dump_infosys(s) == oracle(
        "infosys",
        propositions=sorted(s.propositions),
        entails=sorted([sorted(xs), a] for xs, a in s.entails),
    )
    # The upper sets of a poset are a topology.
    P = relabel(random_poset(rng, len(names)), names)
    opens = frozenset(
        frozenset(x for i, x in enumerate(names) if m >> i & 1)
        for m in range(1 << len(names))
    )
    opens = frozenset(o for o in opens if all(b in o for a, b in P.leq if a in o))
    T = TopSpace(tuple(names), opens)
    assert formats.dump_space(T) == oracle(
        "space", points=sorted(names), opens=sorted(sorted(o) for o in opens)
    )


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
    head = "B\n\n2\n2\n\no\np\na\nb\nX.\n"
    for row in ("X", "X.X", "X\r", "X.\r", "X ", " .", "Ｘ.", ".x"):
        with pytest.raises(FormatError) as exc:
            formats.parse_cxt(head + row + "\n")
        assert str(exc.value) == "CXT row 2 is not a string over X and ."


def parse_cxt_per_character(text: str):
    """The reference CXT reader: every cell tested one character at a time."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        raise FormatError("CXT file must end with a newline")
    if len(lines) < 5 or lines[0] != "B":
        raise FormatError("CXT file must start with a 'B' line")
    if lines[1] != "" or lines[4] != "":
        raise FormatError("CXT lines 2 and 5 must be empty")
    counts = []
    for number in (3, 4):
        count = lines[number - 1]
        if not (count.isascii() and count.isdigit()):
            raise FormatError(
                f"CXT line {number} must be a non-negative count in ASCII digits, found {count!r}"
            )
        counts.append(int(count))
    n_obj, n_attr = counts
    need = 5 + n_obj + n_attr + n_obj
    if len(lines) != need:
        raise FormatError(f"CXT expects {need} lines, found {len(lines)}")
    objects = lines[5 : 5 + n_obj]
    attributes = lines[5 + n_obj : 5 + n_obj + n_attr]
    incidence = set()
    for i, row in enumerate(lines[5 + n_obj + n_attr :]):
        if len(row) != n_attr or any(ch not in "X." for ch in row):
            raise FormatError(f"CXT row {i + 1} is not a string over X and .")
        for j, ch in enumerate(row):
            if ch == "X":
                incidence.add((objects[i], attributes[j]))
    return make_context(objects, attributes, incidence)


_CXT_NAMES = st.text(alphabet=["a", "b", "X", ".", " ", "é", "\r", ","], max_size=2)
_CXT_CELLS = st.sampled_from(["X", ".", "X", ".", "x", " ", "\r", "Ｘ", "\u0307", "0"])


@st.composite
def cxt_texts(draw):
    """CXT text that is mostly well formed: now and then a count, a row, the
    header or the final newline is spoiled."""
    n_obj, n_attr = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    objects = draw(st.lists(_CXT_NAMES, min_size=n_obj, max_size=n_obj, unique=True))
    attrs = draw(st.lists(_CXT_NAMES, min_size=n_attr, max_size=n_attr, unique=True))
    good_row = st.text(alphabet="X.", min_size=n_attr, max_size=n_attr)
    rows = draw(st.lists(good_row, min_size=n_obj, max_size=n_obj))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, n_obj - 1))
        width = draw(st.integers(max(0, n_attr - 1), n_attr + 1))
        rows[i] = "".join(draw(st.lists(_CXT_CELLS, min_size=width, max_size=width)))
    counts = [str(n_obj), str(n_attr)]
    if draw(st.integers(0, 9)) == 7:
        counts[draw(st.integers(0, 1))] = draw(st.sampled_from(["+1", "1 ", "٣", "", "9"]))
    text = "\n".join(["B", "", *counts, "", *objects, *attrs, *rows]) + "\n"
    spoil = draw(st.integers(0, 19))
    if spoil == 11:
        text = text[:-1]
    elif spoil == 13:
        text = "b" + text[1:]
    return text


def _parse_outcome(parse, text):
    try:
        return ("context", parse(text))
    except FormatError as exc:
        return ("format", str(exc))
    except ValidationError as exc:
        return ("validation", str(exc), exc.law, exc.witness)


@given(cxt_texts())
@settings(max_examples=400, deadline=None)
def test_parse_cxt_matches_the_per_character_reader(text):
    assert _parse_outcome(formats.parse_cxt, text) == _parse_outcome(parse_cxt_per_character, text)


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


def reference_dot_hasse(P, graph_name: str = "hasse") -> str:
    """The DOT writer as first written: sorted edges, one quote per mention."""

    def quote(name):
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"digraph {graph_name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for x in sorted(P.elements):
        lines.append(f"  {quote(x)};")
    for a, b in sorted(P.covers()):
        lines.append(f"  {quote(a)} -> {quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@given(st.lists(NAMES, min_size=8, max_size=8, unique=True), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_dot_writer_equals_the_reference(names, seed):
    rng = random.Random(seed)
    P = relabel(random_poset(rng, rng.randrange(0, 9)), names)
    els = list(P.elements)
    rng.shuffle(els)
    for Q in (P, validate_poset(els, P.leq), P.dual()):
        assert formats.dot_hasse(Q) == reference_dot_hasse(Q)


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


def test_a_space_with_a_repeated_point_prints_the_point(files, capsys):
    doc = {"kind": "space", "version": 1, "points": ["y", "x", "y"], "opens": [[], ["x", "y"]]}
    text = json.dumps(doc)
    with pytest.raises(ValidationError) as exc:
        formats.load_space(text)
    assert exc.value.witness == {"point": "y"}
    bad = files["tmp"] / "space.json"
    bad.write_text(text)
    for argv in (["validate", str(bad)], ["dot", str(bad), "-o", str(files["tmp"] / "s.dot")]):
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["law"] == "space:points"
        assert report["witness"] == {"point": "y"}


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
    assert main(["topology", str(big), "--guard", "3"]) == 3


@pytest.mark.parametrize("value", ["-1", "two", "1.5"])
@pytest.mark.parametrize("verb", ["funcspace", "topology"])
def test_guard_flags_take_a_non_negative_int(files, verb, value, capsys):
    """A bad ``--guard`` is a usage error naming the flag, not a guard stop."""
    args = [str(files["k2"]), str(files["k2"])] if verb == "funcspace" else [str(files["poset"])]
    assert main([verb, *args, "--guard", value]) == 2
    err = capsys.readouterr().err
    assert "argument --guard" in err and "exceeds guard" not in err


@pytest.mark.parametrize(
    "flag, kind", [("--max-sem", "positive integer"), ("--guard", "non-negative integer")]
)
def test_int_flags_name_their_type(files, flag, kind, capsys):
    """Text that is no integer is reported by the kind of integer expected;
    an integer out of range keeps its range message."""
    verb = ["laws", "prop5.10"] if flag == "--max-sem" else ["topology", str(files["poset"])]
    low = "0" if flag == "--max-sem" else "-1"
    assert main([*verb, flag, "two"]) == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid {kind} value: 'two'\n" in err
    assert "_int" not in err
    assert main([*verb, flag, low]) == 2
    assert f"argument {flag}: expected a {kind}, got {low}\n" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0_1", " 3", " +1", "+1", "3 ", "\u0663", ""])
@pytest.mark.parametrize(
    "flag, kind",
    [("--max-sem", "positive integer"), ("--guard", "non-negative integer"), ("--seed", "int")],
)
def test_int_flags_take_ascii_digits_only(files, flag, kind, value, capsys):
    """Integer flags read an optional ``-`` and ASCII digits, as the CXT
    counts are read: ``int``'s spaces, signs, underscores and non-ASCII
    digits are usage errors."""
    verb = ["topology", str(files["poset"])] if flag == "--guard" else ["laws", "prop6.9"]
    assert main([*verb, flag, value]) == 2
    assert f"argument {flag}: invalid {kind} value: {value!r}\n" in capsys.readouterr().err


def test_seed_keeps_its_minus_sign(capsys):
    assert main(["laws", "prop6.9", "--seed", "-3"]) == 0
    assert capsys.readouterr().out.endswith("prop6.9: PASS\n")


def test_python_dash_m_runs_the_cli(files):
    src = str(Path(formats.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    p = subprocess.run(
        [sys.executable, "-m", "cxtcat", "validate", str(files["k2"])],
        capture_output=True, text=True, env=env,
    )
    assert (p.returncode, p.stdout) == (0, "OK context: 2 objects, 2 attributes; Sem size 4\n")


def test_guard_flags_accept_zero_and_default_to_the_constants(files, capsys):
    from cxtcat import category, topology

    lattice = files["tmp"] / "chain3.json"
    lattice.write_text(formats.dump_poset(chain_poset(3)))
    chain = files["tmp"] / "chain2.cxt"  # a function space of 2 x 2 attributes
    chain.write_text(formats.dump_cxt(chain_context(2)))
    assert main(["topology", str(lattice), "--guard", "3"]) == 0
    assert main(["topology", str(lattice), "--guard", "0"]) == 3
    assert capsys.readouterr().err == "scott_topology: size 3 exceeds guard 0\n"
    for verb, args, module, name in (
        ("topology", [str(lattice)], topology, "SCOTT_GUARD"),
        ("funcspace", [str(chain), str(chain), "--engine", "literal"], category,
         "LITERAL_OBJECT_GUARD"),
    ):
        assert main([verb, *args]) == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, name, 2)
            assert main([verb, *args]) == 3
        assert capsys.readouterr().err.endswith(" exceeds guard 2\n")


def test_idl_and_compacts(files, capsys):
    out = files["tmp"] / "idl.json"
    assert main(["idl", str(files["poset"]), "-o", str(out)]) == 0
    lat = formats.load_poset(out.read_text())
    assert len(lat.elements) == 2
    assert main(["compacts", str(files["poset"])]) == 0
    assert capsys.readouterr().out.splitlines() == ["c0", "c1"]


def test_idl_names_colliding_ideals_in_element_order(tmp_path):
    """In this poset ``down(b)`` and ``down(a,b)`` are the sets ``{0,a,b}``
    and ``{0,"a,b"}``, which a name that joins the members as they are
    would merge.  ``member_id`` escapes the member ``a,b``, so the two
    ideals get distinct names, ``idl`` writes the same bytes whatever the
    hash seed, and ``validate`` accepts the completion it writes."""
    els = ("0", "a", "b", "a,b", "t")
    leq = {(x, x) for x in els} | {("0", x) for x in els} | {(x, "t") for x in els}
    P = validate_poset(els, leq | {("a", "b")})
    L = ideal_completion(JoinSemilattice(P))
    assert L.elements == ("{0,\\.a\\,b}", "{0,a,\\.a\\,b,b,t}", "{0,a,b}", "{0,a}", "{0}")
    assert L.poset.up_masks[3] == 0b01110  # {0,a} lies below down(b) and the top
    src = tmp_path / "collide.json"
    src.write_text(formats.dump_poset(P))
    env = dict(os.environ, PYTHONPATH=str(Path(formats.__file__).parents[1]))
    outs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"idl{hash_seed}.json"
        run = subprocess.run(
            [sys.executable, "-m", "cxtcat", "idl", str(src), "-o", str(out)],
            env=dict(env, PYTHONHASHSEED=hash_seed), capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        outs.append(out.read_text())
    assert outs[0] == outs[1] == formats.dump_poset(L.poset)
    assert main(["validate", str(out)]) == 0


def test_colliding_set_families_decode_alike_under_every_hash_seed():
    """``open_set_lattice`` on the space with points ``a``, ``b``, ``"a,b"``
    and opens ``{}``, ``{a,b}``, ``{"a,b"}``, ``{a,b,"a,b"}``: the opens
    ``{a,b}`` and ``{"a,b"}`` get distinct names, and seeds 0-7 give the
    same elements, cones and decode table, which holds all four opens."""
    script = (
        "from cxtcat.topology import TopSpace, open_set_lattice\n"
        "opens = [frozenset(), frozenset('ab'), frozenset({'a,b'}), frozenset({'a', 'b', 'a,b'})]\n"
        "L, decode = open_set_lattice(TopSpace(('a', 'b', 'a,b'), frozenset(opens)))\n"
        "print(L.elements, L.poset.up_masks, sorted((x, sorted(s)) for x, s in decode.items()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(formats.__file__).parents[1]))
    outs = set()
    for hash_seed in range(8):
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(env, PYTHONHASHSEED=str(hash_seed)), capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        outs.add(run.stdout)
    assert outs == {
        "('{\\\\.a\\\\,b}', '{a,\\\\.a\\\\,b,b}', '{a,b}', '{}') (3, 2, 6, 15) "
        "[('{\\\\.a\\\\,b}', ['a,b']), ('{a,\\\\.a\\\\,b,b}', ['a', 'a,b', 'b']), "
        "('{a,b}', ['a', 'b']), ('{}', [])]\n"
    }


def test_compacts_of_a_64_chain_are_every_element(files, capsys):
    """``compacts`` has no size guard: a finite lattice is all compact, and
    past the cross-check cap nothing else runs."""
    chain = files["tmp"] / "chain64.json"
    chain.write_text(formats.dump_poset(chain_poset(64)))
    assert main(["compacts", str(chain)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == list(formats.load_poset(chain.read_text()).elements)
    assert sorted(printed) == sorted(chain_poset(64).elements)


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


@pytest.mark.parametrize("n", [15, 64])
def test_topology_points_of_long_chains(files, capsys, n):
    """``--report points`` builds no Scott topology, so chains past
    ``SCOTT_GUARD`` get their points, whatever ``--guard`` says: every
    element but the top generates one, printed in name order."""
    chain = files["tmp"] / f"chain{n}.json"
    chain.write_text(formats.dump_poset(chain_poset(n)))
    assert main(["topology", str(chain), "--report", "points"]) == 0
    assert capsys.readouterr().out.splitlines() == sorted(f"c{i}" for i in range(n - 1))
    assert main(["topology", str(chain), "--report", "points", "--guard", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == n - 1


def test_topology_guard_caps_the_opens_report(files, capsys):
    chain = files["tmp"] / "chain3.json"
    chain.write_text(formats.dump_poset(chain_poset(3)))
    assert main(["topology", str(chain), "--guard", "2"]) == 3
    assert "scott_topology: size 3 exceeds guard 2" in capsys.readouterr().err


def test_topology_stone_on_colliding_lower_set_names(tmp_path, capsys):
    """In ``0 < a, b, "a,b" < t`` the lower sets ``{0,a,b}`` and
    ``{0,"a,b"}``, which a name that joins the members as they are would
    merge, get distinct names, so the point named after the prime one lands
    on it and the Stone report passes in either listing.  With ``a < b`` as
    well, the filters ``up(a)`` and ``up("a,b")`` are told apart too and
    the report passes."""
    els = ["0", "a", "a,b", "b", "t"]
    leq = {(x, x) for x in els} | {("0", x) for x in els} | {(x, "t") for x in els}
    src = tmp_path / "collide.json"
    src.write_text(formats.dump_poset(validate_poset(els, leq)))
    assert main(["topology", str(src), "--report", "stone"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lemma6.16"]["ok"] and doc["cor6.17"]["ok"]
    assert doc["lemma6.16"]["primes"] == [
        "{0,\\.a\\,b,b}", "{0,a,\\.a\\,b,b}", "{0,a,\\.a\\,b}", "{0,a,b}", "{}"
    ]
    assert doc["cor6.17"]["to_points"] == {
        "{0,a,\\.a\\,b,b,t}": "{}",
        "{\\.a\\,b,t}": "{0,a,b}",
        "{a,t}": "{0,\\.a\\,b,b}",
        "{b,t}": "{0,a,\\.a\\,b}",
        "{t}": "{0,a,\\.a\\,b,b}",
    }
    unordered = {"kind": "poset", "version": 1, "elements": ["a", "b", "0", "a,b", "t"]}
    src.write_text(json.dumps({**unordered, "leq": sorted(map(list, leq))}))
    assert main(["topology", str(src), "--report", "stone"]) == 0
    assert json.loads(capsys.readouterr().out) == doc
    src.write_text(formats.dump_poset(validate_poset(els, leq | {("a", "b")})))
    assert main(["topology", str(src), "--report", "stone"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lemma6.16"]["ok"] and doc["cor6.17"]["ok"]
    assert {"{a,b,t}", "{\\.a\\,b,t}"} <= set(doc["cor6.17"]["to_points"])


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


def test_laws_verb_does_not_misreport_an_error_inside_a_suite(monkeypatch, capsys):
    """A ``KeyError`` raised while a known suite runs is the suite's own
    error, not an unknown suite name."""
    from cxtcat.laws import LAWS

    def broken(seed=None, max_sem=None):
        raise KeyError("inner")

    monkeypatch.setitem(LAWS, "thm4.4", broken)
    with pytest.raises(KeyError, match="inner"):
        main(["laws", "thm4.4"])
    assert "unknown law suite" not in capsys.readouterr().err
    assert main(["laws", "thm9.9"]) == 2
    assert capsys.readouterr().err.startswith("unknown law suite 'thm9.9'; choose from [")


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
    formats.dump_context(
        make_context(["o", "p"], ["a,b", "{", "", "a"], [("o", "a,b"), ("o", ""), ("p", "{"), ("p", "a")])
    ),
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
    ["topology", "--report", "stone"],
    ["topology", "--report", "points"],
    ["convert", "--to", "semilattice"],
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
