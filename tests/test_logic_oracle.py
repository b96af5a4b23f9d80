"""Information and sequent systems are held as closure tables over
proposition masks.  Each table is checked here against the definitional
engine it replaced: forward chaining over frozensets of names, one
antecedent set at a time, and the validation scan over name pairs."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cxtcat
from cxtcat import formats
from cxtcat.canon import set_id
from cxtcat.cli import main
from cxtcat.context import FormalContext, attr_closure
from cxtcat.corpus import (
    chain_context,
    k2_context,
    random_context,
    random_information_system,
    random_meet_semilattice,
)
from cxtcat.errors import ValidationError
from cxtcat.logic import (
    CcpSystem,
    InformationSystem,
    ccp_to_is,
    close_entailment,
    context_to_is,
    elements,
    is_to_ccp,
    semilattice_to_ccp,
)
from cxtcat.order import closed_family

from test_index_oracles import lattice_from_sets


def _forward_chain(start, rules):
    """Least superset of ``start`` closed under the given body/head rules."""
    out = set(start)
    changed = True
    while changed:
        changed = False
        for body, head in rules:
            if body <= out and not head <= out:
                out |= head
                changed = True
    return frozenset(out)


def antecedents(props):
    """Every subset of ``props``, in antecedent-mask order."""
    return [
        frozenset(p for i, p in enumerate(props) if m >> i & 1) for m in range(1 << len(props))
    ]


def chained(props, rules):
    return {xs: _forward_chain(xs, rules) for xs in antecedents(props)}


def relation(table):
    return frozenset((xs, a) for xs, ys in table.items() for a in ys)


def merged(rules):
    """Generators with one body merged into one rule, as name sets."""
    heads = {}
    for body, head in rules:
        heads[body] = heads.get(body, frozenset()) | head
    return frozenset(heads.items())


def assert_matches(system, table, generators=None):
    """``system`` has the closure ``table`` in every derived view."""
    props = system.propositions
    masks = system.closure_masks
    assert [frozenset(p for i, p in enumerate(props) if masks[x] >> i & 1)
            for x in range(len(masks))] == [table[xs] for xs in antecedents(props)]
    for xs, ys in table.items():
        assert system.closure(xs) == ys
    if isinstance(system, InformationSystem):
        assert system.entails == relation(table)
        assert system.closure_table == table
    else:
        assert merged(system.generators) == merged(generators)
    assert elements(system) == lattice_from_sets(closed_family(table.__getitem__, props))


def raw_system(rng, n):
    props = [f"p{i}" for i in range(n)]
    raw = [
        (frozenset(p for p in props if rng.random() < 0.4), rng.choice(props))
        for _ in range(rng.randint(0, 2 * n))
    ]
    return props, raw


@pytest.mark.parametrize("seed", range(30))
def test_information_systems_match_the_forward_chain(seed):
    rng = random.Random(seed)
    props, raw = raw_system(rng, rng.randint(0, 6))
    table = chained(props, [(xs, frozenset({a})) for xs, a in raw])
    s = close_entailment(props, raw)
    assert_matches(s, table)
    assert s == InformationSystem(tuple(props), relation(table))
    assert hash(s) == hash(InformationSystem(tuple(props), relation(table)))
    gens = [(xs, frozenset({a})) for xs, a in relation(table)]
    C = is_to_ccp(s)
    assert_matches(C, chained(props, gens), gens)
    assert C == CcpSystem(tuple(props), gens) and hash(C) == hash(CcpSystem(tuple(props), gens))
    assert ccp_to_is(C) == s and is_to_ccp(ccp_to_is(C)) == C


@pytest.mark.parametrize("seed", range(20))
def test_seeded_corpus_systems_match_the_forward_chain(seed):
    s = random_information_system(random.Random(seed), 6)
    gens = [(xs, frozenset({a})) for xs, a in s.entails]
    table = chained(s.propositions, gens)
    assert_matches(s, table)
    assert_matches(is_to_ccp(s), table, gens)


@pytest.mark.parametrize("seed", range(20))
def test_semilattice_systems_match_the_forward_chain(seed):
    S = random_meet_semilattice(random.Random(seed), 6)
    gens = {(frozenset(), frozenset({S.top}))}
    for a in S.elements:
        for b in S.elements:
            gens.add((frozenset({a, b}), frozenset({S.meet(a, b)})))
            if S.le(a, b):
                gens.add((frozenset({a}), frozenset({b})))
    C = semilattice_to_ccp(S)
    table = chained(S.elements, gens)
    assert_matches(C, table, gens)
    assert_matches(ccp_to_is(C), table)
    assert C == CcpSystem(S.elements, gens)


@pytest.mark.parametrize("seed", range(20))
def test_context_systems_match_intent_closure(seed):
    P = random_context(random.Random(seed), 5, 6)
    table = {xs: attr_closure(P, xs) for xs in antecedents(P.attributes)}
    s = context_to_is(P)
    assert_matches(s, table)
    gens = [(xs, frozenset({a})) for xs, a in relation(table)]
    assert_matches(is_to_ccp(s), chained(P.attributes, gens), gens)


def test_unequal_systems_differ():
    a = close_entailment(["a", "b"], [({"a"}, "b")])
    b = close_entailment(["a", "b"], [])
    assert a != b and is_to_ccp(a) != is_to_ccp(b)
    assert a != close_entailment(["b", "a"], [({"a"}, "b")])


# ---------------------------------------------------------------------------
# validation against the definitional scan


def scanned_is_fault(props, entails):
    """Reference verdict of information-system validation, by the
    definitions on name pairs: ``(law, message, witness)`` of the first
    fault (duplicates; the least unknown pair by ``(set_id, atom)``;
    reflexivity, then cut, antecedents in mask order, the least atom by
    name), or None."""
    if len(set(props)) != len(props):
        return ("infosys:propositions", "duplicate proposition", None)
    pset = set(props)
    unknown = sorted(
        ((xs, a) for xs, a in entails if a not in pset or not xs <= pset),
        key=lambda p: (set_id(p[0]), p[1]),
    )
    if unknown:
        xs, a = unknown[0]
        return (
            "unknown-element",
            f"entailment ({set_id(xs)}, {a!r}) references unknown propositions",
            {"pair": [sorted(xs), a]},
        )
    cl = {xs: frozenset(a for ys, a in entails if ys == xs) for xs in antecedents(props)}
    for xs, members in cl.items():
        if not xs <= members:
            a = min(xs - members)
            return (
                "infosys:ISi",
                f"reflexivity fails: {set_id(xs)} does not entail {a!r}",
                {"set": sorted(xs), "atom": a},
            )
    for xs, members in cl.items():
        for b in props:
            bigger = xs | {b}
            if not members <= cl[bigger]:
                return (
                    "infosys:ISii",
                    "cut fails under antecedent weakening",
                    {"set": sorted(bigger), "via": sorted(xs), "atom": min(members - cl[bigger])},
                )
        if not cl[members] <= members:
            return (
                "infosys:ISii",
                "cut fails: closure is not idempotent",
                {"set": sorted(xs), "via": sorted(members), "atom": min(cl[members] - members)},
            )
    return None


def verdict(make):
    try:
        make()
    except ValidationError as exc:
        return (exc.law, str(exc), exc.witness)
    return None


def by_name(pair):
    """Sort key of an entailment pair that does not depend on hashing."""
    return sorted(pair[0]), pair[1]


def _break(rng, kind, props, pairs):
    """Break one law (or none) of the entailment relation ``pairs``."""
    subsets = antecedents(props)
    if kind == "duplicate" and props:
        props.append(rng.choice(props))
    elif kind == "unknown":
        for _ in range(rng.randint(1, 3)):
            xs = frozenset(p for p in props if rng.random() < 0.3)
            a = rng.choice(props or ["zz"])
            pairs.add(rng.choice([(xs | {"zz"}, a), (xs, "zy"), (xs, "zz")]))
    elif kind == "irreflexive":
        refl = sorted(((xs, a) for xs, a in pairs if a in xs), key=by_name)
        for pair in rng.sample(refl, min(len(refl), rng.randint(1, 3))):
            pairs.discard(pair)
    elif kind == "cut" and props:
        for _ in range(rng.randint(1, 3)):
            pairs.add((rng.choice(subsets), rng.choice(props)))
    elif kind == "drop":
        # pairs no smaller antecedent has, so weakening holds below them
        derived = sorted(
            (
                (xs, a) for xs, a in pairs
                if a not in xs and not any((ys, a) in pairs for ys in subsets if ys < xs)
            ),
            key=by_name,
        )
        for pair in rng.sample(derived, min(len(derived), rng.randint(1, 3))):
            pairs.discard(pair)


def test_validation_matches_the_scan():
    rng = random.Random(69)
    kinds = ["none", "duplicate", "unknown", "irreflexive", "cut", "drop"]
    for _ in range(400):
        props, raw = raw_system(rng, rng.randint(0, 5))
        rng.shuffle(props)  # proposition order is not name order
        pairs = set(relation(chained(props, [(xs, frozenset({a})) for xs, a in raw])))
        _break(rng, rng.choice(kinds), props, pairs)
        want = scanned_is_fault(props, pairs)
        assert verdict(lambda: InformationSystem(tuple(props), frozenset(pairs))) == want


def test_unknown_generator_is_the_least_by_name():
    gens = [
        (frozenset({"x"}), frozenset()),
        (frozenset(), frozenset({"z"})),
        (frozenset({"y"}), frozenset()),
        (frozenset({"a"}), frozenset({"a"})),
    ]
    assert verdict(lambda: CcpSystem(("a",), gens)) == (
        "unknown-element",
        "generator sequent references unknown propositions",
        {"pair": [[], ["z"]]},
    )


UNKNOWN_NAME_CALLS = {
    "is-closure": (lambda s, C: s.closure({"zz"}), "zz"),
    "is-closure-least": (lambda s, C: s.closure({"a", "zz", "yy"}), "yy"),
    "is-holds-antecedent": (lambda s, C: s.holds({"zz"}, "zz"), "zz"),
    "is-holds-atom": (lambda s, C: s.holds({"a"}, "yy"), "yy"),
    "ccp-closure": (lambda s, C: C.closure({"zz"}), "zz"),
    "ccp-holds": (lambda s, C: C.holds({"zz"}, {"zz"}), "zz"),
    "ccp-holds-least": (lambda s, C: C.holds({"zz", "a"}, {"yy"}), "yy"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_NAME_CALLS))
def test_unknown_propositions_are_rejected(case):
    call, name = UNKNOWN_NAME_CALLS[case]
    s = close_entailment(["a", "b"], [({"a"}, "b")])
    assert verdict(lambda: call(s, is_to_ccp(s))) == (
        "unknown-element", f"unknown proposition {name!r}", {"element": name}
    )


# ---------------------------------------------------------------------------
# the command line


def _run(tmp_path, argv):
    out = tmp_path / "out"
    if out.exists():
        out.unlink()
    rc = main(argv + ["-o", str(out)])
    return rc, out.read_text() if out.exists() else None


def _infosys_doc(props, table):
    doc = {
        "kind": "infosys",
        "version": 1,
        "propositions": sorted(props),
        "entails": sorted([sorted(xs), a] for xs, a in relation(table)),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _seeded_contexts():
    rng = random.Random(61)
    ctxs = [k2_context(), chain_context(3)]
    ctxs += [random_context(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(8)]
    # attributes declared out of name order
    P = random_context(rng, 5, 5)
    ctxs.append(FormalContext(P.objects, P.attributes[::-1], P.incidence))
    return ctxs


@pytest.mark.parametrize("k", range(11))
def test_cli_context_conversions_are_unchanged(tmp_path, k):
    P = _seeded_contexts()[k]
    src = tmp_path / "p.cxt"
    src.write_text(formats.dump_cxt(P))
    table = {xs: attr_closure(P, xs) for xs in antecedents(P.attributes)}
    assert _run(tmp_path, ["convert", str(src), "--to", "infosys"]) == (
        0, _infosys_doc(P.attributes, table)
    )
    sequents = [(xs, frozenset({a})) for xs, a in relation(table)]
    assert _run(tmp_path, ["convert", str(src), "--to", "ccp"]) == (
        0, formats.dump_sequents(sequents)
    )


@pytest.mark.parametrize("seed", range(10))
def test_cli_infosys_conversions_are_unchanged(tmp_path, seed, capsys):
    rng = random.Random(seed)
    props, raw = raw_system(rng, rng.randint(1, 6))
    table = chained(props, [(xs, frozenset({a})) for xs, a in raw])
    src = tmp_path / "s.json"
    src.write_text(_infosys_doc(props, table))
    assert main(["validate", str(src)]) == 0
    assert capsys.readouterr().out == f"OK information system: {len(props)} propositions\n"
    sequents = [(xs, frozenset({a})) for xs, a in relation(table)]
    assert _run(tmp_path, ["convert", str(src), "--to", "ccp"]) == (
        0, formats.dump_sequents(sequents)
    )
    lat, members = lattice_from_sets(closed_family(table.__getitem__, props))
    objs = list(lat.elements)
    ctx = FormalContext(
        tuple(objs), tuple(sorted(props)), frozenset((o, a) for o in objs for a in members[o])
    )
    assert _run(tmp_path, ["convert", str(src), "--to", "context"]) == (
        0, formats.dump_context(ctx)
    )
    assert _run(tmp_path, ["convert", str(src), "--to", "context", "--format", "cxt"]) == (
        0, formats.dump_cxt(ctx)
    )
    if raw:
        seqs = tmp_path / "s.txt"
        seqs.write_text(formats.dump_sequents([(xs, frozenset({a})) for xs, a in raw]))
        atoms = sorted({a for xs, a in raw} | {p for xs, _ in raw for p in xs})
        want = chained(atoms, [(xs, frozenset({a})) for xs, a in raw])
        assert _run(tmp_path, ["convert", str(seqs), "--to", "infosys"]) == (
            0, _infosys_doc(atoms, want)
        )


def test_cli_validation_reports_the_scanned_fault(tmp_path, capsys):
    rng = random.Random(70)
    src = tmp_path / "s.json"
    for _ in range(60):
        props, raw = raw_system(rng, rng.randint(1, 5))
        pairs = set(relation(chained(props, [(xs, frozenset({a})) for xs, a in raw])))
        _break(rng, rng.choice(["unknown", "irreflexive", "cut", "drop"]), props, pairs)
        src.write_text(json.dumps({
            "kind": "infosys", "version": 1, "propositions": props,
            "entails": [[sorted(xs), a] for xs, a in pairs],
        }))
        rc = main(["validate", str(src)])
        out = capsys.readouterr().out
        want = scanned_is_fault(props, pairs)
        if want is None:
            assert rc == 0
        else:
            law, message, witness = want
            assert rc == 1
            assert out == json.dumps(
                {"ok": False, "error": message, "law": law, "witness": witness},
                indent=2, sort_keys=True,
            ) + "\n"


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 7])
def test_cli_prop6_9_report_is_unchanged(seed, capsys):
    assert main(["laws", "prop6.9", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == "instances: 50 information systems\nprop6.9: PASS\n"


def test_witnesses_do_not_depend_on_the_hash_seed(tmp_path):
    src = tmp_path / "s.json"
    src.write_text(json.dumps({
        "kind": "infosys", "version": 1, "propositions": ["a", "b", "c", "d"],
        "entails": [[["a"], "a"], [["b"], "b"], [["c"], "c"], [["d"], "d"]],
    }))
    script = (
        "import sys\n"
        "from cxtcat.cli import main\n"
        "from cxtcat.errors import ValidationError\n"
        "from cxtcat.logic import CcpSystem\n"
        "main(['validate', sys.argv[1]])\n"
        "gens = [(frozenset(), frozenset({'z'})), (frozenset({'x'}), frozenset()),\n"
        "        (frozenset({'y'}), frozenset())]\n"
        "try:\n"
        "    CcpSystem(('a',), frozenset(gens))\n"
        "except ValidationError as exc:\n"
        "    print(exc.witness)\n"
    )
    src_dir = str(Path(cxtcat.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("2", "5"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
        run = subprocess.run(
            [sys.executable, "-c", script, str(src)], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    *report, generator = outs[0].splitlines()
    assert json.loads("\n".join(report))["witness"] == {"atom": "a", "set": ["a", "b"]}
    assert generator == "{'pair': [[], ['z']]}"
