"""Topology verb output is pinned: ``topology`` (the opens document),
``--report points``, ``--report stone``, and ``validate`` and ``dot`` on the
written space document, run in process on fixed inputs, must give what the
pinned digest records.  A change to how spaces are held must not change
what these verbs print or write; a change that means to re-pins the digest
and says so in CHANGES.md.

The digest is the sha256 of ``json.dumps`` of the list of
``[argv, exit code, stdout, output file]``, in the order below; argv names
files by their base names, and the output file is ``None`` when the verb
writes none.  The last input lists its elements out of name order, so the
member order of ``order.named_masks`` reaches the pinned bytes through the
Stone report's lower-set names.
"""

import hashlib
import json
import random

from cxtcat import formats
from cxtcat.cli import main
from cxtcat.corpus import chain_poset, diamond_poset, m3_poset, random_meet_semilattice

PINNED = "af0d058d01ef8e037454e71f81b4ecec5240ac3966eca39da5cf98bb6405239a"


def n5_leq():
    els = ("0", "a", "b", "c", "1")
    below = {("0", "a"), ("a", "b"), ("0", "b"), ("0", "c")}
    return els, {(x, x) for x in els} | {(x, "1") for x in els} | below


def poset_doc(els, leq) -> str:
    """A poset document with the elements in the order given."""
    return json.dumps(
        {"kind": "poset", "version": 1, "elements": list(els), "leq": sorted(map(list, leq))}
    )


def inputs() -> list[tuple[str, str]]:
    docs = [(f"chain{n}.json", formats.dump_poset(chain_poset(n))) for n in range(1, 5)]
    docs.append(("diamond.json", formats.dump_poset(diamond_poset())))
    docs.append(("m3.json", formats.dump_poset(m3_poset())))
    docs.append(("n5.json", poset_doc(*n5_leq())))
    for seed in range(1, 6):
        S = random_meet_semilattice(random.Random(seed), 6)
        docs.append((f"meet{seed}.json", formats.dump_poset(S.poset)))
    # N5 again, listed top first and named against its order
    els = ("z", "y", "b", "m", "a")
    below = {("a", "m"), ("m", "y"), ("a", "y"), ("a", "b")}
    leq = {(x, x) for x in els} | {(x, "z") for x in els} | below
    docs.append(("unordered.json", poset_doc(els, leq)))
    return docs


def run(capsys, tmp_path, argv, out=None) -> list:
    paths = [str(tmp_path / a) if a.endswith(".json") or a.endswith(".dot") else a for a in argv]
    for target in (tmp_path / out,) if out else ():
        target.unlink(missing_ok=True)
    code = main(paths)
    written = (tmp_path / out).read_text() if out and (tmp_path / out).exists() else None
    return [argv, code, capsys.readouterr().out, written]


def test_topology_outputs_match_the_pinned_digest(capsys, tmp_path):
    runs = []
    for name, text in inputs():
        (tmp_path / name).write_text(text)
        space = "space-" + name
        runs.append(run(capsys, tmp_path, ["topology", name, "-o", space], space))
        runs.append(run(capsys, tmp_path, ["topology", name, "--report", "points"]))
        runs.append(run(capsys, tmp_path, ["topology", name, "--report", "stone"]))
        if (tmp_path / space).exists():
            runs.append(run(capsys, tmp_path, ["validate", space]))
            dot = "space-" + name[: -len(".json")] + ".dot"
            runs.append(run(capsys, tmp_path, ["dot", space, "-o", dot], dot))
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == PINNED
