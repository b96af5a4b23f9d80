"""Command-line surface.

Exit codes: 0 success, 1 validation or law failure (a machine-readable
witness report is printed), 2 usage or I/O error, 3 size guard exceeded.
``rz`` exits 0 whatever the truth values of its sequents: a false sequent is
an answer, not a failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import formats
from .category import funcspace, product, tensor
from .context import (
    FormalContext,
    alg_lattice,
    closed_masks,
    concept_names,
    context_of_semilattice,
    sem_lattice,
)
from .corpus import DEFAULT_SEED
from .errors import CxtcatError, FormatError, SizeGuardExceeded, ValidationError
from .laws import LAWS, run_law
from .logic import ccp_to_is, context_to_is, elements, is_to_ccp, rz_entails
from .order import (
    FiniteLattice,
    JoinSemilattice,
    MeetSemilattice,
    compacts,
    ideal_completion,
)
from .topology import (
    Locale,
    corollary_6_17_spaces,
    lemma_6_16_check,
    locale_points,
    open_set_lattice,
    scott_topology,
    specialization_order,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _int_at_least(low: int | None, kind: str):
    """An argparse ``type`` taking an optional ``-`` and ASCII digits, as
    ``parse_cxt`` reads its counts (so ``int``'s spaces, ``+``, underscores
    and non-ASCII digits are refused), and integers ``>= low`` unless ``low``
    is ``None``; ``kind`` names them in its errors."""

    def parse(text: str) -> int:
        digits = text[1:] if text.startswith("-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}")
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive integer")
_non_negative_int = _int_at_least(0, "non-negative integer")
_seed_int = _int_at_least(None, "int")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_context(path: str) -> FormalContext:
    text = _read(path)
    kind = formats.detect_kind(text)
    if kind == "cxt":
        return formats.parse_cxt(text)
    if kind == "context":
        return formats.load_context(text)
    raise FormatError(f"{path}: expected a context, found {kind}")


def _dump_context(P: FormalContext, fmt: str, provenance=None) -> str:
    if fmt == "cxt":
        return formats.dump_cxt(P)
    return formats.dump_context(P, provenance=provenance)


def _witness(err: ValidationError) -> str:
    return json.dumps(err.report(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# verbs


def cmd_validate(args) -> int:
    text = _read(args.file)
    kind = formats.detect_kind(text)
    if kind == "cxt":
        P = formats.parse_cxt(text)
        kind = "context"
    elif kind == "context":
        P = formats.load_context(text)
    elif kind == "poset":
        poset = formats.load_poset(text)
        shape = "poset"
        try:
            FiniteLattice(poset)
            shape = "lattice"
        except CxtcatError:
            try:
                JoinSemilattice(poset)
                shape = "join-semilattice"
            except CxtcatError:
                pass
        print(f"OK {shape}: {len(poset.elements)} elements")
        return EXIT_OK
    elif kind == "infosys":
        system = formats.load_infosys(text)
        print(f"OK information system: {len(system.propositions)} propositions")
        return EXIT_OK
    elif kind == "space":
        space = formats.load_space(text)
        print(f"OK space: {len(space.points)} points, {len(space.open_masks)} opens")
        return EXIT_OK
    elif kind == "mapping":
        m = formats.load_mapping(text)
        print(f"OK mapping: {len(m.pairs)} pairs")
        return EXIT_OK
    else:
        raise FormatError(f"cannot validate kind {kind!r}")
    print(
        f"OK context: {len(P.objects)} objects, {len(P.attributes)} attributes; "
        f"Sem size {len(closed_masks(P))}"
    )
    return EXIT_OK


def cmd_concepts(args) -> int:
    # Sem and Alg have the same elements on a finite context, so ``--which``
    # picks no different list; neither order is built.
    sys.stdout.write("".join(name + "\n" for name in concept_names(_load_context(args.file))))
    return EXIT_OK


def cmd_idl(args) -> int:
    S = JoinSemilattice(formats.load_poset(_read(args.file)))
    lat = ideal_completion(S)
    _write(args.output, formats.dump_poset(lat.poset))
    print(f"ideals: {len(lat.elements)}", file=sys.stderr)
    return EXIT_OK


def cmd_compacts(args) -> int:
    L = FiniteLattice(formats.load_poset(_read(args.file)))
    for x in compacts(L).elements:
        print(x)
    return EXIT_OK


def cmd_product(args) -> int:
    P, Q = _load_context(args.left), _load_context(args.right)
    prod = product(P, Q)
    prov = {
        "objects": {o: list(s) for o, s in prod.object_sides().items()},
        "attributes": {a: list(s) for a, s in prod.attr_sides().items()},
    }
    _write(args.output, _dump_context(prod.context, args.format, provenance=prov))
    print(f"Sem size {len(prod.sem.elements)}", file=sys.stderr)
    return EXIT_OK


def cmd_tensor(args) -> int:
    P, Q = _load_context(args.left), _load_context(args.right)
    tens = tensor(P, Q)
    prov = {"attributes": {a: list(p) for a, p in tens.attr_pairs.items()}}
    _write(args.output, _dump_context(tens.context, args.format, provenance=prov))
    print(f"Sem size {len(tens.sem.elements)}", file=sys.stderr)
    return EXIT_OK


def cmd_funcspace(args) -> int:
    P, Q = _load_context(args.left), _load_context(args.right)
    fs = funcspace(P, Q)
    if args.engine == "literal" or args.output:
        ctx = fs.literal_context(guard=args.guard)
        prov = {"attributes": {a: list(p) for a, p in fs.attr_pairs.items()}}
        _write(args.output, _dump_context(ctx, args.format, provenance=prov))
    print(f"concepts: {len(fs.sem[0].elements)}", file=sys.stderr)
    return EXIT_OK


def cmd_curry(args) -> int:
    from .category import curry, uncurry

    P, Q, R = (_load_context(p) for p in (args.left, args.right, args.target))
    m = formats.load_mapping(_read(args.mapping))
    prod = product(P, Q)
    fs = funcspace(Q, R)
    out = curry(m, prod, fs) if args.verb == "curry" else uncurry(m, prod, fs)
    _write(args.output, formats.dump_mapping(out))
    return EXIT_OK


def cmd_convert(args) -> int:
    text = _read(args.file)
    kind = formats.detect_kind(text)
    to = args.to
    if kind == "cxt" or kind == "context":
        P = formats.parse_cxt(text) if kind == "cxt" else formats.load_context(text)
        if to == "infosys":
            _write(args.output, formats.dump_infosys(context_to_is(P)))
        elif to == "ccp":
            system = is_to_ccp(context_to_is(P))
            _write(args.output, formats.dump_sequents(
                (xs, frozenset({a})) for xs, a in ccp_to_is(system).entails
            ))
        elif to == "semilattice":
            _write(args.output, formats.dump_poset(sem_lattice(P).semilattice.poset))
        elif to == "context":
            _write(args.output, _dump_context(P, args.format))
        else:
            raise FormatError(f"cannot convert a context to {to!r}")
    elif kind == "infosys":
        system = formats.load_infosys(text)
        if to == "ccp":
            _write(args.output, formats.dump_sequents(
                (xs, frozenset({a})) for xs, a in system.entails
            ))
        elif to == "context":
            lat, members = elements(system)
            objs = list(lat.elements)
            incidence = [
                (o, a) for o in objs for a in members[o]
            ]
            ctx = FormalContext(tuple(objs), tuple(system.propositions), frozenset(incidence))
            _write(args.output, _dump_context(ctx, args.format))
        else:
            raise FormatError(f"cannot convert an information system to {to!r}")
    elif kind == "sequents":
        from .logic import close_entailment

        seqs = formats.parse_sequents(text)
        atoms = sorted({a for xs, ys in seqs for a in xs | ys})
        if to == "infosys":
            raw = [(xs, a) for xs, ys in seqs for a in ys]
            _write(args.output, formats.dump_infosys(close_entailment(atoms, raw)))
        else:
            raise FormatError(f"cannot convert sequents to {to!r}")
    elif kind == "poset":
        S = JoinSemilattice(formats.load_poset(text))
        if to == "context":
            _write(args.output, _dump_context(context_of_semilattice(S), args.format))
        else:
            raise FormatError(f"cannot convert a semilattice to {to!r}")
    else:
        raise FormatError(f"cannot convert from {kind!r}")
    return EXIT_OK


def cmd_rz(args) -> int:
    D = formats.load_poset(_read(args.poset))
    for xs, ys in formats.parse_sequents(_read(args.sequents)):
        holds = rz_entails(D, xs, ys)
        left = ",".join(sorted(xs)) or "T"
        right = ",".join(sorted(ys)) or "T"
        print(f"{left} |- {right} : {'true' if holds else 'false'}")
    return EXIT_OK


def cmd_topology(args) -> int:
    poset = formats.load_poset(_read(args.file))
    if args.report == "stone":
        S = MeetSemilattice(poset)
        lemma = lemma_6_16_check(S)
        rep = corollary_6_17_spaces(S)
        doc = {"lemma6.16": lemma.as_dict(), "cor6.17": rep.as_dict()}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK if lemma.ok and rep.ok else EXIT_FAIL
    L = FiniteLattice(poset)
    if args.report == "points":
        for p in locale_points(Locale(L)):
            print(p.generator)
        return EXIT_OK
    T = scott_topology(L, guard=args.guard)
    if specialization_order(T) != L.poset:
        raise ValidationError(
            "specialization order of the Scott topology is not the lattice order",
            law="scott:specialization",
        )
    _write(args.output, formats.dump_space(T))
    return EXIT_OK


def cmd_laws(args) -> int:
    if args.name not in LAWS:
        print(f"unknown law suite {args.name!r}; choose from {sorted(LAWS)}", file=sys.stderr)
        return EXIT_USAGE
    rep = run_law(args.name, seed=args.seed, max_sem=args.max_sem)
    for line in rep.lines:
        print(line)
    if rep.ok:
        print(f"{rep.name}: PASS")
        return EXIT_OK
    print(json.dumps({"ok": False, **(rep.witness or {})}, indent=2, sort_keys=True))
    return EXIT_FAIL


def cmd_dot(args) -> int:
    text = _read(args.file)
    kind = formats.detect_kind(text)
    if kind in ("cxt", "context"):
        P = formats.parse_cxt(text) if kind == "cxt" else formats.load_context(text)
        poset = alg_lattice(P).lattice.poset
    elif kind == "poset":
        poset = formats.load_poset(text)
    elif kind == "space":
        poset = open_set_lattice(formats.load_space(text))[0].poset
    else:
        raise FormatError(f"cannot draw kind {kind!r}")
    _write(args.output, formats.dot_hasse(poset))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cxtcat",
        description="Formal contexts, algebraic lattices, and their category: "
        "constructions, conversions, and executable law suites.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn, verb=name)
        return p

    p = add("validate", cmd_validate, help="validate a context/poset/infosys/space file")
    p.add_argument("file")

    p = add("concepts", cmd_concepts, help="list the closed attribute sets of a context")
    p.add_argument("file")
    p.add_argument("--which", choices=["sem", "alg"], default="alg")

    p = add("idl", cmd_idl, help="ideal completion of a semilattice (poset JSON)")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = add("compacts", cmd_compacts, help="compact elements of a lattice (poset JSON)")
    p.add_argument("file")

    for name in ("product", "tensor"):
        p = add(name, cmd_product if name == "product" else cmd_tensor,
                help=f"{name} of two contexts")
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("-o", "--output")
        p.add_argument("--format", choices=["json", "cxt"], default="json")

    p = add("funcspace", cmd_funcspace, help="function-space context of two contexts")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=["json", "cxt"], default="json")
    p.add_argument(
        "--engine", choices=["saturate", "literal"], default="saturate",
        help="'literal' prints the literal context on stdout (-o writes it to a "
        "file with either value); no engine is chosen, the concepts are always "
        "the enumerated mappings",
    )
    p.add_argument("--guard", type=_non_negative_int)

    for name in ("curry", "uncurry"):
        p = add(name, cmd_curry, help=f"{name} a mapping over a product and function space")
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("target")
        p.add_argument("mapping")
        p.add_argument("-o", "--output")

    p = add("convert", cmd_convert, help="convert between context/infosys/ccp/semilattice")
    p.add_argument("file")
    p.add_argument("--to", required=True,
                   choices=["context", "infosys", "ccp", "semilattice"])
    p.add_argument("-o", "--output")
    p.add_argument("--format", choices=["json", "cxt"], default="json")

    p = add("rz", cmd_rz, help="evaluate bound-entailment sequents over a poset")
    p.add_argument("poset")
    p.add_argument("sequents")

    p = add("topology", cmd_topology, help="Scott opens, points, or the Stone report")
    p.add_argument("file")
    p.add_argument("--report", choices=["opens", "points", "stone"], default="opens")
    p.add_argument("-o", "--output")
    p.add_argument("--guard", type=_non_negative_int)

    p = add("laws", cmd_laws, help="run a named law suite")
    p.add_argument("name")
    p.add_argument("--seed", type=_seed_int, default=DEFAULT_SEED)
    p.add_argument("--max-sem", type=_positive_int, default=None, dest="max_sem")

    p = add("dot", cmd_dot, help="Hasse diagram of a poset or a context's concepts")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process; ``parse_args`` returns a fresh namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except SizeGuardExceeded as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_GUARD
    except ValidationError as exc:
        sys.stdout.write(_witness(exc))
        return EXIT_FAIL
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CxtcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
