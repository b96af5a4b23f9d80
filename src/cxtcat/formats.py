"""Serialization: versioned JSON documents, the CXT table format, the
line-oriented sequent format, and DOT export of Hasse diagrams.

JSON producers sort every list so output is byte-stable, and write exactly
the bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline;
the CXT writer preserves the declared object/attribute order so canonical
files round-trip byte-identically.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Mapping

from .context import FormalContext, make_context
from .errors import FormatError
from .logic import InformationSystem
from .mappings import ApproximableMapping, validate_am
from .order import FinitePoset, JoinSemilattice, validate_poset
from .topology import TopSpace

VERSION = 1


def _doc(kind: str, **members: str) -> str:
    """The document ``{kind, version, **members}`` from members already
    written one level deep, in the layout of ``json.dumps(doc, indent=2,
    sort_keys=True)`` plus a newline."""
    members["kind"] = _quote(kind)
    members["version"] = str(VERSION)
    return _object(members, 0) + "\n"


def _object(members: Mapping[str, str], depth: int) -> str:
    """An object of written members, sorted by key, ``depth`` levels deep."""
    if not members:
        return "{}"
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(_quote(k) + ": " + members[k] for k in sorted(members))
    return "{" + pad + body + "\n" + "  " * depth + "}"


def _array(items: list[str], depth: int) -> str:
    """An array of written items, ``depth`` levels deep; ``[]`` when empty."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _json(value, depth: int) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it ``depth`` levels deep; numbers, booleans and ``None`` go through
    ``json.dumps``, which also refuses what JSON cannot hold."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        return _array([_json(v, depth + 1) for v in value], depth)
    if isinstance(value, dict):
        return _object({k: _json(v, depth + 1) for k, v in value.items()}, depth)
    return json.dumps(value)


def _load(text: str, kind: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise FormatError(f"expected a {kind!r} document")
    version = doc.get("version")
    if type(version) is not int or version != VERSION:
        raise FormatError(f"unsupported version {version!r}")
    return doc


def _field(doc, key: str, check, where: str = ""):
    """``check(doc[key], path)``, where ``path`` names the key in the document;
    a missing key or a non-object ``doc`` raises ``FormatError``."""
    path = f"{where}.{key}" if where else key
    if not isinstance(doc, dict):
        raise FormatError(f"{where or 'document'} must be a JSON object")
    if key not in doc:
        raise FormatError(f"missing key {path!r}")
    return check(doc[key], path)


def _names(value, path: str) -> list[str]:
    if not isinstance(value, list):
        raise FormatError(f"{path} must be a list of strings")
    for i, x in enumerate(value):
        if not isinstance(x, str):
            raise FormatError(f"{path}[{i}] must be a string, found {x!r}")
    return value


def _pairs(value, path: str) -> list[tuple[str, str]]:
    if not isinstance(value, list):
        raise FormatError(f"{path} must be a list of [string, string] pairs")
    for i, p in enumerate(value):
        if not isinstance(p, list) or len(p) != 2:
            raise FormatError(f"{path}[{i}] must be a [string, string] pair, found {p!r}")
        _names(p, f"{path}[{i}]")
    return [tuple(p) for p in value]


def _name_lists(value, path: str) -> list[list[str]]:
    if not isinstance(value, list):
        raise FormatError(f"{path} must be a list of lists of strings")
    return [_names(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _entailments(value, path: str) -> list[tuple[frozenset[str], str]]:
    if not isinstance(value, list):
        raise FormatError(f"{path} must be a list of [[string, ...], string] pairs")
    out = []
    for i, e in enumerate(value):
        if not isinstance(e, list) or len(e) != 2 or not isinstance(e[1], str):
            raise FormatError(f"{path}[{i}] must be a [[string, ...], string] pair, found {e!r}")
        out.append((frozenset(_names(e[0], f"{path}[{i}][0]")), e[1]))
    return out


def detect_kind(text: str) -> str:
    """Kind of a JSON document, or ``cxt``/``sequents`` for the text formats."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
        kind = doc.get("kind")
        if not isinstance(kind, str):
            raise FormatError(f"document kind must be a string, found {kind!r}")
        if kind in {"poset", "context", "mapping", "infosys", "space"}:
            return kind
        raise FormatError(f"unknown document kind {kind!r}")
    if stripped.startswith("B"):
        return "cxt"
    if "|-" in text:
        return "sequents"
    raise FormatError("unrecognized input format")


# ---------------------------------------------------------------------------
# posets / semilattices


def _in_name_order(elements: tuple[str, ...]) -> bool:
    return all(a < b for a, b in zip(elements, elements[1:]))


def _poset_members(P: FinitePoset, depth: int) -> dict[str, str]:
    """The written ``elements`` and ``leq`` of ``P``, ``depth`` levels deep:
    names in name order, and the order as ``[a, b]`` pairs sorted by name,
    read off the up-masks.  Each name is quoted once.  When the elements
    are in name order already, as those of every concept poset are, the bits
    of a cone come out in name order and are not sorted."""
    els = P.elements
    rank = None
    if _in_name_order(els):
        order = range(P.n)
    else:
        order = sorted(range(P.n), key=els.__getitem__)
        rank = [0] * P.n
        for r, i in enumerate(order):
            rank[i] = r
    quoted = [_quote(x) for x in els]
    item = "\n" + "  " * (depth + 1)
    inner = item + "  "
    heads = ["[" + inner + q + "," + inner for q in quoted]
    tails = [q + item + "]" for q in quoted]
    rows = []
    for i in order:
        above = []
        cone = P.up_masks[i]
        while cone:
            low = cone & -cone
            above.append(low.bit_length() - 1)
            cone ^= low
        if rank is not None:
            above.sort(key=rank.__getitem__)
        rows.append(heads[i] + ("," + item + heads[i]).join([tails[j] for j in above]))
    return {
        "elements": _array([quoted[i] for i in order], depth),
        "leq": _array(rows, depth),
    }


def dump_poset(P: FinitePoset) -> str:
    return _doc("poset", **_poset_members(P, 1))


def load_poset(text: str) -> FinitePoset:
    doc = _load(text, "poset")
    return validate_poset(_field(doc, "elements", _names), _field(doc, "leq", _pairs))


# ---------------------------------------------------------------------------
# contexts


def dump_context(P: FormalContext, provenance: Mapping | None = None) -> str:
    fields = {
        "objects": sorted(P.objects),
        "attributes": sorted(P.attributes),
        "incidence": sorted([o, a] for o, a in P.incidence),
    }
    if provenance is not None:
        fields["provenance"] = provenance
    return _doc("context", **{k: _json(v, 1) for k, v in fields.items()})


def load_context(text: str) -> FormalContext:
    doc = _load(text, "context")
    return make_context(
        _field(doc, "objects", _names),
        _field(doc, "attributes", _names),
        _field(doc, "incidence", _pairs),
    )


# ``X``/``.`` to binary digits and back; a row's string reversed is its mask
# in binary, attribute 0 last.
_CXT_TO_BITS = str.maketrans("X.", "10")
_BITS_TO_CXT = str.maketrans("10", "X.")


def dump_cxt(P: FormalContext) -> str:
    """Burmeister table: header, counts, names, then one X/. row per object."""
    for name in list(P.objects) + list(P.attributes):
        if "\n" in name or "\r" in name:
            raise FormatError(f"name {name!r} cannot be written to CXT")
    lines = ["B", "", str(len(P.objects)), str(len(P.attributes)), ""]
    lines.extend(P.objects)
    lines.extend(P.attributes)
    # A sentinel bit above the last attribute keeps the leading zeros.
    top = 1 << len(P.attributes)
    lines.extend(bin(r | top)[:2:-1].translate(_BITS_TO_CXT) for r in P.rows)
    return "\n".join(lines) + "\n"


def parse_cxt(text: str) -> FormalContext:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        raise FormatError("CXT file must end with a newline")
    if len(lines) < 5 or lines[0] != "B":
        raise FormatError("CXT file must start with a 'B' line")
    if lines[1] != "" or lines[4] != "":
        raise FormatError("CXT lines 2 and 5 must be empty")
    n_obj, n_attr = _cxt_count(lines, 3), _cxt_count(lines, 4)
    need = 5 + n_obj + n_attr + n_obj
    if len(lines) != need:
        raise FormatError(f"CXT expects {need} lines, found {len(lines)}")
    objects = lines[5 : 5 + n_obj]
    attributes = lines[5 + n_obj : 5 + n_obj + n_attr]
    rows = lines[5 + n_obj + n_attr :]
    for i, row in enumerate(rows):
        if len(row) != n_attr or row.strip("X."):
            raise FormatError(f"CXT row {i + 1} is not a string over X and .")
    masks = tuple(int(row[::-1].translate(_CXT_TO_BITS) or "0", 2) for row in rows)
    return FormalContext._from_rows(tuple(objects), tuple(attributes), masks)


def _cxt_count(lines: list[str], number: int) -> int:
    """The count on line ``number`` (1-based): ASCII digits and nothing else,
    so ``int``'s signs, spaces, underscores and non-ASCII digits are refused."""
    text = lines[number - 1]
    if not (text.isascii() and text.isdigit()):
        raise FormatError(
            f"CXT line {number} must be a non-negative count in ASCII digits, found {text!r}"
        )
    return int(text)


# ---------------------------------------------------------------------------
# semilattices and mappings


def semilattice_from_doc(doc: Mapping, where: str = "") -> JoinSemilattice:
    """The semilattice of an ``{elements, leq}`` object found at ``where``."""
    P = validate_poset(_field(doc, "elements", _names, where), _field(doc, "leq", _pairs, where))
    return JoinSemilattice(P)


def dump_mapping(m: ApproximableMapping) -> str:
    return _doc(
        "mapping",
        source=_object(_poset_members(m.source.poset, 2), 1),
        target=_object(_poset_members(m.target.poset, 2), 1),
        pairs=_json(sorted([a, b] for a, b in m.pairs), 1),
    )


def load_mapping(text: str) -> ApproximableMapping:
    doc = _load(text, "mapping")
    src = _field(doc, "source", semilattice_from_doc)
    tgt = _field(doc, "target", semilattice_from_doc)
    return validate_am(src, tgt, _field(doc, "pairs", _pairs))


# ---------------------------------------------------------------------------
# information systems and sequents


def dump_infosys(s: InformationSystem) -> str:
    return _doc(
        "infosys",
        propositions=_json(sorted(s.propositions), 1),
        entails=_json(sorted([sorted(xs), a] for xs, a in s.entails), 1),
    )


def load_infosys(text: str) -> InformationSystem:
    doc = _load(text, "infosys")
    return InformationSystem(
        tuple(_field(doc, "propositions", _names)),
        frozenset(_field(doc, "entails", _entailments)),
    )


def _side(atoms: Iterable[str]) -> str:
    atoms = sorted(atoms)
    return ",".join(atoms) if atoms else "T"


def dump_sequents(sequents: Iterable[tuple[frozenset[str], frozenset[str]]]) -> str:
    lines = sorted(f"{_side(xs)} |- {_side(ys)}" for xs, ys in sequents)
    return "\n".join(lines) + "\n" if lines else ""


def parse_sequents(text: str) -> list[tuple[frozenset[str], frozenset[str]]]:
    """One ``X |- Y`` per line; sides are comma-separated atoms, ``T`` empty."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "|-" not in line:
            raise FormatError(f"line {lineno}: missing '|-'")
        left, right = line.split("|-", 1)

        def side(raw: str) -> frozenset[str]:
            raw = raw.strip()
            if raw == "T":
                return frozenset()
            atoms = [a.strip() for a in raw.split(",")]
            if any(not a for a in atoms):
                raise FormatError(f"line {lineno}: empty atom")
            return frozenset(atoms)

        out.append((side(left), side(right)))
    return out


# ---------------------------------------------------------------------------
# spaces and DOT


def dump_space(T: TopSpace) -> str:
    return _doc(
        "space",
        points=_json(sorted(T.points), 1),
        opens=_json(sorted([sorted(o) for o in T.opens]), 1),
    )


def load_space(text: str) -> TopSpace:
    doc = _load(text, "space")
    return TopSpace(
        tuple(_field(doc, "points", _names)),
        frozenset(frozenset(o) for o in _field(doc, "opens", _name_lists)),
    )


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_hasse(P: FinitePoset, graph_name: str = "hasse") -> str:
    """Hasse diagram as a DOT digraph; edges point from lower to higher
    neighbors, nodes and edges sorted for stable output."""
    quoted = {x: _dot_quote(x) for x in P.elements}
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;", "  node [shape=box];"]
    lines.extend(f"  {quoted[x]};" for x in sorted(P.elements))
    lines.extend(f"  {quoted[a]} -> {quoted[b]};" for a, b in P.covers())
    lines.append("}")
    return "\n".join(lines) + "\n"
