"""Canonical string encodings for derived elements.

Every structure built from sets (ideals, filters, concept intents, lower
sets, ...) names its elements by a canonical encoding of the member set, so
equality of derived elements is plain string equality and enumeration order
is reproducible.  Both encodings are injective: ``{a, b}`` is ``{a,b}`` and
``{"a,b"}`` is ``{\\.a\\,b}`` (``member_id``).  Encodings are write-only:
constructions keep side tables from encoded names back to the sets.
"""

import re
from collections.abc import Iterable

_SPECIAL = re.compile(r"[\\,(){}]")


def member_id(x: str) -> str:
    """``x`` as written inside a set name: raw when it is non-empty, does not
    start with ``\\``, every ``\\`` escapes a following character, and its
    ``(``/``{`` balance its ``)``/``}`` with no ``,`` outside them; else
    ``\\.`` followed by ``x`` with each of ``\\ , ( ) { }`` escaped."""
    if (x and not _SPECIAL.search(x)) or _reads_as_one(x):
        return x
    return "\\." + _SPECIAL.sub(r"\\\g<0>", x)


def _reads_as_one(x: str) -> bool:
    depth, chars = 0, iter(x)
    for c in chars:
        if (c == "\\" and next(chars, None) is None) or (c == "," and not depth):
            return False
        depth += (c in "({") - (c in ")}")
        if depth < 0:
            return False
    return x[:1] not in ("", "\\") and not depth


def set_id(members: Iterable[str]) -> str:
    """Canonical name for a finite set of identifiers: ``{a,b,c}``, the
    members sorted and each written by ``member_id``."""
    return "{" + ",".join(map(member_id, sorted(members))) + "}"


def pair_id(first: str, second: str) -> str:
    """Canonical name for an ordered pair, comma-escaped so it is injective."""
    return "(" + _esc(first) + "," + _esc(second) + ")"


def fresh_id(base: str, taken: Iterable[str], marker: str = "~") -> str:
    """``base``, suffix-escaped with ``marker`` until it avoids ``taken``."""
    used = set(taken)
    name = base
    while name in used:
        name += marker
    return name


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace(",", "\\,").replace("(", "\\(").replace(")", "\\)")
