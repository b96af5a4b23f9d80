"""Canonical string encodings for derived elements.

Every structure built from sets (ideals, filters, concept intents, lower
sets, ...) names its elements by a canonical encoding of the member set, so
equality of derived elements is plain string equality and enumeration order
is reproducible.  Encodings are write-only: constructions keep explicit
side tables from encoded names back to the underlying sets.
"""

from collections.abc import Iterable


def set_id(members: Iterable[str]) -> str:
    """Canonical name for a finite set of identifiers: ``{a,b,c}`` sorted."""
    return "{" + ",".join(sorted(members)) + "}"


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
