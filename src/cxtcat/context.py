"""Formal contexts, derivation operators, and their concept structures.

A context is an object/attribute incidence table.  Deriving twice gives the
intent closure; the join-semilattice of closures of finite attribute sets and
the lattice of all finitarily-closed sets are the two faces used everywhere
else.  On finite carriers the finitary closure degenerates to the plain
intent closure; both code paths exist and are tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

from . import kernels
from .canon import set_id
from .errors import SizeGuardExceeded, ValidationError
from .order import (
    ClosureOperator,
    FiniteLattice,
    FinitePoset,
    JoinSemilattice,
    _by_construction,
    powerset_lattice,
    powerset_members,
)

# Cap for the literal union-over-finite-subsets closure.
APPROX_CLOSURE_GUARD = 16
# Concept structures build quadratic tables over the closed sets.
CLOSED_SET_GUARD = 512


@dataclass(frozen=True)
class FormalContext:
    """Objects, attributes, and which object bears which attribute."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence: frozenset[tuple[str, str]]

    def __post_init__(self):
        for name, seq in (("object", self.objects), ("attribute", self.attributes)):
            seen = set()
            for x in seq:
                if x in seen:
                    raise ValidationError(
                        f"duplicate {name} {x!r}", law="context:duplicates", witness={"element": x}
                    )
                seen.add(x)
        objs, attrs = set(self.objects), set(self.attributes)
        for o, a in sorted(self.incidence):
            if o not in objs or a not in attrs:
                raise ValidationError(
                    f"incidence pair ({o!r}, {a!r}) references undeclared names",
                    law="unknown-element",
                    witness={"pair": [o, a]},
                )

    @cached_property
    def obj_index(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.objects)}

    @cached_property
    def attr_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.attributes)}

    @cached_property
    def rows(self) -> list[int]:
        """Attribute mask of each object, aligned with ``objects``."""
        masks = [0] * len(self.objects)
        ai = self.attr_index
        for o, a in self.incidence:
            masks[self.obj_index[o]] |= 1 << ai[a]
        return masks

    @property
    def full_attr_mask(self) -> int:
        return (1 << len(self.attributes)) - 1

    def has(self, o: str, a: str) -> bool:
        return (o, a) in self.incidence

    def attr_mask(self, ys: Iterable[str]) -> int:
        ai = self.attr_index
        m = 0
        for y in ys:
            if y not in ai:
                raise ValidationError(
                    f"unknown attribute {y!r}", law="unknown-element", witness={"element": y}
                )
            m |= 1 << ai[y]
        return m

    def attrs_of_mask(self, mask: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.attributes) if mask >> i & 1)


def make_context(
    objects: Iterable[str], attributes: Iterable[str], incidence: Iterable[tuple[str, str]]
) -> FormalContext:
    return FormalContext(tuple(objects), tuple(attributes), frozenset(tuple(p) for p in incidence))


def alpha(P: FormalContext, xs: Iterable[str]) -> frozenset[str]:
    """Attributes common to all objects in ``xs`` (all attributes for the empty set)."""
    xs = frozenset(xs)
    for o in xs:
        if o not in P.obj_index:
            raise ValidationError(f"unknown object {o!r}", law="unknown-element", witness={"element": o})
    m = P.full_attr_mask
    for o in xs:
        m &= P.rows[P.obj_index[o]]
    return P.attrs_of_mask(m)


def omega(P: FormalContext, ys: Iterable[str]) -> frozenset[str]:
    """Objects bearing every attribute in ``ys``."""
    ym = P.attr_mask(ys)
    return frozenset(o for o, r in zip(P.objects, P.rows) if r & ym == ym)


def attr_closure(P: FormalContext, ys: Iterable[str]) -> frozenset[str]:
    """The intent closure: attributes shared by every object bearing ``ys``."""
    ym = P.attr_mask(ys)
    return P.attrs_of_mask(kernels.closure_mask(P.rows, P.full_attr_mask, ym))


def approx_closure(
    P: FormalContext, ys: Iterable[str], guard: int = APPROX_CLOSURE_GUARD
) -> frozenset[str]:
    """Finitary closure: union of intent closures of all finite subsets.

    Implemented literally; on a finite context it coincides with
    :func:`attr_closure` because the whole set is one of its finite subsets.
    """
    ys = sorted(frozenset(ys))
    P.attr_mask(ys)
    if len(ys) > guard:
        raise SizeGuardExceeded("approx_closure", len(ys), guard)
    out: frozenset[str] = frozenset()
    for m in range(1 << len(ys)):
        sub = [y for i, y in enumerate(ys) if m >> i & 1]
        out |= attr_closure(P, sub)
    return out


def is_closed(P: FormalContext, ys: Iterable[str]) -> bool:
    ys = frozenset(ys)
    return attr_closure(P, ys) == ys


def _concept_tables(P: FormalContext, max_closed: int):
    """Closed intents of ``P`` on masks, ordered by inclusion.

    Every intent is an intersection of object rows (the empty intersection
    is the full attribute set), so the family grows one row at a time and
    the guard stops it as soon as it passes ``max_closed``.  The intents
    form a closure system, so their inclusion order is a lattice by
    construction: its cones are built from the attribute columns and
    nothing re-checks them.  Names are made once per intent, and elements
    are sorted by name.

    Returns ``(poset, intents)``: ``intents`` decodes names to attribute sets.
    """
    fam = {P.full_attr_mask}
    for r in P.rows:
        fam |= {s & r for s in fam}
        if len(fam) > max_closed:
            raise SizeGuardExceeded("closed attribute sets", len(fam), max_closed)
    sets = {m: P.attrs_of_mask(m) for m in fam}
    named = sorted((set_id(ys), m) for m, ys in sets.items())
    cones = kernels.inclusion_cones([m for _, m in named], len(P.attributes))
    poset = FinitePoset._from_masks(tuple(n for n, _ in named), *cones)
    return poset, {n: sets[m] for n, m in named}


def _check_closed(P: FormalContext, intents: dict[str, frozenset[str]], law: str, what: str):
    """Every intent is its own closure, compared as attribute masks."""
    rows, full = P.rows, P.full_attr_mask
    for name, members in intents.items():
        m = P.attr_mask(members)
        if kernels.closure_mask(rows, full, m) != m:
            raise ValidationError(
                f"{what} {name} is not closed", law=law, witness={"element": name}
            )


@dataclass(frozen=True)
class SemLattice:
    """Closures of finite attribute sets: join is closure of union, bottom is
    the closure of the empty set."""

    context: FormalContext
    semilattice: JoinSemilattice
    intents: dict[str, frozenset[str]]

    def __post_init__(self):
        _check_closed(self.context, self.intents, "sem:closed", "element")

    @property
    def elements(self) -> tuple[str, ...]:
        return self.semilattice.elements

    def name_of(self, ys: Iterable[str]) -> str:
        return set_id(attr_closure(self.context, ys))

    def __eq__(self, other):
        if not isinstance(other, SemLattice):
            return NotImplemented
        return self.context == other.context and self.semilattice == other.semilattice

    def __hash__(self):
        return hash((self.context, self.semilattice))


@dataclass(frozen=True)
class ConceptLattice:
    """All finitarily-closed attribute sets under inclusion."""

    context: FormalContext
    lattice: FiniteLattice
    intents: dict[str, frozenset[str]]

    def __post_init__(self):
        _check_closed(self.context, self.intents, "alg:closed", "concept")

    @property
    def elements(self) -> tuple[str, ...]:
        return self.lattice.elements

    def __eq__(self, other):
        if not isinstance(other, ConceptLattice):
            return NotImplemented
        return self.context == other.context and self.lattice == other.lattice

    def __hash__(self):
        return hash((self.context, self.lattice))


def _unchecked(cls, *values):
    """``cls(*values)`` without the closedness check, for the intents of
    ``_concept_tables``: intersections of object rows, closed by construction."""
    X = object.__new__(cls)
    X.__dict__.update(zip((f.name for f in fields(cls)), values))
    return X


def sem_lattice(P: FormalContext, max_closed: int = CLOSED_SET_GUARD) -> SemLattice:
    """Join-semilattice of closures of finite attribute subsets."""
    poset, intents = _concept_tables(P, max_closed)
    return _unchecked(SemLattice, P, _by_construction(JoinSemilattice, poset), intents)


def alg_lattice(P: FormalContext, max_closed: int = CLOSED_SET_GUARD) -> ConceptLattice:
    """Lattice of all finitarily-closed attribute sets; meets are intersections."""
    poset, intents = _concept_tables(P, max_closed)
    return _unchecked(ConceptLattice, P, _by_construction(FiniteLattice, poset), intents)


def context_of_semilattice(S: JoinSemilattice) -> FormalContext:
    """The context whose objects and attributes are the elements of ``S`` and
    whose incidence is the greater-or-equal relation."""
    elems = S.elements
    incidence = frozenset((o, a) for o in elems for a in elems if S.le(a, o))
    return FormalContext(elems, elems, incidence)


def attr_closure_operator(P: FormalContext, guard: int = 10) -> ClosureOperator:
    """The intent closure as a table on the powerset lattice of attributes."""
    base = P.attributes
    if len(base) > guard:
        raise SizeGuardExceeded("attr_closure_operator", len(base), guard)
    lat = powerset_lattice(base, guard)
    members = powerset_members(base)
    values = tuple(set_id(attr_closure(P, members[x])) for x in lat.elements)
    return ClosureOperator(lat.poset, values)
