"""Formal contexts, derivation operators, and their concept structures.

A context is an object/attribute incidence table.  Deriving twice gives the
intent closure; the join-semilattice of closures of finite attribute sets and
the lattice of all finitarily-closed sets are the two faces used everywhere
else.  On finite carriers the finitary closure degenerates to the plain
intent closure; both code paths exist and are tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable

from . import kernels, order
from .errors import ValidationError
from .order import ClosureOperator, FiniteLattice, JoinSemilattice, _guard

# Cap for the literal union-over-finite-subsets closure.
APPROX_CLOSURE_GUARD = 16
# Concept structures build quadratic tables over the closed sets.
CLOSED_SET_GUARD = 512


@dataclass(frozen=True, init=False)
class FormalContext:
    """Objects, attributes, and which object bears which attribute.

    The incidence is held as one attribute mask per object, aligned with
    ``objects``: bit ``j`` of ``rows[i]`` says that object ``i`` bears
    attribute ``j``.  Equality and hashing read the rows.  The public
    constructor takes ``(object, attribute)`` pairs and checks the names and
    the pairs; builders whose rows are sound by construction enter them
    through ``_from_rows``, which checks the names only.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]

    def __init__(
        self,
        objects: Iterable[str],
        attributes: Iterable[str],
        incidence: Iterable[tuple[str, str]],
    ):
        self._set_names(objects, attributes)
        oi, ai = self.obj_index, self.attr_index
        rows = [0] * len(self.objects)
        bad = []
        for o, a in incidence:
            i, j = oi.get(o), ai.get(a)
            if i is None or j is None:
                bad.append((o, a))
            else:
                rows[i] |= 1 << j
        if bad:
            o, a = min(bad)
            raise ValidationError(
                f"incidence pair ({o!r}, {a!r}) references undeclared names",
                law="unknown-element",
                witness={"pair": [o, a]},
            )
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _from_rows(
        cls, objects: tuple[str, ...], attributes: tuple[str, ...], rows: tuple[int, ...]
    ) -> FormalContext:
        """The context with these rows, for builders whose rows are masks over
        ``attributes`` by construction; only the names are checked."""
        P = object.__new__(cls)
        P._set_names(objects, attributes)
        object.__setattr__(P, "rows", rows)
        return P

    def _set_names(self, objects: Iterable[str], attributes: Iterable[str]) -> None:
        """Set ``objects`` and ``attributes``, refusing a repeated name
        (``context:duplicates``, objects first)."""
        for field, seq in (("objects", tuple(objects)), ("attributes", tuple(attributes))):
            if len(set(seq)) != len(seq):
                seen = set()
                for x in seq:
                    if x in seen:
                        raise ValidationError(
                            f"duplicate {field[:-1]} {x!r}",
                            law="context:duplicates",
                            witness={"element": x},
                        )
                    seen.add(x)
            object.__setattr__(self, field, seq)

    @cached_property
    def incidence(self) -> frozenset[tuple[str, str]]:
        """The ``(object, attribute)`` pairs of the rows."""
        attrs = self.attributes
        return frozenset(
            (o, a)
            for o, r in zip(self.objects, self.rows)
            for j, a in enumerate(attrs)
            if r >> j & 1
        )

    @cached_property
    def obj_index(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.objects)}

    @cached_property
    def attr_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.attributes)}

    @property
    def full_attr_mask(self) -> int:
        return (1 << len(self.attributes)) - 1

    def has(self, o: str, a: str) -> bool:
        i, j = self.obj_index.get(o), self.attr_index.get(a)
        return i is not None and j is not None and bool(self.rows[i] >> j & 1)

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
    return FormalContext(objects, attributes, incidence)


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


def approx_closure(P: FormalContext, ys: Iterable[str]) -> frozenset[str]:
    """Finitary closure: union of intent closures of all finite subsets.

    Implemented literally; on a finite context it coincides with
    :func:`attr_closure` because the whole set is one of its finite subsets.
    """
    ys = sorted(frozenset(ys))
    P.attr_mask(ys)
    _guard("approx_closure", len(ys), APPROX_CLOSURE_GUARD)
    out: frozenset[str] = frozenset()
    for m in range(1 << len(ys)):
        sub = [y for i, y in enumerate(ys) if m >> i & 1]
        out |= attr_closure(P, sub)
    return out


def is_closed(P: FormalContext, ys: Iterable[str]) -> bool:
    ys = frozenset(ys)
    return attr_closure(P, ys) == ys


def closed_masks(P: FormalContext) -> set[int]:
    """The closed attribute sets of ``P`` as masks, without their order.

    Every intent is an intersection of object rows (the empty intersection
    is the full attribute set), so the family grows one row at a time and
    the guard stops it as soon as it passes ``CLOSED_SET_GUARD``.  Its size
    is the size of ``sem_lattice(P)`` and of ``alg_lattice(P)``.
    """
    fam = {P.full_attr_mask}
    for r in P.rows:
        # The family is closed under intersection, so a row already in it
        # adds nothing.
        if r in fam:
            continue
        fam |= {s & r for s in fam}
        _guard("closed attribute sets", len(fam), CLOSED_SET_GUARD)
    return fam


def concept_names(P: FormalContext) -> list[str]:
    """The elements of ``sem_lattice(P)`` and ``alg_lattice(P)``, in order,
    without building the order."""
    return [n for n, _, _ in order.named_masks(P.attributes, closed_masks(P))]


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
    intents: dict[str, frozenset[str]] = field(compare=False)

    def __post_init__(self):
        _check_closed(self.context, self.intents, "sem:closed", "element")

    @property
    def elements(self) -> tuple[str, ...]:
        return self.semilattice.elements


@dataclass(frozen=True)
class ConceptLattice:
    """All finitarily-closed attribute sets under inclusion."""

    context: FormalContext
    lattice: FiniteLattice
    intents: dict[str, frozenset[str]] = field(compare=False)

    def __post_init__(self):
        _check_closed(self.context, self.intents, "alg:closed", "concept")

    @property
    def elements(self) -> tuple[str, ...]:
        return self.lattice.elements


def _unchecked(cls, *values):
    """``cls(*values)`` without the closedness check, for the intents of a
    context: intersections of object rows, closed by construction."""
    X = object.__new__(cls)
    X.__dict__.update(zip((f.name for f in fields(cls)), values))
    return X


def _concepts(P: FormalContext):
    """The guarded closed masks of ``P``, named by ``order.named_masks``: their
    inclusion lattice (a closure system's, so nothing re-checks it), its
    join-semilattice, the decoding table and each element's intent mask.
    Memoized on ``P``; no part holds ``P``, so the memo makes no cycle."""
    named = order.named_masks(P.attributes, closed_masks(P))
    lattice = order._named_lattice(named, len(P.attributes))
    intents = {n: frozenset(xs) for n, _, xs in named}
    return lattice, lattice.as_join_semilattice(), intents, tuple(m for _, m, _ in named)


def concept_masks(P: FormalContext) -> tuple[int, ...]:
    """The intent mask of each element of ``sem_lattice(P)`` and
    ``alg_lattice(P)``, in element order."""
    return order._memo(P, "_concepts", _concepts)[3]


def sem_lattice(P: FormalContext) -> SemLattice:
    """Join-semilattice of closures of finite attribute subsets."""
    _, semilattice, intents, _ = order._memo(P, "_concepts", _concepts)
    return _unchecked(SemLattice, P, semilattice, intents)


def alg_lattice(P: FormalContext) -> ConceptLattice:
    """Lattice of all finitarily-closed attribute sets; meets are
    intersections."""
    lattice, _, intents, _ = order._memo(P, "_concepts", _concepts)
    return _unchecked(ConceptLattice, P, lattice, intents)


def context_of_semilattice(S: JoinSemilattice) -> FormalContext:
    """The context whose objects and attributes are the elements of ``S`` and
    whose incidence is the greater-or-equal relation."""
    elems = S.elements
    # Object ``o`` bears ``a`` exactly when ``a <= o``: its row is its down-cone.
    return FormalContext._from_rows(elems, elems, S.poset.down_masks)


def attr_closure_operator(P: FormalContext) -> ClosureOperator:
    """The intent closure as a table on the powerset lattice of attributes,
    whose cap ``order.POWERSET_GUARD`` it shares.  Each closure value is
    looked up by its mask."""
    base = P.attributes
    _guard("attr_closure_operator", len(base), order.POWERSET_GUARD)
    named = order.named_masks(base, range(1 << len(base)))
    name_of = {m: n for n, m, _ in named}
    values = tuple(name_of[kernels.closure_mask(P.rows, P.full_attr_mask, m)] for _, m, _ in named)
    return ClosureOperator(order._named_lattice(named, len(base)).poset, values)
