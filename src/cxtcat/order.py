"""Finite posets, semilattices, lattices, ideals, filters, closure operators.

This is the shared substrate: every other module builds its structures on the
validated order types defined here.  All values are immutable after
construction and all operations are pure; exhaustive subset scans are guarded
by the element caps below, read when each scan runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from . import kernels
from .canon import member_id
from .errors import SizeGuardExceeded, ValidationError

# Cap on the elements of a poset whose lower sets are listed.
SUBSET_SCAN_GUARD = 20
# Up to this size the definitional directed-set scans cross-check the finite
# theorems (ideals, compacts, Scott opens, Scott functions; a finite directed
# set holds its supremum).  Past it only the theorem is used.
DIRECTED_SCAN_CAP = 16
POWERSET_GUARD = 10


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True, init=False, repr=False)
class FinitePoset:
    """A finite partial order held as index masks.

    ``up_masks[i]`` has bit ``j`` set when element ``i`` is below element
    ``j``; element order fixes canonical enumeration.  Equality and hashing
    read ``elements`` and ``up_masks``; ``leq``, the relation as name
    pairs, is derived from them on first read.

    ``FinitePoset(elements, leq)`` checks every axiom.  ``_from_masks``
    takes masks that are a partial order by construction (inclusion of
    distinct sets, a dual, a restriction) and checks nothing.
    """

    elements: tuple[str, ...]
    up_masks: tuple[int, ...]

    def __init__(self, elements: tuple[str, ...], leq: Iterable[tuple[str, str]]):
        # The checks keep the name dataclasses give them, as on the other
        # order types, so that per-layer benchmarks count them alike.
        self.__dict__["elements"] = elements
        self.__post_init__(leq)

    def __post_init__(self, leq):
        pairs = leq if isinstance(leq, frozenset) else frozenset(leq)
        index: dict[str, int] = {}
        for i, x in enumerate(self.elements):
            if x in index:
                raise ValidationError(
                    f"duplicate element {x!r}", law="poset:elements", witness={"element": x}
                )
            index[x] = i
        up = [0] * len(index)
        unknown = []
        for a, b in pairs:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                unknown.append((a, b))
            else:
                up[i] |= 1 << j
        if unknown:
            a, b = min(unknown)
            raise ValidationError(
                f"leq references unknown element in ({a!r}, {b!r})",
                law="unknown-element",
                witness={"pair": [a, b]},
            )
        els = self.elements
        for i, x in enumerate(els):
            if not up[i] >> i & 1:
                raise ValidationError(
                    f"reflexivity fails at {x!r}", law="poset:reflexivity", witness={"pair": [x, x]}
                )
        cycles = [
            (els[i], els[j])
            for i, cone in enumerate(up)
            for j in _bits(cone & ~(1 << i))
            if up[j] >> i & 1
        ]
        if cycles:
            a, b = min(cycles)
            raise ValidationError(
                f"antisymmetry fails at ({a!r}, {b!r})",
                law="poset:antisymmetry",
                witness={"pair": [a, b]},
            )
        for i, cone in enumerate(up):
            for j in _bits(cone):
                missing = up[j] & ~cone
                if missing:
                    a, b = els[i], els[j]
                    c = els[(missing & -missing).bit_length() - 1]
                    raise ValidationError(
                        f"transitivity fails: {a!r} <= {b!r} <= {c!r} but not {a!r} <= {c!r}",
                        law="poset:transitivity",
                        witness={"pair": [a, c], "via": b},
                    )
        self.__dict__.update(up_masks=tuple(up), index=index, leq=pairs)

    @classmethod
    def _from_masks(
        cls, elements: tuple[str, ...], up: Iterable[int], down: Iterable[int] | None = None
    ) -> FinitePoset:
        P = object.__new__(cls)
        P.__dict__.update(elements=elements, up_masks=tuple(up))
        if down is not None:
            P.__dict__["down_masks"] = tuple(down)
        return P

    def __repr__(self) -> str:
        return f"FinitePoset(elements={self.elements!r}, leq={self.leq!r})"

    @property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for i, cone in enumerate(self.up_masks):
            for j in _bits(cone):
                masks[j] |= 1 << i
        return tuple(masks)

    @cached_property
    def leq(self) -> frozenset[tuple[str, str]]:
        els = self.elements
        return frozenset(
            (a, els[j]) for a, cone in zip(els, self.up_masks) for j in _bits(cone)
        )

    def le(self, a: str, b: str) -> bool:
        idx = self.index
        try:
            return self.up_masks[idx[a]] >> idx[b] & 1 == 1
        except KeyError:
            return False

    def check_members(self, xs: Iterable[str]) -> None:
        for x in xs:
            if x not in self.index:
                raise ValidationError(
                    f"unknown element {x!r}", law="unknown-element", witness={"element": x}
                )

    def mask_of(self, xs: Iterable[str]) -> int:
        idx = self.index
        m = 0
        for x in xs:
            m |= 1 << idx[x]
        return m

    def set_of(self, mask: int) -> frozenset[str]:
        return frozenset(x for i, x in enumerate(self.elements) if mask >> i & 1)

    def dual(self) -> FinitePoset:
        return FinitePoset._from_masks(self.elements, self.down_masks, self.up_masks)

    def restrict(self, members: Iterable[str]) -> FinitePoset:
        """The induced order on ``members``: the masks of the kept elements,
        with the dropped bits squeezed out."""
        keep = set(members)
        self.check_members(keep)
        kept = [i for i, x in enumerate(self.elements) if x in keep]
        at = {i: k for k, i in enumerate(kept)}
        km = self.mask_of(keep)
        up = [_moved(self.up_masks[i] & km, at) for i in kept]
        return FinitePoset._from_masks(tuple(self.elements[i] for i in kept), up)

    def minimal(self, xs: Iterable[str]) -> frozenset[str]:
        xs = frozenset(xs)
        m, idx, down = self.mask_of(xs), self.index, self.down_masks
        return frozenset(x for x in xs if not down[idx[x]] & m & ~(1 << idx[x]))

    def covers(self) -> list[tuple[str, str]]:
        """Hasse edges (a, b): a < b with nothing strictly between, sorted.

        The upper covers of ``a`` are its strict up-cone minus everything
        strictly above a member of that cone.
        """
        els = self.elements
        strict = [m & ~(1 << i) for i, m in enumerate(self.up_masks)]
        out = []
        for a, cone in zip(els, strict):
            above, rest = 0, cone
            while rest:
                low = rest & -rest
                above |= strict[low.bit_length() - 1]
                rest ^= low
            rest = cone & ~above
            while rest:
                low = rest & -rest
                out.append((a, els[low.bit_length() - 1]))
                rest ^= low
        return sorted(out)


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _moved(mask: int, at) -> int:
    """``mask`` with each bit ``i`` moved to bit ``at[i]``."""
    m = 0
    for i in _bits(mask):
        m |= 1 << at[i]
    return m


def validate_poset(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> FinitePoset:
    """Validate that ``pairs`` is a partial order on ``elements``.

    No closure is applied; the first violated axiom is reported with a
    witness pair.
    """
    return FinitePoset(tuple(elements), frozenset((a, b) for a, b in pairs))


# Every join/meet twin below is one routine over a cone list, by order
# duality: pass ``P.up_masks`` for joins, least elements and up-sets, and
# ``P.down_masks`` for meets, greatest elements and down-sets.


def _cone_union(P: FinitePoset, xs: Iterable[str], cones: list[int]) -> frozenset[str]:
    xs = frozenset(xs)
    P.check_members(xs)
    idx = P.index
    m = 0
    for x in xs:
        m |= cones[idx[x]]
    return P.set_of(m)


def down_set(P: FinitePoset, xs: Iterable[str]) -> frozenset[str]:
    return _cone_union(P, xs, P.down_masks)


def up_set(P: FinitePoset, xs: Iterable[str]) -> frozenset[str]:
    return _cone_union(P, xs, P.up_masks)


def _unit(P: FinitePoset, cones: list[int]) -> str | None:
    """The element whose cone is everything: the least element on up-cones,
    the greatest on down-cones."""
    full = (1 << P.n) - 1
    for x, cone in zip(P.elements, cones):
        if cone == full:
            return x
    return None


def _bound_table(P: FinitePoset, cones: list[int], kind: str) -> tuple[tuple[int, ...], ...]:
    """The binary bounds of ``P`` as rows of element indices: entry ``[i][j]``
    is the element whose cone is the intersection of the cones of ``i`` and
    ``j``, their join on up-cones and their meet on down-cones.

    Cones are distinct by antisymmetry, so one lookup in the table from cone
    to index both finds a bound and shows that it exists.  The first pair in
    row order without one is reported.
    """
    at = {cone: k for k, cone in enumerate(cones)}
    try:
        return tuple(tuple([at[ci & cj] for cj in cones]) for ci in cones)
    except KeyError:
        i, j = next(
            (i, j)
            for i, ci in enumerate(cones)
            for j, cj in enumerate(cones)
            if ci & cj not in at
        )
        a, b = P.elements[i], P.elements[j]
        raise ValidationError(
            f"{kind} of {a!r} and {b!r} does not exist",
            law=f"{kind}:bound",
            witness={"pair": [a, b]},
        ) from None


def _bound(P: FinitePoset, table, a: str, b: str) -> str:
    idx = P.index
    return P.elements[table[idx[a]][idx[b]]]


def _fold(P: FinitePoset, table, unit: str, xs: Iterable[str]) -> str:
    """Fold ``xs`` through a bound table from its unit: a join of all from
    the bottom, a meet of all from the top."""
    idx = P.index
    k = idx[unit]
    for x in xs:
        k = table[k][idx[x]]
    return P.elements[k]


# The three bounded structures below hold their poset as their only field.
# Units and bound tables are read off the order and kept in the instance
# ``__dict__`` (as ``_memo`` keeps its caches), so equality and hashing see
# the poset alone.  The constructors check that the bounds exist and so
# build every table at once; ``_by_construction`` skips the check for
# orders that have their bounds by construction, and a table is then filled
# when it is first read.


def _by_construction(cls, P: FinitePoset):
    """``cls(P)`` for a ``P`` known to have the bounds of ``cls``: the
    inclusion order of a closure system, or the dual of a checked structure.
    The units are read now and nothing is checked."""
    X = object.__new__(cls)
    X.__dict__["poset"] = P
    if cls is not MeetSemilattice:
        X.__dict__["bottom"] = _unit(P, P.up_masks)
    if cls is not JoinSemilattice:
        X.__dict__["top"] = _unit(P, P.down_masks)
    return X


def _join_table(X) -> tuple[tuple[int, ...], ...]:
    return _bound_table(X.poset, X.poset.up_masks, "join")


def _meet_table(X) -> tuple[tuple[int, ...], ...]:
    return _bound_table(X.poset, X.poset.down_masks, "meet")


@dataclass(frozen=True)
class JoinSemilattice:
    """Poset with a least element in which every pair has a least upper bound.

    ``bottom`` names the least element; ``join_table[i][j]`` is the index of
    the join of the elements with indices ``i`` and ``j``.
    """

    poset: FinitePoset

    def __post_init__(self):
        P = self.poset
        bottom = _unit(P, P.up_masks)
        if bottom is None:
            raise ValidationError("poset has no least element", law="join:bottom")
        self.__dict__.update(bottom=bottom, join_table=_join_table(self))

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def le(self, a: str, b: str) -> bool:
        return self.poset.le(a, b)

    def join(self, a: str, b: str) -> str:
        return _bound(self.poset, self.join_table, a, b)

    join_table = cached_property(_join_table)

    def join_all(self, xs: Iterable[str]) -> str:
        return _fold(self.poset, self.join_table, self.bottom, xs)

    def dual(self) -> MeetSemilattice:
        return _by_construction(MeetSemilattice, self.poset.dual())


@dataclass(frozen=True)
class MeetSemilattice:
    """Dual presentation: poset with a top in which every pair has a greatest
    lower bound; ``top`` and ``meet_table`` as for ``JoinSemilattice``."""

    poset: FinitePoset

    def __post_init__(self):
        P = self.poset
        top = _unit(P, P.down_masks)
        if top is None:
            raise ValidationError("poset has no greatest element", law="meet:top")
        self.__dict__.update(top=top, meet_table=_meet_table(self))

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def le(self, a: str, b: str) -> bool:
        return self.poset.le(a, b)

    def meet(self, a: str, b: str) -> str:
        return _bound(self.poset, self.meet_table, a, b)

    meet_table = cached_property(_meet_table)

    def meet_all(self, xs: Iterable[str]) -> str:
        return _fold(self.poset, self.meet_table, self.top, xs)

    def dual(self) -> JoinSemilattice:
        return _by_construction(JoinSemilattice, self.poset.dual())

    @cached_property
    def _dual(self) -> JoinSemilattice:
        """``dual()``, kept so that every filter query shares its memos."""
        return self.dual()


@dataclass(frozen=True)
class FiniteLattice:
    """Finite lattice: bottom, top, and join and meet tables of indices.

    Binary bounds together with bottom and top give finite completeness.
    """

    poset: FinitePoset

    def __post_init__(self):
        P = self.poset
        bottom, top = _unit(P, P.up_masks), _unit(P, P.down_masks)
        if bottom is None or top is None:
            raise ValidationError("poset lacks bottom or top", law="lattice:bounds")
        self.__dict__.update(
            bottom=bottom,
            top=top,
            join_table=_join_table(self),
            meet_table=_meet_table(self),
        )

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def le(self, a: str, b: str) -> bool:
        return self.poset.le(a, b)

    def join(self, a: str, b: str) -> str:
        return _bound(self.poset, self.join_table, a, b)

    def meet(self, a: str, b: str) -> str:
        return _bound(self.poset, self.meet_table, a, b)

    join_table = cached_property(_join_table)

    meet_table = cached_property(_meet_table)

    def join_all(self, xs: Iterable[str]) -> str:
        return _fold(self.poset, self.join_table, self.bottom, xs)

    def meet_all(self, xs: Iterable[str]) -> str:
        return _fold(self.poset, self.meet_table, self.top, xs)

    def dual(self) -> FiniteLattice:
        return _by_construction(FiniteLattice, self.poset.dual())

    def as_join_semilattice(self) -> JoinSemilattice:
        return _by_construction(JoinSemilattice, self.poset)


@dataclass(frozen=True)
class Ideal:
    """Non-empty directed lower subset of a poset."""

    poset: FinitePoset
    members: frozenset[str]

    def __post_init__(self):
        P = self.poset
        P.check_members(self.members)
        if not self.members:
            raise ValidationError("ideal is empty", law="ideal:nonempty")
        m = P.mask_of(self.members)
        for x in sorted(self.members):
            if P.down_masks[P.index[x]] & ~m:
                raise ValidationError(
                    f"not downward closed at {x!r}", law="ideal:lower", witness={"element": x}
                )
        for a, b in combinations(sorted(self.members), 2):
            if not P.up_masks[P.index[a]] & P.up_masks[P.index[b]] & m:
                raise ValidationError(
                    f"no inner upper bound for {a!r}, {b!r}",
                    law="ideal:directed",
                    witness={"pair": [a, b]},
                )


@dataclass(frozen=True)
class Filter:
    """Non-empty down-directed upper subset of a poset."""

    poset: FinitePoset
    members: frozenset[str]

    def __post_init__(self):
        P = self.poset
        P.check_members(self.members)
        if not self.members:
            raise ValidationError("filter is empty", law="filter:nonempty")
        m = P.mask_of(self.members)
        for x in sorted(self.members):
            if P.up_masks[P.index[x]] & ~m:
                raise ValidationError(
                    f"not upward closed at {x!r}", law="filter:upper", witness={"element": x}
                )
        for a, b in combinations(sorted(self.members), 2):
            if not P.down_masks[P.index[a]] & P.down_masks[P.index[b]] & m:
                raise ValidationError(
                    f"no inner lower bound for {a!r}, {b!r}",
                    law="filter:directed",
                    witness={"pair": [a, b]},
                )


@dataclass(frozen=True)
class ClosureOperator:
    """Idempotent, inflationary, monotone self-map given as a value table."""

    poset: FinitePoset
    values: tuple[str, ...]

    def __post_init__(self):
        P = self.poset
        if len(self.values) != P.n:
            raise ValidationError("closure table has wrong length", law="closure:table")
        P.check_members(self.values)
        idx = P.index
        for x, cx in zip(P.elements, self.values):
            if not P.le(x, cx):
                raise ValidationError(
                    f"not inflationary at {x!r}", law="closure:inflationary", witness={"element": x}
                )
            if self.values[idx[cx]] != cx:
                raise ValidationError(
                    f"not idempotent at {x!r}", law="closure:idempotent", witness={"element": x}
                )
        # a <= b must give c(a) <= c(b): the b that break it are the up-cone
        # of a minus ``above[c(a)]``, the preimage of the up-cone of c(a).
        # The least such pair by name is reported.
        els, up = P.elements, P.up_masks
        vals = [idx[v] for v in self.values]
        preimage = [0] * P.n
        for j, t in enumerate(vals):
            preimage[t] |= 1 << j
        above: dict[int, int] = {}
        for i in sorted(range(P.n), key=els.__getitem__):
            t = vals[i]
            if t not in above:
                m = 0
                for s in _bits(up[t]):
                    m |= preimage[s]
                above[t] = m
            bad = up[i] & ~above[t]
            if bad:
                a, b = els[i], min(els[j] for j in _bits(bad))
                raise ValidationError(
                    f"not monotone on ({a!r}, {b!r})",
                    law="closure:monotone",
                    witness={"pair": [a, b]},
                )

    def apply(self, x: str) -> str:
        return self.values[self.poset.index[x]]

    def image(self) -> frozenset[str]:
        return frozenset(self.values)


# ---------------------------------------------------------------------------
# compactness and completions


def _guard(what: str, n: int, cap: int) -> None:
    if n > cap:
        raise SizeGuardExceeded(what, n, cap)


def _memo(value, name: str, build: Callable):
    """``build(value)``, computed once per frozen ``value`` and kept in its
    instance ``__dict__`` the way ``cached_property`` keeps its results.

    Dataclass equality, hashing and ``repr`` read the fields only, so the
    cache changes none of them; it lives and dies with ``value``.  A guard
    only refuses work and never changes a result, so no guard is part of
    the key.
    """
    cache = value.__dict__
    if name not in cache:
        cache[name] = build(value)
    return cache[name]


def compacts(L: FiniteLattice) -> FinitePoset:
    """Sub-poset of compact elements: all of ``L``, as a finite directed set
    holds its supremum.  Up to ``DIRECTED_SCAN_CAP`` elements the
    definitional fold must agree; it runs once per value ``L``."""
    return _memo(L, "_compacts", lambda L: _checked_compacts(L, L.poset))


def _checked_compacts(L: FiniteLattice, K: FinitePoset) -> FinitePoset:
    """``K``, once the definitional fold agrees with its elements."""
    P = L.poset
    if P.n <= DIRECTED_SCAN_CAP:
        diff = P.mask_of(K.elements) ^ _compact_fold(L)
        if diff:
            x = min(P.elements[i] for i in _bits(diff))
            raise ValidationError(
                f"compact elements disagree with the directed-set test at {x!r}",
                law="compacts:directed",
                witness={"element": x},
            )
    return K


def _compact_fold(L: FiniteLattice) -> int:
    """Mask of the compact elements by definition: ``c`` is not compact when
    some directed ``D`` has ``c <= sup D`` and no member above ``c``."""
    down = L.poset.down_masks
    compact = (1 << L.poset.n) - 1
    for d, sup in _directed_sups(L):
        covered, rest = 0, d
        while rest:
            low = rest & -rest
            covered |= down[low.bit_length() - 1]
            rest ^= low
        compact &= ~(down[sup] & ~covered)
    return compact


def _directed_sups(L: FiniteLattice) -> tuple[tuple[int, int], ...]:
    """Each non-empty directed subset of ``L`` as a mask, with the index of
    its supremum; listed once per value for every oracle that reads them."""
    return _memo(L, "_directed_sups", _fold_directed)


def _fold_directed(L: FiniteLattice) -> tuple[tuple[int, int], ...]:
    J, bottom = L.join_table, L.poset.index[L.bottom]
    out = []
    for d in kernels.directed_masks(L.poset.up_masks):
        sup, rest = bottom, d
        while rest:
            low = rest & -rest
            sup = J[sup][low.bit_length() - 1]
            rest ^= low
        out.append((d, sup))
    return tuple(out)


def is_algebraic(L: FiniteLattice) -> bool:
    """Every element is the join of the compacts below it: the join table
    folded over its down-cone cut to the compacts."""
    P = L.poset
    J, bottom = L.join_table, P.index[L.bottom]
    k = P.mask_of(compacts(L).elements)
    for x, cone in enumerate(P.down_masks):
        j = bottom
        for i in _bits(cone & k):
            j = J[j][i]
        if j != x:
            return False
    return True


def _linear_extension(P: FinitePoset) -> tuple[list[list[int]], list[int]]:
    """The order ``kernels.monotone_maps`` walks ``P`` in: the elements by
    down-cone size, ties by index.  Returns, for each position, the earlier
    positions below it, and for each index its position."""
    down = P.down_masks
    order = sorted(range(len(down)), key=lambda i: (down[i].bit_count(), i))
    preds = [[j for j in range(at) if down[i] >> order[j] & 1] for at, i in enumerate(order)]
    return preds, sorted(range(len(order)), key=order.__getitem__)


def _upper_set_masks(P: FinitePoset) -> list[int]:
    """Every upper set of ``P`` as a mask, in increasing order.  An upper set
    is the part mapped to the top by a monotone map into the 2-chain, so the
    monotone-map search lists them, in polynomial time per set."""
    preds, pos = _memo(P, "_linear_extension", _linear_extension)
    maps = kernels.monotone_maps(P.n, preds, [0b11, 0b10], 1 << P.n)
    return sorted(sum(pick[p] << i for i, p in enumerate(pos)) for pick in maps)


def principal_ideal(P: FinitePoset, x: str) -> frozenset[str]:
    return down_set(P, [x])


def ideals(S: JoinSemilattice) -> tuple[Ideal, ...]:
    """All ideals, sorted by canonical encoding; memoized on ``S``.  In a
    finite order every ideal is the principal ideal of its supremum;
    ``_principal_check`` cross-checks this."""
    return _memo(S, "_ideals", _principal_ideals)


def _principal_ideals(S: JoinSemilattice) -> tuple[Ideal, ...]:
    _memo(S, "_principal_check", _principal_check)
    P = S.poset
    return tuple(Ideal(P, P.set_of(P.down_masks[i])) for i in _ideal_order(S))


def _principal_check(S: JoinSemilattice) -> bool:
    """Up to ``DIRECTED_SCAN_CAP`` elements the definitional subset scan
    must find exactly the down-cones; it runs once per value ``S``, for the
    ideals and the completion alike, and names only a failure's witness."""
    P = S.poset
    if P.n <= DIRECTED_SCAN_CAP:
        scanned = set(kernels.ideal_masks(P.down_masks, P.up_masks))
        differ = scanned ^ set(P.down_masks)
        if differ:
            raise ValidationError(
                "non-principal ideal found in a finite order",
                law="ideal:principal",
                witness={"extra": [n for n, _, _ in named_masks(P.elements, differ)]},
            )
    return True


def _ideal_order(S: JoinSemilattice) -> list[int]:
    """The elements of ``S`` by the names of their principal ideals."""
    return sorted(range(S.poset.n), key=ideal_names(S).__getitem__)


def ideal_completion(S: JoinSemilattice) -> FiniteLattice:
    """Lattice of all ideals under inclusion; meets are intersections, joins
    are the least ideals containing the union.

    Every ideal of a finite order is principal, and ``down(a) <= down(b)``
    exactly when ``a <= b``, so the completion is the order of ``S`` with
    each ``a`` renamed to ``down(a)``, listed in name order.  Memoized on
    ``S``; the ideal scan of ``_principal_check`` runs once per value.
    """
    return _memo(S, "_ideal_completion", _build_ideal_completion)


def _build_ideal_completion(S: JoinSemilattice) -> FiniteLattice:
    _memo(S, "_principal_check", _principal_check)
    P, names, order = S.poset, ideal_names(S), _ideal_order(S)
    at = [0] * P.n
    for k, i in enumerate(order):
        at[i] = k
    R = FinitePoset._from_masks(
        tuple(names[i] for i in order),
        [_moved(P.up_masks[i], at) for i in order],
        [_moved(P.down_masks[i], at) for i in order],
    )
    return _by_construction(FiniteLattice, R)


def ideal_names(S: JoinSemilattice) -> tuple[str, ...]:
    """The name of ``down(a)`` in ``ideal_completion(S)`` for each ``a``, in
    the element order of ``S``; memoized on ``S``.  On ``k_semilattice(L)``
    these are the images ``down(x) ∩ K(L)`` of the unit of ``L``."""
    return _memo(S, "_ideal_names", _down_set_names)


def _down_set_names(S: JoinSemilattice) -> tuple[str, ...]:
    names = {m: n for n, m, _ in named_masks(S.poset.elements, S.poset.down_masks)}
    return tuple(map(names.__getitem__, S.poset.down_masks))


def _join_dual(S: MeetSemilattice | JoinSemilattice) -> JoinSemilattice:
    """The join-semilattice whose ideals are the filters of ``S``; a
    join-semilattice stands for its dual, whose dual is ``S`` again."""
    return S if isinstance(S, JoinSemilattice) else S._dual


def filters(S: MeetSemilattice | JoinSemilattice) -> list[Filter]:
    """All filters of a meet-semilattice with top, sorted by encoding.

    A join-semilattice is accepted too and is dualized first.
    """
    P = S.poset.dual() if isinstance(S, JoinSemilattice) else S.poset
    return [Filter(P, i.members) for i in ideals(_join_dual(S))]


def flt_lattice(S: MeetSemilattice | JoinSemilattice) -> FiniteLattice:
    """Lattice of filters under inclusion.

    By order duality it is the ideal completion of the dual join-semilattice:
    the filters of ``S`` are the ideals of its dual, with the same member
    sets, names and bounds.  The completion is memoized on that dual.
    """
    return ideal_completion(_join_dual(S))


def named_masks(
    points: Sequence[str], masks: Iterable[int]
) -> list[tuple[str, int, list[str]]]:
    """``(name, mask, members)`` for each distinct mask over ``points``,
    sorted by name.  The members are walked in name order and each point is
    written once per call, so the name is ``set_id`` of the member set."""
    by_name = sorted((p, 1 << i) for i, p in enumerate(points))
    written = [(member_id(p), bit) for p, bit in by_name]
    raw = written == by_name
    named = []
    for m in set(masks):
        members = [p for p, bit in by_name if m & bit]
        forms = members if raw else [w for w, bit in written if m & bit]
        named.append(("{" + ",".join(forms) + "}", m, members))
    named.sort()
    return named


def lattice_from_masks(
    points: Sequence[str], masks: Iterable[int]
) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
    """The lattice of the distinct ``masks`` over ``points``, ordered by
    inclusion and named by ``named_masks``, and the decoding table from
    element names back to the sets."""
    named = named_masks(points, masks)
    return _named_lattice(named, len(points)), {n: frozenset(xs) for n, _, xs in named}


def _named_lattice(named: list[tuple[str, int, list[str]]], width: int) -> FiniteLattice:
    """The inclusion lattice of ``named_masks``' rows over ``width`` points,
    element ``i`` the set ``named[i]``.  The family must form a lattice, as a
    closure system or a family closed under unions and intersections does;
    nothing checks it, so the units are read now and the tables on first read.
    """
    cones = kernels.inclusion_cones([m for _, m, _ in named], width)
    P = FinitePoset._from_masks(tuple(n for n, _, _ in named), *cones)
    return _by_construction(FiniteLattice, P)


def k_semilattice(L: FiniteLattice) -> JoinSemilattice:
    """Compact elements with the induced order and joins; memoized on ``L``.
    Every element of a finite lattice is compact, so this is ``L`` itself as
    a join-semilattice, which has its bounds by construction."""
    return _memo(L, "_k_semilattice", lambda L: _by_construction(JoinSemilattice, compacts(L)))


# ---------------------------------------------------------------------------
# closure systems


def closed_family(
    closure: Callable[[frozenset[str]], frozenset[str]], universe: Iterable[str]
) -> set[frozenset[str]]:
    """All sets ``closure(S)`` for ``S`` a subset of ``universe``.

    Every closed set is the closure of the union of its singletons, and
    ``closure(closure(A) | B) == closure(A | B)``, so extending each closed
    set found so far by one point of ``universe`` at a time reaches them all:
    one pass over the family per point, with no pairwise-union saturation.
    A point already in a closed set leaves it unchanged and is skipped.
    """
    family = {closure(frozenset())}
    for p in universe:
        family |= {closure(s | {p}) for s in family if p not in s}
    return family


def closure_from_system(L: FiniteLattice, closed: Iterable[str]) -> ClosureOperator:
    """The unique closure operator whose image is ``closed``.

    ``closed`` must contain the top (empty meet) and be closed under binary
    meets; the witness subset is reported otherwise.
    """
    C = sorted(set(closed))
    L.poset.check_members(C)
    cset = set(C)
    if L.top not in cset:
        raise ValidationError(
            "closed system misses the empty meet (top)",
            law="closure-system:infima",
            witness={"subset": []},
        )
    for a, b in combinations(C, 2):
        if L.meet(a, b) not in cset:
            raise ValidationError(
                f"system not closed under meet of {a!r}, {b!r}",
                law="closure-system:infima",
                witness={"subset": [a, b]},
            )
    values = tuple(
        L.meet_all([y for y in C if L.le(x, y)]) for x in L.elements
    )
    return ClosureOperator(L.poset, values)


def powerset_lattice(base: Iterable[str]) -> FiniteLattice:
    """The lattice of all subsets of ``base``, elements canonically encoded."""
    base = tuple(base)
    _guard("powerset_lattice", len(base), POWERSET_GUARD)
    return lattice_from_masks(base, range(1 << len(base)))[0]


# ---------------------------------------------------------------------------
# primes, irreducibles, distributivity


def _prime_breach(table, cone: int, n: int) -> tuple[int, int] | None:
    """The first pair ``(y, z)`` in index order, both outside the mask
    ``cone``, whose bound ``table[y][z]`` lies inside it; None when the cone
    is prime for that bound."""
    outside = list(_bits((1 << n) - 1 & ~cone))
    for y in outside:
        row = table[y]
        for z in outside:
            if cone >> row[z] & 1:
                return y, z
    return None


def _primes(L: FiniteLattice, table, below, unit: str) -> frozenset[str]:
    """The elements other than ``unit`` whose cone in ``below`` is prime
    for ``table``: the meet-primes on the meet table and down-cones (the top
    passes vacuously, so it is left out), the join-primes on the join table
    and up-cones."""
    els, n = L.elements, L.poset.n
    return frozenset(
        els[x]
        for x, cone in enumerate(below)
        if els[x] != unit and _prime_breach(table, cone, n) is None
    )


def meet_primes(L: FiniteLattice) -> frozenset[str]:
    """Meet-prime elements, excluding the top (which passes vacuously)."""
    return _primes(L, L.meet_table, L.poset.down_masks, L.top)


def join_primes(L: FiniteLattice) -> frozenset[str]:
    return _primes(L, L.join_table, L.poset.up_masks, L.bottom)


def _irreducibles(L: FiniteLattice, table, above, unit: str) -> frozenset[str]:
    """The elements ``x`` other than ``unit`` that are not the bound of two
    elements both different from ``x``.  Such a pair lies strictly inside the
    cone ``above[x]``: up-cones with the meet table, down-cones with the join
    table."""
    els = L.elements
    out = []
    for x, cone in enumerate(above):
        if els[x] == unit:
            continue
        strict = list(_bits(cone & ~(1 << x)))
        if not any(table[y][z] == x for y in strict for z in strict):
            out.append(els[x])
    return frozenset(out)


def meet_irreducibles(L: FiniteLattice) -> frozenset[str]:
    return _irreducibles(L, L.meet_table, L.poset.up_masks, L.top)


def join_irreducibles(L: FiniteLattice) -> frozenset[str]:
    return _irreducibles(L, L.join_table, L.poset.down_masks, L.bottom)


def is_distributive(L: FiniteLattice) -> tuple[bool, tuple[str, str, str] | None]:
    """Check x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z) on all triples, in element
    order, on the bound tables; the first failing triple is the witness."""
    J, M = L.join_table, L.meet_table
    for x, mx in enumerate(M):
        for y, jy in enumerate(J):
            row = J[mx[y]]
            for z, yz in enumerate(jy):
                if mx[yz] != row[mx[z]]:
                    els = L.elements
                    return False, (els[x], els[y], els[z])
    return True, None


# ---------------------------------------------------------------------------
# order isomorphisms


def order_isomorphism(P: FinitePoset, Q: FinitePoset) -> dict[str, str] | None:
    """Search for an order-isomorphism; None if the posets are not isomorphic."""
    if P.n != Q.n:
        return None

    def signatures(R: FinitePoset) -> dict[str, tuple]:
        sig = {
            x: (len(down_set(R, [x])), len(up_set(R, [x])))
            for x in R.elements
        }
        for _ in range(3):
            sig = {
                x: (
                    sig[x],
                    tuple(sorted(sig[y] for y in down_set(R, [x]))),
                    tuple(sorted(sig[y] for y in up_set(R, [x]))),
                )
                for x in R.elements
            }
        return sig

    ps, qs = signatures(P), signatures(Q)
    cands = {x: [y for y in Q.elements if qs[y] == ps[x]] for x in P.elements}
    if any(not c for c in cands.values()):
        return None
    order = sorted(P.elements, key=lambda x: len(cands[x]))
    assign: dict[str, str] = {}
    return dict(assign) if _extend_iso(P, Q, order, cands, assign, set(), 0) else None


def _extend_iso(
    P: FinitePoset,
    Q: FinitePoset,
    order: list[str],
    cands: dict[str, list[str]],
    assign: dict[str, str],
    used: set[str],
    i: int,
) -> bool:
    """Extend ``assign`` to ``order[i:]`` by backtracking over ``cands``.

    A module function, not a closure: a closure that calls itself refers to
    itself through its own cell, and that cycle would keep ``P`` and ``Q``
    alive until the cyclic collector ran.
    """
    if i == len(order):
        return True
    x = order[i]
    for y in cands[x]:
        if y in used:
            continue
        ok = all(
            P.le(x, z) == Q.le(y, assign[z]) and P.le(z, x) == Q.le(assign[z], y)
            for z in assign
        )
        if ok:
            assign[x] = y
            used.add(y)
            if _extend_iso(P, Q, order, cands, assign, used, i + 1):
                return True
            del assign[x]
            used.remove(y)
    return False


def is_order_iso(P: FinitePoset, Q: FinitePoset, f: Mapping[str, str]) -> bool:
    """Verify that ``f`` is a bijective order-embedding of P onto Q."""
    if set(f.keys()) != set(P.elements) or set(f.values()) != set(Q.elements):
        return False
    if len(set(f.values())) != len(P.elements):
        return False
    # A bijection is an order-iso when it carries each up-cone onto the
    # up-cone of the image.
    at = [Q.index[f[x]] for x in P.elements]
    for i, cone in enumerate(P.up_masks):
        if _moved(cone, at) != Q.up_masks[at[i]]:
            return False
    return True


# ---------------------------------------------------------------------------
# the completion/compacts round trip


@dataclass(frozen=True)
class Thm36Report:
    """Witnesses (or a counterexample) for the two completion isomorphisms."""

    ok: bool
    semilattice_map: dict[str, str] | None
    lattice_map: dict[str, str] | None
    failure: dict | None = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "semilattice_map": self.semilattice_map,
            "lattice_map": self.lattice_map,
            "failure": self.failure,
        }


def theorem_3_6_isos(S: JoinSemilattice, L: FiniteLattice) -> Thm36Report:
    """Check a ↦ ↓a onto the compacts of the ideal completion, and
    x ↦ ↓x ∩ K(L) onto the ideals of the compacts."""
    idl = ideal_completion(S)
    k_of_idl = compacts(idl)
    f = dict(zip(S.elements, ideal_names(S)))
    if not is_order_iso(S.poset, k_of_idl, f):
        return Thm36Report(False, None, None, {"law": "thm3.6(iii)", "map": f})

    K = k_semilattice(L)
    g = dict(zip(L.elements, ideal_names(K)))
    if not is_order_iso(L.poset, ideal_completion(K).poset, g):
        return Thm36Report(False, f, None, {"law": "thm3.6(iv)", "map": g})
    return Thm36Report(True, f, g)
