"""Finite posets, semilattices, lattices, ideals, filters, closure operators.

This is the shared substrate: every other module builds its structures on the
validated order types defined here.  All values are immutable after
construction and all operations are pure; exhaustive subset scans are guarded
by a configurable element cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Mapping

from . import kernels
from .canon import set_id
from .errors import SizeGuardExceeded, ValidationError

# Default cap for 2^n subset enumerations (directed sets, ideals, opens).
SUBSET_SCAN_GUARD = 20
# Below this size the ideal/filter family is found by a full definitional
# subset scan; above it the principal family is constructed directly (the two
# agree: every finite directed set contains its maximum).
IDEAL_SCAN_GUARD = 16
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
        up = []
        for i in kept:
            m = 0
            for j in _bits(self.up_masks[i] & km):
                m |= 1 << at[j]
            up.append(m)
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
            above = 0
            for j in _bits(cone):
                above |= strict[j]
            out.extend((a, els[k]) for k in _bits(cone & ~above))
        return sorted(out)


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _memo(value, name: str) -> dict:
    """A cache of results derived from the frozen ``value``, kept in its
    instance ``__dict__`` the way ``cached_property`` keeps its results.

    Dataclass equality, hashing and ``repr`` read the fields only, so the
    cache changes none of them; it lives and dies with ``value``.
    """
    return value.__dict__.setdefault(name, {})


def compacts(L: FiniteLattice, guard: int = SUBSET_SCAN_GUARD) -> FinitePoset:
    """Sub-poset of compact elements, by the definitional directed-set test.

    Memoized on ``L`` per guard.
    """
    memo = _memo(L, "_compacts")
    if guard not in memo:
        P = L.poset
        _guard("compacts", P.n, guard)
        mask = kernels.compact_mask(P.up_masks, P.down_masks, L.join_table)
        memo[guard] = P.restrict(P.set_of(mask))
    return memo[guard]


def is_algebraic(L: FiniteLattice, guard: int = SUBSET_SCAN_GUARD) -> bool:
    """Every element is the join of the compacts below it."""
    K = set(compacts(L, guard).elements)
    for x in L.elements:
        below = [c for c in K if L.le(c, x)]
        if L.join_all(below) != x:
            return False
    return True


def principal_ideal(P: FinitePoset, x: str) -> frozenset[str]:
    return down_set(P, [x])


def ideals(S: JoinSemilattice, scan_guard: int = IDEAL_SCAN_GUARD) -> tuple[Ideal, ...]:
    """All ideals, sorted by canonical encoding; memoized on ``S`` per scan
    guard.

    Below the scan guard the family is found by the definitional subset scan
    and checked against the principal family; in a finite order the two
    always coincide.
    """
    memo = _memo(S, "_ideals")
    if scan_guard not in memo:
        memo[scan_guard] = _scan_ideals(S.poset, scan_guard)
    return memo[scan_guard]


def _scan_ideals(P: FinitePoset, scan_guard: int) -> tuple[Ideal, ...]:
    principal = {principal_ideal(P, x) for x in P.elements}
    if P.n <= scan_guard:
        scanned = {
            P.set_of(m) for m in kernels.ideal_masks(P.down_masks, P.up_masks)
        }
        if scanned != principal:
            raise ValidationError(
                "non-principal ideal found in a finite order",
                law="ideal:principal",
                witness={"extra": sorted(set_id(s) for s in scanned ^ principal)},
            )
    return tuple(Ideal(P, m) for m in sorted(principal, key=set_id))


def ideal_completion(S: JoinSemilattice, scan_guard: int = IDEAL_SCAN_GUARD) -> FiniteLattice:
    """Lattice of all ideals under inclusion; meets are intersections, joins
    are the least ideals containing the union.

    Memoized on ``S`` per scan guard, so the ideal scan and its checks run
    once for each semilattice value.
    """
    memo = _memo(S, "_ideal_completion")
    if scan_guard not in memo:
        memo[scan_guard] = _build_ideal_completion(S, scan_guard)
    return memo[scan_guard]


def _build_ideal_completion(S: JoinSemilattice, scan_guard: int) -> FiniteLattice:
    fam = [i.members for i in ideals(S, scan_guard)]
    lat, _ = lattice_from_sets(fam)
    names = {set_id(m) for m in fam}
    if set(lat.elements) != names:
        raise ValidationError(
            "ideal completion elements are not the ideals' names",
            law="ideal:completion",
            witness={"extra": sorted(set(lat.elements) ^ names)},
        )
    return lat


def _join_dual(S: MeetSemilattice | JoinSemilattice) -> JoinSemilattice:
    """The join-semilattice whose ideals are the filters of ``S``; a
    join-semilattice stands for its dual, whose dual is ``S`` again."""
    return S if isinstance(S, JoinSemilattice) else S._dual


def filters(
    S: MeetSemilattice | JoinSemilattice, scan_guard: int = IDEAL_SCAN_GUARD
) -> list[Filter]:
    """All filters of a meet-semilattice with top, sorted by encoding.

    A join-semilattice is accepted too and is dualized first.
    """
    P = S.poset.dual() if isinstance(S, JoinSemilattice) else S.poset
    return [Filter(P, i.members) for i in ideals(_join_dual(S), scan_guard)]


def flt_lattice(
    S: MeetSemilattice | JoinSemilattice, scan_guard: int = IDEAL_SCAN_GUARD
) -> FiniteLattice:
    """Lattice of filters under inclusion.

    By order duality it is the ideal completion of the dual join-semilattice:
    the filters of ``S`` are the ideals of its dual, with the same member
    sets, names and bounds.  The completion is memoized on that dual.
    """
    return ideal_completion(_join_dual(S), scan_guard)


def lattice_from_sets(
    family: Iterable[frozenset[str]],
) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
    """Build the lattice of a family of sets ordered by inclusion.

    The family must form a lattice under inclusion, as a closure system or a
    family closed under unions and intersections does; nothing checks it, so
    the units are read at once and the bound tables on first read.  Returns
    the lattice and the decoding table from canonical element names back to
    the sets.
    """
    fam = sorted(set(family), key=set_id)
    names = tuple(set_id(m) for m in fam)
    point = {p: k for k, p in enumerate(set().union(*fam))}
    masks = []
    for members in fam:
        m = 0
        for p in members:
            m |= 1 << point[p]
        masks.append(m)
    P = FinitePoset._from_masks(names, *kernels.inclusion_cones(masks, len(point)))
    return _by_construction(FiniteLattice, P), dict(zip(names, fam))


def k_semilattice(L: FiniteLattice, guard: int = SUBSET_SCAN_GUARD) -> JoinSemilattice:
    """Compact elements with the induced order and joins; memoized on ``L``
    per guard."""
    memo = _memo(L, "_k_semilattice")
    if guard not in memo:
        memo[guard] = JoinSemilattice(compacts(L, guard))
    return memo[guard]


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


def powerset_lattice(base: Iterable[str], guard: int = POWERSET_GUARD) -> FiniteLattice:
    """The lattice of all subsets of ``base``, elements canonically encoded."""
    base = tuple(base)
    _guard("powerset_lattice", len(base), guard)
    fam = []
    for m in range(1 << len(base)):
        fam.append(frozenset(x for i, x in enumerate(base) if m >> i & 1))
    lat, _ = lattice_from_sets(fam)
    return lat


def powerset_members(base: Iterable[str]) -> dict[str, frozenset[str]]:
    base = tuple(base)
    out = {}
    for m in range(1 << len(base)):
        s = frozenset(x for i, x in enumerate(base) if m >> i & 1)
        out[set_id(s)] = s
    return out


def finite_extension(op: ClosureOperator, base: Iterable[str]) -> ClosureOperator:
    """Extend a powerset closure by unioning closures of finite subsets.

    On a finite carrier the extension equals the original operator; this is
    asserted after the table is computed literally.
    """
    base = tuple(base)
    members = powerset_members(base)
    lat = powerset_lattice(base)
    if op.poset != lat.poset:
        raise ValidationError(
            "carrier is not the powerset lattice of the given base", law="closure:carrier"
        )
    values = []
    for x in lat.elements:
        xs = members[x]
        acc: frozenset[str] = frozenset()
        for m in range(1 << len(base)):
            sub = frozenset(b for i, b in enumerate(base) if m >> i & 1)
            if sub <= xs:
                acc |= members[op.apply(set_id(sub))]
        values.append(set_id(acc))
    ext = ClosureOperator(lat.poset, tuple(values))
    if ext.values != op.values:
        raise ValidationError(
            "finite extension disagrees with the original closure on a finite carrier",
            law="closure:finite-extension",
            witness={
                "at": next(
                    x for x, a, b in zip(lat.elements, ext.values, op.values) if a != b
                )
            },
        )
    return ext


# ---------------------------------------------------------------------------
# primes, irreducibles, distributivity


def meet_primes(L: FiniteLattice) -> frozenset[str]:
    """Meet-prime elements, excluding the top (which passes vacuously)."""
    out = []
    for x in L.elements:
        if x == L.top:
            continue
        if all(
            L.le(y, x) or L.le(z, x)
            for y in L.elements
            for z in L.elements
            if L.le(L.meet(y, z), x)
        ):
            out.append(x)
    return frozenset(out)


def join_primes(L: FiniteLattice) -> frozenset[str]:
    return meet_primes(L.dual())


def meet_irreducibles(L: FiniteLattice) -> frozenset[str]:
    out = []
    for x in L.elements:
        if x == L.top:
            continue
        if all(
            y == x or z == x
            for y in L.elements
            for z in L.elements
            if L.meet(y, z) == x
        ):
            out.append(x)
    return frozenset(out)


def join_irreducibles(L: FiniteLattice) -> frozenset[str]:
    return meet_irreducibles(L.dual())


def is_distributive(L: FiniteLattice) -> tuple[bool, tuple[str, str, str] | None]:
    """Check x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z) on all triples; witness on failure."""
    for x in L.elements:
        for y in L.elements:
            for z in L.elements:
                if L.meet(x, L.join(y, z)) != L.join(L.meet(x, y), L.meet(x, z)):
                    return False, (x, y, z)
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
    used: set[str] = set()

    def bt(i: int) -> bool:
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
                if bt(i + 1):
                    return True
                del assign[x]
                used.remove(y)
        return False

    return dict(assign) if bt(0) else None


def is_order_iso(P: FinitePoset, Q: FinitePoset, f: Mapping[str, str]) -> bool:
    """Verify that ``f`` is a bijective order-embedding of P onto Q."""
    if set(f.keys()) != set(P.elements) or set(f.values()) != set(Q.elements):
        return False
    if len(set(f.values())) != len(P.elements):
        return False
    return all(P.le(a, b) == Q.le(f[a], f[b]) for a in P.elements for b in P.elements)


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


def theorem_3_6_isos(
    S: JoinSemilattice, L: FiniteLattice, guard: int = SUBSET_SCAN_GUARD
) -> Thm36Report:
    """Check a ↦ ↓a onto the compacts of the ideal completion, and
    x ↦ ↓x ∩ K(L) onto the ideals of the compacts."""
    idl = ideal_completion(S)
    k_of_idl = compacts(idl, guard)
    f = {a: set_id(principal_ideal(S.poset, a)) for a in S.elements}
    if set(f.values()) != set(k_of_idl.elements) or not is_order_iso(
        S.poset, k_of_idl, f
    ):
        return Thm36Report(False, None, None, {"law": "thm3.6(iii)", "map": f})

    KL = k_semilattice(L, guard)
    idl_k = ideal_completion(KL)
    g = {
        x: set_id(down_set(L.poset, [x]) & set(KL.elements)) for x in L.elements
    }
    if set(g.values()) != set(idl_k.elements) or not is_order_iso(L.poset, idl_k.poset, g):
        return Thm36Report(False, f, None, {"law": "thm3.6(iv)", "map": g})
    return Thm36Report(True, f, g)
