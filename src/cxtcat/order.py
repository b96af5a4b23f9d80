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


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order; element order fixes canonical enumeration."""

    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]

    def __post_init__(self):
        seen = set()
        for x in self.elements:
            if x in seen:
                raise ValidationError(
                    f"duplicate element {x!r}", law="poset:elements", witness={"element": x}
                )
            seen.add(x)
        unknown = [(a, b) for a, b in self.leq if a not in seen or b not in seen]
        if unknown:
            a, b = min(unknown)
            raise ValidationError(
                f"leq references unknown element in ({a!r}, {b!r})",
                law="unknown-element",
                witness={"pair": [a, b]},
            )
        for x in self.elements:
            if (x, x) not in self.leq:
                raise ValidationError(
                    f"reflexivity fails at {x!r}", law="poset:reflexivity", witness={"pair": [x, x]}
                )
        cycles = [(a, b) for a, b in self.leq if a != b and (b, a) in self.leq]
        if cycles:
            a, b = min(cycles)
            raise ValidationError(
                f"antisymmetry fails at ({a!r}, {b!r})",
                law="poset:antisymmetry",
                witness={"pair": [a, b]},
            )
        up = self.up_masks
        for i, cone in enumerate(up):
            for j in _bits(cone):
                missing = up[j] & ~cone
                if missing:
                    a, b = self.elements[i], self.elements[j]
                    c = self.elements[(missing & -missing).bit_length() - 1]
                    raise ValidationError(
                        f"transitivity fails: {a!r} <= {b!r} <= {c!r} but not {a!r} <= {c!r}",
                        law="poset:transitivity",
                        witness={"pair": [a, c], "via": b},
                    )

    @property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def up_masks(self) -> list[int]:
        idx = self.index
        masks = [0] * self.n
        for a, b in self.leq:
            masks[idx[a]] |= 1 << idx[b]
        return masks

    @cached_property
    def down_masks(self) -> list[int]:
        idx = self.index
        masks = [0] * self.n
        for a, b in self.leq:
            masks[idx[b]] |= 1 << idx[a]
        return masks

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

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
        return FinitePoset(self.elements, frozenset((b, a) for a, b in self.leq))

    def restrict(self, members: Iterable[str]) -> FinitePoset:
        keep = set(members)
        self.check_members(keep)
        elems = tuple(x for x in self.elements if x in keep)
        return FinitePoset(
            elems, frozenset((a, b) for a, b in self.leq if a in keep and b in keep)
        )

    def maximal(self, xs: Iterable[str]) -> frozenset[str]:
        xs = set(xs)
        return frozenset(x for x in xs if all(not (self.le(x, y) and x != y) for y in xs))

    def minimal(self, xs: Iterable[str]) -> frozenset[str]:
        xs = set(xs)
        return frozenset(x for x in xs if all(not (self.le(y, x) and x != y) for y in xs))

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


def down_set(P: FinitePoset, xs: Iterable[str]) -> frozenset[str]:
    xs = frozenset(xs)
    P.check_members(xs)
    return frozenset(y for y in P.elements if any((y, x) in P.leq for x in xs))


def up_set(P: FinitePoset, xs: Iterable[str]) -> frozenset[str]:
    xs = frozenset(xs)
    P.check_members(xs)
    return frozenset(y for y in P.elements if any((x, y) in P.leq for x in xs))


def _lub_index(P: FinitePoset, i: int, j: int) -> int | None:
    ub = P.up_masks[i] & P.up_masks[j]
    for k in range(P.n):
        if ub >> k & 1 and P.up_masks[k] == ub:
            return k
    return None


def _glb_index(P: FinitePoset, i: int, j: int) -> int | None:
    lb = P.down_masks[i] & P.down_masks[j]
    for k in range(P.n):
        if lb >> k & 1 and P.down_masks[k] == lb:
            return k
    return None


def _check_table(P: FinitePoset, table, kind: str, cones) -> None:
    """Verify a binary-bound table in O(n^2): the entry for (a, b) is the
    required bound exactly when its cone is the intersection of theirs."""
    n = P.n
    if len(table) != n or any(len(row) != n for row in table):
        raise ValidationError(f"{kind} table has wrong shape", law=f"{kind}:table")
    idx = P.index
    masks = cones(P)
    for i, a in enumerate(P.elements):
        for j, b in enumerate(P.elements):
            v = table[i][j]
            if v not in idx:
                raise ValidationError(
                    f"{kind}({a!r},{b!r}) = {v!r} is not an element",
                    law="unknown-element",
                    witness={"pair": [a, b], "value": v},
                )
            if masks[idx[v]] != masks[i] & masks[j]:
                raise ValidationError(
                    f"{kind}({a!r},{b!r}) = {v!r} is not the required bound",
                    law=f"{kind}:bound",
                    witness={"pair": [a, b], "value": v},
                )


@dataclass(frozen=True)
class JoinSemilattice:
    """Poset with a least element in which every pair has a least upper bound."""

    poset: FinitePoset
    bottom: str
    join_table: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        P = self.poset
        if P.n == 0:
            raise ValidationError("join-semilattice needs a least element", law="join:bottom")
        P.check_members([self.bottom])
        if P.up_masks[P.index[self.bottom]] != (1 << P.n) - 1:
            raise ValidationError(
                f"{self.bottom!r} is not below every element",
                law="join:bottom",
                witness={"element": self.bottom},
            )
        _check_table(P, self.join_table, "join", lambda Q: Q.up_masks)

    @classmethod
    def from_poset(cls, P: FinitePoset) -> JoinSemilattice:
        bottom = _least(P)
        if bottom is None:
            raise ValidationError("poset has no least element", law="join:bottom")
        table = _make_table(P, _lub_index, "join")
        return cls(P, bottom, table)

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def le(self, a: str, b: str) -> bool:
        return self.poset.le(a, b)

    def join(self, a: str, b: str) -> str:
        idx = self.poset.index
        return self.join_table[idx[a]][idx[b]]

    def join_all(self, xs: Iterable[str]) -> str:
        out = self.bottom
        for x in xs:
            out = self.join(out, x)
        return out

    def dual(self) -> MeetSemilattice:
        return MeetSemilattice(self.poset.dual(), self.bottom, self.join_table)


@dataclass(frozen=True)
class MeetSemilattice:
    """Dual presentation: poset with a top and a greatest-lower-bound table."""

    poset: FinitePoset
    top: str
    meet_table: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        P = self.poset
        if P.n == 0:
            raise ValidationError("meet-semilattice needs a greatest element", law="meet:top")
        P.check_members([self.top])
        if P.down_masks[P.index[self.top]] != (1 << P.n) - 1:
            raise ValidationError(
                f"{self.top!r} is not above every element",
                law="meet:top",
                witness={"element": self.top},
            )
        _check_table(P, self.meet_table, "meet", lambda Q: Q.down_masks)

    @classmethod
    def from_poset(cls, P: FinitePoset) -> MeetSemilattice:
        top = _greatest(P)
        if top is None:
            raise ValidationError("poset has no greatest element", law="meet:top")
        table = _make_table(P, _glb_index, "meet")
        return cls(P, top, table)

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def le(self, a: str, b: str) -> bool:
        return self.poset.le(a, b)

    def meet(self, a: str, b: str) -> str:
        idx = self.poset.index
        return self.meet_table[idx[a]][idx[b]]

    def meet_all(self, xs: Iterable[str]) -> str:
        out = self.top
        for x in xs:
            out = self.meet(out, x)
        return out

    def dual(self) -> JoinSemilattice:
        return JoinSemilattice(self.poset.dual(), self.top, self.meet_table)


@dataclass(frozen=True)
class FiniteLattice:
    """Finite lattice: join and meet tables plus bottom and top.

    Binary bounds together with bottom and top give finite completeness.
    """

    poset: FinitePoset
    bottom: str
    top: str
    join_table: tuple[tuple[str, ...], ...]
    meet_table: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        P = self.poset
        if P.n == 0:
            raise ValidationError("lattice cannot be empty", law="lattice:bounds")
        P.check_members([self.bottom, self.top])
        full = (1 << P.n) - 1
        if P.up_masks[P.index[self.bottom]] != full:
            raise ValidationError("bottom is not least", law="lattice:bounds")
        if P.down_masks[P.index[self.top]] != full:
            raise ValidationError("top is not greatest", law="lattice:bounds")
        _check_table(P, self.join_table, "join", lambda Q: Q.up_masks)
        _check_table(P, self.meet_table, "meet", lambda Q: Q.down_masks)

    @classmethod
    def from_poset(cls, P: FinitePoset) -> FiniteLattice:
        bottom, top = _least(P), _greatest(P)
        if bottom is None or top is None:
            raise ValidationError("poset lacks bottom or top", law="lattice:bounds")
        return cls(P, bottom, top, _make_table(P, _lub_index, "join"), _make_table(P, _glb_index, "meet"))

    @property
    def elements(self) -> tuple[str, ...]:
        return self.poset.elements

    def le(self, a: str, b: str) -> bool:
        return self.poset.le(a, b)

    def join(self, a: str, b: str) -> str:
        idx = self.poset.index
        return self.join_table[idx[a]][idx[b]]

    def meet(self, a: str, b: str) -> str:
        idx = self.poset.index
        return self.meet_table[idx[a]][idx[b]]

    def join_all(self, xs: Iterable[str]) -> str:
        out = self.bottom
        for x in xs:
            out = self.join(out, x)
        return out

    def meet_all(self, xs: Iterable[str]) -> str:
        out = self.top
        for x in xs:
            out = self.meet(out, x)
        return out

    def dual(self) -> FiniteLattice:
        return FiniteLattice(
            self.poset.dual(), self.top, self.bottom, self.meet_table, self.join_table
        )

    def as_join_semilattice(self) -> JoinSemilattice:
        return JoinSemilattice(self.poset, self.bottom, self.join_table)

    def as_meet_semilattice(self) -> MeetSemilattice:
        return MeetSemilattice(self.poset, self.top, self.meet_table)

    @cached_property
    def join_flat(self) -> list[int]:
        idx = self.poset.index
        return [idx[v] for row in self.join_table for v in row]


def _least(P: FinitePoset) -> str | None:
    full = (1 << P.n) - 1
    for i, x in enumerate(P.elements):
        if P.up_masks[i] == full:
            return x
    return None


def _greatest(P: FinitePoset) -> str | None:
    full = (1 << P.n) - 1
    for i, x in enumerate(P.elements):
        if P.down_masks[i] == full:
            return x
    return None


def _make_table(P: FinitePoset, pick, kind: str) -> tuple[tuple[str, ...], ...]:
    rows = []
    for i, a in enumerate(P.elements):
        row = []
        for j, b in enumerate(P.elements):
            k = pick(P, i, j)
            if k is None:
                raise ValidationError(
                    f"{kind} of {a!r} and {b!r} does not exist",
                    law=f"{kind}:bound",
                    witness={"pair": [a, b]},
                )
            row.append(P.elements[k])
        rows.append(tuple(row))
    return tuple(rows)


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
        for a, b in sorted(self.leq_pairs()):
            if not P.le(self.apply(a), self.apply(b)):
                raise ValidationError(
                    f"not monotone on ({a!r}, {b!r})",
                    law="closure:monotone",
                    witness={"pair": [a, b]},
                )

    def leq_pairs(self):
        return self.poset.leq

    def apply(self, x: str) -> str:
        return self.values[self.poset.index[x]]

    def image(self) -> frozenset[str]:
        return frozenset(self.values)


# ---------------------------------------------------------------------------
# compactness and completions


def _guard(what: str, n: int, cap: int) -> None:
    if n > cap:
        raise SizeGuardExceeded(what, n, cap)


def compacts(L: FiniteLattice, guard: int = SUBSET_SCAN_GUARD) -> FinitePoset:
    """Sub-poset of compact elements, by the definitional directed-set test."""
    P = L.poset
    _guard("compacts", P.n, guard)
    mask = kernels.compact_mask(P.up_masks, P.down_masks, L.join_flat)
    return P.restrict(P.set_of(mask))


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


def ideals(S: JoinSemilattice, scan_guard: int = IDEAL_SCAN_GUARD) -> list[Ideal]:
    """All ideals, sorted by canonical encoding.

    Below the scan guard the family is found by the definitional subset scan
    and checked against the principal family; in a finite order the two
    always coincide.
    """
    P = S.poset
    principal = {frozenset(principal_ideal(P, x)) for x in P.elements}
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
    members = sorted(principal, key=set_id)
    return [Ideal(P, m) for m in members]


def ideal_completion(S: JoinSemilattice, scan_guard: int = IDEAL_SCAN_GUARD) -> FiniteLattice:
    """Lattice of all ideals under inclusion; meets are intersections, joins
    are the least ideals containing the union."""
    P = S.poset
    fam = [i.members for i in ideals(S, scan_guard)]
    by_set = {m: set_id(m) for m in fam}
    gen = {}
    for m in fam:
        mx = [x for x in m if all(P.le(y, x) for y in m)]
        gen[m] = mx[0]

    def join_of(a: frozenset, b: frozenset) -> frozenset:
        return frozenset(principal_ideal(P, S.join(gen[a], gen[b])))

    def meet_of(a: frozenset, b: frozenset) -> frozenset:
        return a & b

    lat, _ = lattice_from_sets(fam, join_of, meet_of)
    if set(lat.elements) != set(by_set.values()):
        raise ValidationError(
            "ideal completion elements are not the ideals' names",
            law="ideal:completion",
            witness={"extra": sorted(set(lat.elements) ^ set(by_set.values()))},
        )
    return lat


def _as_meet_semilattice(S: MeetSemilattice | JoinSemilattice) -> MeetSemilattice:
    return S.dual() if isinstance(S, JoinSemilattice) else S


def filters(
    S: MeetSemilattice | JoinSemilattice, scan_guard: int = IDEAL_SCAN_GUARD
) -> list[Filter]:
    """All filters of a meet-semilattice with top, sorted by encoding.

    A join-semilattice is accepted too and is dualized first.
    """
    S = _as_meet_semilattice(S)
    P = S.poset
    dual_ideals = ideals(S.dual(), scan_guard)
    return [Filter(P, i.members) for i in dual_ideals]


def flt_lattice(
    S: MeetSemilattice | JoinSemilattice, scan_guard: int = IDEAL_SCAN_GUARD
) -> FiniteLattice:
    """Lattice of filters under inclusion."""
    S = _as_meet_semilattice(S)
    P = S.poset
    fam = [f.members for f in filters(S, scan_guard)]
    gen = {}
    for m in fam:
        mn = [x for x in m if all(P.le(x, y) for y in m)]
        gen[m] = mn[0]

    def join_of(a: frozenset, b: frozenset) -> frozenset:
        return frozenset(up_set(P, [S.meet(gen[a], gen[b])]))

    def meet_of(a: frozenset, b: frozenset) -> frozenset:
        return a & b

    lat, _ = lattice_from_sets(fam, join_of, meet_of)
    return lat


def lattice_from_sets(
    family: Iterable[frozenset[str]],
    join_of: Callable[[frozenset, frozenset], frozenset],
    meet_of: Callable[[frozenset, frozenset], frozenset],
) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
    """Build a lattice over a family of sets ordered by inclusion.

    ``join_of``/``meet_of`` must land inside the family.  Returns the lattice
    and the decoding table from canonical element names back to the sets.
    """
    fam = sorted(set(family), key=set_id)
    names = {m: set_id(m) for m in fam}
    elements = tuple(names[m] for m in fam)
    leq = frozenset(
        (names[a], names[b]) for a in fam for b in fam if a <= b
    )
    poset = FinitePoset(elements, leq)
    jt, mt = [], []
    for a in fam:
        jr, mr = [], []
        for b in fam:
            j, m = join_of(a, b), meet_of(a, b)
            if j not in names or m not in names:
                raise ValidationError(
                    "family not closed under its own bounds",
                    law="lattice:closure",
                    witness={"pair": [names[a], names[b]]},
                )
            jr.append(names[j])
            mr.append(names[m])
        jt.append(tuple(jr))
        mt.append(tuple(mr))
    bottom, top = _least(poset), _greatest(poset)
    if bottom is None or top is None:
        raise ValidationError("set family lacks bottom or top", law="lattice:bounds")
    lat = FiniteLattice(poset, bottom, top, tuple(jt), tuple(mt))
    return lat, {names[m]: m for m in fam}


def k_semilattice(L: FiniteLattice, guard: int = SUBSET_SCAN_GUARD) -> JoinSemilattice:
    """Compact elements with the induced order and joins."""
    K = compacts(L, guard)
    return JoinSemilattice.from_poset(K)


# ---------------------------------------------------------------------------
# closure systems


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
    lat, _ = lattice_from_sets(fam, lambda a, b: a | b, lambda a, b: a & b)
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
