"""Scott topologies, specialization orders, locales and their points.

The spacial face: a finite lattice's Scott opens (definitionally the upper
sets inaccessible by directed suprema), the locale of lower sets of a
meet-semilattice, principal prime ideals as points, and the three-way
homeomorphism tying lattice, filter space, and point space together.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from . import order
from .canon import set_id
from .errors import ValidationError
from .order import (
    FiniteLattice,
    FinitePoset,
    JoinSemilattice,
    MeetSemilattice,
    _bits,
    _guard,
    _join_dual,
    _prime_breach,
    compacts,
    down_set,
    filters,
    flt_lattice,
    ideal_names,
    is_algebraic,
    is_distributive,
    is_order_iso,
    lattice_from_masks,
    lattice_from_sets,
    meet_primes,
    up_set,
)

SCOTT_GUARD = 14
FRAME_SUBSET_CAP = 10


@dataclass(frozen=True)
class TopSpace:
    """Finite topological space: empty and full sets present, closed under
    (binary, hence all) unions and intersections."""

    points: tuple[str, ...]
    opens: frozenset[frozenset[str]]

    def __post_init__(self):
        _check_points(self.points)
        pts = set(self.points)
        for o in self.opens:
            if not o <= pts:
                raise ValidationError(
                    "open set contains unknown points",
                    law="unknown-element",
                    witness={"open": sorted(o)},
                )
        if frozenset() not in self.opens or frozenset(pts) not in self.opens:
            raise ValidationError(
                "empty or full set missing", law="space:bounds"
            )
        # Pairs are walked as masks, each unordered pair once: both tests
        # are symmetric and hold on the diagonal, so the first failing pair
        # (i, j) of the ordered walk has i < j.
        bit = {p: 1 << i for i, p in enumerate(self.points)}
        masks = [sum(map(bit.__getitem__, o)) for o in self.sorted_opens]
        have = set(masks)
        for i, a in enumerate(masks):
            rest = masks[i + 1:]
            if {a | b for b in rest} <= have and {a & b for b in rest} <= have:
                continue
            for j, b in enumerate(rest, i + 1):
                if a | b not in have:
                    law, what = "space:unions", "union"
                elif a & b not in have:
                    law, what = "space:intersections", "intersection"
                else:
                    continue
                pair = [sorted(self.sorted_opens[i]), sorted(self.sorted_opens[j])]
                raise ValidationError(
                    f"opens not closed under {what}", law=law, witness={"pair": pair}
                )

    @cached_property
    def sorted_opens(self) -> list[frozenset[str]]:
        return sorted(self.opens, key=set_id)


def _check_points(points: tuple[str, ...]) -> None:
    if len(set(points)) != len(points):
        repeated = min(x for x, k in Counter(points).items() if k > 1)
        raise ValidationError("duplicate point", law="space:points", witness={"point": repeated})


def _upper_set_space(P: FinitePoset, masks: list[int]) -> TopSpace:
    """``TopSpace`` of the upper sets of ``P``, given as masks.  They hold
    the empty and the full set and are closed under unions and
    intersections, so only the points are checked (a lattice built from
    sets may repeat a name); ``tests/`` rebuilds every such space through
    the public constructor."""
    _check_points(P.elements)
    T = object.__new__(TopSpace)
    T.__dict__.update(points=P.elements, opens=frozenset(map(P.set_of, masks)))
    return T


@dataclass(frozen=True)
class Locale:
    """Finite lattice satisfying the frame distributivity law.

    ``Locale(L)`` checks binary distributivity with a witness and, on
    carriers up to ``FRAME_SUBSET_CAP`` elements, the subset form of the
    law.  ``_set_family_locale`` builds the locale of a family of sets closed
    under unions and intersections, which checks binary distributivity only.
    """

    lattice: FiniteLattice

    def __post_init__(self):
        L = self.lattice
        _check_distributive(L)
        if L.poset.n <= FRAME_SUBSET_CAP:
            els = L.elements
            for m in range(1 << len(els)):
                sub = [e for i, e in enumerate(els) if m >> i & 1]
                sup = L.join_all(sub)
                for x in els:
                    if L.meet(x, sup) != L.join_all(L.meet(x, s) for s in sub):
                        raise ValidationError(
                            "frame law fails on a subset",
                            law="locale:distributivity",
                            witness={"element": x, "subset": sub},
                        )

    @property
    def elements(self) -> tuple[str, ...]:
        return self.lattice.elements


def _check_distributive(L: FiniteLattice) -> None:
    ok, witness = is_distributive(L)
    if not ok:
        raise ValidationError(
            "frame law fails on a triple",
            law="locale:distributivity",
            witness={"triple": list(witness)},
        )


def _set_family_locale(L: FiniteLattice) -> Locale:
    """``Locale(L)`` for the inclusion lattice of a family of sets closed
    under unions and intersections.  Binary distributivity is checked; the
    subset form of the frame law is not, as a finite distributive lattice
    meets it for every subset (``tests/`` runs it as the oracle)."""
    _check_distributive(L)
    loc = object.__new__(Locale)
    loc.__dict__["lattice"] = L
    return loc


@dataclass(frozen=True)
class LocalePoint:
    """Principal prime ideal, named by its meet-prime generator."""

    lattice: FiniteLattice
    generator: str
    members: frozenset[str]

    def __post_init__(self):
        L = self.lattice
        P = L.poset
        if self.generator == L.top:
            raise ValidationError("point generated by the top", law="point:proper")
        if self.members != down_set(P, [self.generator]):
            raise ValidationError(
                "point is not the cone of its generator",
                law="point:principal",
                witness={"generator": self.generator},
            )
        breach = _prime_breach(L.meet_table, P.down_masks[P.index[self.generator]], P.n)
        if breach:
            x, y = breach
            raise ValidationError(
                "point is not prime",
                law="point:prime",
                witness={"pair": [P.elements[x], P.elements[y]]},
            )


def scott_topology(L: FiniteLattice, guard: int | None = None) -> TopSpace:
    """The upper sets, which on a finite lattice are exactly the Scott opens.
    Up to ``order.DIRECTED_SCAN_CAP`` elements the definitional test of every
    subset must agree; a mismatch names the least subset, by ``set_id``, on
    which the two differ.  ``guard`` defaults to ``SCOTT_GUARD``."""
    P = L.poset
    _guard("scott_topology", P.n, SCOTT_GUARD if guard is None else guard)
    masks = order._upper_set_masks(P)
    scan = _scott_open_scan(L) if P.n <= order.DIRECTED_SCAN_CAP else masks
    if scan != masks:
        count = Counter(scan)
        count.subtract(masks)
        differ = min((P.set_of(m) for m, k in count.items() if k), key=set_id)
        raise ValidationError(
            "scott opens of a finite lattice are not the upper sets",
            law="scott:upper-sets",
            witness={"open": sorted(differ)},
        )
    return _upper_set_space(P, masks)


def _scott_open_scan(L: FiniteLattice) -> list[int]:
    """Every Scott-open subset by definition, as masks in increasing order:
    an upper set that meets each directed set whose supremum it holds."""
    up = L.poset.up_masks
    directed = order._directed_sups(L)
    return [
        u
        for u in range(1 << L.poset.n)
        if not any(up[i] & ~u for i in _bits(u))
        and all(d & u or not u >> sup & 1 for d, sup in directed)
    ]


def specialization_order(T: TopSpace) -> FinitePoset:
    """Order points by containment in opens; fails if two points are
    topologically indistinguishable."""
    pairs = set()
    for x in T.points:
        for y in T.points:
            if all(y in o for o in T.opens if x in o):
                pairs.add((x, y))
    for x, y in sorted(pairs):
        if x != y and (y, x) in pairs:
            raise ValidationError(
                f"specialization preorder is not antisymmetric on ({x!r}, {y!r})",
                law="specialization:antisymmetry",
                witness={"pair": [x, y]},
            )
    return FinitePoset(T.points, frozenset(pairs))


def open_set_lattice(T: TopSpace) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
    return lattice_from_sets(T.opens)


@dataclass(frozen=True)
class BaseCoherenceReport:
    ok: bool
    base: tuple[frozenset[str], ...]
    compact_opens: tuple[frozenset[str], ...]
    details: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "base": [sorted(b) for b in self.base],
            "compact_opens": [sorted(c) for c in self.compact_opens],
            "details": list(self.details),
        }


def scott_base_and_coherence(L: FiniteLattice) -> BaseCoherenceReport:
    """Cones of compacts form a base; compact opens are their finite unions
    and are closed under intersection."""
    T = scott_topology(L)
    K = compacts(L)
    base = sorted((up_set(L.poset, [c]) for c in K.elements), key=set_id)
    details = []
    ok = True
    for o in T.sorted_opens:
        union = frozenset().union(*[b for b in base if b <= o]) if base else frozenset()
        if union != o:
            ok = False
            details.append(f"open {set_id(o)} is not the union of base members inside it")
    lat, decode = open_set_lattice(T)
    kopens = sorted((decode[e] for e in compacts(lat).elements), key=set_id)
    finite_unions = {
        frozenset().union(*(b for i, b in enumerate(base) if m >> i & 1))
        for m in range(1 << len(base))
    }
    if set(kopens) != finite_unions:
        ok = False
        details.append("compact opens differ from finite unions of base members")
    masks = [L.poset.mask_of(o) for o in kopens]
    closed = set(masks)
    for a in masks:
        for b in masks:
            if a & b not in closed:
                ok = False
                details.append(f"intersection {set_id(L.poset.set_of(a & b))} is not compact")
    return BaseCoherenceReport(ok, tuple(base), tuple(kopens), tuple(details))


def lower_sets(S: MeetSemilattice | JoinSemilattice) -> list[frozenset[str]]:
    """The lower sets of a meet-semilattice: the upper sets of its dual.

    A join-semilattice is accepted too and stands for its dual, as in
    ``order.filters``.
    """
    P, masks = _lower_set_masks(S)
    return sorted(map(P.set_of, masks), key=set_id)


def _lower_set_masks(S: MeetSemilattice | JoinSemilattice) -> tuple[FinitePoset, list[int]]:
    """The poset whose upper sets are the lower sets of ``S``, and those sets
    as masks over its elements."""
    P = _join_dual(S).poset
    _guard("lower_sets", P.n, order.SUBSET_SCAN_GUARD)
    return P, order._upper_set_masks(P)


def _lower_set_lattice(
    S: MeetSemilattice | JoinSemilattice,
) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
    """The lattice of the lower sets of ``S`` and its decode table, built once
    per value ``S``: the lemma and the locale of cor. 6.17 both read it."""
    return order._memo(S, "_lower_set_lattice", _build_lower_set_lattice)


def _build_lower_set_lattice(S):
    P, masks = _lower_set_masks(S)
    return lattice_from_masks(P.elements, masks)


def lower_set_locale(S: MeetSemilattice | JoinSemilattice) -> Locale:
    """Locale of all lower sets, checked against the Scott opens of the
    filter lattice; built once per value ``S``.  A join-semilattice stands
    for its dual."""
    return order._memo(S, "_stone_data", _stone_data)[0]


def _stone_data(S: MeetSemilattice | JoinSemilattice) -> tuple[Locale, TopSpace, dict[str, str]]:
    """The lower-set locale, the Scott space of ``flt_lattice(S)`` and ψ, the
    checked order-iso from Scott opens onto lower sets (by name).  Memoized
    on ``S`` as ``_stone_data``; none of the three holds ``S``."""
    lat, decode = _lower_set_lattice(S)
    loc = _set_family_locale(lat)
    sigma = scott_topology(flt_lattice(S))
    olat, _ = open_set_lattice(sigma)
    filt_members = {set_id(f.members): f.members for f in filters(S)}
    fmap = {
        e: set_id(name for name, members in filt_members.items() if members & decode[e])
        for e in lat.elements
    }
    if not is_order_iso(lat.poset, olat.poset, fmap):
        raise ValidationError(
            "lower-set locale does not match the Scott opens of the filter lattice",
            law="locale:lower-sets",
        )
    return loc, sigma, {o: e for e, o in fmap.items()}


def locale_points(loc: Locale) -> list[LocalePoint]:
    """All principal prime ideals, generated by the meet-primes."""
    L = loc.lattice
    pts = []
    for g in sorted(meet_primes(L)):
        pts.append(LocalePoint(L, g, down_set(L.poset, [g])))
    return pts


@dataclass(frozen=True)
class Lemma616Report:
    ok: bool
    filter_complements: tuple[str, ...]
    primes: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "filter_complements": list(self.filter_complements),
            "primes": list(self.primes),
        }


def lemma_6_16_check(S: MeetSemilattice | JoinSemilattice) -> Lemma616Report:
    """Meet-primes of the lattice of lower sets are exactly the filter
    complements.  A join-semilattice stands for its dual."""
    primes = sorted(meet_primes(_lower_set_lattice(S)[0]))
    universe = frozenset(S.elements)
    complements = sorted(set_id(universe - f.members) for f in filters(S))
    return Lemma616Report(complements == primes, tuple(complements), tuple(primes))


@dataclass(frozen=True)
class SpectralityReport:
    ok: bool
    algebraic: bool
    top_compact: bool
    compact_meets_closed: bool

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "algebraic": self.algebraic,
            "top_compact": self.top_compact,
            "compact_meets_closed": self.compact_meets_closed,
        }


def spectrality_check(loc: Locale) -> SpectralityReport:
    """Algebraic, top compact, compacts closed under meets.  On a finite
    lattice this holds by the finite theorem (every element is compact);
    the check that can fail is the cross-check inside ``compacts``."""
    L = loc.lattice
    alg = is_algebraic(L)
    K = compacts(L).elements
    top_ok = L.top in K
    k = L.poset.mask_of(K)
    M = L.meet_table
    meets_ok = all(k >> M[a][b] & 1 for a in _bits(k) for b in _bits(k))
    return SpectralityReport(alg and top_ok and meets_ok, alg, top_ok, meets_ok)


# ---------------------------------------------------------------------------
# the three homeomorphic spaces


@dataclass(frozen=True)
class Cor617Report:
    ok: bool
    scott_space: TopSpace
    filter_space: TopSpace
    point_space: TopSpace
    to_filters: dict[str, str]
    to_points: dict[str, str]
    details: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "open_counts": [
                len(self.scott_space.opens),
                len(self.filter_space.opens),
                len(self.point_space.opens),
            ],
            "to_filters": self.to_filters,
            "to_points": self.to_points,
            "details": list(self.details),
        }


def _image_space_check(
    name: str,
    src: TopSpace,
    dst: TopSpace,
    fmap: Mapping[str, str],
    details: list[str],
) -> None:
    if sorted(fmap) != sorted(src.points) or sorted(set(fmap.values())) != sorted(dst.points):
        details.append(f"{name}: point map is not a bijection")
        return
    images = {frozenset(fmap[x] for x in o) for o in src.opens}
    if images != dst.opens:
        details.append(f"{name}: open families do not correspond")


def corollary_6_17_spaces(S: MeetSemilattice | JoinSemilattice) -> Cor617Report:
    """Build the Scott space of ``flt_lattice(S)``, the filter space, and the
    point space of ``lower_set_locale(S)``, and check that the point
    bijections carry opens onto opens.  They come from isomorphisms known by
    construction: φ sends ``a`` to ``↑a`` (``ideal_names`` of the dual), and
    ψ inverts the map that ``lower_set_locale`` checks.  A join-semilattice
    stands for its dual.
    """
    L = flt_lattice(S)
    loc, sigma, psi = order._memo(S, "_stone_data", _stone_data)
    D = _join_dual(S)
    phi = dict(zip(D.elements, ideal_names(D)))
    if not is_order_iso(D.poset, compacts(L), phi):
        raise ValidationError(
            "dual of the semilattice is not isomorphic to the compacts",
            law="cor6.17:precondition",
        )

    # filter space: opens generated by the sets of filters containing a
    filt = filters(S)
    fnames = {set_id(f.members): f.members for f in filt}
    fpoints = tuple(sorted(fnames))
    basic = [
        frozenset(n for n in fpoints if a in fnames[n]) for a in S.elements
    ]
    fam = {frozenset(), frozenset(fpoints)}
    for g in basic:
        fam |= {s | g for s in fam}
    filter_space = TopSpace(fpoints, frozenset(fam))

    # point space: points of the locale, opens indexed by locale elements
    pts = locale_points(loc)
    pnames = tuple(sorted(p.generator for p in pts))
    by_gen = {p.generator: p for p in pts}
    popens = frozenset(
        frozenset(g for g in pnames if a not in by_gen[g].members)
        for a in loc.elements
    )
    point_space = TopSpace(pnames, popens)

    # explicit bijections induced by φ and ψ
    to_filters = {
        x: set_id(frozenset(a for a in S.elements if L.le(phi[a], x)))
        for x in L.elements
    }
    ldown = {x: down_set(L.poset, [x]) for x in L.elements}
    universe = frozenset(L.elements)
    to_points = {
        x: psi[set_id(universe - ldown[x])] for x in L.elements
    }

    details: list[str] = []
    _image_space_check("filters", sigma, filter_space, to_filters, details)
    _image_space_check("points", sigma, point_space, to_points, details)
    sizes = {len(sigma.opens), len(filter_space.opens), len(point_space.opens)}
    if len(sizes) != 1:
        details.append("open-set counts differ")
    return Cor617Report(
        not details, sigma, filter_space, point_space, to_filters, to_points, tuple(details)
    )


@dataclass(frozen=True)
class FrameHomReport:
    continuous: bool
    witness_open: frozenset[str] | None
    preimage: dict[str, str] | None
    preserves_meets: bool
    preserves_joins: bool

    def as_dict(self) -> dict:
        return {
            "continuous": self.continuous,
            "witness_open": sorted(self.witness_open) if self.witness_open is not None else None,
            "preserves_meets": self.preserves_meets,
            "preserves_joins": self.preserves_joins,
        }


def frame_hom_of_continuous(
    f: Mapping[str, str], X: TopSpace, Y: TopSpace
) -> FrameHomReport:
    """Inverse image of a continuous map, checked to preserve finite meets and
    arbitrary (here: finite) joins of opens; otherwise the witness open."""
    for x in X.points:
        if x not in f or f[x] not in set(Y.points):
            raise ValidationError(
                f"map is not total on points ({x!r})", law="unknown-element"
            )
    pre = {}
    for o in Y.sorted_opens:
        inv = frozenset(x for x in X.points if f[x] in o)
        if inv not in X.opens:
            return FrameHomReport(False, o, None, False, False)
        pre[set_id(o)] = set_id(inv)

    def inv_of(o: frozenset) -> frozenset:
        return frozenset(x for x in X.points if f[x] in o)

    meets = all(
        inv_of(a & b) == inv_of(a) & inv_of(b) for a in Y.opens for b in Y.opens
    ) and inv_of(frozenset(Y.points)) == frozenset(X.points)
    joins = all(
        inv_of(a | b) == inv_of(a) | inv_of(b) for a in Y.opens for b in Y.opens
    ) and inv_of(frozenset()) == frozenset()
    return FrameHomReport(True, None, pre, meets, joins)
