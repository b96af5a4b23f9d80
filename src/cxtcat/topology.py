"""Scott topologies, specialization orders, locales and their points.

The spacial face: a finite lattice's Scott opens (definitionally the upper
sets inaccessible by directed suprema), the locale of lower sets of a
meet-semilattice, principal prime ideals as points, and the three-way
homeomorphism tying lattice, filter space, and point space together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from . import kernels, order
from .canon import set_id
from .errors import ValidationError
from .order import (
    FiniteLattice,
    FinitePoset,
    JoinSemilattice,
    MeetSemilattice,
    _guard,
    _join_dual,
    compacts,
    down_set,
    filters,
    flt_lattice,
    ideal_names,
    is_algebraic,
    is_distributive,
    is_order_iso,
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
        pts = set(self.points)
        if len(pts) != len(self.points):
            raise ValidationError("duplicate point", law="space:points")
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
        opens = sorted(self.opens, key=set_id)
        for a in opens:
            for b in opens:
                if a | b not in self.opens:
                    raise ValidationError(
                        "opens not closed under union",
                        law="space:unions",
                        witness={"pair": [sorted(a), sorted(b)]},
                    )
                if a & b not in self.opens:
                    raise ValidationError(
                        "opens not closed under intersection",
                        law="space:intersections",
                        witness={"pair": [sorted(a), sorted(b)]},
                    )

    @cached_property
    def sorted_opens(self) -> list[frozenset[str]]:
        return sorted(self.opens, key=set_id)


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
        if self.generator == L.top:
            raise ValidationError("point generated by the top", law="point:proper")
        if self.members != down_set(L.poset, [self.generator]):
            raise ValidationError(
                "point is not the cone of its generator",
                law="point:principal",
                witness={"generator": self.generator},
            )
        for x in L.elements:
            for y in L.elements:
                if L.meet(x, y) in self.members and x not in self.members and y not in self.members:
                    raise ValidationError(
                        "point is not prime",
                        law="point:prime",
                        witness={"pair": [x, y]},
                    )


def scott_topology(L: FiniteLattice, guard: int | None = None) -> TopSpace:
    """Opens by the definitional test; on a finite lattice these are exactly
    the upper sets, which is asserted.  ``guard`` defaults to ``SCOTT_GUARD``."""
    P = L.poset
    _guard("scott_topology", P.n, SCOTT_GUARD if guard is None else guard)
    masks = kernels.scott_open_masks(P.up_masks, P.down_masks, L.join_table)
    if sorted(masks) != _cone_closed_masks(P.up_masks):
        raise ValidationError(
            "scott opens of a finite lattice are not the upper sets",
            law="scott:upper-sets",
        )
    return TopSpace(P.elements, frozenset(P.set_of(m) for m in masks))


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
    kopens = {decode[e] for e in compacts(lat).elements}
    finite_unions = set()
    for m in range(1 << len(base)):
        u = frozenset()
        for i, b in enumerate(base):
            if m >> i & 1:
                u |= b
        finite_unions.add(u)
    if kopens != finite_unions:
        ok = False
        details.append("compact opens differ from finite unions of base members")
    for a in sorted(kopens, key=set_id):
        for b in sorted(kopens, key=set_id):
            if a & b not in kopens:
                ok = False
                details.append(f"intersection {set_id(a & b)} is not compact")
    return BaseCoherenceReport(ok, tuple(base), tuple(sorted(kopens, key=set_id)), tuple(details))


def _cone_closed_masks(cones: list[int]) -> list[int]:
    """Every subset mask, in increasing order, that holds the cone of each of
    its members: the upper sets on up-cones, the lower sets on down-cones."""
    n = len(cones)
    return [
        m
        for m in range(1 << n)
        if all(not (cones[i] & ~m) for i in range(n) if m >> i & 1)
    ]


def lower_sets(S: MeetSemilattice | JoinSemilattice) -> list[frozenset[str]]:
    """The lower sets of a meet-semilattice: the upper sets of its dual.

    A join-semilattice is accepted too and stands for its dual, as in
    ``order.filters``.
    """
    P = _join_dual(S).poset
    _guard("lower_sets", P.n, order.SUBSET_SCAN_GUARD)
    return sorted(map(P.set_of, _cone_closed_masks(P.up_masks)), key=set_id)


def _lower_set_lattice(
    S: MeetSemilattice | JoinSemilattice,
) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
    """``lattice_from_sets(lower_sets(S))``, built once per value ``S``: the
    lemma and the locale of cor. 6.17 both read it."""
    return order._memo(S, "_lower_set_lattice", lambda S: lattice_from_sets(lower_sets(S)))


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
    L = loc.lattice
    alg = is_algebraic(L)
    K = set(compacts(L).elements)
    top_ok = L.top in K
    meets_ok = all(L.meet(a, b) in K for a in K for b in K)
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
