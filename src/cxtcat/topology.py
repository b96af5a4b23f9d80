"""Scott topologies, specialization orders, locales and their points.

The spacial face: a finite lattice's Scott opens (definitionally the upper
sets inaccessible by directed suprema), the locale of lower sets of a
meet-semilattice, principal prime ideals as points, and the three-way
homeomorphism tying lattice, filter space, and point space together.

Spaces hold their opens as masks over their points; sets of points are
named, by ``order.named_masks``, only for reports and witnesses.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping

from . import order
from .errors import ValidationError
from .order import (
    FiniteLattice,
    FinitePoset,
    JoinSemilattice,
    MeetSemilattice,
    _bits,
    _guard,
    _join_dual,
    _moved,
    _named_lattice,
    _prime_breach,
    compacts,
    down_set,
    flt_lattice,
    ideal_names,
    is_algebraic,
    is_distributive,
    is_order_iso,
    lattice_from_masks,
    meet_primes,
    named_masks,
)
from .value import Value

SCOTT_GUARD = 14
FRAME_SUBSET_CAP = 10


class TopSpace(Value):
    """Finite topological space: empty and full sets present, closed under
    (binary, hence all) unions and intersections.

    The opens are ``open_masks``, sorted ints with bit ``i`` for
    ``points[i]``; equality and hashing read the two fields, and ``opens``
    and ``sorted_opens`` are derived on read.  ``TopSpace(points, opens)``
    checks every law; ``_from_masks`` checks the points only.
    """

    points: tuple[str, ...]
    open_masks: tuple[int, ...]

    def __init__(self, points: tuple[str, ...], opens: Iterable[frozenset[str]]):
        _check_points(points)
        bit = {p: 1 << i for i, p in enumerate(points)}
        masks = set()
        for o in opens:
            if not o <= bit.keys():
                raise ValidationError(
                    "open set contains unknown points",
                    law="unknown-element",
                    witness={"open": sorted(o)},
                )
            masks.add(sum(map(bit.__getitem__, o)))
        if 0 not in masks or (1 << len(points)) - 1 not in masks:
            raise ValidationError("empty or full set missing", law="space:bounds")
        masks = sorted(masks)
        breach = _closure_breach(points, masks)
        if breach:
            law, what, pair = breach
            raise ValidationError(f"opens not closed under {what}", law=law, witness={"pair": pair})
        self.__dict__.update(points=points, open_masks=tuple(masks))

    @classmethod
    def _from_masks(cls, points: tuple[str, ...], masks: Iterable[int]) -> TopSpace:
        """The space of ``masks``, in increasing order, that hold the empty
        and the full set and are closed under unions and intersections by
        construction; only the points are checked.  ``tests/`` rebuilds
        such spaces publicly."""
        _check_points(points)
        T = object.__new__(cls)
        T.__dict__.update(points=points, open_masks=tuple(masks))
        return T

    @cached_property
    def sorted_opens(self) -> list[frozenset[str]]:
        """The opens as sets of points, by name."""
        return [frozenset(xs) for _, _, xs in named_masks(self.points, self.open_masks)]

    @cached_property
    def opens(self) -> frozenset[frozenset[str]]:
        return frozenset(self.sorted_opens)


def _check_points(points: tuple[str, ...]) -> None:
    if len(set(points)) != len(points):
        repeated = min(x for x, k in Counter(points).items() if k > 1)
        raise ValidationError("duplicate point", law="space:points", witness={"point": repeated})


def _closure_breach(points: tuple[str, ...], masks: list[int]) -> tuple[str, str, list] | None:
    """The law, operation and opens (sorted member lists) of the first pair,
    in name order, whose union or intersection is not among the sorted
    ``masks``, else None.  Both tests are symmetric and hold on the diagonal,
    so each unordered pair is walked once, as masks, and named on failure."""
    have = set(masks)
    if all(
        {a | b for b in masks[i + 1:]} <= have and {a & b for b in masks[i + 1:]} <= have
        for i, a in enumerate(masks)
    ):
        return None
    named = named_masks(points, masks)
    for i, (_, a, xs) in enumerate(named):
        for _, b, ys in named[i + 1:]:
            if a | b not in have:
                return "space:unions", "union", [xs, ys]
            if a & b not in have:
                return "space:intersections", "intersection", [xs, ys]
    return None


class Locale(Value):
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


class LocalePoint(Value):
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
    subset must agree; a mismatch names the least subset, by name, on which
    the two differ.  ``guard`` defaults to ``SCOTT_GUARD``."""
    P = L.poset
    _guard("scott_topology", P.n, SCOTT_GUARD if guard is None else guard)
    masks = order._upper_set_masks(P)
    scan = _scott_open_scan(L) if P.n <= order.DIRECTED_SCAN_CAP else masks
    if scan != masks:
        differ = named_masks(P.elements, set(scan) ^ set(masks))[0][2]
        raise ValidationError(
            "scott opens of a finite lattice are not the upper sets",
            law="scott:upper-sets",
            witness={"open": differ},
        )
    return TopSpace._from_masks(P.elements, masks)


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
    """Order points by containment in opens: ``x <= y`` when every open that
    holds ``x`` holds ``y``.  Fails if two points are topologically
    indistinguishable."""
    els = T.points
    up = [(1 << len(els)) - 1] * len(els)
    for o in T.open_masks:
        for i in _bits(o):
            up[i] &= o
    twins = [
        (els[i], els[j])
        for i, cone in enumerate(up)
        for j in _bits(cone & ~(1 << i))
        if up[j] >> i & 1
    ]
    if twins:
        x, y = min(twins)
        raise ValidationError(
            f"specialization preorder is not antisymmetric on ({x!r}, {y!r})",
            law="specialization:antisymmetry",
            witness={"pair": [x, y]},
        )
    return FinitePoset._from_masks(els, up)


def open_set_lattice(T: TopSpace) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
    """The opens of ``T`` under inclusion, and the decoding table from their
    names back to the sets."""
    return lattice_from_masks(T.points, T.open_masks)


class BaseCoherenceReport(Value):
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
    P = L.poset
    base = named_masks(P.elements, (P.up_masks[P.index[c]] for c in compacts(L).elements))
    opens = named_masks(P.elements, T.open_masks)
    details = []
    for name, o, _ in opens:
        union = 0
        for _, b, _ in base:
            if not b & ~o:
                union |= b
        if union != o:
            details.append(f"open {name} is not the union of base members inside it")
    lat = _named_lattice(opens, P.n)
    kopens = [opens[i] for i in _bits(lat.poset.mask_of(compacts(lat).elements))]
    closed = {m for _, m, _ in kopens}
    unions = {0}
    for _, b, _ in base:
        unions |= {s | b for s in unions}
    if closed != unions:
        details.append("compact opens differ from finite unions of base members")
    for _, a, _ in kopens:
        for m in [a & b for _, b, _ in kopens if a & b not in closed]:
            details.append(f"intersection {named_masks(P.elements, [m])[0][0]} is not compact")
    return BaseCoherenceReport(
        not details,
        tuple(frozenset(xs) for _, _, xs in base),
        tuple(frozenset(xs) for _, _, xs in kopens),
        tuple(details),
    )


def lower_sets(S: MeetSemilattice | JoinSemilattice) -> list[frozenset[str]]:
    """The lower sets of a meet-semilattice: the upper sets of its dual.

    A join-semilattice is accepted too and stands for its dual, as in
    ``order.filters``.
    """
    P, masks = _lower_set_masks(S)
    return [frozenset(xs) for _, _, xs in named_masks(P.elements, masks)]


def _lower_set_masks(S: MeetSemilattice | JoinSemilattice) -> tuple[FinitePoset, list[int]]:
    """The poset whose upper sets are the lower sets of ``S``, and those sets
    as masks over its elements."""
    P = _join_dual(S).poset
    _guard("lower_sets", P.n, order.SUBSET_SCAN_GUARD)
    return P, order._upper_set_masks(P)


def _lower_set_lattice(
    S: MeetSemilattice | JoinSemilattice,
) -> tuple[FiniteLattice, tuple[int, ...]]:
    """The lattice of the lower sets of ``S`` and the mask of each of its
    elements over the elements of ``S``, built once per value ``S``: the
    lemma and the locale of cor. 6.17 both read it."""
    return order._memo(S, "_lower_set_lattice", _build_lower_set_lattice)


def _build_lower_set_lattice(S):
    P, masks = _lower_set_masks(S)
    named = named_masks(P.elements, masks)
    return _named_lattice(named, P.n), tuple(m for _, m, _ in named)


def lower_set_locale(S: MeetSemilattice | JoinSemilattice) -> Locale:
    """Locale of all lower sets, checked against the Scott opens of the
    filter lattice; built once per value ``S``.  A join-semilattice stands
    for its dual."""
    return order._memo(S, "_stone_data", _stone_data)[0]


def _stone_data(S: MeetSemilattice | JoinSemilattice) -> tuple[Locale, TopSpace, tuple[int, ...]]:
    """The lower-set locale, the Scott space σ of ``flt_lattice(S)`` and ψ,
    the checked iso from the opens of σ onto the lower sets: an open goes to
    the ``a`` whose filters ``up(a)`` it holds, as a lower set meets
    ``up(a)`` exactly when it holds ``a``.  ψ is held as its point map,
    ``psi[k]`` the index of the ``a`` of point ``k``.  Memoized on ``S`` as
    ``_stone_data``; none of the three holds ``S``."""
    lat, masks = _lower_set_lattice(S)
    loc = _set_family_locale(lat)
    sigma = scott_topology(flt_lattice(S))
    psi = tuple(order._ideal_order(_join_dual(S)))
    if {_moved(o, psi) for o in sigma.open_masks} != set(masks):
        raise ValidationError(
            "lower-set locale does not match the Scott opens of the filter lattice",
            law="locale:lower-sets",
        )
    return loc, sigma, psi


def locale_points(loc: Locale) -> list[LocalePoint]:
    """All principal prime ideals, generated by the meet-primes."""
    L = loc.lattice
    pts = []
    for g in sorted(meet_primes(L)):
        pts.append(LocalePoint(L, g, down_set(L.poset, [g])))
    return pts


class Lemma616Report(Value):
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
    complements; the filter ``up(a)`` of ``S`` is the down-cone of ``a`` in
    its join dual.  A join-semilattice stands for its dual."""
    primes = sorted(meet_primes(_lower_set_lattice(S)[0]))
    P = _join_dual(S).poset
    full = (1 << P.n) - 1
    complements = [name for name, _, _ in named_masks(P.elements, (full ^ m for m in P.down_masks))]
    return Lemma616Report(complements == primes, tuple(complements), tuple(primes))


class SpectralityReport(Value):
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


class Cor617Report(Value):
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
                len(T.open_masks) for T in (self.scott_space, self.filter_space, self.point_space)
            ],
            "to_filters": self.to_filters,
            "to_points": self.to_points,
            "details": list(self.details),
        }


def corollary_6_17_spaces(S: MeetSemilattice | JoinSemilattice) -> Cor617Report:
    """Build the Scott space σ of ``flt_lattice(S)``, the filter space, and
    the point space of ``lower_set_locale(S)``, and check that the point
    bijections carry opens onto opens.  They come from isomorphisms known by
    construction: φ sends ``a`` to ``up(a)`` (``ideal_names`` of the dual),
    and ψ, checked by ``lower_set_locale``, sends opens to lower sets.  The
    filter space has σ's points (``to_filters`` is the identity) and, by
    definition, the union closure of the sets of filters that hold each
    ``a`` as its opens, which must be σ's.  A join-semilattice stands for
    its dual."""
    L = flt_lattice(S)
    loc, sigma, psi = order._memo(S, "_stone_data", _stone_data)
    D = _join_dual(S)
    phi = dict(zip(D.elements, ideal_names(D)))
    if not is_order_iso(D.poset, compacts(L), phi):
        raise ValidationError(
            "dual of the semilattice is not isomorphic to the compacts",
            law="cor6.17:precondition",
        )
    details: list[str] = []
    full = (1 << L.poset.n) - 1
    fam = {0, full}
    for g in _filter_membership(D, [L.poset.index[phi[a]] for a in D.elements]):
        fam |= {s | g for s in fam}
    filter_space = TopSpace._from_masks(sigma.points, sorted(fam))
    if filter_space.open_masks != sigma.open_masks:
        details.append("filters: open families do not correspond")

    # point space: points of the locale, an open per locale element a, the
    # points whose ideals miss a
    Q = loc.lattice.poset
    pts = locale_points(loc)
    gens, down = [Q.index[p.generator] for p in pts], Q.down_masks
    popens = {sum(1 << k for k, g in enumerate(gens) if not down[g] >> a & 1) for a in range(Q.n)}
    point_space = TopSpace._from_masks(tuple(p.generator for p in pts), sorted(popens))

    # the point x of σ goes to the locale element ψ(σ minus down(x))
    where = {m: i for i, m in enumerate(_lower_set_lattice(S)[1])}
    sent = [where.get(_moved(full ^ cone, psi)) for cone in L.poset.down_masks]
    to_points = {x: Q.elements[i] for x, i in zip(L.elements, sent) if i is not None}
    point_of = {g: k for k, g in enumerate(gens)}
    image = [point_of.get(i) for i in sent]
    if None in image or sorted(image) != list(range(len(gens))):
        details.append("points: point map is not a bijection")
    elif {_moved(o, image) for o in sigma.open_masks} != set(point_space.open_masks):
        details.append("points: open families do not correspond")
    counts = {len(T.open_masks) for T in (sigma, filter_space, point_space)}
    if len(counts) != 1:
        details.append("open-set counts differ")
    to_filters = dict(zip(L.elements, L.elements))
    return Cor617Report(
        not details, sigma, filter_space, point_space, to_filters, to_points, tuple(details)
    )


def _filter_membership(D: JoinSemilattice, at: list[int]) -> list[int]:
    """For each ``a``, the filters that hold ``a``, as a mask over σ, where
    ``up(b)`` is point ``at[b]``: the ``up(b)`` with ``b <= a``, which is
    the up-cone of ``a`` in the join dual ``D``."""
    return [_moved(cone, at) for cone in D.poset.up_masks]


class FrameHomReport(Value):
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
    arbitrary (here: finite) joins of opens; otherwise the witness open, the
    first by name whose inverse image is not open."""
    idx = {y: j for j, y in enumerate(Y.points)}
    for x in X.points:
        if x not in f or f[x] not in idx:
            raise ValidationError(f"map is not total on points ({x!r})", law="unknown-element")
    at = [idx[f[x]] for x in X.points]

    def inv(o: int) -> int:
        return sum(1 << i for i, j in enumerate(at) if o >> j & 1)

    opens, xopens = Y.open_masks, set(X.open_masks)
    bad = [o for o in opens if inv(o) not in xopens]
    if bad:
        witness = frozenset(named_masks(Y.points, bad)[0][2])
        return FrameHomReport(False, witness, None, False, False)
    # the full and the empty set are the last and the first open
    meets = inv(opens[-1]) == X.open_masks[-1]
    meets = meets and all(inv(a & b) == inv(a) & inv(b) for a in opens for b in opens)
    joins = inv(0) == 0 and all(inv(a | b) == inv(a) | inv(b) for a in opens for b in opens)
    xname = {m: name for name, m, _ in named_masks(X.points, X.open_masks)}
    preimage = {name: xname[inv(o)] for name, o, _ in named_masks(Y.points, opens)}
    return FrameHomReport(True, None, preimage, meets, joins)
