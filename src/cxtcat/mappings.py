"""Approximable mappings and the completion/compacts functors.

A morphism between join-semilattices with least element is a relation whose
images are ideals, varying monotonically.  Relational composition and the
greater-or-equal identities make these a category; the ideal-completion and
compacts constructions extend to an equivalence with lattices and monotone
suprema-preserving functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import kernels
from .canon import pair_set_id, set_id
from .errors import SizeGuardExceeded, ValidationError
from .order import (
    FiniteLattice,
    JoinSemilattice,
    SUBSET_SCAN_GUARD,
    _bits,
    compacts,
    down_set,
    ideal_completion,
    ideals,
    is_order_iso,
    k_semilattice,
    principal_ideal,
)

# The exhaustive directed-suprema check runs on carriers up to this size;
# beyond it monotonicity (equivalent on finite orders) is the certificate.
SCOTT_CHECK_CAP = 16
ENUMERATION_GUARD = 512
# Most mappings ``enumerate_mappings`` may return.  ``ENUMERATION_GUARD``
# bounds the search space, not the output: M10 into a 20-chain passes it and
# has about 10^13 mappings.
ENUMERATION_OUTPUT_GUARD = 1 << 15


@dataclass(frozen=True)
class ApproximableMapping:
    """Relation between join-semilattices satisfying the three mapping axioms."""

    source: JoinSemilattice
    target: JoinSemilattice
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        src, tgt = self.source, self.target
        sidx, tidx = src.poset.index, tgt.poset.index
        # image[i]: mask over target indices of what source element i reaches
        image = [0] * src.poset.n
        unknown = []
        for a, b in self.pairs:
            i, j = sidx.get(a), tidx.get(b)
            if i is None or j is None:
                unknown.append((a, b))
            else:
                image[i] |= 1 << j
        if unknown:
            a, b = min(unknown)
            raise ValidationError(
                f"pair ({a!r}, {b!r}) references unknown elements",
                law="unknown-element",
                witness={"pair": [a, b]},
            )
        bottom = 1 << tidx[tgt.bottom]
        for a, img in zip(src.elements, image):
            if not img & bottom:
                raise ValidationError(
                    f"{a!r} does not reach the target bottom",
                    law="am1",
                    witness={"element": a},
                )
        n, join = tgt.poset.n, tgt.join_flat
        for a, img in zip(src.elements, image):
            members = list(_bits(img))
            for x, j in enumerate(members):
                row = j * n
                for k in members[x + 1 :]:
                    if not img >> join[row + k] & 1:
                        b, b2 = _am2_witness(tgt, img)
                        raise ValidationError(
                            f"images of {a!r} miss the join of {b!r} and {b2!r}",
                            law="am2",
                            witness={"element": a, "pair": [b, b2]},
                        )
        up, down = src.poset.up_masks, tgt.poset.down_masks
        for i, img in enumerate(image):
            below = 0
            for j in _bits(img):
                below |= down[j]
            for i2 in _bits(up[i]):
                if below & ~image[i2]:
                    a, b, a2, b2 = _am3_witness(self, image)
                    raise ValidationError(
                        f"({a2!r}, {b2!r}) missing although {a!r} <= {a2!r} and {b2!r} <= {b!r}",
                        law="am3",
                        witness={"from": [a, b], "missing": [a2, b2]},
                    )

    def image_ideal(self, a: str) -> frozenset[str]:
        return frozenset(b for x, b in self.pairs if x == a)

    def canonical_id(self) -> str:
        return pair_set_id(self.pairs)


def _am2_witness(T: JoinSemilattice, img: int) -> tuple[str, str]:
    """Least ``(b, b2)`` by name inside ``img`` whose join ``img`` misses."""
    names, n, join = T.elements, T.poset.n, T.join_flat
    return min(
        (names[j], names[k])
        for j in _bits(img)
        for k in _bits(img)
        if not img >> join[j * n + k] & 1
    )


def _am3_witness(m: ApproximableMapping, image: list[int]) -> tuple[str, str, str, str]:
    """Least ``(a, b, a2, b2)`` by name with ``(a, b)`` related, ``a <= a2``,
    ``b2 <= b`` and ``(a2, b2)`` not related."""
    S, T = m.source.poset, m.target.poset
    return min(
        (a, b, S.elements[i2], T.elements[k])
        for a, b in m.pairs
        for i2 in _bits(S.up_masks[S.index[a]])
        for k in _bits(T.down_masks[T.index[b]] & ~image[i2])
    )


def validate_am(
    source: JoinSemilattice, target: JoinSemilattice, pairs: Iterable[tuple[str, str]]
) -> ApproximableMapping:
    return ApproximableMapping(source, target, frozenset(tuple(p) for p in pairs))


def identity_mapping(S: JoinSemilattice) -> ApproximableMapping:
    pairs = frozenset((a, b) for a in S.elements for b in S.elements if S.le(b, a))
    return ApproximableMapping(S, S, pairs)


def compose(m1: ApproximableMapping, m2: ApproximableMapping) -> ApproximableMapping:
    """Relational composite of ``m1 : S -> R`` and ``m2 : R -> T``."""
    if m1.target != m2.source:
        raise ValidationError(
            "composition mismatch: target of the first is not source of the second",
            law="compose:interface",
        )
    mid: dict[str, set[str]] = {}
    for r, t in m2.pairs:
        mid.setdefault(r, set()).add(t)
    pairs = set()
    for s, r in m1.pairs:
        for t in mid.get(r, ()):
            pairs.add((s, t))
    return ApproximableMapping(m1.source, m2.target, frozenset(pairs))


@dataclass(frozen=True)
class ScottFunction:
    """Monotone function between finite lattices.

    Monotonicity and preservation of directed suprema coincide on finite
    carriers (a finite directed set contains its supremum); the definitional
    preservation check still runs exhaustively up to ``SCOTT_CHECK_CAP``
    elements and must agree.
    """

    source: FiniteLattice
    target: FiniteLattice
    values: tuple[str, ...]

    def __post_init__(self):
        src, tgt = self.source, self.target
        if len(self.values) != len(src.elements):
            raise ValidationError("value table has wrong length", law="scott:table")
        tgt.poset.check_members(self.values)
        for a in src.elements:
            for b in src.elements:
                if src.le(a, b) and not tgt.le(self.apply(a), self.apply(b)):
                    raise ValidationError(
                        f"not monotone on ({a!r}, {b!r})",
                        law="scott:monotone",
                        witness={"pair": [a, b]},
                    )
        if src.poset.n <= SCOTT_CHECK_CAP:
            P = src.poset
            for mask in kernels.directed_masks(P.up_masks):
                members = [P.elements[i] for i in range(P.n) if mask >> i & 1]
                sup = src.join_all(members)
                img_sup = tgt.join_all(self.apply(x) for x in members)
                if self.apply(sup) != img_sup:
                    raise ValidationError(
                        "directed supremum not preserved",
                        law="scott:directed-sups",
                        witness={"directed": members},
                    )

    def apply(self, x: str) -> str:
        return self.values[self.source.poset.index[x]]


def identity_function(L: FiniteLattice) -> ScottFunction:
    return ScottFunction(L, L, L.elements)


def compose_functions(f1: ScottFunction, f2: ScottFunction) -> ScottFunction:
    """``f1`` then ``f2``."""
    if f1.target != f2.source:
        raise ValidationError("function composition mismatch", law="compose:interface")
    return ScottFunction(f1.source, f2.target, tuple(f2.apply(v) for v in f1.values))


# ---------------------------------------------------------------------------
# the two functors on morphisms


def idl_on_morphism(m: ApproximableMapping) -> ScottFunction:
    """Send an ideal to everything reachable from its members."""
    src_l = ideal_completion(m.source)
    tgt_l = ideal_completion(m.target)
    src_members = {set_id(i.members): i.members for i in ideals(m.source)}
    values = []
    for e in src_l.elements:
        img = frozenset(b for a, b in m.pairs if a in src_members[e])
        values.append(set_id(img))
    return ScottFunction(src_l, tgt_l, tuple(values))


def k_on_morphism(f: ScottFunction, guard: int = SUBSET_SCAN_GUARD) -> ApproximableMapping:
    """Relate compacts to the compacts below their image."""
    src_s = k_semilattice(f.source, guard)
    tgt_s = k_semilattice(f.target, guard)
    pairs = frozenset(
        (a, b)
        for a in src_s.elements
        for b in tgt_s.elements
        if f.target.le(b, f.apply(a))
    )
    return ApproximableMapping(src_s, tgt_s, pairs)


def eta(L: FiniteLattice, guard: int = SUBSET_SCAN_GUARD) -> ScottFunction:
    """The iso sending a lattice element to the ideal of compacts below it."""
    K = compacts(L, guard)
    idl_k = ideal_completion(k_semilattice(L, guard))
    kset = set(K.elements)
    values = tuple(set_id(down_set(L.poset, [x]) & kset) for x in L.elements)
    fn = ScottFunction(L, idl_k, values)
    vmap = dict(zip(L.elements, values))
    if not is_order_iso(L.poset, idl_k.poset, vmap):
        raise ValidationError("completion unit is not an order-isomorphism", law="thm4.4:eta")
    return fn


def epsilon(S: JoinSemilattice) -> ApproximableMapping:
    """The iso relating an element to every compact ideal inside its cone."""
    eps = _epsilon_raw(S)
    inv = epsilon_inverse(S)
    if compose(eps, inv) != identity_mapping(S) or compose(inv, eps) != identity_mapping(
        eps.target
    ):
        raise ValidationError("counit compositions are not identities", law="thm4.4:epsilon")
    return eps


def _epsilon_raw(S: JoinSemilattice) -> ApproximableMapping:
    kidl = k_semilattice(ideal_completion(S))
    members = {set_id(i.members): i.members for i in ideals(S)}
    pairs = frozenset(
        (a, e)
        for a in S.elements
        for e in kidl.elements
        if members[e] <= principal_ideal(S.poset, a)
    )
    return ApproximableMapping(S, kidl, pairs)


def epsilon_inverse(S: JoinSemilattice) -> ApproximableMapping:
    kidl = k_semilattice(ideal_completion(S))
    pairs = frozenset(
        (set_id(principal_ideal(S.poset, b)), a)
        for b in S.elements
        for a in S.elements
        if S.le(a, b)
    )
    return ApproximableMapping(kidl, S, pairs)


# ---------------------------------------------------------------------------
# exhaustive enumeration


def ideal_assignment(m: ApproximableMapping) -> dict[str, frozenset[str]]:
    """The monotone map into the target's ideals encoded by a mapping."""
    return {a: m.image_ideal(a) for a in m.source.elements}


def enumerate_mappings(
    S: JoinSemilattice, T: JoinSemilattice, guard: int = ENUMERATION_GUARD
) -> list[ApproximableMapping]:
    """All approximable mappings, via monotone assignments into the ideals of
    the target; ordered by canonical pair-set encoding.

    Raises ``SizeGuardExceeded`` when ``|S| * |Idl T|`` passes ``guard``, or
    as soon as the search finds more than ``ENUMERATION_OUTPUT_GUARD``
    mappings, before any of them is built.
    """
    tgt_ideals = [i.members for i in ideals(T)]
    if len(S.elements) * len(tgt_ideals) > guard:
        raise SizeGuardExceeded(
            "enumerate_mappings", len(S.elements) * len(tgt_ideals), guard
        )
    # target: ideals under inclusion
    tgt_up = [
        sum(1 << j for j, J in enumerate(tgt_ideals) if I <= J)
        for I in tgt_ideals
    ]
    # source in a linear extension (by cone size, ties by canonical order)
    P = S.poset
    order = sorted(range(P.n), key=lambda i: (P.down_masks[i].bit_count(), i))
    preds = [
        [j for j in range(pos) if P.le(P.elements[order[j]], P.elements[order[pos]])]
        for pos in range(P.n)
    ]
    picks = kernels.monotone_maps(P.n, preds, tgt_up, ENUMERATION_OUTPUT_GUARD)
    if len(picks) > ENUMERATION_OUTPUT_GUARD:
        raise SizeGuardExceeded(
            "enumerate_mappings output", len(picks), ENUMERATION_OUTPUT_GUARD
        )
    out = []
    for pick in picks:
        pairs = frozenset(
            (P.elements[order[pos]], b)
            for pos, t in enumerate(pick)
            for b in tgt_ideals[t]
        )
        out.append(ApproximableMapping(S, T, pairs))
    out.sort(key=lambda m: m.canonical_id())
    return out
