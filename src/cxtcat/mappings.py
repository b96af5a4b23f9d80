"""Approximable mappings and the completion/compacts functors.

A morphism between join-semilattices with least element is a relation whose
images are ideals, varying monotonically; on finite carriers every ideal is
principal, so it is held as the monotone map to their generators.  The
ideal-completion and compacts constructions extend to an equivalence with
lattices and monotone suprema-preserving functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from . import kernels, order
from .canon import _esc
from .errors import ValidationError
from .order import (
    FiniteLattice,
    FinitePoset,
    JoinSemilattice,
    _bits,
    _directed_sups,
    _guard,
    _linear_extension,
    _memo,
    ideal_completion,
    ideal_names,
    is_order_iso,
    k_semilattice,
    principal_ideal,
)

ENUMERATION_GUARD = 512
# Most mappings ``enumerate_mappings`` may return.  ``ENUMERATION_GUARD``
# bounds the search space, not the output: M10 into a 20-chain passes it and
# has about 10^13 mappings.
ENUMERATION_OUTPUT_GUARD = 1 << 15


@dataclass(frozen=True)
class ApproximableMapping:
    """Approximable mapping held as the monotone map ``f`` whose value at
    each source element generates its image ideal ``down(f(a))``; ``values``
    lists ``f`` in source order.  The relation so defined meets am1 and am2
    always, and am3 exactly when ``f`` is monotone.  Relations from outside
    enter through ``validate_am``.

    ``ApproximableMapping(source, target, values)`` checks the table's
    length, members and monotonicity.  The builders below (composites,
    identities, enumerated picks, the functors' images, the counit and the
    product and transpose maps of ``category``) make monotone tables by
    construction and enter them through ``_trusted``, which checks nothing;
    so does ``epsilon_inverse`` for the table ``validate_am`` checked.
    """

    source: JoinSemilattice
    target: JoinSemilattice
    values: tuple[str, ...]

    def __post_init__(self):
        breach = _table_breach(self.source.poset, self.target.poset, self.values, "am:table")
        if breach:
            a, a2 = breach
            b = self.apply(a)
            raise ValidationError(
                f"({a2!r}, {b!r}) missing although {a!r} <= {a2!r} and {b!r} <= {b!r}",
                law="am3",
                witness={"from": [a, b], "missing": [a2, b]},
            )

    def apply(self, x: str) -> str:
        return self.values[self.source.poset.index[x]]

    @cached_property
    def pairs(self) -> frozenset[tuple[str, str]]:
        """The relation: each source element with everything below its value."""
        T = self.target.poset
        return frozenset(
            (a, b) for a, v in zip(self.source.elements, self.values) for b in principal_ideal(T, v)
        )


def _table_breach(P: FinitePoset, Q: FinitePoset, values, law: str) -> tuple[str, str] | None:
    """Check a value table from ``P`` into ``Q``: its length (``law``) and
    members, then return the first ``(a, b)`` in index order with ``a <= b``
    but not ``values[a] <= values[b]``, or None when it is monotone."""
    if len(values) != P.n:
        raise ValidationError("value table has wrong length", law=law)
    Q.check_members(values)
    idx, up = Q.index, Q.up_masks
    f = [idx[v] for v in values]
    for i, cone in enumerate(P.up_masks):
        above = up[f[i]]
        for j in _bits(cone):
            if not above >> f[j] & 1:
                return P.elements[i], P.elements[j]
    return None


def _am2_witness(T: JoinSemilattice, img: int) -> tuple[str, str]:
    """Least ``(b, b2)`` by name inside ``img`` whose join ``img`` misses."""
    names, join = T.elements, T.join_table
    return min(
        (names[j], names[k])
        for j in _bits(img)
        for k in _bits(img)
        if not img >> join[j][k] & 1
    )


def _am3_witness(S: FinitePoset, T: FinitePoset, pairs, image) -> tuple[str, str, str, str]:
    """Least ``(a, b, a2, b2)`` by name with ``(a, b)`` related, ``a <= a2``,
    ``b2 <= b`` and ``(a2, b2)`` not related."""
    return min(
        (a, b, S.elements[i2], T.elements[k])
        for a, b in pairs
        for i2 in _bits(S.up_masks[S.index[a]])
        for k in _bits(T.down_masks[T.index[b]] & ~image[i2])
    )


def validate_am(
    source: JoinSemilattice, target: JoinSemilattice, pairs: Iterable[tuple[str, str]]
) -> ApproximableMapping:
    """The mapping given by a relation of name pairs: unknown elements, am1,
    am2 and am3 are checked on index masks, the first breach is reported
    with its witness, and each value is read off its image ideal."""
    pairs = frozenset(tuple(p) for p in pairs)
    S, T = source.poset, target.poset
    # image[i]: mask over target indices of what source element i reaches
    image = [0] * S.n
    unknown = []
    for a, b in pairs:
        i, j = S.index.get(a), T.index.get(b)
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
    bottom = 1 << T.index[target.bottom]
    for a, img in zip(S.elements, image):
        if not img & bottom:
            raise ValidationError(
                f"{a!r} does not reach the target bottom",
                law="am1",
                witness={"element": a},
            )
    join = target.join_table
    for a, img in zip(S.elements, image):
        members = list(_bits(img))
        for x, j in enumerate(members):
            row = join[j]
            for k in members[x + 1 :]:
                if not img >> row[k] & 1:
                    b, b2 = _am2_witness(target, img)
                    raise ValidationError(
                        f"images of {a!r} miss the join of {b!r} and {b2!r}",
                        law="am2",
                        witness={"element": a, "pair": [b, b2]},
                    )
    up, down = S.up_masks, T.down_masks
    for i, img in enumerate(image):
        below = 0
        for j in _bits(img):
            below |= down[j]
        for i2 in _bits(up[i]):
            if below & ~image[i2]:
                a, b, a2, b2 = _am3_witness(S, T, pairs, image)
                raise ValidationError(
                    f"({a2!r}, {b2!r}) missing although {a!r} <= {a2!r} and {b2!r} <= {b!r}",
                    law="am3",
                    witness={"from": [a, b], "missing": [a2, b2]},
                )
    # each image is an ideal now: its generator is the member whose down-cone it is
    values = tuple(next(T.elements[j] for j in _bits(img) if down[j] == img) for img in image)
    return ApproximableMapping(source, target, values)


def _trusted(cls, source, target, values: tuple[str, ...]):
    """``cls(source, target, values)`` for a table that is monotone by
    construction, so that no check of the constructor can fire: a composite,
    an identity, an enumerated pick, a functor's image.  Nothing is checked;
    ``tests/`` rebuilds every such output through the public constructor."""
    f = object.__new__(cls)
    f.__dict__.update(source=source, target=target, values=values)
    return f


def identity_mapping(S: JoinSemilattice) -> ApproximableMapping:
    return _trusted(ApproximableMapping, S, S, S.elements)


def compose(m1: ApproximableMapping, m2: ApproximableMapping) -> ApproximableMapping:
    """Relational composite of ``m1 : S -> R`` and ``m2 : R -> T``."""
    if m1.target != m2.source:
        raise ValidationError(
            "composition mismatch: target of the first is not source of the second",
            law="compose:interface",
        )
    return _trusted(
        ApproximableMapping, m1.source, m2.target, tuple(m2.apply(v) for v in m1.values)
    )


@dataclass(frozen=True)
class ScottFunction:
    """Scott-continuous function between finite lattices, as a value table.

    Monotonicity and preservation of directed suprema coincide on finite
    carriers (a finite directed set contains its supremum).
    ``ScottFunction(source, target, values)`` checks the table's length,
    members and monotonicity, and then, up to ``order.DIRECTED_SCAN_CAP``
    elements, runs the definitional scan over every directed subset, which
    must agree.
    Identities, composites, ``idl_on_morphism`` and ``eta`` are monotone by
    construction and enter through ``_trusted``; ``thm4.4`` re-enters the
    functor's images through this constructor.
    """

    source: FiniteLattice
    target: FiniteLattice
    values: tuple[str, ...]

    def __post_init__(self):
        src, tgt = self.source, self.target
        breach = _table_breach(src.poset, tgt.poset, self.values, "scott:table")
        if breach:
            a, b = breach
            raise ValidationError(
                f"not monotone on ({a!r}, {b!r})",
                law="scott:monotone",
                witness={"pair": [a, b]},
            )
        if src.poset.n <= order.DIRECTED_SCAN_CAP:
            members = _directed_sup_breach(src, tgt, self.values)
            if members is not None:
                raise ValidationError(
                    "directed supremum not preserved",
                    law="scott:directed-sups",
                    witness={"directed": members},
                )

    def apply(self, x: str) -> str:
        return self.values[self.source.poset.index[x]]


def _directed_sup_breach(src: FiniteLattice, tgt: FiniteLattice, values) -> list[str] | None:
    """The members of the first directed subset of ``src``, in mask order,
    whose supremum the table ``values`` does not send to the supremum of its
    image, or None.  The target's join table is folded over the image of
    each directed mask from its bottom; the masks and their suprema are
    listed once per source value."""
    P, Q = src.poset, tgt.poset
    f = [Q.index[v] for v in values]
    jt, t0 = tgt.join_table, Q.index[tgt.bottom]
    for mask, s in _directed_sups(src):
        t = t0
        for i in _bits(mask):
            t = jt[t][f[i]]
        if f[s] != t:
            return [P.elements[i] for i in _bits(mask)]
    return None


def identity_function(L: FiniteLattice) -> ScottFunction:
    return _trusted(ScottFunction, L, L, L.elements)


def compose_functions(f1: ScottFunction, f2: ScottFunction) -> ScottFunction:
    """``f1`` then ``f2``."""
    if f1.target != f2.source:
        raise ValidationError("function composition mismatch", law="compose:interface")
    return _trusted(ScottFunction, f1.source, f2.target, tuple(f2.apply(v) for v in f1.values))


# ---------------------------------------------------------------------------
# the two functors on morphisms


def idl_on_morphism(m: ApproximableMapping) -> ScottFunction:
    """Send an ideal ``down(a)`` to everything reachable from it, ``down(f(a))``."""
    src_l = ideal_completion(m.source)
    tgt_l = ideal_completion(m.target)
    T = m.target.poset
    tgt_names = ideal_names(m.target)
    image = dict(zip(ideal_names(m.source), (tgt_names[T.index[v]] for v in m.values)))
    return _trusted(ScottFunction, src_l, tgt_l, tuple(image[e] for e in src_l.elements))


def k_on_morphism(f: ScottFunction) -> ApproximableMapping:
    """Relate compacts to the compacts below their image, whose join is the
    value.  Every element of a finite lattice is compact, so the join of the
    compacts below ``f(a)`` is ``f(a)`` and the table is ``f``'s own."""
    return _trusted(
        ApproximableMapping, k_semilattice(f.source), k_semilattice(f.target), f.values
    )


def eta(L: FiniteLattice) -> ScottFunction:
    """The iso sending a lattice element to the ideal of compacts below it;
    the iso check runs once per value ``L``."""
    K = k_semilattice(L)
    idl_k = ideal_completion(K)
    _memo(L, "_eta_checked", _check_unit)
    return _trusted(ScottFunction, L, idl_k, ideal_names(K))


def _check_unit(L: FiniteLattice) -> bool:
    K = k_semilattice(L)
    idl_k = ideal_completion(K)
    if not is_order_iso(L.poset, idl_k.poset, dict(zip(L.elements, ideal_names(K)))):
        raise ValidationError("completion unit is not an order-isomorphism", law="thm4.4:eta")
    return True


def epsilon(S: JoinSemilattice) -> ApproximableMapping:
    """The iso relating an element to every compact ideal inside its cone;
    the counit check runs once per value ``S``."""
    _memo(S, "_epsilon_checked", _check_counit)
    return _epsilon_raw(S)


def _check_counit(S: JoinSemilattice) -> bool:
    eps = _epsilon_raw(S)
    inv = epsilon_inverse(S)
    if compose(eps, inv) != identity_mapping(S) or compose(inv, eps) != identity_mapping(
        eps.target
    ):
        raise ValidationError("counit compositions are not identities", law="thm4.4:epsilon")
    return True


def _epsilon_raw(S: JoinSemilattice) -> ApproximableMapping:
    """``a`` goes to its principal ideal, a compact of the completion."""
    kidl = k_semilattice(ideal_completion(S))
    return _trusted(ApproximableMapping, S, kidl, ideal_names(S))


def epsilon_inverse(S: JoinSemilattice) -> ApproximableMapping:
    """Built as a relation and validated, so the counit check in ``epsilon``
    composes a value-table mapping with an independently checked one.

    The relation is validated once per value ``S``.  The memo keeps the
    value table, not the mapping: a mapping holds ``S``, so keeping it on
    ``S`` would make a reference cycle, and ``S`` with every memo on it
    would then outlive its last use until the cyclic collector ran.
    """
    kidl = k_semilattice(ideal_completion(S))
    return _trusted(ApproximableMapping, kidl, S, _memo(S, "_epsilon_inverse", _inverse_table))


def _inverse_table(S: JoinSemilattice) -> tuple[str, ...]:
    pairs = (
        (name, a)
        for b, name in zip(S.elements, ideal_names(S))
        for a in S.elements
        if S.le(a, b)
    )
    return validate_am(k_semilattice(ideal_completion(S)), S, pairs).values


# ---------------------------------------------------------------------------
# exhaustive enumeration


def enumerate_mappings(S: JoinSemilattice, T: JoinSemilattice) -> list[ApproximableMapping]:
    """All approximable mappings, as the monotone maps into the target;
    ordered by canonical pair-set encoding.

    Raises ``SizeGuardExceeded`` when ``|S| * |T|`` passes
    ``ENUMERATION_GUARD``, or as soon as the search finds more than
    ``ENUMERATION_OUTPUT_GUARD`` mappings, before any of them is built.
    """
    picks, build = _sorted_picks(S, T)
    return [build(pick) for pick in picks]


def choose_mapping(
    rng: random.Random, S: JoinSemilattice, T: JoinSemilattice
) -> ApproximableMapping:
    """``rng.choice(enumerate_mappings(S, T))``, with the same draw from
    ``rng``, building only the mapping drawn."""
    picks, build = _sorted_picks(S, T)
    return build(rng.choice(picks))


def _sorted_picks(S: JoinSemilattice, T: JoinSemilattice) -> tuple[list, Callable]:
    """The monotone maps from ``S`` to ``T`` as target indices in a linear
    extension of ``S``, sorted as ``enumerate_mappings`` lists them, and the
    builder of the mapping of one of them."""
    P, Q = S.poset, T.poset
    _guard("enumerate_mappings", P.n * Q.n, ENUMERATION_GUARD)
    preds, pos = _memo(P, "_linear_extension", _linear_extension)
    picks = kernels.monotone_maps(P.n, preds, Q.up_masks, ENUMERATION_OUTPUT_GUARD)
    _guard("enumerate_mappings output", len(picks), ENUMERATION_OUTPUT_GUARD)
    # Sort by the raw join of the sorted pair ids without building it: their
    # set_id while member_id writes each raw, as it does unless names hold
    # unbalanced braces.  No pair id is a prefix of another, so of two mappings
    # the one holding the lowest-ranked pair they do not share comes first; a
    # pair list that is a prefix of another sorts after it, as "," < "}".  Pair
    # (i, j) of rank r among all N = |S|*|T| pairs is bit N-1-r, and the key is
    # minus the mapping's pair mask.  Pairs rank by first name, then by second, so
    # r is |T|*rank_S(i) + rank_T(j), and the bits of the pairs (i, b), b <= v,
    # are the down-cone bits of v over T shifted by |T|*(|S|-1-rank_S(i)).
    cone_bits = _memo(Q, "_pair_cone_bits", _pair_cone_bits)
    ranks = _memo(P, "_pair_ranks", lambda P: _pair_ranks(P, ","))
    rows = [None] * P.n
    for i, p in enumerate(pos):
        shift = (P.n - 1 - ranks[i]) * Q.n
        rows[p] = [bits << shift for bits in cone_bits]
    picks.sort(key=lambda pick: -sum(map(list.__getitem__, rows, pick)))
    els = Q.elements

    def build(pick) -> ApproximableMapping:
        return _trusted(ApproximableMapping, S, T, tuple(els[pick[p]] for p in pos))

    return picks, build


def _pair_ranks(P: FinitePoset, end: str) -> list[int]:
    """The rank of each element of ``P`` among its names as written in pair
    ids: ``_esc(a) + ","`` as a first name, ``_esc(b) + ")"`` as a second
    (``end``).  ``_esc`` escapes both ends, so two such keys first differ
    before either end, and the rank of a pair is its first name's rank,
    then its second's."""
    keys = [_esc(x) + end for x in P.elements]
    ranks = [0] * P.n
    for r, i in enumerate(sorted(range(P.n), key=keys.__getitem__)):
        ranks[i] = r
    return ranks


def _pair_cone_bits(Q: FinitePoset) -> list[int]:
    """For each element ``v`` of ``Q``, the second names ``b <= v`` as a
    mask, the second name of rank ``r`` at bit ``|Q|-1-r``."""
    ranks = _pair_ranks(Q, ")")
    return [sum(1 << (Q.n - 1 - ranks[b]) for b in _bits(down)) for down in Q.down_masks]
