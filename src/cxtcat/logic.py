"""Conjunctive deductive systems, information systems, and their algebras.

Formulas of the conjunctive fragment are canonicalized to finite proposition
sets (conjunction is associative, commutative, idempotent, and the unit can
be eliminated), so consequence relations become set-level closure engines.
Entailment systems, their Lindenbaum semilattices, deductively closed
models, and the minimal-upper-bound entailment over arbitrary finite posets
live here.

A system over ``n`` propositions is held as one closure table of ``2^n``
ints: bit ``i`` of a mask stands for ``propositions[i]``, and
``closure_masks[x]`` is the mask of everything the antecedent mask ``x``
entails.  Names are read and written only at the edges.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from . import kernels
from .canon import set_id
from .context import FormalContext, alg_lattice, concept_masks
from .errors import ValidationError
from .order import (
    FiniteLattice,
    FinitePoset,
    MeetSemilattice,
    _bits,
    _guard,
    lattice_from_masks,
    named_masks,
)
from .value import Value

# Entailment relations are materialized over the full powerset of
# propositions; this caps the width.
PROPOSITION_GUARD = 12
SEQUENT_MATERIALIZE_GUARD = 10

Entailment = frozenset[tuple[frozenset[str], str]]


def _index(propositions: tuple[str, ...], law: str, stage: str) -> dict[str, int]:
    index = {p: i for i, p in enumerate(propositions)}
    if len(index) != len(propositions):
        raise ValidationError("duplicate proposition", law=law)
    _guard(stage, len(index), PROPOSITION_GUARD)
    return index


def _masks(index: dict[str, int], *sides: Iterable[str]) -> list[int]:
    """The mask of each side; the least unknown name on any side raises."""
    out, unknown = [], []
    for side in sides:
        m = 0
        for x in side:
            i = index.get(x)
            if i is None:
                unknown.append(x)
            else:
                m |= 1 << i
        out.append(m)
    if unknown:
        x = min(unknown)
        raise ValidationError(
            f"unknown proposition {x!r}", law="unknown-element", witness={"element": x}
        )
    return out


def _set(props: tuple[str, ...], mask: int) -> frozenset[str]:
    return frozenset(props[i] for i in _bits(mask))


def _names(props: tuple[str, ...], mask: int) -> list[str]:
    return sorted(props[i] for i in _bits(mask))


def _least(props: tuple[str, ...], mask: int) -> str:
    return min(props[i] for i in _bits(mask))


def _chain(n: int, rules: Iterable[tuple[int, int]]) -> list[int]:
    """Closure table of the Horn rules ``(body mask, head mask)`` over ``n``
    propositions, filled from the top mask down.

    When a rule has ``body ⊆ x`` and ``head ⊄ x``, the closure of ``x`` is
    the closure of ``x | head``, a larger mask and so already filled; when
    no rule fires, ``x`` is closed.
    """
    live = [(body, head) for body, head in rules if head & ~body]
    cl = [0] * (1 << n)
    for x in range(len(cl) - 1, -1, -1):
        for body, head in live:
            if body & x == body and head & ~x:
                cl[x] = cl[x | head]
                break
        else:
            cl[x] = x
    return cl


def _checked(props: tuple[str, ...], cl: Sequence[int]) -> tuple[int, ...]:
    """``cl`` once it is reflexive (ISi) and closed under cut (ISii); the
    first breach in antecedent-mask order raises with its witness, the least
    offending atom by name."""
    for x, c in enumerate(cl):
        if x & ~c:
            a = _least(props, x & ~c)
            raise ValidationError(
                f"reflexivity fails: {set_id(_names(props, x))} does not entail {a!r}",
                law="infosys:ISi",
                witness={"set": _names(props, x), "atom": a},
            )
    # With reflexivity, the cut rule is equivalent to monotonicity plus
    # idempotence of the induced closure; witnesses are genuine cut breaches.
    bits = [1 << i for i in range(len(props))]
    for x, c in enumerate(cl):
        for b in bits:
            lost = c & ~cl[x | b]
            if lost:
                raise ValidationError(
                    "cut fails under antecedent weakening",
                    law="infosys:ISii",
                    witness={
                        "set": _names(props, x | b),
                        "via": _names(props, x),
                        "atom": _least(props, lost),
                    },
                )
        lost = cl[c] & ~c
        if lost:
            raise ValidationError(
                "cut fails: closure is not idempotent",
                law="infosys:ISii",
                witness={
                    "set": _names(props, x),
                    "via": _names(props, c),
                    "atom": _least(props, lost),
                },
            )
    return tuple(cl)


class _MaskSystem:
    """Names in, names out over ``propositions`` and ``closure_masks``."""

    propositions: tuple[str, ...]
    closure_masks: tuple[int, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.propositions)}

    def closure(self, xs: Iterable[str]) -> frozenset[str]:
        """All propositions the conjunction of ``xs`` entails."""
        (x,) = _masks(self.index, xs)
        return _set(self.propositions, self.closure_masks[x])

    def holds(self, xs: Iterable[str], ys: Iterable[str]) -> bool:
        """Whether the conjunction of ``xs`` entails every member of ``ys``."""
        x, y = _masks(self.index, xs, ys)
        return self.closure_masks[x] & y == y


class InformationSystem(_MaskSystem, Value):
    """Propositions with a finitary entailment relation (reflexive and
    cut-closed), held as its closure table.

    Equality and hashing read ``propositions`` and ``closure_masks``;
    ``entails`` (the relation as name pairs) and ``closure_table`` are
    derived on first read.  ``InformationSystem(propositions, entails)``
    checks the names and both laws; ``_from_table`` takes a table over names
    valid by construction and still checks both laws.
    """

    propositions: tuple[str, ...]
    closure_masks: tuple[int, ...]

    def __init__(
        self, propositions: tuple[str, ...], entails: Iterable[tuple[Iterable[str], str]]
    ):
        # The checks live in ``__post_init__``, as on the order types, so
        # that per-layer benchmarks count them alike.
        self.__dict__["propositions"] = propositions
        self.__post_init__(entails)

    def __post_init__(self, entails):
        index = _index(self.propositions, "infosys:propositions", "information system")
        table = [0] * (1 << len(index))
        unknown = []
        for xs, a in entails:
            try:
                body, head = _masks(index, xs, (a,))
            except ValidationError:
                unknown.append((xs, a))
                continue
            table[body] |= head
        if unknown:
            xs, a = min(unknown, key=lambda p: (set_id(p[0]), p[1]))
            raise ValidationError(
                f"entailment ({set_id(xs)}, {a!r}) references unknown propositions",
                law="unknown-element",
                witness={"pair": [sorted(xs), a]},
            )
        self.__dict__["closure_masks"] = _checked(self.propositions, table)

    @classmethod
    def _from_table(cls, propositions: tuple[str, ...], table: Sequence[int]) -> InformationSystem:
        S = object.__new__(cls)
        S.__dict__.update(propositions=propositions, closure_masks=_checked(propositions, table))
        return S

    def __repr__(self) -> str:
        entails = sorted((sorted(xs), a) for xs, a in self.entails)
        return f"InformationSystem(propositions={self.propositions!r}, entails={entails!r})"

    @cached_property
    def entails(self) -> Entailment:
        props = self.propositions
        return frozenset(
            (_set(props, x), props[i]) for x, c in enumerate(self.closure_masks) for i in _bits(c)
        )

    @cached_property
    def closure_table(self) -> dict[frozenset[str], frozenset[str]]:
        props = self.propositions
        return {_set(props, x): _set(props, c) for x, c in enumerate(self.closure_masks)}

    def holds(self, xs: Iterable[str], a: str) -> bool:
        return super().holds(xs, (a,))


def close_entailment(
    propositions: Iterable[str], raw: Iterable[tuple[Iterable[str], str]]
) -> InformationSystem:
    """Least entailment relation containing ``raw``: saturate reflexivity and
    cut by chaining the raw pairs, as rules, on every antecedent mask."""
    props = tuple(propositions)
    index = _index(props, "infosys:propositions", "close_entailment")
    heads: dict[int, int] = {}
    for xs, a in raw:
        xs = frozenset(xs)
        try:
            body, head = _masks(index, xs, (a,))
        except ValidationError:
            raise ValidationError(
                f"raw pair ({set_id(xs)}, {a!r}) references unknown propositions",
                law="unknown-element",
                witness={"pair": [sorted(xs), a]},
            ) from None
        heads[body] = heads.get(body, 0) | head
    return InformationSystem._from_table(props, _chain(len(props), heads.items()))


class CcpSystem(_MaskSystem, Value):
    """Consequence relation of the conjunctive fragment, on set-encoded formulas.

    Holds its generating sequents as ``rules``, ``(body mask, head mask)``
    pairs with one rule per body (generators sharing a body are merged);
    derivability reads one closure table, filled by chaining the rules on
    first read.  Two systems are equal when they derive the same sequents,
    regardless of the generators given.
    """

    propositions: tuple[str, ...]
    rules: tuple[tuple[int, int], ...]

    def __init__(
        self,
        propositions: tuple[str, ...],
        generators: Iterable[tuple[Iterable[str], Iterable[str]]],
    ):
        self.__dict__["propositions"] = propositions
        self.__post_init__(generators)

    def __post_init__(self, generators):
        index = _index(self.propositions, "ccp:propositions", "ccp system")
        heads: dict[int, int] = {}
        bad = []
        for xs, ys in generators:
            try:
                body, head = _masks(index, xs, ys)
            except ValidationError:
                bad.append((sorted(xs), sorted(ys)))
                continue
            heads[body] = heads.get(body, 0) | head
        if bad:
            raise ValidationError(
                "generator sequent references unknown propositions",
                law="unknown-element",
                witness={"pair": list(min(bad))},
            )
        self.__dict__["rules"] = tuple(sorted(heads.items()))

    @classmethod
    def _from_rules(cls, propositions: tuple[str, ...], heads: dict[int, int]) -> CcpSystem:
        C = object.__new__(cls)
        C.__dict__.update(propositions=propositions, rules=tuple(sorted(heads.items())))
        return C

    def __repr__(self) -> str:
        gens = sorted((sorted(xs), sorted(ys)) for xs, ys in self.generators)
        return f"CcpSystem(propositions={self.propositions!r}, generators={gens!r})"

    @cached_property
    def generators(self) -> frozenset[tuple[frozenset[str], frozenset[str]]]:
        props = self.propositions
        return frozenset((_set(props, body), _set(props, head)) for body, head in self.rules)

    @cached_property
    def closure_masks(self) -> tuple[int, ...]:
        return tuple(_chain(len(self.propositions), self.rules))

    def sequents(self) -> frozenset[tuple[frozenset[str], frozenset[str]]]:
        """Materialize every derivable sequent; exponential, hence guarded."""
        props = self.propositions
        _guard("ccp sequent materialization", len(props), SEQUENT_MATERIALIZE_GUARD)
        out = set()
        for x, c in enumerate(self.closure_masks):
            xs, sub = _set(props, x), c
            while True:
                out.add((xs, _set(props, sub)))
                if not sub:
                    break
                sub = (sub - 1) & c
        return frozenset(out)

    def __eq__(self, other):
        if not isinstance(other, CcpSystem):
            return NotImplemented
        return (
            self.propositions == other.propositions
            and self.closure_masks == other.closure_masks
        )

    def __hash__(self):
        return hash(self.propositions)


def is_to_ccp(system: InformationSystem) -> CcpSystem:
    """A sequent holds when every consequent atom is entailed by the
    antecedent set: one generator per antecedent, with its closure as head."""
    return CcpSystem._from_rules(
        system.propositions, {x: c for x, c in enumerate(system.closure_masks) if c}
    )


def ccp_to_is(system: CcpSystem) -> InformationSystem:
    """Restrict the sequent relation to single-atom consequents."""
    return InformationSystem._from_table(system.propositions, system.closure_masks)


class LindenbaumAlgebra(Value, uncompared=("classes",)):
    """Equivalence classes of formulas, ordered by entailment.

    Classes are represented by their deductive closures; the class of the
    empty conjunction is the top.
    """

    system: CcpSystem
    semilattice: MeetSemilattice
    classes: dict[str, frozenset[str]]

    @property
    def top(self) -> str:
        return self.semilattice.top

    def class_of(self, xs: Iterable[str]) -> str:
        S = self.system
        (x,) = _masks(S.index, xs)
        return named_masks(S.propositions, (S.closure_masks[x],))[0][0]


def lindenbaum(system: CcpSystem) -> LindenbaumAlgebra:
    """Quotient by inter-derivability: classes are closures, the order is
    entailment (reverse inclusion of closures), meets join the antecedents."""
    lat, classes = elements(system)
    return LindenbaumAlgebra(system, MeetSemilattice(lat.poset.dual()), classes)


def semilattice_to_ccp(S: MeetSemilattice) -> CcpSystem:
    """Sequents are meet comparisons: a conjunction entails whatever is above
    the meet of its antecedents (the empty conjunction denotes the top)."""
    gens = set()
    els = S.elements
    gens.add((frozenset(), frozenset({S.top})))
    for a in els:
        for b in els:
            gens.add((frozenset({a, b}), frozenset({S.meet(a, b)})))
            if S.le(a, b):
                gens.add((frozenset({a}), frozenset({b})))
    return CcpSystem(els, frozenset(gens))


def elements(
    system: InformationSystem | CcpSystem,
) -> tuple[FiniteLattice, dict[str, frozenset[str]]]:
    """All deductively closed proposition sets, as a lattice under inclusion:
    the distinct values of the closure table."""
    return lattice_from_masks(system.propositions, system.closure_masks)


def context_to_is(P: FormalContext) -> InformationSystem:
    """Propositions are the attributes; a set entails every member of its
    intent closure."""
    attrs = P.attributes
    _guard("context_to_is", len(attrs), PROPOSITION_GUARD)
    rows, full = P.rows, P.full_attr_mask
    return InformationSystem._from_table(
        attrs, [kernels.closure_mask(rows, full, x) for x in range(1 << len(attrs))]
    )


# ---------------------------------------------------------------------------
# minimal-upper-bound entailment


def _mub_mask(D: FinitePoset, xs: int) -> int:
    """The minimal upper bounds of the element mask ``xs``, as a mask: the
    AND of the members' up-cones, then the bounds whose down-cone holds no
    other bound."""
    up, down = D.up_masks, D.down_masks
    ubs = (1 << D.n) - 1
    for i in _bits(xs):
        ubs &= up[i]
    out = 0
    for u in _bits(ubs):
        if not down[u] & ubs & ~(1 << u):
            out |= 1 << u
    return out


def _below_all(D: FinitePoset, mask: int) -> int:
    """The elements below every member of ``mask`` (all of them when it is
    empty)."""
    common = (1 << D.n) - 1
    for u in _bits(mask):
        common &= D.down_masks[u]
    return common


def minimal_upper_bounds(D: FinitePoset, xs: Iterable[str]) -> frozenset[str]:
    xs = frozenset(xs)
    D.check_members(xs)
    return D.set_of(_mub_mask(D, D.mask_of(xs)))


def rz_entails(D: FinitePoset, xs: Iterable[str], ys: Iterable[str]) -> bool:
    """Every minimal upper bound of the antecedents dominates every consequent.

    Works on arbitrary finite posets; with no upper bounds at all the sequent
    holds vacuously.
    """
    ys = frozenset(ys)
    D.check_members(ys)
    xs = frozenset(xs)
    D.check_members(xs)
    y = D.mask_of(ys)
    return _below_all(D, _mub_mask(D, D.mask_of(xs))) & y == y


class Thm67Report(Value):
    ok: bool
    context: FormalContext
    failures: tuple[dict, ...]

    def as_dict(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


def theorem_6_7_check(P: FormalContext) -> Thm67Report:
    """Intent closure agrees with minimal-upper-bound entailment over the
    concept lattice, taking each attribute to the closure of its singleton.

    Both sides are attribute masks: the closure from the object rows, and
    the attributes whose image lies below every minimal upper bound of the
    images of the set."""
    attrs = P.attributes
    _guard("theorem_6_7_check", len(attrs), PROPOSITION_GUARD)
    D = alg_lattice(P).lattice.poset
    rows, full = P.rows, P.full_attr_mask
    concept = {m: i for i, m in enumerate(concept_masks(P))}
    iota = [concept[kernels.closure_mask(rows, full, 1 << a)] for a in range(len(attrs))]
    failures = []
    for m in range(1 << len(attrs)):
        lhs = kernels.closure_mask(rows, full, m)
        images = 0
        for a in _bits(m):
            images |= 1 << iota[a]
        below = _below_all(D, _mub_mask(D, images))
        rhs = 0
        for a, c in enumerate(iota):
            if below >> c & 1:
                rhs |= 1 << a
        if lhs != rhs:
            failures.append(
                {
                    "set": _names(attrs, m),
                    "closure": _names(attrs, lhs),
                    "entailed": _names(attrs, rhs),
                }
            )
    return Thm67Report(not failures, P, tuple(failures))
