"""Conjunctive deductive systems, information systems, and their algebras.

Formulas of the conjunctive fragment are canonicalized to finite proposition
sets (conjunction is associative, commutative, idempotent, and the unit can
be eliminated), so consequence relations become set-level closure engines.
Entailment systems, their Lindenbaum semilattices, deductively closed
models, and the minimal-upper-bound entailment over arbitrary finite posets
live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .canon import set_id
from .context import FormalContext, alg_lattice, attr_closure
from .errors import SizeGuardExceeded, ValidationError
from .order import (
    FiniteLattice,
    FinitePoset,
    MeetSemilattice,
    closed_family,
    lattice_from_sets,
)

# Entailment relations are materialized over the full powerset of
# propositions; this caps the width.
PROPOSITION_GUARD = 12
SEQUENT_MATERIALIZE_GUARD = 10

Entailment = frozenset[tuple[frozenset[str], str]]


def _forward_chain(
    start: frozenset[str], rules: Iterable[tuple[frozenset[str], frozenset[str]]]
) -> frozenset[str]:
    """Least superset of ``start`` closed under the given body/head rules."""
    out = set(start)
    changed = True
    while changed:
        changed = False
        for body, head in rules:
            if body <= out and not head <= out:
                out |= head
                changed = True
    return frozenset(out)


@dataclass(frozen=True)
class InformationSystem:
    """Propositions with a finitary entailment relation (reflexive and cut-closed)."""

    propositions: tuple[str, ...]
    entails: Entailment

    def __post_init__(self):
        props = set(self.propositions)
        if len(props) != len(self.propositions):
            raise ValidationError("duplicate proposition", law="infosys:propositions")
        if len(props) > PROPOSITION_GUARD:
            raise SizeGuardExceeded("information system", len(props), PROPOSITION_GUARD)
        for xs, a in sorted(self.entails, key=lambda p: (set_id(p[0]), p[1])):
            if a not in props or not xs <= props:
                raise ValidationError(
                    f"entailment ({set_id(xs)}, {a!r}) references unknown propositions",
                    law="unknown-element",
                    witness={"pair": [sorted(xs), a]},
                )
        cl = self.closure_table
        for xs, members in cl.items():
            for a in xs:
                if a not in members:
                    raise ValidationError(
                        f"reflexivity fails: {set_id(frozenset(xs))} does not entail {a!r}",
                        law="infosys:ISi",
                        witness={"set": sorted(xs), "atom": a},
                    )
        # With reflexivity, the cut rule is equivalent to monotonicity plus
        # idempotence of the induced closure; witnesses are genuine cut breaches.
        for xs, members in cl.items():
            for b in self.propositions:
                bigger = frozenset(set(xs) | {b})
                if not members <= cl[bigger]:
                    a = sorted(members - cl[bigger])[0]
                    raise ValidationError(
                        "cut fails under antecedent weakening",
                        law="infosys:ISii",
                        witness={"set": sorted(bigger), "via": sorted(xs), "atom": a},
                    )
            closed = cl[frozenset(members)]
            if not closed <= members:
                a = sorted(closed - members)[0]
                raise ValidationError(
                    "cut fails: closure is not idempotent",
                    law="infosys:ISii",
                    witness={"set": sorted(xs), "via": sorted(members), "atom": a},
                )

    @cached_property
    def closure_table(self) -> dict[frozenset[str], frozenset[str]]:
        by_x: dict[frozenset[str], set[str]] = {}
        for xs, a in self.entails:
            by_x.setdefault(xs, set()).add(a)
        out = {}
        for m in range(1 << len(self.propositions)):
            xs = frozenset(p for i, p in enumerate(self.propositions) if m >> i & 1)
            out[xs] = frozenset(by_x.get(xs, set()))
        return out

    def closure(self, xs: Iterable[str]) -> frozenset[str]:
        return self.closure_table[frozenset(xs)]

    def holds(self, xs: Iterable[str], a: str) -> bool:
        return (frozenset(xs), a) in self.entails


def close_entailment(
    propositions: Iterable[str], raw: Iterable[tuple[Iterable[str], str]]
) -> InformationSystem:
    """Least entailment relation containing ``raw``: saturate reflexivity and
    cut by forward chaining on every antecedent set."""
    props = tuple(propositions)
    pset = set(props)
    if len(pset) > PROPOSITION_GUARD:
        raise SizeGuardExceeded("close_entailment", len(pset), PROPOSITION_GUARD)
    rules = []
    for xs, a in raw:
        xs = frozenset(xs)
        if a not in pset or not xs <= pset:
            raise ValidationError(
                f"raw pair ({set_id(xs)}, {a!r}) references unknown propositions",
                law="unknown-element",
                witness={"pair": [sorted(xs), a]},
            )
        rules.append((xs, frozenset({a})))
    pairs = set()
    for m in range(1 << len(props)):
        xs = frozenset(p for i, p in enumerate(props) if m >> i & 1)
        for a in _forward_chain(xs, rules):
            pairs.add((xs, a))
    return InformationSystem(props, frozenset(pairs))


@dataclass(frozen=True)
class CcpSystem:
    """Consequence relation of the conjunctive fragment, on set-encoded formulas.

    Stores a generating set of sequents; derivability is decided by a
    memoized closure engine.  Two systems are equal when they derive the same
    sequents, regardless of the generators given.
    """

    propositions: tuple[str, ...]
    generators: frozenset[tuple[frozenset[str], frozenset[str]]]

    def __post_init__(self):
        props = set(self.propositions)
        if len(props) != len(self.propositions):
            raise ValidationError("duplicate proposition", law="ccp:propositions")
        if len(props) > PROPOSITION_GUARD:
            raise SizeGuardExceeded("ccp system", len(props), PROPOSITION_GUARD)
        for xs, ys in self.generators:
            if not xs <= props or not ys <= props:
                raise ValidationError(
                    "generator sequent references unknown propositions",
                    law="unknown-element",
                    witness={"pair": [sorted(xs), sorted(ys)]},
                )

    @cached_property
    def _cache(self) -> dict[frozenset[str], frozenset[str]]:
        return {}

    def closure(self, xs: Iterable[str]) -> frozenset[str]:
        """All propositions derivable from the conjunction of ``xs``."""
        key = frozenset(xs)
        hit = self._cache.get(key)
        if hit is None:
            hit = _forward_chain(key, self.generators)
            self._cache[key] = hit
        return hit

    def holds(self, xs: Iterable[str], ys: Iterable[str]) -> bool:
        """Whether the sequent (antecedent conjunction, consequent conjunction) is derivable."""
        return frozenset(ys) <= self.closure(xs)

    def sequents(
        self, guard: int = SEQUENT_MATERIALIZE_GUARD
    ) -> frozenset[tuple[frozenset[str], frozenset[str]]]:
        """Materialize every derivable sequent; exponential, hence guarded."""
        n = len(self.propositions)
        if n > guard:
            raise SizeGuardExceeded("ccp sequent materialization", n, guard)
        out = set()
        for m in range(1 << n):
            xs = frozenset(p for i, p in enumerate(self.propositions) if m >> i & 1)
            cx = sorted(self.closure(xs))
            for k in range(1 << len(cx)):
                out.add((xs, frozenset(c for i, c in enumerate(cx) if k >> i & 1)))
        return frozenset(out)

    def __eq__(self, other):
        if not isinstance(other, CcpSystem):
            return NotImplemented
        if self.propositions != other.propositions:
            return False
        for m in range(1 << len(self.propositions)):
            xs = frozenset(p for i, p in enumerate(self.propositions) if m >> i & 1)
            if self.closure(xs) != other.closure(xs):
                return False
        return True

    def __hash__(self):
        return hash(self.propositions)


def is_to_ccp(system: InformationSystem) -> CcpSystem:
    """A sequent holds when every consequent atom is entailed by the antecedent set."""
    return CcpSystem(
        system.propositions,
        frozenset((xs, frozenset({a})) for xs, a in system.entails),
    )


def ccp_to_is(system: CcpSystem) -> InformationSystem:
    """Restrict the sequent relation to single-atom consequents."""
    pairs = set()
    for m in range(1 << len(system.propositions)):
        xs = frozenset(p for i, p in enumerate(system.propositions) if m >> i & 1)
        for a in system.closure(xs):
            pairs.add((xs, a))
    return InformationSystem(system.propositions, frozenset(pairs))


@dataclass(frozen=True)
class LindenbaumAlgebra:
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
        return set_id(self.system.closure(xs))

    def __eq__(self, other):
        if not isinstance(other, LindenbaumAlgebra):
            return NotImplemented
        return self.system == other.system and self.semilattice == other.semilattice

    def __hash__(self):
        return hash((self.system, self.semilattice))


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
    """All deductively closed proposition sets, as a lattice under inclusion."""
    return lattice_from_sets(closed_family(system.closure, system.propositions))


def context_to_is(P: FormalContext) -> InformationSystem:
    """Propositions are the attributes; a set entails every member of its
    intent closure."""
    attrs = P.attributes
    if len(attrs) > PROPOSITION_GUARD:
        raise SizeGuardExceeded("context_to_is", len(attrs), PROPOSITION_GUARD)
    pairs = set()
    for m in range(1 << len(attrs)):
        xs = frozenset(a for i, a in enumerate(attrs) if m >> i & 1)
        for a in attr_closure(P, xs):
            pairs.add((xs, a))
    return InformationSystem(attrs, frozenset(pairs))


# ---------------------------------------------------------------------------
# minimal-upper-bound entailment


def minimal_upper_bounds(D: FinitePoset, xs: Iterable[str]) -> frozenset[str]:
    xs = frozenset(xs)
    D.check_members(xs)
    ubs = [u for u in D.elements if all(D.le(x, u) for x in xs)]
    return D.minimal(ubs)


def rz_entails(D: FinitePoset, xs: Iterable[str], ys: Iterable[str]) -> bool:
    """Every minimal upper bound of the antecedents dominates every consequent.

    Works on arbitrary finite posets; with no upper bounds at all the sequent
    holds vacuously.
    """
    ys = frozenset(ys)
    D.check_members(ys)
    return all(
        D.le(y, m) for m in minimal_upper_bounds(D, xs) for y in ys
    )


@dataclass(frozen=True)
class Thm67Report:
    ok: bool
    context: FormalContext
    failures: tuple[dict, ...]

    def as_dict(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures)}


def theorem_6_7_check(P: FormalContext, guard: int = PROPOSITION_GUARD) -> Thm67Report:
    """Intent closure agrees with minimal-upper-bound entailment over the
    concept lattice, taking each attribute to the closure of its singleton."""
    attrs = P.attributes
    if len(attrs) > guard:
        raise SizeGuardExceeded("theorem_6_7_check", len(attrs), guard)
    alg = alg_lattice(P)
    D = alg.lattice.poset
    iota = {a: set_id(attr_closure(P, [a])) for a in attrs}
    failures = []
    for m in range(1 << len(attrs)):
        xs = frozenset(a for i, a in enumerate(attrs) if m >> i & 1)
        lhs = attr_closure(P, xs)
        rhs = frozenset(
            a for a in attrs if rz_entails(D, [iota[x] for x in xs], [iota[a]])
        )
        if lhs != rhs:
            failures.append(
                {"set": sorted(xs), "closure": sorted(lhs), "entailed": sorted(rhs)}
            )
    return Thm67Report(not failures, P, tuple(failures))
