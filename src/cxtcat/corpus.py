"""Seeded generation of small random structures for the law suites.

Everything is driven by an explicit ``random.Random`` so a fixed seed
reproduces the exact corpus; suites enumerate instances from small to large
so the first failure reported is a minimal one.
"""

from __future__ import annotations

import random
from typing import Callable, TypeVar

from .context import FormalContext, closed_masks, make_context
from .errors import ValidationError
from .logic import InformationSystem, close_entailment
from .order import (
    FiniteLattice,
    FinitePoset,
    JoinSemilattice,
    MeetSemilattice,
    _bits,
    ideal_completion,
    lattice_from_masks,
    validate_poset,
)

DEFAULT_SEED = 0xCAFED00D
T = TypeVar("T")


def rng_for(seed: int | None) -> random.Random:
    return random.Random(DEFAULT_SEED if seed is None else seed)


# ---------------------------------------------------------------------------
# fixed named structures


def chain_poset(n: int, prefix: str = "c") -> FinitePoset:
    els = tuple(f"{prefix}{i}" for i in range(n))
    return validate_poset(els, {(els[i], els[j]) for i in range(n) for j in range(i, n)})


def diamond_poset() -> FinitePoset:
    els = ("bot", "a", "b", "top")
    leq = {(x, x) for x in els} | {
        ("bot", "a"),
        ("bot", "b"),
        ("bot", "top"),
        ("a", "top"),
        ("b", "top"),
    }
    return validate_poset(els, leq)


def m3_poset() -> FinitePoset:
    els = ("0", "x", "y", "z", "1")
    leq = {(e, e) for e in els} | {("0", e) for e in els} | {(e, "1") for e in els}
    return validate_poset(els, leq)


def chain_context(n: int) -> FormalContext:
    """Context whose concept semilattice is an ``n``-chain."""
    objects = tuple(f"o{i}" for i in range(n))
    attributes = tuple(f"a{i}" for i in range(1, n))
    incidence = {
        (f"o{i}", f"a{j}") for i in range(n) for j in range(1, n) if j <= i
    }
    return make_context(objects, attributes, incidence)


def k2_context() -> FormalContext:
    return make_context(["o1", "o2"], ["a", "b"], [("o1", "a"), ("o2", "b")])


# ---------------------------------------------------------------------------
# random structures


def random_poset(rng: random.Random, n: int, prefix: str = "e") -> FinitePoset:
    els = [f"{prefix}{i}" for i in range(n)]
    rank = list(range(n))
    rng.shuffle(rank)
    p = rng.uniform(0.25, 0.75)
    above = [1 << i for i in range(n)]
    order = sorted(range(n), key=lambda i: rank[i])
    for ai, i in enumerate(order):
        for j in order[ai + 1:]:
            if rng.random() < p:
                above[i] |= 1 << j
    # Every drawn edge goes forward in ``order``, a linear extension, so one
    # pass from its end closes each cone over cones already closed.  The
    # cones are then reflexive and transitive, and antisymmetric as no edge
    # goes back: a partial order by construction.
    for i in reversed(order):
        cone = above[i]
        for j in _bits(cone & ~(1 << i)):
            cone |= above[j]
        above[i] = cone
    return FinitePoset._from_masks(tuple(els), above)


def _rejection(rng: random.Random, build: Callable, tries: int = 200):
    for _ in range(tries):
        out = build()
        if out is not None:
            return out
    raise RuntimeError("corpus generation failed to converge")


def random_join_semilattice(rng: random.Random, max_n: int) -> JoinSemilattice:
    def build():
        if rng.random() < 0.5:
            # union-closed family of subsets of a small base
            base = rng.randint(2, 3)
            k = rng.randint(1, 3)
            fam = {0}
            for _ in range(k):
                g = sum(1 << b for b in range(base) if rng.random() < 0.6)
                fam |= {s | g for s in fam}
            if len(fam) > max_n:
                return None
            # A finite family closed under unions that holds the empty set
            # is a lattice under inclusion.
            return lattice_from_masks([str(b) for b in range(base)], fam)[0].as_join_semilattice()
        P = random_poset(rng, rng.randint(1, max_n))
        try:
            return JoinSemilattice(P)
        except ValidationError:
            return None

    return _rejection(rng, build)


def random_meet_semilattice(rng: random.Random, max_n: int) -> MeetSemilattice:
    return random_join_semilattice(rng, max_n).dual()


def random_lattice(rng: random.Random, max_n: int) -> FiniteLattice:
    def build():
        if rng.random() < 0.4:
            S = random_join_semilattice(rng, max(2, max_n - 1))
            L = ideal_completion(S)
            return L if len(L.elements) <= max_n else None
        P = random_poset(rng, rng.randint(1, max_n))
        try:
            return FiniteLattice(P)
        except ValidationError:
            return None

    return _rejection(rng, build)


def random_context(
    rng: random.Random, max_objects: int, max_attributes: int
) -> FormalContext:
    n_o = rng.randint(1, max_objects)
    n_a = rng.randint(1, max_attributes)
    objects = tuple(f"o{i}" for i in range(n_o))
    attributes = tuple(f"a{i}" for i in range(n_a))
    p = rng.uniform(0.2, 0.8)
    # One draw per (object, attribute), objects outer, attributes inner.
    rows = tuple(sum(1 << j for j in range(n_a) if rng.random() < p) for _ in range(n_o))
    return FormalContext._from_rows(objects, attributes, rows)


def random_context_with_sem_at_most(
    rng: random.Random, max_sem: int, max_objects: int = 3, max_attributes: int = 3
) -> FormalContext:
    def build():
        P = random_context(rng, max_objects, max_attributes)
        return P if len(closed_masks(P)) <= max_sem else None

    return _rejection(rng, build)


def random_information_system(rng: random.Random, max_props: int) -> InformationSystem:
    n = rng.randint(1, max_props)
    props = [f"p{i}" for i in range(n)]
    raw = []
    for _ in range(rng.randint(0, 2 * n)):
        body = frozenset(p for p in props if rng.random() < 0.4)
        raw.append((body, rng.choice(props)))
    return close_entailment(props, raw)


def interner() -> Callable[[T], T]:
    """A map sending each value to the first equal value it was given.

    Structures memoize what is derived from them on the instance, so equal
    values routed through one interner share those memos.  The table lives
    as long as the returned function, which callers keep for one run.
    """
    table: dict = {}
    return lambda x: table.setdefault(x, x)


def corpus(
    count: int, make: Callable[[random.Random], T], seed: int | None = None
) -> list[T]:
    """``count`` structures from one seeded stream, sorted small to large;
    equal structures are one object."""
    rng = rng_for(seed)
    intern = interner()
    out = [intern(make(rng)) for _ in range(count)]
    out.sort(key=_size_key)
    return out


def _size_key(x) -> tuple:
    for attr in ("elements", "propositions", "objects"):
        v = getattr(x, attr, None)
        if v is not None:
            return (len(v), len(getattr(x, "attributes", ())))
    return (0, 0)
