"""Structures built from closure systems skip the public checks: their
orders come as masks and their bound tables are filled on first read.  Each
builder is checked here against a naive inclusion scan validated by the
public constructor, and each lazy table against the eager one."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat import context
from cxtcat.canon import set_id
from cxtcat.context import alg_lattice, attr_closure, sem_lattice
from cxtcat.corpus import random_context, random_join_semilattice, random_poset
from cxtcat.order import (
    FiniteLattice,
    JoinSemilattice,
    MeetSemilattice,
    ideal_completion,
    ideals,
    lattice_from_masks,
    powerset_lattice,
    validate_poset,
)

from test_index_oracles import lattice_from_sets


def inclusion_poset(names, sets):
    """The inclusion order of ``sets`` by a pairwise scan, checked by the
    public constructor."""
    pairs = [(a, b) for a, x in zip(names, sets) for b, y in zip(names, sets) if x <= y]
    return validate_poset(names, pairs)


def assert_same_order(P, Q):
    assert P == Q
    assert P.leq == Q.leq
    assert P.down_masks == Q.down_masks


def assert_like_eager(X, eager):
    """``X`` equals the structure the public constructor builds on its
    poset, unit by unit and table by table."""
    E = eager(X.poset)
    assert X == E
    for name in ("bottom", "top", "join_table", "meet_table"):
        if hasattr(E, name):
            assert getattr(X, name) == getattr(E, name), name


def unbuilt_tables(X):
    return {"join_table", "meet_table"} & set(vars(X)) == set()


def closure_system(rng, n_points):
    """A random family of subsets of ``n_points`` points closed under
    intersections, with the full set as the empty intersection."""
    points = [f"p{i}" for i in range(n_points)]
    fam = {frozenset(points)}
    for _ in range(rng.randint(0, 6)):
        s = frozenset(p for p in points if rng.random() < 0.5)
        fam |= {s & t for t in fam} | {s}
    return fam


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_concept_structures_match_the_inclusion_scan(seed):
    P = random_context(random.Random(seed), 6, 5)
    sem, alg = sem_lattice(P), alg_lattice(P)
    assert unbuilt_tables(sem.semilattice) and unbuilt_tables(alg.lattice)
    names = sem.elements
    naive = inclusion_poset(names, [sem.intents[x] for x in names])
    assert_same_order(sem.semilattice.poset, naive)
    assert_same_order(alg.lattice.poset, naive)
    assert_like_eager(sem.semilattice, JoinSemilattice)
    assert_like_eager(alg.lattice, FiniteLattice)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_concept_intents_are_closed(seed):
    """The intents are closed by construction, so neither build checks."""
    P = random_context(random.Random(seed), 6, 5)
    checked = context._check_closed
    context._check_closed = None  # a call would raise TypeError
    try:
        sem, alg = sem_lattice(P), alg_lattice(P)
    finally:
        context._check_closed = checked
    for X in (sem, alg):
        assert set(X.intents) == set(X.elements)
        for name, members in X.intents.items():
            assert attr_closure(P, members) == members and set_id(members) == name


@given(st.integers(0, 10**6), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_set_families_match_the_inclusion_scan(seed, n_points):
    """``lattice_from_sets`` on the family, and ``lattice_from_masks`` on its
    closure table (each subset mapped to the least member holding it, so
    masks repeat) over points listed out of name order, build one lattice."""
    fam = closure_system(random.Random(seed), n_points)
    L, decode = lattice_from_sets(fam)
    assert unbuilt_tables(L)
    assert_same_order(L.poset, inclusion_poset(L.elements, [decode[x] for x in L.elements]))
    assert_like_eager(L, FiniteLattice)
    points = [f"p{i}" for i in reversed(range(n_points))]
    closed = [sum(1 << points.index(p) for p in s) for s in fam]
    table = [
        min((c for c in closed if c & x == x), key=int.bit_count) for x in range(1 << n_points)
    ]
    M, members = lattice_from_masks(points, table)
    assert_same_order(M.poset, L.poset)
    assert members == decode and unbuilt_tables(M)


def test_powerset_lattice_matches_the_inclusion_scan():
    L, members = lattice_from_masks("abcd", range(16))
    assert L == powerset_lattice("abcd")
    assert_same_order(L.poset, inclusion_poset(L.elements, [members[x] for x in L.elements]))
    assert_like_eager(L, FiniteLattice)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_ideal_completions_match_the_inclusion_scan(seed):
    S = random_join_semilattice(random.Random(seed), 6)
    L = ideal_completion(S)
    members = {set_id(i.members): i.members for i in ideals(S)}
    assert_same_order(L.poset, inclusion_poset(L.elements, [members[x] for x in L.elements]))
    assert_like_eager(L, FiniteLattice)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_duals_match_the_reversed_scan(seed):
    rng = random.Random(seed)
    L, _ = lattice_from_sets(closure_system(rng, rng.randint(0, 4)))
    S = random_join_semilattice(rng, 6)
    for X in (L, S, S.dual(), sem_lattice(random_context(rng, 5, 4)).semilattice):
        D = X.dual()
        P = X.poset
        naive = validate_poset(P.elements, {(b, a) for a, b in P.leq})
        assert_same_order(D.poset, naive)
        assert unbuilt_tables(D)
        eager = {JoinSemilattice: MeetSemilattice, MeetSemilattice: JoinSemilattice}
        assert_like_eager(D, eager.get(type(X), FiniteLattice))
        assert D.dual() == X


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_restrictions_match_the_filtered_scan(seed):
    """On concept orders and on random orders not listed in name order."""
    rng = random.Random(seed)
    for P in (sem_lattice(random_context(rng, 6, 5)).semilattice.poset, random_poset(rng, 12)):
        keep = {x for x in P.elements if rng.random() < 0.5}
        naive = validate_poset(
            [x for x in P.elements if x in keep],
            {(a, b) for a, b in P.leq if a in keep and b in keep},
        )
        assert_same_order(P.restrict(keep), naive)
