import random
from itertools import chain as ichain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat.canon import set_id
from cxtcat.context import alg_lattice, attr_closure, context_of_semilattice
from cxtcat.corpus import (
    chain_poset,
    diamond_poset,
    k2_context,
    random_context,
    random_information_system,
    random_meet_semilattice,
)
from cxtcat.errors import ValidationError
from cxtcat.logic import (
    CcpSystem,
    InformationSystem,
    ccp_to_is,
    close_entailment,
    context_to_is,
    elements,
    is_to_ccp,
    lindenbaum,
    minimal_upper_bounds,
    rz_entails,
    semilattice_to_ccp,
    theorem_6_7_check,
)
from cxtcat.mappings import identity_mapping, validate_am
from cxtcat.order import (
    JoinSemilattice,
    MeetSemilattice,
    closed_family,
    flt_lattice,
    is_order_iso,
    validate_poset,
)


def subsets(xs):
    xs = sorted(xs)
    return [
        frozenset(c)
        for c in ichain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))
    ]


# ---------------------------------------------------------------------------
# entailment closure


def test_empty_raw_gives_reflexive_relation():
    s = close_entailment(["a", "b"], [])
    want = {(xs, a) for xs in subsets(["a", "b"]) for a in xs}
    assert s.entails == want


def brute_force_least_closed(props, raw):
    """Oracle: intersect every relation that contains the raw pairs and
    satisfies reflexivity and cut, found by scanning all relations."""
    universe = [(xs, a) for xs in subsets(props) for a in props]

    def closed(rel):
        for xs in subsets(props):
            for a in xs:
                if (xs, a) not in rel:
                    return False
        for xs in subsets(props):
            for ys in subsets(props):
                if all((xs, y) in rel for y in ys):
                    for a in props:
                        if (ys, a) in rel and (xs, a) not in rel:
                            return False
        return True

    best = None
    for mask in range(1 << len(universe)):
        rel = {p for i, p in enumerate(universe) if mask >> i & 1}
        if raw <= rel and closed(rel):
            best = rel if best is None else best & rel
    return frozenset(best)


def test_closure_consequences_match_brute_force():
    raw = {(frozenset({"a"}), "b")}
    s = close_entailment(["a", "b"], raw)
    assert s.holds({"a"}, "b") and s.holds({"a"}, "a")
    assert s.closure({"a"}) == {"a", "b"}
    assert s.closure(frozenset()) == frozenset()
    assert s.entails == brute_force_least_closed(("a", "b"), raw)


def test_closing_a_closed_relation_is_identity():
    s = close_entailment(["a", "b"], [({"a"}, "b")])
    again = close_entailment(s.propositions, [(xs, a) for xs, a in s.entails])
    assert again == s


def test_validation_builds_the_closure_table_that_closure_reads():
    s = close_entailment(["a", "b"], [({"a"}, "b")])
    table = s.__dict__["closure_masks"]  # the table validation checked
    assert table == (0b00, 0b11, 0b10, 0b11)  # indexed by antecedent mask
    assert s.closure({"a"}) == {"a", "b"}
    table_reads = []

    class Spy(tuple):
        def __getitem__(self, x):
            table_reads.append(x)
            return tuple.__getitem__(self, x)

    object.__setattr__(s, "closure_masks", Spy(table))
    assert s.closure({"b"}) == {"b"} and table_reads == [0b10]


def test_repr_shows_names_and_rebuilds_the_system():
    s = close_entailment(["a", "b"], [({"a"}, "b")])
    assert repr(s) == (
        "InformationSystem(propositions=('a', 'b'), entails=[(['a'], 'a'), (['a'], 'b'),"
        " (['a', 'b'], 'a'), (['a', 'b'], 'b'), (['b'], 'b')])"
    )
    c = is_to_ccp(s)
    assert repr(c) == (
        "CcpSystem(propositions=('a', 'b'), generators=[(['a'], ['a', 'b']),"
        " (['a', 'b'], ['a', 'b']), (['b'], ['b'])])"
    )
    env = {"InformationSystem": InformationSystem, "CcpSystem": CcpSystem}
    assert eval(repr(s), env) == s and eval(repr(c), env) == c


def test_validation_rejects_broken_cut():
    props = ("a", "b", "c")
    pairs = {(xs, a) for xs in subsets(props) for a in xs}
    pairs.add((frozenset({"a"}), "b"))  # a |- b but {a,?} loses it nowhere; add gap
    pairs.discard((frozenset({"a", "c"}), "a"))
    with pytest.raises(ValidationError) as exc:
        InformationSystem(props, frozenset(pairs))
    assert exc.value.law in ("infosys:ISi", "infosys:ISii")


def test_unknown_proposition():
    with pytest.raises(ValidationError):
        close_entailment(["a"], [({"a"}, "b")])


# ---------------------------------------------------------------------------
# sequent systems


def test_sequent_rules_hold():
    s = close_entailment(["a", "b", "c"], [({"a"}, "b"), ({"b", "c"}, "a")])
    C = is_to_ccp(s)
    atoms = set(C.propositions)
    for X in subsets(atoms):
        assert C.holds(X, frozenset())  # (T)
        assert C.holds(X, X)  # (R)
    # (And) / weakening on a sample
    assert C.holds({"a"}, {"b"})
    assert C.holds({"a"}, {"a", "b"})
    assert C.holds({"a", "c"}, {"b"})
    # (Cut)
    assert C.holds({"b", "c"}, {"a"}) and C.holds({"a"}, {"b"})
    assert C.holds({"b", "c"}, {"b"})


def test_round_trip_is_exact_identity():
    for seed in range(10):
        s = random_information_system(random.Random(seed), 5)
        C = is_to_ccp(s)
        assert ccp_to_is(C) == s
        assert is_to_ccp(ccp_to_is(C)) == C


def test_empty_proposition_system():
    s = close_entailment([], [])
    C = is_to_ccp(s)
    assert C.holds(frozenset(), frozenset())
    assert C.sequents() == frozenset({(frozenset(), frozenset())})


def test_materialized_sequents_example():
    s = close_entailment(["a", "b"], [({"a"}, "b")])
    seqs = is_to_ccp(s).sequents()
    assert (frozenset({"a"}), frozenset({"b"})) in seqs
    assert (frozenset({"a"}), frozenset({"a", "b"})) in seqs
    assert (frozenset({"b"}), frozenset({"a"})) not in seqs


# ---------------------------------------------------------------------------
# Lindenbaum algebras


def test_lindenbaum_of_trivial_two_prop_system():
    C = is_to_ccp(close_entailment(["a", "b"], []))
    la = lindenbaum(C)
    assert la.semilattice.elements == ("{a,b}", "{a}", "{b}", "{}")
    assert la.top == "{}"
    assert la.semilattice.le("{a,b}", "{a}")


def test_lindenbaum_meet_is_class_of_union():
    C = is_to_ccp(close_entailment(["a", "b"], []))
    la = lindenbaum(C)
    assert la.semilattice.meet("{a}", "{b}") == "{a,b}"
    assert la.class_of({"a"}) == "{a}"


def test_collapsing_system_has_one_class():
    C = is_to_ccp(close_entailment(["a"], [(set(), "a")]))
    la = lindenbaum(C)
    assert len(la.semilattice.elements) == 1


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_semilattice_round_trip(seed):
    S = random_meet_semilattice(random.Random(seed), 6)
    C = semilattice_to_ccp(S)
    la = lindenbaum(C)
    f = {a: la.class_of({a}) for a in S.elements}
    assert is_order_iso(S.poset, la.semilattice.poset, f)


def test_semilattice_to_ccp_examples():
    P2 = validate_poset(("0", "1"), {("0", "0"), ("1", "1"), ("0", "1")})
    M = MeetSemilattice(P2)
    C = semilattice_to_ccp(M)
    assert C.holds({"0"}, {"1"})
    assert not C.holds({"1"}, {"0"})
    MD = MeetSemilattice(diamond_poset())
    CD = semilattice_to_ccp(MD)
    assert CD.holds({"a", "b"}, {"bot"})


def test_dual_of_lindenbaum_feeds_the_mapping_category():
    C = is_to_ccp(close_entailment(["a", "b"], [({"a"}, "b")]))
    la = lindenbaum(C)
    S = la.semilattice.dual()
    assert isinstance(S, JoinSemilattice)
    identity_mapping(S)  # accepted as a morphism carrier
    validate_am(S, S, {(a, b) for a in S.elements for b in S.elements if S.le(b, a)})


@pytest.mark.parametrize("seed", range(20))
def test_closed_family_is_every_closure(seed):
    rng = random.Random(seed)
    systems = [
        random_information_system(rng, 6),
        semilattice_to_ccp(random_meet_semilattice(rng, 6)),
    ]
    for system in systems:
        cl, props = system.closure, system.propositions
        assert closed_family(cl, props) == {cl(xs) for xs in subsets(props)}


# ---------------------------------------------------------------------------
# models


def test_elements_no_entailment():
    s = close_entailment(["a"], [])
    lat, members = elements(s)
    assert set(lat.elements) == {"{}", "{a}"}


def test_elements_collapsing():
    s = close_entailment(["a"], [(set(), "a")])
    lat, _ = elements(s)
    assert lat.elements == ("{a}",)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_elements_of_context_system_match_concepts(seed):
    P = random_context(random.Random(seed), 4, 4)
    lat, _ = elements(context_to_is(P))
    assert set(lat.elements) == set(alg_lattice(P).elements)


def test_context_to_is_k2():
    s = context_to_is(k2_context())
    assert not s.holds(frozenset({"a"}), "b")
    assert s.holds(frozenset({"a", "b"}), "a")


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_models_are_filters_of_the_lindenbaum_algebra(seed):
    s = random_information_system(random.Random(seed), 5)
    lat, members = elements(s)
    la = lindenbaum(is_to_ccp(s))
    # closed set -> the classes whose representative it contains
    fl = flt_lattice(la.semilattice)
    fmap = {}
    for name in lat.elements:
        x = members[name]
        filt = frozenset(c for c, rep in la.classes.items() if rep <= x)
        fmap[name] = set_id(filt)
    assert is_order_iso(lat.poset, fl.poset, fmap)


# ---------------------------------------------------------------------------
# conjunction encoding invariance


def tree_atoms(tree):
    if tree == "T":
        return frozenset()
    if isinstance(tree, str):
        return frozenset({tree})
    return tree_atoms(tree[0]) | tree_atoms(tree[1])


def random_tree(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms + ["T"])
    return (random_tree(rng, atoms, depth - 1), random_tree(rng, atoms, depth - 1))


def rewrite(rng, tree):
    """Apply one sound rewrite: commute, reassociate, duplicate, drop units."""
    if isinstance(tree, str):
        return (tree, "T") if tree != "T" else "T"
    a, b = tree
    choice = rng.randrange(4)
    if choice == 0:
        return (b, a)
    if choice == 1 and isinstance(a, tuple):
        return (a[0], (a[1], b))
    if choice == 2:
        return ((a, a), b)
    return (rewrite(rng, a), b)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_formula_trees_normalize_invariantly(seed):
    rng = random.Random(seed)
    atoms = ["a", "b", "c"]
    s = random_information_system(rng, 3)
    props = list(s.propositions)
    trees = [random_tree(rng, props, 3) for _ in range(4)]
    C = is_to_ccp(s)
    for t in trees:
        base = tree_atoms(t)
        rewritten = t
        for _ in range(4):
            rewritten = rewrite(rng, rewritten)
        assert tree_atoms(rewritten) == base
        for u in trees:
            assert C.holds(tree_atoms(t), tree_atoms(u)) == C.holds(
                tree_atoms(rewritten), tree_atoms(u)
            )


# ---------------------------------------------------------------------------
# bound entailment


def test_rz_two_chain():
    P = validate_poset(("x", "y"), {("x", "x"), ("y", "y"), ("x", "y")})
    assert not rz_entails(P, {"x"}, {"y"})
    assert rz_entails(P, {"y"}, {"x"})


def test_rz_vacuous_without_upper_bounds():
    P = validate_poset(
        ("bot", "a", "b"),
        {("bot", "bot"), ("a", "a"), ("b", "b"), ("bot", "a"), ("bot", "b")},
    )
    assert minimal_upper_bounds(P, {"a", "b"}) == frozenset()
    assert rz_entails(P, {"a", "b"}, {"a", "b", "bot"})


def test_rz_empty_antecedent_uses_minimal_elements():
    P = diamond_poset()
    assert minimal_upper_bounds(P, []) == {"bot"}
    assert rz_entails(P, [], {"bot"})
    assert not rz_entails(P, [], {"a"})


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_rz_agrees_with_joins_on_lattices(seed):
    rng = random.Random(seed)
    from cxtcat.corpus import random_lattice

    L = random_lattice(rng, 5)
    for _ in range(5):
        xs = frozenset(x for x in L.elements if rng.random() < 0.4)
        ys = frozenset(y for y in L.elements if rng.random() < 0.3)
        want = all(L.le(y, L.join_all(xs)) for y in ys)
        assert rz_entails(L.poset, xs, ys) == want


# ---------------------------------------------------------------------------
# closure versus entailment over the concept lattice


def test_thm67_k2_singleton():
    P = k2_context()
    r = theorem_6_7_check(P)
    assert r.ok
    assert attr_closure(P, ["a"]) == {"a"}


def test_thm67_empty_set_case():
    P = k2_context()
    alg = alg_lattice(P)
    iota = {a: set_id(attr_closure(P, [a])) for a in P.attributes}
    bottom_members = attr_closure(P, [])
    rhs = {
        a for a in P.attributes if rz_entails(alg.lattice.poset, [], [iota[a]])
    }
    assert rhs == bottom_members


def test_thm67_greater_equal_contexts():
    for n in range(1, 5):
        S = JoinSemilattice(chain_poset(n))
        assert theorem_6_7_check(context_of_semilattice(S)).ok
    S = JoinSemilattice(diamond_poset())
    assert theorem_6_7_check(context_of_semilattice(S)).ok
