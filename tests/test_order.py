import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat.corpus import (
    chain_poset,
    diamond_poset,
    m3_poset,
    random_join_semilattice,
    random_lattice,
    random_poset,
)
from cxtcat.errors import SizeGuardExceeded, ValidationError
from cxtcat.order import (
    ClosureOperator,
    Filter,
    FiniteLattice,
    FinitePoset,
    Ideal,
    JoinSemilattice,
    MeetSemilattice,
    closure_from_system,
    compacts,
    down_set,
    filters,
    finite_extension,
    flt_lattice,
    ideal_completion,
    is_algebraic,
    is_distributive,
    is_order_iso,
    join_irreducibles,
    join_primes,
    meet_irreducibles,
    meet_primes,
    order_isomorphism,
    powerset_lattice,
    powerset_members,
    theorem_3_6_isos,
    up_set,
    validate_poset,
)


def diamond_lattice():
    return FiniteLattice.from_poset(diamond_poset())


def chain_lattice(n):
    return FiniteLattice.from_poset(chain_poset(n))


# ---------------------------------------------------------------------------
# poset validation


def test_singleton_poset():
    P = validate_poset(["x"], [("x", "x")])
    assert P.elements == ("x",)


def test_antisymmetry_witness():
    with pytest.raises(ValidationError) as exc:
        validate_poset(["x", "y"], [("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")])
    assert exc.value.law == "poset:antisymmetry"
    assert set(exc.value.witness["pair"]) == {"x", "y"}


def test_antisymmetry_witness_is_the_smallest_pair():
    """Ten breaches: the witness is the least one, whatever order the
    relation's set iterates in."""
    names = [f"e{i:02d}" for i in range(20)]
    breaches = [(names[i], names[i + 1]) for i in range(0, 20, 2)]
    leq = [(x, x) for x in names] + breaches + [(b, a) for a, b in breaches]
    with pytest.raises(ValidationError) as exc:
        validate_poset(names[::-1], leq)
    assert exc.value.law == "poset:antisymmetry"
    assert exc.value.witness["pair"] == ["e00", "e01"]


def test_transitivity_witness():
    with pytest.raises(ValidationError) as exc:
        validate_poset(
            ["a", "b", "c"],
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
        )
    assert exc.value.law == "poset:transitivity"
    assert exc.value.witness["pair"] == ["a", "c"]


def test_reflexivity_witness():
    with pytest.raises(ValidationError) as exc:
        validate_poset(["a", "b"], [("a", "a"), ("a", "b")])
    assert exc.value.law == "poset:reflexivity"


def test_duplicate_and_unknown():
    with pytest.raises(ValidationError):
        validate_poset(["a", "a"], [("a", "a")])
    with pytest.raises(ValidationError) as exc:
        validate_poset(["a"], [("a", "a"), ("a", "b")])
    assert exc.value.law == "unknown-element"


def test_empty_poset_is_legal():
    assert validate_poset([], []).n == 0


# ---------------------------------------------------------------------------
# cones


def test_down_set_empty():
    assert down_set(diamond_poset(), []) == frozenset()


def test_down_set_diamond():
    assert down_set(diamond_poset(), ["a"]) == {"bot", "a"}


def test_up_set_matches_scan_oracle():
    P = diamond_poset()
    xs = {"a", "b"}
    oracle = {y for y in P.elements if any((x, y) in P.leq for x in xs)}
    assert up_set(P, xs) == oracle == {"a", "b", "top"}


def test_unknown_element_in_cone():
    with pytest.raises(ValidationError):
        down_set(diamond_poset(), ["nope"])


# ---------------------------------------------------------------------------
# compactness


def brute_force_compacts(L):
    """Independent oracle: enumerate directed subsets as raw element tuples."""
    els = L.elements
    out = []
    for c in els:
        good = True
        for r in range(1, 1 << len(els)):
            D = [e for i, e in enumerate(els) if r >> i & 1]
            directed = all(
                any(L.le(a, u) and L.le(b, u) for u in D) for a in D for b in D
            )
            if not directed:
                continue
            sup = L.join_all(D)
            if L.le(c, sup) and not any(L.le(c, d) for d in D):
                good = False
                break
        if good:
            out.append(c)
    return set(out)


def test_compacts_singleton():
    L = chain_lattice(1)
    assert set(compacts(L).elements) == {"c0"}


def test_compacts_two_chain_oracle():
    L = chain_lattice(2)
    assert set(compacts(L).elements) == brute_force_compacts(L) == {"c0", "c1"}


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_every_finite_lattice_is_all_compact(seed):
    L = random_lattice(random.Random(seed), 5)
    assert set(compacts(L).elements) == set(L.elements)
    assert is_algebraic(L)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_joins_and_bottom_are_compact(seed):
    L = random_lattice(random.Random(seed), 5)
    K = set(compacts(L).elements)
    assert L.bottom in K
    for a in K:
        for b in K:
            assert L.join(a, b) in K


def test_compacts_guard():
    with pytest.raises(SizeGuardExceeded):
        compacts(chain_lattice(5), guard=3)


# ---------------------------------------------------------------------------
# ideals and completion


def test_ideal_rejects_undirected_lower_set():
    P = diamond_poset()
    Ideal(P, frozenset({"bot", "a"}))
    with pytest.raises(ValidationError) as exc:
        Ideal(P, frozenset({"bot", "a", "b"}))
    assert exc.value.law == "ideal:directed"


def test_ideal_completion_singleton():
    S = JoinSemilattice.from_poset(chain_poset(1))
    assert ideal_completion(S).elements == ("{c0}",)


def test_ideal_completion_two_chain():
    S = JoinSemilattice.from_poset(chain_poset(2))
    L = ideal_completion(S)
    assert L.elements == ("{c0,c1}", "{c0}")
    assert L.le("{c0}", "{c0,c1}")


def test_ideal_completion_diamond():
    S = JoinSemilattice.from_poset(diamond_poset())
    L = ideal_completion(S)
    assert len(L.elements) == 4
    assert order_isomorphism(L.poset, diamond_poset()) is not None


def test_principal_ideals_are_the_compact_ones():
    S = JoinSemilattice.from_poset(diamond_poset())
    L = ideal_completion(S)
    K = compacts(L)
    principal = {i for i in L.elements}
    assert set(K.elements) == principal  # every ideal is principal here


# ---------------------------------------------------------------------------
# filters


def test_filters_singleton():
    S = MeetSemilattice.from_poset(chain_poset(1))
    assert len(filters(S)) == 1


def test_filters_two_chain():
    S = MeetSemilattice.from_poset(chain_poset(2))
    fams = {f.members for f in filters(S)}
    assert fams == {frozenset({"c1"}), frozenset({"c0", "c1"})}


def test_filter_lattice_diamond():
    S = MeetSemilattice.from_poset(diamond_poset())
    L = flt_lattice(S)
    assert len(L.elements) == 4
    assert order_isomorphism(L.poset, diamond_poset()) is not None


# ---------------------------------------------------------------------------
# the completion isomorphisms


def test_thm36_two_chain_exact_map():
    S = JoinSemilattice.from_poset(chain_poset(2))
    r = theorem_3_6_isos(S, chain_lattice(1))
    assert r.ok
    assert r.semilattice_map == {"c0": "{c0}", "c1": "{c0,c1}"}


def test_thm36_singleton_lattice():
    S = JoinSemilattice.from_poset(chain_poset(1))
    r = theorem_3_6_isos(S, chain_lattice(1))
    assert r.ok
    assert r.lattice_map == {"c0": "{c0}"}


def test_thm36_diamond():
    S = JoinSemilattice.from_poset(diamond_poset())
    assert theorem_3_6_isos(S, diamond_lattice()).ok


# ---------------------------------------------------------------------------
# closure operators


def test_closure_from_system_identity():
    L = diamond_lattice()
    op = closure_from_system(L, L.elements)
    assert all(op.apply(x) == x for x in L.elements)


def test_closure_from_system_constant_top():
    L = diamond_lattice()
    op = closure_from_system(L, ["top"])
    assert all(op.apply(x) == "top" for x in L.elements)


def test_closure_from_system_powerset_example():
    L = powerset_lattice(["1", "2"])
    op = closure_from_system(L, ["{}", "{1,2}"])
    assert op.apply("{1}") == "{1,2}"


def test_closure_from_system_witness():
    L = diamond_lattice()
    with pytest.raises(ValidationError) as exc:
        closure_from_system(L, ["a", "b", "top"])  # misses a ^ b = bot
    assert exc.value.law == "closure-system:infima"
    assert set(exc.value.witness["subset"]) == {"a", "b"}


def test_closure_image_is_infima_closed_and_reproduces():
    L = powerset_lattice(["1", "2", "3"], guard=10)
    members = powerset_members(["1", "2", "3"])
    # closure: adjoin "3" to any non-empty set
    values = []
    for x in L.elements:
        s = members[x]
        values.append(x if not s else "{" + ",".join(sorted(s | {"3"})) + "}")
    op = ClosureOperator(L.poset, tuple(values))
    image = op.image()
    for a, b in combinations(sorted(image), 2):
        assert L.meet(a, b) in image
    rebuilt = closure_from_system(L, image)
    assert rebuilt.values == op.values


def test_finite_extension_identity_and_constant():
    L = powerset_lattice(["1", "2"])
    ident = ClosureOperator(L.poset, L.elements)
    assert finite_extension(ident, ["1", "2"]).values == ident.values
    const = closure_from_system(L, ["{1,2}"])
    assert finite_extension(const, ["1", "2"]).values == const.values


# ---------------------------------------------------------------------------
# primes and distributivity


def test_meet_primes_two_chain():
    assert meet_primes(chain_lattice(2)) == {"c0"}


def test_meet_primes_diamond():
    assert meet_primes(diamond_lattice()) == {"a", "b"}


def test_meet_primes_singleton():
    assert meet_primes(chain_lattice(1)) == frozenset()


def test_join_primes_dual():
    assert join_primes(diamond_lattice()) == {"a", "b"}
    assert join_primes(chain_lattice(2)) == {"c1"}


def test_irreducibles_match_primes_on_distributive():
    for L in (chain_lattice(3), diamond_lattice()):
        assert meet_irreducibles(L) == meet_primes(L)
        assert join_irreducibles(L) == join_primes(L)


def test_distributive_chain_and_diamond():
    assert is_distributive(chain_lattice(4)) == (True, None)
    assert is_distributive(diamond_lattice()) == (True, None)


def test_m3_not_distributive():
    ok, witness = is_distributive(FiniteLattice.from_poset(m3_poset()))
    assert not ok
    x, y, z = witness
    L = FiniteLattice.from_poset(m3_poset())
    assert L.meet(x, L.join(y, z)) != L.join(L.meet(x, y), L.meet(x, z))


# ---------------------------------------------------------------------------
# structure laws


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_dual_is_involutive(seed):
    P = random_poset(random.Random(seed), 5)
    assert P.dual().dual() == P


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_join_table_laws(seed):
    S = random_join_semilattice(random.Random(seed), 5)
    els = S.elements
    for a in els:
        assert S.join(a, a) == a
        for b in els:
            assert S.join(a, b) == S.join(b, a)
            for c in els:
                assert S.join(S.join(a, b), c) == S.join(a, S.join(b, c))
    assert all(S.le(S.bottom, x) for x in els)


def test_join_semilattice_rejects_bad_bottom():
    P = diamond_poset()
    good = JoinSemilattice.from_poset(P)
    with pytest.raises(ValidationError):
        JoinSemilattice(P, "a", good.join_table)


def test_join_semilattice_rejects_bad_table():
    P = diamond_poset()
    good = JoinSemilattice.from_poset(P)
    rows = [list(r) for r in good.join_table]
    rows[1][2] = "bot"  # join(a, b) must be top
    with pytest.raises(ValidationError):
        JoinSemilattice(P, "bot", tuple(tuple(r) for r in rows))


def test_poset_without_joins_is_not_a_semilattice():
    P = validate_poset(["a", "b"], [("a", "a"), ("b", "b")])
    with pytest.raises(ValidationError):
        JoinSemilattice.from_poset(P)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_order_isomorphism_finds_relabelings(seed):
    rng = random.Random(seed)
    P = random_poset(rng, 5)
    names = list(P.elements)
    rng.shuffle(names)
    rename = dict(zip(P.elements, names))
    Q = FinitePoset(
        tuple(sorted(names)),
        frozenset((rename[a], rename[b]) for a, b in P.leq),
    )
    f = order_isomorphism(P, Q)
    assert f is not None and is_order_iso(P, Q, f)


def test_filter_validation():
    P = diamond_poset()
    Filter(P, frozenset({"a", "top"}))
    with pytest.raises(ValidationError):
        Filter(P, frozenset({"a"}))  # not upward closed? a <= top missing
    with pytest.raises(ValidationError):
        Filter(P, frozenset())


def cubic_covers(P):
    """Reference Hasse edges: every strict pair with nothing strictly between."""
    out = []
    for a, b in sorted(P.leq):
        if a == b:
            continue
        if any(c != a and c != b and P.le(a, c) and P.le(c, b) for c in P.elements):
            continue
        out.append((a, b))
    return out


@given(st.integers(0, 10**6), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_covers_match_the_cubic_scan(seed, n):
    P = random_poset(random.Random(seed), n)
    assert P.covers() == cubic_covers(P)


def test_covers_of_fixed_orders():
    for P in (chain_poset(1), chain_poset(4), diamond_poset(), m3_poset()):
        assert P.covers() == cubic_covers(P)
    assert chain_poset(3).covers() == [("c0", "c1"), ("c1", "c2")]
