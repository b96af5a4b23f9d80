import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat.canon import set_id
from cxtcat.corpus import (
    chain_poset,
    diamond_poset,
    m3_poset,
    random_join_semilattice,
    random_lattice,
    random_meet_semilattice,
    random_poset,
)
from cxtcat.errors import ValidationError
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
    flt_lattice,
    ideal_completion,
    ideal_names,
    ideals,
    is_algebraic,
    is_distributive,
    is_order_iso,
    join_irreducibles,
    join_primes,
    k_semilattice,
    lattice_from_masks,
    meet_irreducibles,
    meet_primes,
    order_isomorphism,
    powerset_lattice,
    principal_ideal,
    theorem_3_6_isos,
    up_set,
    validate_poset,
)

from test_index_oracles import lattice_from_sets


def diamond_lattice():
    return FiniteLattice(diamond_poset())


def chain_lattice(n):
    return FiniteLattice(chain_poset(n))


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


def scanned_poset_fault(elements, pairs):
    """Reference verdict of poset validation, by the definitions on name
    pairs: ``(law, message, witness)`` of the first fault in the order
    duplicates, unknown names, reflexivity, antisymmetry (least pair),
    transitivity (``a``, then ``b``, then ``c`` in element order), or None."""
    seen = set()
    for x in elements:
        if x in seen:
            return ("poset:elements", f"duplicate element {x!r}", {"element": x})
        seen.add(x)
    rel = set(pairs)
    unknown = sorted((a, b) for a, b in rel if a not in seen or b not in seen)
    if unknown:
        a, b = unknown[0]
        return (
            "unknown-element",
            f"leq references unknown element in ({a!r}, {b!r})",
            {"pair": [a, b]},
        )
    for x in elements:
        if (x, x) not in rel:
            return ("poset:reflexivity", f"reflexivity fails at {x!r}", {"pair": [x, x]})
    cycles = sorted((a, b) for a, b in rel if a != b and (b, a) in rel)
    if cycles:
        a, b = cycles[0]
        return ("poset:antisymmetry", f"antisymmetry fails at ({a!r}, {b!r})", {"pair": [a, b]})
    for a in elements:
        for b in elements:
            for c in elements:
                if (a, b) in rel and (b, c) in rel and (a, c) not in rel:
                    return (
                        "poset:transitivity",
                        f"transitivity fails: {a!r} <= {b!r} <= {c!r} but not {a!r} <= {c!r}",
                        {"pair": [a, c], "via": b},
                    )
    return None


def _mutate(rng, kind, els, pairs):
    """Break one axiom (or none) of the relation ``pairs`` on ``els``."""
    if kind == "duplicate" and els:
        els.append(rng.choice(els))
    elif kind == "unknown":
        x = rng.choice(els) if els else "zz"
        pairs.add(rng.choice([("zz", x), (x, "zz"), ("zz", "zy")]))
    elif kind == "irreflexive" and els:
        x = rng.choice(els)
        pairs.discard((x, x))
    elif kind == "cycle" and len(els) > 1:
        a, b = rng.sample(els, 2)
        pairs |= {(a, b), (b, a)}
    elif kind == "drop":
        strict = sorted((a, c) for a, c in pairs if a != c)
        implied = [(a, c) for a, c in strict if any((a, b) in strict and (b, c) in pairs for b in els)]
        if strict:
            pairs.discard(rng.choice(implied or strict))
    elif kind == "add" and els:
        pairs.add((rng.choice(els), rng.choice(els)))


@given(
    st.integers(0, 10**6),
    st.integers(0, 8),
    st.lists(
        st.sampled_from(["duplicate", "unknown", "irreflexive", "cycle", "drop", "add"]),
        max_size=3,
    ),
)
@settings(max_examples=400, deadline=None)
def test_poset_validation_matches_the_pair_scan(seed, n, mutations):
    """Mask-based validation gives the pair scan's verdict, law, message
    and witness on valid orders and on orders broken every way."""
    rng = random.Random(seed)
    P = random_poset(rng, n)
    els = list(P.elements)
    rng.shuffle(els)
    pairs = set(P.leq)
    for kind in mutations:
        _mutate(rng, kind, els, pairs)
    want = scanned_poset_fault(els, pairs)
    for build in (lambda: validate_poset(els, pairs), lambda: FinitePoset(tuple(els), pairs)):
        if want is None:
            Q = build()
            assert (Q.elements, Q.leq) == (tuple(els), pairs)
            assert all(Q.le(a, b) == ((a, b) in pairs) for a in els for b in els)
        else:
            with pytest.raises(ValidationError) as exc:
                build()
            assert (exc.value.law, str(exc.value), exc.value.witness) == want


def test_equality_reads_elements_and_order():
    P = validate_poset(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")])
    assert P == validate_poset(["a", "b"], {("b", "b"), ("a", "b"), ("a", "a")})
    assert hash(P) == hash(validate_poset(("a", "b"), P.leq))
    assert P != validate_poset(["b", "a"], P.leq)
    assert P != validate_poset(["a", "b"], [("a", "a"), ("b", "b")])
    assert P != P.dual() and P.dual().dual() == P


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


def pair_scan_cone(P, xs, down):
    """Reference cone: scan the ``leq`` pairs for every element."""
    return frozenset(
        y for y in P.elements if any(((y, x) if down else (x, y)) in P.leq for x in xs)
    )


@given(st.integers(0, 10**6), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_cones_match_the_pair_scan(seed, n):
    rng = random.Random(seed)
    P = random_poset(rng, n)
    xs = [x for x in P.elements if rng.random() < 0.4]
    assert down_set(P, xs) == pair_scan_cone(P, xs, down=True)
    assert up_set(P, xs) == pair_scan_cone(P, xs, down=False)
    for x in P.elements:
        assert principal_ideal(P, x) == pair_scan_cone(P, [x], down=True)


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


# ---------------------------------------------------------------------------
# ideals and completion


def test_ideal_rejects_undirected_lower_set():
    P = diamond_poset()
    Ideal(P, frozenset({"bot", "a"}))
    with pytest.raises(ValidationError) as exc:
        Ideal(P, frozenset({"bot", "a", "b"}))
    assert exc.value.law == "ideal:directed"


def test_ideal_completion_singleton():
    S = JoinSemilattice(chain_poset(1))
    assert ideal_completion(S).elements == ("{c0}",)


def test_ideal_completion_two_chain():
    S = JoinSemilattice(chain_poset(2))
    L = ideal_completion(S)
    assert L.elements == ("{c0,c1}", "{c0}")
    assert L.le("{c0}", "{c0,c1}")


def test_ideal_completion_diamond():
    S = JoinSemilattice(diamond_poset())
    L = ideal_completion(S)
    assert len(L.elements) == 4
    assert order_isomorphism(L.poset, diamond_poset()) is not None


def test_ideal_completion_is_memoized_on_the_value(monkeypatch):
    from cxtcat import order

    scans = []
    real = order.kernels.ideal_masks
    monkeypatch.setattr(order.kernels, "ideal_masks", lambda *a: scans.append(1) or real(*a))
    S = JoinSemilattice(diamond_poset())
    S2 = JoinSemilattice(diamond_poset())
    fresh = (hash(S), repr(S))
    L = ideal_completion(S)
    assert ideal_completion(S) is L
    assert len(scans) == 1
    assert ideal_completion(S2) == L and ideal_completion(S2) is not L
    assert len(scans) == 2
    assert S == S2 and (hash(S), repr(S)) == fresh == (hash(S2), repr(S2))
    monkeypatch.setattr(order, "DIRECTED_SCAN_CAP", 0)  # no subset scan past guard 0
    S3 = JoinSemilattice(diamond_poset())
    other = ideal_completion(S3)
    assert other is not L and other == L and ideal_completion(S3) is other
    assert ideal_completion(S) is L and len(scans) == 2


@pytest.mark.parametrize("query", [ideals, ideal_completion])
def test_a_non_principal_ideal_is_named(monkeypatch, query):
    """A scan that finds a lower set that is not a down-cone, or misses a
    down-cone, stops the ideals and the completion alike with
    ``ideal:principal``, naming every set found on one side only."""
    from cxtcat import order

    real = order.kernels.ideal_masks
    # bit order of the diamond: bot, a, b, top; 0b0111 is {a,b,bot}, 0b0011 {a,bot}
    monkeypatch.setattr(
        order.kernels, "ideal_masks", lambda *a: [m for m in real(*a) if m != 0b0011] + [0b0111]
    )
    with pytest.raises(ValidationError) as exc:
        query(JoinSemilattice(diamond_poset()))
    assert exc.value.law == "ideal:principal"
    assert str(exc.value) == "non-principal ideal found in a finite order"
    assert exc.value.witness == {"extra": ["{a,b,bot}", "{a,bot}"]}


def test_compacts_and_k_semilattice_are_memoized_on_the_value(monkeypatch):
    from cxtcat import order

    L = FiniteLattice(diamond_poset())
    L2 = FiniteLattice(diamond_poset())
    fresh = hash(L)
    assert compacts(L) is compacts(L)
    K = k_semilattice(L)
    assert k_semilattice(L) is K
    assert k_semilattice(L2) == K and k_semilattice(L2) is not K
    assert L == L2 and hash(L) == fresh == hash(L2)
    scans = []
    real = order.kernels.directed_masks
    monkeypatch.setattr(order.kernels, "directed_masks", lambda *a: scans.append(1) or real(*a))
    monkeypatch.setattr(order, "DIRECTED_SCAN_CAP", 3)  # no cross-check past the cap
    assert k_semilattice(FiniteLattice(diamond_poset())) == K and scans == []


def test_principal_ideals_are_the_compact_ones():
    S = JoinSemilattice(diamond_poset())
    L = ideal_completion(S)
    K = compacts(L)
    principal = {i for i in L.elements}
    assert set(K.elements) == principal  # every ideal is principal here


# ---------------------------------------------------------------------------
# filters


def test_filters_singleton():
    S = MeetSemilattice(chain_poset(1))
    assert len(filters(S)) == 1


def test_filters_two_chain():
    S = MeetSemilattice(chain_poset(2))
    fams = {f.members for f in filters(S)}
    assert fams == {frozenset({"c1"}), frozenset({"c0", "c1"})}


def test_filter_lattice_diamond():
    S = MeetSemilattice(diamond_poset())
    L = flt_lattice(S)
    assert len(L.elements) == 4
    assert order_isomorphism(L.poset, diamond_poset()) is not None


def direct_filter_lattice(S):
    """Reference filter lattice, built on the filters themselves.  Its bounds
    are read off inclusion; each is checked against the definition: the join
    of two filters is the up-set of the meet of their least members, and
    their meet is their intersection."""
    S = S.dual() if isinstance(S, JoinSemilattice) else S
    P = S.poset
    fam = [f.members for f in filters(S)]
    least = {m: next(x for x in m if all(P.le(x, y) for y in m)) for m in fam}
    lat, decode = lattice_from_sets(fam)
    for x in lat.elements:
        for y in lat.elements:
            a, b = decode[x], decode[y]
            g = S.meet(least[a], least[b])
            assert decode[lat.join(x, y)] == frozenset(z for z in P.elements if P.le(g, z))
            assert decode[lat.meet(x, y)] == a & b
    return lat


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_filter_lattice_matches_the_direct_builder(seed):
    M = random_meet_semilattice(random.Random(seed), 6)
    for S in (M, M.dual()):
        assert flt_lattice(S) == direct_filter_lattice(S)


def test_filter_lattice_is_memoized_on_the_value(monkeypatch):
    from cxtcat import order

    S = MeetSemilattice(diamond_poset())
    L = flt_lattice(S)
    assert flt_lattice(S) is L
    monkeypatch.setattr(order, "DIRECTED_SCAN_CAP", 0)
    S2 = MeetSemilattice(diamond_poset())
    assert flt_lattice(S2) == L and flt_lattice(S2) is not L and flt_lattice(S) is L
    J = S.dual()
    assert flt_lattice(J) is flt_lattice(J) and flt_lattice(J) == ideal_completion(J)


# ---------------------------------------------------------------------------
# the completion isomorphisms


def test_thm36_two_chain_exact_map():
    S = JoinSemilattice(chain_poset(2))
    r = theorem_3_6_isos(S, chain_lattice(1))
    assert r.ok
    assert r.semilattice_map == {"c0": "{c0}", "c1": "{c0,c1}"}


def test_thm36_singleton_lattice():
    S = JoinSemilattice(chain_poset(1))
    r = theorem_3_6_isos(S, chain_lattice(1))
    assert r.ok
    assert r.lattice_map == {"c0": "{c0}"}


def test_thm36_diamond():
    S = JoinSemilattice(diamond_poset())
    assert theorem_3_6_isos(S, diamond_lattice()).ok


# Corpus instances for the name oracles: the fixed shapes and seeded draws.
NAME_SEMILATTICES = [
    JoinSemilattice(chain_poset(1)),
    JoinSemilattice(chain_poset(4)),
    JoinSemilattice(diamond_poset()),
    JoinSemilattice(m3_poset()),
    *(random_join_semilattice(random.Random(seed), 7) for seed in range(40)),
]
NAME_LATTICES = [
    chain_lattice(1),
    diamond_lattice(),
    FiniteLattice(m3_poset()),
    *(random_lattice(random.Random(seed), 7) for seed in range(40)),
]


def test_ideal_names_are_the_principal_ideal_names():
    for S in NAME_SEMILATTICES:
        want = tuple(set_id(principal_ideal(S.poset, a)) for a in S.elements)
        assert ideal_names(S) == want
        assert ideal_names(S) is ideal_names(S)
        assert set(want) == set(compacts(ideal_completion(S)).elements)


def test_unit_names_are_the_compacts_below_each_element():
    for L in NAME_LATTICES:
        kset = set(compacts(L).elements)
        want = tuple(set_id(down_set(L.poset, [x]) & kset) for x in L.elements)
        assert ideal_names(k_semilattice(L)) == want
        assert set(want) == set(ideal_completion(k_semilattice(L)).elements)


def test_thm36_maps_are_the_name_tables():
    for S, L in zip(NAME_SEMILATTICES, NAME_LATTICES):
        r = theorem_3_6_isos(S, L)
        assert r.ok
        assert r.semilattice_map == {
            a: set_id(principal_ideal(S.poset, a)) for a in S.elements
        }
        kset = set(compacts(L).elements)
        assert r.lattice_map == {
            x: set_id(down_set(L.poset, [x]) & kset) for x in L.elements
        }


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
    L, members = lattice_from_masks(["1", "2", "3"], range(8))
    assert L == powerset_lattice(["1", "2", "3"])
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


def scanned_monotone_fault(P, values):
    """Reference monotonicity verdict: the least pair ``(a, b)`` of the
    relation, as name pairs, whose values are not in it, or None."""
    c = dict(zip(P.elements, values))
    return next(([a, b] for a, b in sorted(P.leq) if (c[a], c[b]) not in P.leq), None)


@given(st.integers(0, 10**6), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_closure_monotonicity_matches_the_pair_scan(seed, n):
    """Inflationary, idempotent tables: each element goes to itself when it
    is closed and otherwise to a closed element above it, so monotonicity
    is all that can fail.  Element order is not name order from n = 11."""
    rng = random.Random(seed)
    P = random_poset(rng, n)
    up = {x: [y for y in P.elements if P.le(x, y)] for x in P.elements}
    closed = {x for x in P.elements if up[x] == [x] or rng.random() < 0.4}
    values = tuple(
        x if x in closed else rng.choice([y for y in up[x] if y in closed]) for x in P.elements
    )
    want = scanned_monotone_fault(P, values)
    if want is None:
        assert ClosureOperator(P, values).values == values
    else:
        with pytest.raises(ValidationError) as exc:
            ClosureOperator(P, values)
        assert (exc.value.law, exc.value.witness) == ("closure:monotone", {"pair": want})
        assert str(exc.value) == f"not monotone on ({want[0]!r}, {want[1]!r})"


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
    ok, witness = is_distributive(FiniteLattice(m3_poset()))
    assert not ok
    x, y, z = witness
    L = FiniteLattice(m3_poset())
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


def scanned_bounds(P, le):
    """Reference unit and bound table of the order ``le`` on ``P``, by the
    definition: the unit is below everything, and the bound of ``a`` and
    ``b`` is the least element of their common cone, found by pairwise
    comparison (None where there is none)."""
    els = P.elements
    units = [u for u in els if all(le(u, x) for x in els)]
    table = {}
    for a in els:
        for b in els:
            common = [c for c in els if le(a, c) and le(b, c)]
            least = [c for c in common if all(le(c, d) for d in common)]
            table[a, b] = least[0] if least else None
    return (units[0] if units else None), table


def assert_bounds_or_fault(build, P, kinds):
    """``build(P)`` has the scanned units and tables, or raises the fault of
    the first missing unit or, table by table in ``kinds`` order, of the
    first pair in row order without a bound."""
    scans = {kind: scanned_bounds(P, le) for kind, _, le in kinds}
    for kind, unit_law, _ in kinds:
        if scans[kind][0] is None:
            with pytest.raises(ValidationError) as exc:
                build(P)
            assert exc.value.law == unit_law
            return
    for kind, _, _ in kinds:
        missing = [pair for pair, bound in scans[kind][1].items() if bound is None]
        if missing:
            with pytest.raises(ValidationError) as exc:
                build(P)
            assert (exc.value.law, exc.value.witness) == (f"{kind}:bound", {"pair": list(missing[0])})
            return
    X = build(P)
    for kind, _, _ in kinds:
        unit, table = scans[kind]
        assert getattr(X, "bottom" if kind == "join" else "top") == unit
        bound = getattr(X, kind)
        assert all(bound(a, b) == v for (a, b), v in table.items())


def with_bounds(P):
    """``P`` with a new least element ``bot`` and a new greatest ``top``."""
    els = ("bot", *P.elements, "top")
    return validate_poset(
        els, set(P.leq) | {("bot", x) for x in els} | {(x, "top") for x in els}
    )


@given(st.integers(0, 10**6), st.integers(0, 7), st.sampled_from(["poset", "bounded", "sl"]))
@settings(max_examples=100, deadline=None)
def test_bound_tables_match_the_definitional_scan(seed, n, shape):
    """On random posets, bounded posets and semilattices alike."""
    rng = random.Random(seed)
    if shape == "sl":
        P = random_join_semilattice(rng, 6).poset
    else:
        P = random_poset(rng, n)
        P = with_bounds(P) if shape == "bounded" else P
    join = ("join", "join:bottom", P.le)
    meet = ("meet", "meet:top", lambda a, b: P.le(b, a))
    assert_bounds_or_fault(JoinSemilattice, P, [join])
    assert_bounds_or_fault(MeetSemilattice, P, [meet])
    lattice = [(k, "lattice:bounds", le) for k, _, le in (join, meet)]
    assert_bounds_or_fault(FiniteLattice, P, lattice)


def test_poset_without_joins_is_not_a_semilattice():
    P = validate_poset(["a", "b"], [("a", "a"), ("b", "b")])
    with pytest.raises(ValidationError):
        JoinSemilattice(P)


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


def test_order_isomorphism_leaves_no_reference_cycle():
    """With the cyclic collector off, the posets searched die with their
    last reference."""
    gc.collect()
    gc.disable()
    try:
        P, Q = diamond_poset(), diamond_poset()
        refs = [weakref.ref(P), weakref.ref(Q)]
        assert order_isomorphism(P, Q) == {x: x for x in P.elements}
        del P, Q
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


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


# ---------------------------------------------------------------------------
# bounded-order validation: the law, message and witness of each fault


EMPTY = FinitePoset((), frozenset())


def antichain(*xs):
    return validate_poset(xs, [(x, x) for x in xs])


def below(top, *xs):
    """``xs`` pairwise incomparable under ``top``: a top but no meets."""
    return validate_poset((*xs, top), [(x, x) for x in (*xs, top)] + [(x, top) for x in xs])


def above(bot, *xs):
    """``xs`` pairwise incomparable over ``bot``: a bottom but no joins."""
    return validate_poset((bot, *xs), [(x, x) for x in (bot, *xs)] + [(bot, x) for x in xs])


def bowtie():
    """bot < a, b < c, d < top: a and b have two minimal upper bounds."""
    els = ("bot", "a", "b", "c", "d", "top")
    leq = {(x, x) for x in els} | {("bot", x) for x in els} | {(x, "top") for x in els}
    leq |= {(x, y) for x in "ab" for y in "cd"}
    return validate_poset(els, leq)


# Several faults in one input report the first in validation order: the
# units before the tables, and the first pair in row order without a bound.
FAULTS = {
    "join-from-empty": (
        lambda: JoinSemilattice(EMPTY),
        ("join:bottom", "poset has no least element", None),
    ),
    "join-from-antichain": (
        lambda: JoinSemilattice(antichain("x", "y")),
        ("join:bottom", "poset has no least element", None),
    ),
    "join-from-no-join": (
        lambda: JoinSemilattice(above("0", "x", "y")),
        ("join:bound", "join of 'x' and 'y' does not exist", {"pair": ["x", "y"]}),
    ),
    "join-from-bowtie": (
        lambda: JoinSemilattice(bowtie()),
        ("join:bound", "join of 'a' and 'b' does not exist", {"pair": ["a", "b"]}),
    ),
    "meet-from-empty": (
        lambda: MeetSemilattice(EMPTY),
        ("meet:top", "poset has no greatest element", None),
    ),
    "meet-from-antichain": (
        lambda: MeetSemilattice(antichain("x", "y")),
        ("meet:top", "poset has no greatest element", None),
    ),
    "meet-from-no-meet": (
        lambda: MeetSemilattice(below("1", "x", "y")),
        ("meet:bound", "meet of 'x' and 'y' does not exist", {"pair": ["x", "y"]}),
    ),
    "meet-from-bowtie": (
        lambda: MeetSemilattice(bowtie()),
        ("meet:bound", "meet of 'c' and 'd' does not exist", {"pair": ["c", "d"]}),
    ),
    "lattice-from-empty": (
        lambda: FiniteLattice(EMPTY),
        ("lattice:bounds", "poset lacks bottom or top", None),
    ),
    "lattice-from-no-bottom": (
        lambda: FiniteLattice(below("1", "x", "y")),
        ("lattice:bounds", "poset lacks bottom or top", None),
    ),
    "lattice-from-no-top": (
        lambda: FiniteLattice(above("0", "x", "y")),
        ("lattice:bounds", "poset lacks bottom or top", None),
    ),
    "lattice-from-antichain": (
        lambda: FiniteLattice(antichain("x", "y")),
        ("lattice:bounds", "poset lacks bottom or top", None),
    ),
    "lattice-from-no-joins": (
        lambda: FiniteLattice(bowtie()),
        ("join:bound", "join of 'a' and 'b' does not exist", {"pair": ["a", "b"]}),
    ),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_bounded_order_faults(name):
    build, (law, message, witness) = FAULTS[name]
    with pytest.raises(ValidationError) as exc:
        build()
    assert (exc.value.law, str(exc.value), exc.value.witness) == (law, message, witness)
