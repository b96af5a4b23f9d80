import gc
import random
import time
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat import kernels, mappings, order
from cxtcat.canon import pair_id, set_id
from cxtcat.context import make_context, sem_lattice
from cxtcat.corpus import (
    chain_poset,
    diamond_poset,
    m3_poset,
    random_join_semilattice,
    random_lattice,
)
from cxtcat.errors import SizeGuardExceeded, ValidationError
from cxtcat.mappings import (
    ENUMERATION_OUTPUT_GUARD,
    ApproximableMapping,
    ScottFunction,
    compose,
    compose_functions,
    enumerate_mappings,
    epsilon,
    epsilon_inverse,
    eta,
    identity_function,
    identity_mapping,
    idl_on_morphism,
    k_on_morphism,
    validate_am,
)
from cxtcat.order import (
    FiniteLattice,
    Ideal,
    JoinSemilattice,
    compacts,
    down_set,
    ideal_completion,
    ideals,
    k_semilattice,
    principal_ideal,
    validate_poset,
)


def chain_s(n, pfx="c"):
    return JoinSemilattice(chain_poset(n, pfx))


def diamond_s():
    return JoinSemilattice(diamond_poset())


def m_n(n):
    """Bottom, ``n`` pairwise incomparable atoms and a top."""
    els = ("0",) + tuple(f"x{i}" for i in range(n)) + ("1",)
    leq = {(e, e) for e in els} | {("0", e) for e in els} | {(e, "1") for e in els}
    return JoinSemilattice(validate_poset(els, leq))


def canonical_id(m):
    """The name of a mapping's pair set: the order ``enumerate_mappings``
    sorts by, built here by its definition."""
    return set_id(pair_id(a, b) for a, b in m.pairs)


def definitional_am_check(S, T, pairs):
    """The mapping axioms scanned by their definitions, in the order
    ``ApproximableMapping`` reports them: ``(law, witness)`` of the first
    breach, or None.  The reference the mask engine is checked against."""
    pairs = frozenset(pairs)
    for a, b in sorted(pairs):
        if a not in S.elements or b not in T.elements:
            return "unknown-element", {"pair": [a, b]}
    for a in S.elements:
        if (a, T.bottom) not in pairs:
            return "am1", {"element": a}
    for a in S.elements:
        bs = sorted(b for x, b in pairs if x == a)
        for b in bs:
            for b2 in bs:
                if T.join(b, b2) not in bs:
                    return "am2", {"element": a, "pair": [b, b2]}
    for a, b in sorted(pairs):
        for a2 in sorted(x for x in S.elements if S.le(a, x)):
            for b2 in sorted(y for y in T.elements if T.le(y, b)):
                if (a2, b2) not in pairs:
                    return "am3", {"from": [a, b], "missing": [a2, b2]}
    return None


def assert_checked_relation(m):
    """``m.pairs`` satisfies the mapping axioms by their definitions, and
    the relation entry reads ``m`` back off it."""
    assert definitional_am_check(m.source, m.target, m.pairs) is None
    assert validate_am(m.source, m.target, m.pairs) == m


def relational_compose(m1, m2):
    """The relational composite of two mappings, by its definition: the
    oracle for ``compose`` on value tables."""
    mid = {}
    for r, t in m2.pairs:
        mid.setdefault(r, set()).add(t)
    return frozenset((s, t) for s, r in m1.pairs for t in mid.get(r, ()))


def engine_verdict(S, T, pairs):
    try:
        validate_am(S, T, pairs)
    except ValidationError as exc:
        return exc.law, exc.witness
    return None


def count_monotone_maps_oracle(S, T):
    """Brute force over all functions into the ideals of the target."""
    tgt = [i.members for i in ideals(T)]
    count = 0
    for assign in iproduct(range(len(tgt)), repeat=len(S.elements)):
        ok = True
        for i, a in enumerate(S.elements):
            for j, b in enumerate(S.elements):
                if S.le(a, b) and not tgt[assign[i]] <= tgt[assign[j]]:
                    ok = False
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# validation


def test_identity_relation_is_valid():
    S = diamond_s()
    m = identity_mapping(S)
    assert ("top", "bot") in m.pairs and ("bot", "top") not in m.pairs


def test_empty_relation_violates_am1():
    S = chain_s(2)
    with pytest.raises(ValidationError) as exc:
        validate_am(S, S, [])
    assert exc.value.law == "am1"


def test_full_relation_is_valid():
    S, T = chain_s(2), diamond_s()
    validate_am(S, T, {(a, b) for a in S.elements for b in T.elements})


def test_am2_witness():
    S, T = chain_s(1), diamond_s()
    pairs = {("c0", "bot"), ("c0", "a"), ("c0", "b")}  # misses a v b = top
    with pytest.raises(ValidationError) as exc:
        validate_am(S, T, pairs)
    assert exc.value.law == "am2"


def test_am2_witness_is_the_least_failing_pair():
    # index order z, y, x differs from name order, and every pair of atoms fails
    els = ("0", "z", "y", "x", "1")
    leq = {(e, e) for e in els} | {("0", e) for e in els} | {(e, "1") for e in els}
    T = JoinSemilattice(validate_poset(els, leq))
    S = chain_s(2)
    pairs = {("c0", "0"), ("c1", "0"), ("c1", "z"), ("c1", "y"), ("c1", "x")}
    with pytest.raises(ValidationError) as exc:
        validate_am(S, T, pairs)
    assert exc.value.law == "am2"
    assert exc.value.witness == {"element": "c1", "pair": ["x", "y"]}
    assert (exc.value.law, exc.value.witness) == definitional_am_check(S, T, pairs)


def test_mask_engine_agrees_with_the_definitional_scan():
    """About 200 relations: enumerated mappings, some with one pair added,
    one removed, or one naming an unknown element.  Diamond and M3 targets
    have incomparable pairs, so am2 breaches occur."""
    rng = random.Random(5)
    laws = []
    while len(laws) < 200:
        S = random_join_semilattice(rng, 5)
        T = rng.choice([random_join_semilattice(rng, 5), diamond_s(), m_n(3)])
        pairs = set(rng.choice(enumerate_mappings(S, T)).pairs)
        move = rng.randrange(8)
        if move in (2, 3, 4):
            pairs.add((rng.choice(S.elements), rng.choice(T.elements)))
        elif move in (5, 6):
            pairs.discard(rng.choice(sorted(pairs)))
        elif move == 7:
            pairs.add((rng.choice(S.elements + ("?",)), "?"))
        want = definitional_am_check(S, T, pairs)
        assert engine_verdict(S, T, pairs) == want
        laws.append(want and want[0])
    assert set(laws) == {None, "unknown-element", "am1", "am2", "am3"}


# (source, target, value table, (law, message, witness) or None), recorded
# with the name-pair monotonicity loop that the mask routine replaced.
SCOTT_FAULTS = [
    ("chain3", "chain3", ("c0", "c1"), ("scott:table", "value table has wrong length", None)),
    ("chain3", "chain3", ("c0", "c1", "c2", "c2"), ("scott:table", "value table has wrong length", None)),
    ("chain3", "chain3", (), ("scott:table", "value table has wrong length", None)),
    ("chain3", "chain3", ("c0", "zz", "c1"), ("unknown-element", "unknown element 'zz'", {"element": "zz"})),
    ("chain3", "chain3", ("zz", "c2", "c0"), ("unknown-element", "unknown element 'zz'", {"element": "zz"})),
    ("chain3", "chain3", ("c2", "c1", "c0"), ("scott:monotone", "not monotone on ('c0', 'c1')", {"pair": ["c0", "c1"]})),
    ("chain3", "chain3", ("c0", "c2", "c1"), ("scott:monotone", "not monotone on ('c1', 'c2')", {"pair": ["c1", "c2"]})),
    ("diamond", "diamond", ("top", "a", "b", "bot"), ("scott:monotone", "not monotone on ('bot', 'a')", {"pair": ["bot", "a"]})),
    ("diamond", "diamond", ("bot", "b", "a", "a"), ("scott:monotone", "not monotone on ('a', 'top')", {"pair": ["a", "top"]})),
    ("diamond", "chain2", ("c0", "c1", "c0", "c0"), ("scott:monotone", "not monotone on ('a', 'top')", {"pair": ["a", "top"]})),
    ("chain2", "diamond", ("a", "b"), ("scott:monotone", "not monotone on ('c0', 'c1')", {"pair": ["c0", "c1"]})),
    ("m3", "m3", ("1", "0", "0", "0", "1"), ("scott:monotone", "not monotone on ('0', 'z')", {"pair": ["0", "z"]})),
    ("m3", "m3", ("0", "x", "y", "z", "0"), ("scott:monotone", "not monotone on ('z', '1')", {"pair": ["z", "1"]})),
    ("m3", "chain2", ("c0", "c1", "c1", "c1", "c0"), ("scott:monotone", "not monotone on ('z', '1')", {"pair": ["z", "1"]})),
    ("chain2", "m3", ("x", "bot"), ("unknown-element", "unknown element 'bot'", {"element": "bot"})),
    ("chain3", "diamond", ("bot", "a", "top"), None),
]


def fault_lattices():
    # M3 with its atoms indexed z, y, x: index order and name order differ
    return {
        "chain2": FiniteLattice(chain_poset(2)),
        "chain3": FiniteLattice(chain_poset(3)),
        "diamond": FiniteLattice(diamond_poset()),
        "m3": FiniteLattice(reversed_m3().poset),
    }


def reversed_m3():
    els = ("0", "z", "y", "x", "1")
    leq = {(e, e) for e in els} | {("0", e) for e in els} | {(e, "1") for e in els}
    return JoinSemilattice(validate_poset(els, leq))


@pytest.mark.parametrize("src, tgt, values, want", SCOTT_FAULTS)
def test_scott_function_faults(src, tgt, values, want):
    L = fault_lattices()
    try:
        ScottFunction(L[src], L[tgt], values)
    except ValidationError as exc:
        assert (exc.law, str(exc), exc.witness) == want
    else:
        assert want is None


def test_value_table_faults():
    """A short, long, unknown-valued or non-monotone table is refused.  A
    non-monotone one breaks am3 at the first comparable pair, in index
    order, whose values are not comparable."""
    C2, D, M = chain_s(2), diamond_s(), reversed_m3()
    cases = [
        (C2, D, ("bot",), "am:table", None),
        (C2, D, ("bot", "a", "top"), "am:table", None),
        (C2, D, ("bot", "zz"), "unknown-element", {"element": "zz"}),
        (C2, C2, ("c1", "c0"), "am3", {"from": ["c0", "c1"], "missing": ["c1", "c1"]}),
        (D, C2, ("c0", "c1", "c1", "c0"), "am3", {"from": ["a", "c1"], "missing": ["top", "c1"]}),
        (M, M, ("1", "0", "0", "0", "1"), "am3", {"from": ["0", "1"], "missing": ["z", "1"]}),
        (M, M, ("0", "x", "y", "z", "0"), "am3", {"from": ["z", "x"], "missing": ["1", "x"]}),
    ]
    for S, T, values, law, witness in cases:
        with pytest.raises(ValidationError) as exc:
            ApproximableMapping(S, T, values)
        assert (exc.value.law, exc.value.witness) == (law, witness)
        if law == "am3":
            # the relation the table stands for breaks am3 too
            relation = {(a, b) for a, v in zip(S.elements, values) for b in T.elements if T.le(b, v)}
            assert definitional_am_check(S, T, relation)[0] == "am3"


def test_am3_witness():
    S, T = chain_s(2), chain_s(2, "d")
    pairs = {("c0", "d0"), ("c1", "d0"), ("c0", "d1")}  # c1 must reach d1
    with pytest.raises(ValidationError) as exc:
        validate_am(S, T, pairs)
    assert exc.value.law == "am3"


def test_images_are_ideals_and_assignment_monotone():
    S, T = chain_s(2), diamond_s()
    for m in enumerate_mappings(S, T):
        assign = {a: frozenset(b for x, b in m.pairs if x == a) for a in S.elements}
        for a in S.elements:
            Ideal(T.poset, assign[a])
            for b in S.elements:
                if S.le(a, b):
                    assert assign[a] <= assign[b]


def test_every_mapping_builder_yields_a_checked_relation():
    rng = random.Random(11)
    for _ in range(12):
        S, R, T = (random_join_semilattice(rng, 5) for _ in range(3))
        homs = enumerate_mappings(S, R)
        for m in homs:
            assert_checked_relation(m)
        m1, m2 = rng.choice(homs), rng.choice(enumerate_mappings(R, T))
        for m in (
            identity_mapping(S),
            compose(m1, m2),
            k_on_morphism(idl_on_morphism(m1)),
            epsilon(S),
            epsilon_inverse(S),
        ):
            assert_checked_relation(m)


# ---------------------------------------------------------------------------
# composition


def test_compose_matches_the_relational_composite():
    rng = random.Random(3)
    for _ in range(15):
        S, R, T = (random_join_semilattice(rng, 5) for _ in range(3))
        for m1 in rng.choices(enumerate_mappings(S, R), k=3):
            for m2 in rng.choices(enumerate_mappings(R, T), k=3):
                comp = compose(m1, m2)
                assert comp.pairs == relational_compose(m1, m2)
                assert validate_am(S, T, relational_compose(m1, m2)) == comp


def test_identity_laws():
    S, T = chain_s(2), diamond_s()
    for m in enumerate_mappings(S, T):
        assert compose(identity_mapping(S), m) == m
        assert compose(m, identity_mapping(T)) == m


def test_step_up_composes_to_itself():
    S = chain_s(2)
    step = validate_am(S, S, {("c0", "c0"), ("c1", "c0"), ("c1", "c1")})
    assert compose(step, step) == step


def test_constant_bottom_absorbs():
    S, T = diamond_s(), chain_s(2)
    const = validate_am(T, T, {(a, "c0") for a in T.elements})
    for m in enumerate_mappings(S, T):
        assert compose(m, const) == validate_am(S, T, {(a, "c0") for a in S.elements})


def test_compose_mismatch():
    S, T = chain_s(2), diamond_s()
    m = enumerate_mappings(S, T)[0]
    with pytest.raises(ValidationError):
        compose(m, m)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_compose_is_associative(seed):
    rng = random.Random(seed)
    S, R, T, U = (random_join_semilattice(rng, 3) for _ in range(4))
    m1 = rng.choice(enumerate_mappings(S, R))
    m2 = rng.choice(enumerate_mappings(R, T))
    m3 = rng.choice(enumerate_mappings(T, U))
    assert compose(compose(m1, m2), m3) == compose(m1, compose(m2, m3))


# ---------------------------------------------------------------------------
# the functors


def test_idl_on_identity_is_identity():
    S = diamond_s()
    f = idl_on_morphism(identity_mapping(S))
    assert f.values == f.source.elements


def test_idl_on_constant_bottom():
    S = chain_s(2)
    const = validate_am(S, S, {(a, "c0") for a in S.elements})
    f = idl_on_morphism(const)
    assert set(f.values) == {"{c0}"}


def test_idl_on_step_up_two_chain():
    S = chain_s(2)
    step = validate_am(S, S, {("c0", "c0"), ("c1", "c0"), ("c1", "c1")})
    f = idl_on_morphism(step)
    assert f.values == f.source.elements


def test_k_on_identity_is_geq():
    L = FiniteLattice(diamond_poset())
    m = k_on_morphism(identity_function(L))
    assert m == identity_mapping(m.source)


def test_k_on_constant_bottom():
    L = FiniteLattice(diamond_poset())
    f = ScottFunction(L, L, tuple("bot" for _ in L.elements))
    m = k_on_morphism(f)
    assert m.pairs == frozenset((a, "bot") for a in L.elements)


def test_scott_function_rejects_non_monotone():
    L = FiniteLattice(chain_poset(2))
    with pytest.raises(ValidationError):
        ScottFunction(L, L, ("c1", "c0"))


# ---------------------------------------------------------------------------
# unit and counit


def test_eta_singleton_and_two_chain():
    L1 = FiniteLattice(chain_poset(1))
    assert eta(L1).values == ("{c0}",)
    L2 = FiniteLattice(chain_poset(2))
    assert eta(L2).values == ("{c0}", "{c0,c1}")


def test_eta_checks_its_iso_once_per_value(monkeypatch):
    calls = []

    def counted(P, Q, f):
        calls.append(f)
        return order.is_order_iso(P, Q, f)

    monkeypatch.setattr(mappings, "is_order_iso", counted)
    L = FiniteLattice(diamond_poset())
    units = [eta(L) for _ in range(5)]
    assert len(calls) == 1 and units == [units[0]] * 5
    eta(FiniteLattice(diamond_poset()))  # an equal value checks again
    assert len(calls) == 2


def test_eta_refuses_a_unit_that_is_not_an_iso(monkeypatch):
    monkeypatch.setattr(mappings, "ideal_names", lambda S: order.ideal_names(S)[::-1])
    L = FiniteLattice(diamond_poset())
    for _ in range(2):  # a failed check is not remembered
        with pytest.raises(ValidationError) as exc:
            eta(L)
        assert (exc.value.law, str(exc.value)) == (
            "thm4.4:eta", "completion unit is not an order-isomorphism"
        )


def test_epsilon_diamond_relates_cones():
    S = diamond_s()
    eps = epsilon(S)
    assert ("a", "{a,bot}") in eps.pairs
    assert ("a", "{bot}") in eps.pairs
    assert ("a", "{b,bot}") not in eps.pairs


def test_epsilon_inverse_composes_to_identities():
    S = diamond_s()
    eps, inv = epsilon(S), epsilon_inverse(S)
    assert compose(eps, inv) == identity_mapping(S)
    assert compose(inv, eps) == identity_mapping(eps.target)


# The completion functor, unit and counit written with ``set_id`` of each
# principal ideal and each cone of compacts: the reference the name tables
# of ``order.ideal_names`` (of ``S``, and of ``k_semilattice(L)`` for the
# unit) must reproduce.


def idl_on_morphism_reference(m):
    src_l, tgt_l = ideal_completion(m.source), ideal_completion(m.target)
    S, T = m.source.poset, m.target.poset
    image = {
        set_id(principal_ideal(S, a)): set_id(principal_ideal(T, v))
        for a, v in zip(S.elements, m.values)
    }
    return ScottFunction(src_l, tgt_l, tuple(image[e] for e in src_l.elements))


def eta_reference(L):
    kset = set(compacts(L).elements)
    values = tuple(set_id(down_set(L.poset, [x]) & kset) for x in L.elements)
    return ScottFunction(L, ideal_completion(k_semilattice(L)), values)


def epsilon_reference(S):
    kidl = k_semilattice(ideal_completion(S))
    values = tuple(set_id(principal_ideal(S.poset, a)) for a in S.elements)
    return ApproximableMapping(S, kidl, values)


def epsilon_inverse_reference(S):
    kidl = k_semilattice(ideal_completion(S))
    pairs = (
        (set_id(principal_ideal(S.poset, b)), a)
        for b in S.elements
        for a in S.elements
        if S.le(a, b)
    )
    return validate_am(kidl, S, pairs)


REFERENCE_SEMILATTICES = [
    chain_s(1),
    chain_s(3),
    diamond_s(),
    JoinSemilattice(m3_poset()),
    *(random_join_semilattice(random.Random(seed), 5) for seed in range(24)),
]


def test_functors_unit_and_counit_match_the_set_id_reference():
    for S in REFERENCE_SEMILATTICES:
        assert epsilon(S) == epsilon_reference(S)
        assert epsilon_inverse(S) == epsilon_inverse_reference(S)
    for seed in range(24):
        L = random_lattice(random.Random(seed), 7)
        assert eta(L) == eta_reference(L)
    sls = REFERENCE_SEMILATTICES
    for S, T in zip(sls, sls[1:] + sls[:1]):
        ms = enumerate_mappings(S, T)
        for m in random.Random(len(ms)).sample(ms, min(len(ms), 6)):
            assert idl_on_morphism(m) == idl_on_morphism_reference(m)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    assert len(enumerate_mappings(chain_s(1), chain_s(1, "d"))) == 1
    assert len(enumerate_mappings(chain_s(2), chain_s(2, "d"))) == 3
    assert len(enumerate_mappings(chain_s(2), diamond_s())) == 9


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_enumeration_matches_monotone_oracle(seed):
    rng = random.Random(seed)
    S = random_join_semilattice(rng, 3)
    T = random_join_semilattice(rng, 3)
    assert len(enumerate_mappings(S, T)) == count_monotone_maps_oracle(S, T)


def test_enumeration_of_m5_into_a_six_chain():
    ms = enumerate_mappings(m_n(5), chain_s(6, "d"))
    assert len(ms) == sum((6 - d) * (d + 1) ** 5 for d in range(6)) == 18236


def test_enumeration_output_guard_stops_before_building_mappings(monkeypatch):
    from cxtcat import mappings

    built = []
    real = mappings.ApproximableMapping
    monkeypatch.setattr(mappings, "ApproximableMapping", lambda *a: built.append(a) or real(*a))
    S, T = m_n(10), chain_s(20, "d")  # passes ENUMERATION_GUARD; ~10^13 mappings
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded) as exc:
        enumerate_mappings(S, T)
    assert time.perf_counter() - start < 1.0
    assert exc.value.cap == ENUMERATION_OUTPUT_GUARD
    assert exc.value.size == ENUMERATION_OUTPUT_GUARD + 1
    assert built == []


def test_output_cap_message_gives_no_override_advice():
    with pytest.raises(SizeGuardExceeded) as exc:
        enumerate_mappings(m_n(10), chain_s(20, "d"))
    cap = ENUMERATION_OUTPUT_GUARD
    assert str(exc.value) == f"enumerate_mappings output: size {cap + 1} exceeds guard {cap}"


def test_ideal_scans_run_once_per_value(monkeypatch):
    """The scan guard only decides whether the definitional scan runs; the
    family is the same either way, so one memo per value serves every guard."""
    from cxtcat import order

    scans = []
    real = order.kernels.ideal_masks
    monkeypatch.setattr(order.kernels, "ideal_masks", lambda *a: scans.append(1) or real(*a))
    S, T = chain_s(3), diamond_s()
    for _ in range(3):
        ms = enumerate_mappings(S, T)
        for m in ms[:4]:
            idl_on_morphism(m)
        ideal_completion(S)
        ideal_completion(T)
    assert len(scans) == 2
    assert isinstance(ideals(T), tuple) and ideals(T) is ideals(T)
    monkeypatch.setattr(order, "DIRECTED_SCAN_CAP", 0)
    assert ideals(diamond_s()) == ideals(T) and len(scans) == 2  # principal family only
    monkeypatch.setattr(order, "DIRECTED_SCAN_CAP", 8)
    ideal_completion(T)
    assert len(scans) == 2
    ideal_completion(diamond_s())
    assert len(scans) == 3


def test_enumeration_is_sorted_and_unique():
    ms = enumerate_mappings(chain_s(2), diamond_s())
    ids = [canonical_id(m) for m in ms]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def escaping_sem(rng):
    """The concept semilattice, of at most 7 elements, of a random context
    whose attribute names hold the characters that ``pair_id`` escapes;
    every concept name holds commas too."""
    attrs = rng.sample(["a", "a(", "a)", "a\\", "b)", "b"], 4)
    while True:
        objects = [f"o{i}" for i in range(rng.randint(2, 5))]
        incidence = [(o, a) for o in objects for a in attrs if rng.random() < 0.5]
        S = sem_lattice(make_context(objects, attrs, incidence)).semilattice
        if len(S.elements) <= 7:
            return S


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_enumeration_order_is_the_canonical_id_order(seed):
    """The sort key read off the value tables orders a hom-set as the
    canonical ids, the oracle, do."""
    rng = random.Random(seed)
    S, T = escaping_sem(rng), escaping_sem(rng)
    ms = enumerate_mappings(S, T)
    assert ms == sorted(ms, key=canonical_id)


# ---------------------------------------------------------------------------
# functor laws and naturality over random instances


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_functor_laws_and_naturality(seed):
    rng = random.Random(seed)
    S = random_join_semilattice(rng, 3)
    R = random_join_semilattice(rng, 3)
    T = random_join_semilattice(rng, 3)
    m1 = rng.choice(enumerate_mappings(S, R))
    m2 = rng.choice(enumerate_mappings(R, T))
    f1, f2 = idl_on_morphism(m1), idl_on_morphism(m2)
    assert idl_on_morphism(compose(m1, m2)).values == compose_functions(f1, f2).values
    assert k_on_morphism(compose_functions(f1, f2)) == compose(
        k_on_morphism(f1), k_on_morphism(f2)
    )
    # unit square for f1
    lhs = compose_functions(eta(f1.source), idl_on_morphism(k_on_morphism(f1)))
    rhs = compose_functions(f1, eta(f1.target))
    assert lhs.values == rhs.values
    # counit square for m1
    assert compose(epsilon(S), k_on_morphism(idl_on_morphism(m1))) == compose(
        m1, epsilon(R)
    )


def test_monotone_maps_leaves_no_reference_cycle():
    """The search is a loop, so with the cyclic collector off its output and
    state die with their last reference."""
    gc.collect()
    gc.disable()
    try:
        # a V (0 below 1 and 2) into a 3-chain
        maps = kernels.monotone_maps(3, [[], [0], [0]], [0b111, 0b110, 0b100], 1 << 15)
        assert len(maps) == 14 and maps[0] == (0, 0, 0) and maps[-1] == (2, 2, 2)
        del maps
        assert gc.collect() == 0
    finally:
        gc.enable()
