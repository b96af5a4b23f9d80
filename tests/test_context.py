import random
from itertools import chain as ichain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat import kernels
from cxtcat.canon import set_id
from cxtcat.context import (
    CLOSED_SET_GUARD,
    ConceptLattice,
    SemLattice,
    alg_lattice,
    alpha,
    approx_closure,
    attr_closure,
    attr_closure_operator,
    context_of_semilattice,
    is_closed,
    make_context,
    omega,
    sem_lattice,
)
from cxtcat.corpus import chain_poset, diamond_poset, k2_context, random_context
from cxtcat.errors import SizeGuardExceeded, ValidationError
from cxtcat.order import (
    JoinSemilattice,
    ideal_completion,
    is_order_iso,
    order_isomorphism,
)


def subsets(xs):
    xs = sorted(xs)
    return [
        frozenset(c) for c in ichain.from_iterable(
            combinations(xs, k) for k in range(len(xs) + 1)
        )
    ]


def naive_alpha(P, objs):
    """Independent oracle straight from the defining formula."""
    return frozenset(a for a in P.attributes if all((o, a) in P.incidence for o in objs))


def naive_omega(P, attrs):
    return frozenset(o for o in P.objects if all((o, a) in P.incidence for a in attrs))


# ---------------------------------------------------------------------------
# derivation operators


def test_alpha_of_empty_set_is_everything():
    assert alpha(k2_context(), []) == {"a", "b"}


def test_k2_examples():
    K2 = k2_context()
    assert alpha(K2, ["o1"]) == naive_alpha(K2, ["o1"]) == {"a"}
    assert omega(K2, ["a", "b"]) == naive_omega(K2, ["a", "b"]) == frozenset()
    assert attr_closure(K2, ["a"]) == {"a"}
    assert attr_closure(K2, []) == frozenset()


def test_attr_closure_is_exact_beyond_64_attributes():
    """71 attributes: masks wider than a machine word close exactly."""
    attrs = [f"a{i:02d}" for i in range(71)]
    P = make_context(["o1", "o2"], attrs, [("o1", "a70"), ("o2", "a70"), ("o2", "a00")])
    assert attr_closure(P, ["a70"]) == {"a70"}
    assert attr_closure(P, ["a00"]) == {"a00", "a70"}
    assert attr_closure(P, ["a69"]) == frozenset(attrs)


def test_undeclared_identifier():
    with pytest.raises(ValidationError):
        alpha(k2_context(), ["zz"])
    with pytest.raises(ValidationError):
        attr_closure(k2_context(), ["zz"])


def test_duplicate_declarations_rejected():
    with pytest.raises(ValidationError):
        make_context(["o", "o"], ["a"], [])
    with pytest.raises(ValidationError):
        make_context(["o"], ["a"], [("o", "b")])


def test_duplicate_rows_are_kept():
    P = make_context(["o1", "o2"], ["a"], [("o1", "a"), ("o2", "a")])
    assert len(P.objects) == 2
    assert len(sem_lattice(P).elements) == 1


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_galois_connection(seed):
    P = random_context(random.Random(seed), 4, 4)
    for X in subsets(P.objects):
        for Y in subsets(P.attributes):
            assert (X <= omega(P, Y)) == (Y <= alpha(P, X))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_alpha_omega_match_naive(seed):
    P = random_context(random.Random(seed), 4, 4)
    for X in subsets(P.objects):
        assert alpha(P, X) == naive_alpha(P, X)
    for Y in subsets(P.attributes):
        assert omega(P, Y) == naive_omega(P, Y)


def test_closure_operator_axioms_as_table():
    # construction validates idempotent/inflationary/monotone
    attr_closure_operator(k2_context())


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_approx_equals_attr_closure(seed):
    P = random_context(random.Random(seed), 4, 4)
    for Y in subsets(P.attributes):
        assert approx_closure(P, Y) == attr_closure(P, Y)


def test_approx_closure_of_empty():
    P = k2_context()
    assert approx_closure(P, []) == attr_closure(P, [])


# ---------------------------------------------------------------------------
# the two concept structures


def test_sem_lattice_terminal():
    assert sem_lattice(make_context([], [], [])).elements == ("{}",)


def test_sem_lattice_k2_is_diamond():
    sem = sem_lattice(k2_context())
    assert sem.elements == ("{a,b}", "{a}", "{b}", "{}")
    assert order_isomorphism(sem.semilattice.poset, diamond_poset()) is not None


def test_sem_lattice_two_chain():
    P = make_context(["o1", "o2"], ["a"], [("o1", "a")])
    assert sem_lattice(P).elements == ("{a}", "{}")


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_sem_join_is_closure_of_union(seed):
    P = random_context(random.Random(seed), 4, 4)
    sem = sem_lattice(P)
    for x in sem.elements:
        for y in sem.elements:
            joined = sem.semilattice.join(x, y)
            assert sem.intents[joined] == attr_closure(P, sem.intents[x] | sem.intents[y])


def test_alg_carrier_equals_sem_carrier():
    P = k2_context()
    assert alg_lattice(P).elements == sem_lattice(P).elements


@pytest.mark.parametrize(
    "cls, law, what",
    [(SemLattice, "sem:closed", "element"), (ConceptLattice, "alg:closed", "concept")],
)
def test_public_constructors_check_that_intents_are_closed(cls, law, what):
    P = make_context(["x", "y"], ["a", "b"], [("x", "a"), ("x", "b"), ("y", "a")])
    built = sem_lattice(P) if cls is SemLattice else alg_lattice(P)
    structure = getattr(built, "semilattice", None) or built.lattice
    assert cls(P, structure, built.intents) == built
    # {b} is not closed: the only object bearing b also bears a
    bad = {**built.intents, "{a}": frozenset({"b"})}
    with pytest.raises(ValidationError) as exc:
        cls(P, structure, bad)
    assert (exc.value.law, str(exc.value), exc.value.witness) == (
        law, f"{what} {{a}} is not closed", {"element": "{a}"}
    )


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_alg_is_ideal_completion_of_sem(seed):
    P = random_context(random.Random(seed), 4, 4)
    alg = alg_lattice(P)
    idl = ideal_completion(sem_lattice(P).semilattice)
    assert order_isomorphism(alg.lattice.poset, idl.poset) is not None


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_alg_elements_are_meets_of_closures_above(seed):
    P = random_context(random.Random(seed), 4, 4)
    alg = alg_lattice(P)
    for name, members in alg.intents.items():
        above = [n for n, m in alg.intents.items() if members <= m]
        met = alg.lattice.meet_all(above)
        assert met == name


# ---------------------------------------------------------------------------
# semilattices as contexts


def test_context_of_singleton():
    S = JoinSemilattice(chain_poset(1))
    C = context_of_semilattice(S)
    assert C.objects == C.attributes == ("c0",)
    assert C.incidence == {("c0", "c0")}


def test_context_of_two_chain_incidence():
    S = JoinSemilattice(
        chain_poset(2).__class__(("0", "1"), frozenset({("0", "0"), ("1", "1"), ("0", "1")}))
    )
    C = context_of_semilattice(S)
    assert C.incidence == {("0", "0"), ("1", "0"), ("1", "1")}


def test_greater_equal_context_closure_is_principal_cone():
    S = JoinSemilattice(diamond_poset())
    C = context_of_semilattice(S)
    for X in subsets(S.elements):
        want = frozenset(
            y for y in S.elements if S.le(y, S.join_all(X))
        )
        assert attr_closure(C, X) == want


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_sem_of_context_of_semilattice_isomorphic(seed):
    from cxtcat.corpus import random_join_semilattice

    S = random_join_semilattice(random.Random(seed), 5)
    sem = sem_lattice(context_of_semilattice(S))
    f = {s: set_id(x for x in S.elements if S.le(x, s)) for s in S.elements}
    assert is_order_iso(S.poset, sem.semilattice.poset, f)


def test_is_closed():
    K2 = k2_context()
    assert is_closed(K2, {"a"})
    assert not is_closed(K2, {"a", "b"}) or attr_closure(K2, {"a", "b"}) == {"a", "b"}


def test_context_without_attributes():
    P = make_context(["o1", "o2"], [], [])
    assert sem_lattice(P).elements == ("{}",)
    assert alg_lattice(P).elements == ("{}",)


def test_closed_set_count_guard():
    """Each object bearing everything but its own attribute makes every
    attribute set closed; the quadratic table construction refuses past the
    cap unless overridden."""
    attrs = [f"a{i}" for i in range(10)]
    P = make_context(
        attrs, attrs, [(o, a) for o in attrs for a in attrs if o != a]
    )
    import pytest as _pytest

    from cxtcat.errors import SizeGuardExceeded

    with _pytest.raises(SizeGuardExceeded):
        sem_lattice(P)
    small = attrs[:8]
    P8 = make_context(small, small, [(o, a) for o in small for a in small if o != a])
    assert len(sem_lattice(P8, max_closed=300).elements) == 256


def powerset_oracle_names(P):
    """Closed-set names by the definitional scan of every attribute subset."""
    masks = kernels.closed_masks_powerset(P.rows, len(P.attributes))
    return sorted(set_id(P.attrs_of_mask(m)) for m in masks)


def test_wide_context_matches_the_powerset_oracle():
    """17 attributes: the engine's closed sets are exactly those of the
    full powerset scan."""
    n = 17
    attrs = [f"a{i:02d}" for i in range(n)]
    objects = [f"o{i}" for i in range(6)]
    rng = random.Random(11)
    incidence = {(o, a) for o in objects for a in attrs if rng.random() < 0.5}
    P = make_context(objects, attrs, incidence)
    assert list(sem_lattice(P).elements) == powerset_oracle_names(P)


def _engine_context(seed):
    """Seeded context of width ``seed % 13`` (so 0 to 12 attributes); every
    seventh has no objects."""
    rng = random.Random(seed)
    n_a = seed % 13
    n_o = 0 if seed % 7 == 0 else rng.randint(1, 7)
    p = rng.uniform(0.2, 0.8)
    objects = [f"o{i}" for i in range(n_o)]
    attrs = [f"a{j}" for j in range(n_a)]
    incidence = [(o, a) for o in objects for a in attrs if rng.random() < p]
    return make_context(objects, attrs, incidence)


@pytest.mark.parametrize("seed", range(40))
def test_engine_agrees_with_the_definitions(seed):
    """Closed intents match the powerset scan; every join entry is the
    closure of the union and every meet entry the intersection."""
    P = _engine_context(seed)
    sem, alg = sem_lattice(P, max_closed=1 << 12), alg_lattice(P, max_closed=1 << 12)
    assert list(sem.elements) == list(alg.elements) == powerset_oracle_names(P)
    assert sem.intents == alg.intents
    bottom = set_id(attr_closure(P, ()))
    assert sem.semilattice.bottom == alg.lattice.bottom == bottom
    assert alg.lattice.top == set_id(P.attributes)
    I = alg.intents
    for x in alg.elements:
        for y in alg.elements:
            joined = set_id(attr_closure(P, I[x] | I[y]))
            assert sem.semilattice.join(x, y) == alg.lattice.join(x, y) == joined
            assert I[alg.lattice.meet(x, y)] == I[x] & I[y]
            assert alg.lattice.le(x, y) == (I[x] <= I[y])


def test_contranominal_scale_stops_at_the_guard():
    """The 20x20 contranominal scale has 2^20 closed sets; enumeration
    stops as soon as the count passes the default guard."""
    attrs = [f"a{i:02d}" for i in range(20)]
    P = make_context(attrs, attrs, [(o, a) for o in attrs for a in attrs if o != a])
    for build in (sem_lattice, alg_lattice):
        with pytest.raises(SizeGuardExceeded) as exc:
            build(P)
        assert CLOSED_SET_GUARD < exc.value.size <= 2 * CLOSED_SET_GUARD
