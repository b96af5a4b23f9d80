import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat.canon import pair_id, set_id
from cxtcat.category import (
    FunctionSpaceContext,
    bang,
    curry,
    funcspace,
    plus,
    product,
    tag_left,
    tag_right,
    tensor,
    terminal,
    uncurry,
)
from cxtcat.cli import main
from cxtcat.context import (
    alpha,
    attr_closure,
    context_of_semilattice,
    make_context,
    sem_lattice,
)
from cxtcat.corpus import (
    chain_context,
    k2_context,
    random_context_with_sem_at_most,
)
from cxtcat.errors import SizeGuardExceeded, ValidationError
from cxtcat.formats import dump_cxt
from cxtcat.laws import run_law
from cxtcat.mappings import (
    ENUMERATION_OUTPUT_GUARD,
    compose,
    enumerate_mappings,
    identity_mapping,
    validate_am,
)
from cxtcat.order import closed_family, order_isomorphism

from test_index_oracles import lattice_from_sets
from test_mappings import assert_checked_relation, canonical_id, m_n


C2 = chain_context(2)
C3 = chain_context(3)


# The relational builders that the value-table builders replaced, kept as
# oracles: each assembles the pair relation by its definition.


def relational_pair(prod, m_left, m_right):
    """``(z, w)`` for every product concept ``w`` whose factors both legs
    relate ``z`` to."""
    return frozenset(
        (z, w)
        for z in m_left.source.elements
        for w in prod.sem.elements
        if (z, prod.decompose(w)[0]) in m_left.pairs
        and (z, prod.decompose(w)[1]) in m_right.pairs
    )


def relational_curry(m, prod, fs):
    """``(x, w)`` when ``m`` relates ``(x, y)`` to ``z`` for every pair
    ``(y, z)`` of the function-space concept ``w``."""
    fs_sem, fs_names = fs.sem
    return frozenset(
        (x, w)
        for x in prod.left_sem.elements
        for w in fs_sem.elements
        if all(
            (prod.combine(x, y), z) in m.pairs
            for y, z in (fs.attr_pairs[a] for a in fs_names[w])
        )
    )


def relational_uncurry(m, prod, fs):
    """``((x, y), z)`` when ``m`` relates ``x`` to a concept holding ``(y, z)``."""
    out = set()
    for xy in prod.sem.elements:
        x, y = prod.decompose(xy)
        for w in fs.sem[0].elements:
            if (x, w) in m.pairs:
                out.update((xy, z) for y2, z in fs.decode(w) if y2 == y)
    return frozenset(out)


def seeded_triples():
    """The two chain3 triples of ``laws prop5.10 --max-sem 3`` and seeded
    triples of contexts with at most four concepts."""
    rng = random.Random(17)
    ctxs = [random_context_with_sem_at_most(rng, 4) for _ in range(6)]
    return [(C3, C3, C3), (C3, C2, C3)] + [tuple(rng.sample(ctxs, 3)) for _ in range(4)]


# ---------------------------------------------------------------------------
# terminal


def test_terminal_is_empty():
    t = terminal()
    assert t.objects == t.attributes == ()
    assert sem_lattice(t).elements == ("{}",)


def test_bang_terminal_is_identity():
    t = terminal()
    assert bang(t) == identity_mapping(sem_lattice(t).semilattice)


def test_bang_k2_relates_everything():
    m = bang(k2_context())
    assert m.pairs == frozenset((x, "{}") for x in sem_lattice(k2_context()).elements)


def test_bang_unique_by_enumeration():
    for P in (terminal(), C2, k2_context()):
        homs = enumerate_mappings(
            sem_lattice(P).semilattice, sem_lattice(terminal()).semilattice
        )
        assert homs == [bang(P)]


# ---------------------------------------------------------------------------
# product


def test_product_concept_count():
    prod = product(k2_context(), C2)
    assert len(prod.sem.elements) == 4 * 2


def test_product_incidence_shape():
    prod = product(k2_context(), C2)
    ctx = prod.context
    for o in k2_context().objects:
        for a in C2.attributes:
            assert (tag_left(o), tag_right(a)) in ctx.incidence
    for o in C2.objects:
        for a in k2_context().attributes:
            assert (tag_right(o), tag_left(a)) in ctx.incidence


def test_product_closure_is_sidewise():
    P, Q = k2_context(), C2
    prod = product(P, Q)
    for X in ({"a"}, {"a", "b"}, set()):
        for Y in ({"a1"}, set()):
            tagged = {tag_left(x) for x in X} | {tag_right(y) for y in Y}
            got = attr_closure(prod.context, tagged)
            want = {tag_left(x) for x in attr_closure(P, X)} | {
                tag_right(y) for y in attr_closure(Q, Y)
            }
            assert got == want


def test_combine_inverts_decompose():
    for P, Q in ((k2_context(), C2), (C2, chain_context(3)), (terminal(), C2)):
        prod = product(P, Q)
        sp, sq = sem_lattice(P), sem_lattice(Q)
        for x in sp.elements:
            for y in sq.elements:
                z = prod.combine(x, y)
                assert prod.decompose(z) == (x, y)
                assert prod.sem.intents[z] == {tag_left(a) for a in sp.intents[x]} | {
                    tag_right(a) for a in sq.intents[y]
                }


def test_decompose_and_combine_reject_unknown_names():
    """As ``FunctionSpaceContext.mapping`` does: the first unknown name is
    the witness of an ``unknown-element`` error."""
    prod = product(C2, C2)
    bottom = prod.left_sem.semilattice.bottom
    for call, args in (
        (prod.decompose, ("nope",)),
        (prod.combine, ("nope", "x")),
        (prod.combine, (bottom, "nope")),
    ):
        with pytest.raises(ValidationError) as exc:
            call(*args)
        assert (exc.value.law, exc.value.witness, str(exc.value)) == (
            "unknown-element", {"element": "nope"}, "unknown element 'nope'"
        )


def test_product_with_terminal():
    prod = product(k2_context(), terminal())
    iso = order_isomorphism(
        prod.sem.semilattice.poset, sem_lattice(k2_context()).semilattice.poset
    )
    assert iso is not None


def test_projections_and_pairing_commute():
    P, Q, R = k2_context(), C2, C2
    prod = product(P, Q)
    pl, pr = prod.proj_left(), prod.proj_right()
    semR = sem_lattice(R).semilattice
    for mP in enumerate_mappings(semR, prod.left_sem.semilattice)[:4]:
        for mQ in enumerate_mappings(semR, prod.right_sem.semilattice)[:4]:
            med = prod.pair(mP, mQ)
            assert compose(med, pl) == mP
            assert compose(med, pr) == mQ


def test_pairing_unique():
    P = Q = R = C2
    prod = product(P, Q)
    pl, pr = prod.proj_left(), prod.proj_right()
    semR = sem_lattice(R).semilattice
    mediating = enumerate_mappings(semR, prod.sem.semilattice)
    for mP in enumerate_mappings(semR, prod.left_sem.semilattice):
        for mQ in enumerate_mappings(semR, prod.right_sem.semilattice):
            matches = [
                m for m in mediating if compose(m, pl) == mP and compose(m, pr) == mQ
            ]
            assert matches == [prod.pair(mP, mQ)]


def test_pair_source_mismatch():
    prod = product(C2, C2)
    mP = enumerate_mappings(sem_lattice(C2).semilattice, prod.left_sem.semilattice)[0]
    mQ = enumerate_mappings(
        sem_lattice(k2_context()).semilattice, prod.right_sem.semilattice
    )[0]
    with pytest.raises(ValidationError):
        prod.pair(mP, mQ)


def test_pair_matches_the_relational_oracle():
    for P, Q, R in seeded_triples():
        prod = product(P, Q)
        semR = sem_lattice(R).semilattice
        for mP in enumerate_mappings(semR, prod.left_sem.semilattice)[:6]:
            for mQ in enumerate_mappings(semR, prod.right_sem.semilattice)[:6]:
                med = prod.pair(mP, mQ)
                want = relational_pair(prod, mP, mQ)
                assert med.pairs == want
                assert validate_am(semR, prod.sem.semilattice, want) == med


def test_every_category_builder_yields_a_checked_relation():
    for P, Q, R in seeded_triples():
        prod, fs, tens = product(P, Q), funcspace(Q, R), tensor(P, Q)
        semR = sem_lattice(R).semilattice
        built = [bang(P), bang(terminal()), prod.proj_left(), prod.proj_right()]
        built += [tens.iso_plus(), tens.iso_minus()]
        mP = enumerate_mappings(semR, prod.left_sem.semilattice)[-1]
        mQ = enumerate_mappings(semR, prod.right_sem.semilattice)[-1]
        built.append(prod.pair(mP, mQ))
        for m in enumerate_mappings(prod.sem.semilattice, semR)[::7]:
            built += [curry(m, prod, fs), uncurry(curry(m, prod, fs), prod, fs)]
        for m in built:
            assert_checked_relation(m)


# ---------------------------------------------------------------------------
# full row and column


def test_plus_of_empty_context():
    P = plus(terminal())
    assert P.objects == ("g",) and P.attributes == ("m",)
    assert sem_lattice(P).elements == ("{m}",)


def test_plus_k2():
    P = plus(k2_context())
    assert alpha(P, ["g"]) == {"a", "b", "m"}
    for name, members in sem_lattice(P).intents.items():
        assert "m" in members  # no concept is empty


def test_plus_fresh_names_avoid_collision():
    P = make_context(["g"], ["m"], [("g", "m")])
    Q = plus(P)
    assert "g~" in Q.objects and "m~" in Q.attributes


# ---------------------------------------------------------------------------
# tensor


def test_tensor_concepts_are_rectangles():
    tens = tensor(k2_context(), C2)
    for name, members in tens.sem.intents.items():
        p1 = frozenset(tens.attr_pairs[a][0] for a in members)
        p2 = frozenset(tens.attr_pairs[a][1] for a in members)
        rect = {a for a, (x, y) in tens.attr_pairs.items() if x in p1 and y in p2}
        assert members == frozenset(rect)
        assert attr_closure(tens.left_plus, p1) == p1
        assert attr_closure(tens.right_plus, p2) == p2


def test_tensor_isos_compose_to_identities():
    for P, Q in ((C2, C2), (k2_context(), C2)):
        tens = tensor(P, Q)
        prod = product(P, Q)
        ip, im = tens.iso_plus(), tens.iso_minus()
        assert compose(ip, im) == identity_mapping(prod.sem.semilattice)
        assert compose(im, ip) == identity_mapping(tens.sem.semilattice)


def test_tensor_of_terminals():
    tens = tensor(terminal(), terminal())
    assert len(tens.sem.elements) == 1
    assert len(product(terminal(), terminal()).sem.elements) == 1


# ---------------------------------------------------------------------------
# function space


def test_funcspace_two_chains_is_three_chain():
    fs = funcspace(C2, C2)
    lat, _ = fs.concepts()
    assert len(lat.elements) == 3
    assert all(lat.le(a, b) or lat.le(b, a) for a in lat.elements for b in lat.elements)


def test_funcspace_concepts_are_the_hom_set():
    for P, Q in ((C2, C2), (C2, k2_context()), (k2_context(), C2)):
        fs = funcspace(P, Q)
        carrier = {fs.decode(e) for e in fs.sem[0].elements}
        homs = {
            frozenset(m.pairs)
            for m in enumerate_mappings(
                sem_lattice(P).semilattice, sem_lattice(Q).semilattice
            )
        }
        assert carrier == homs


def test_funcspace_engines_agree():
    for P, Q in ((C2, C2), (chain_context(3), C2)):
        fs = funcspace(P, Q)
        lit = fs.literal_context()
        assert sem_lattice(lit).semilattice == fs.sem[0]


def closure_engine_build(fs):
    """The function-space lattice as the closure engine builds it: the
    closed pair sets under inclusion, and the concept of each value table,
    read off its pairs by joining the values paired with each element."""
    lat, names = lattice_from_sets(closed_family(fs.closure, fs.attributes))
    right = fs.right_sem.semilattice
    values = {}
    for w, members in names.items():
        pairs = [fs.attr_pairs[a] for a in members]
        key = tuple(right.join_all(z for y, z in pairs if y == x) for x in fs.left_sem.elements)
        values[key] = w
    return lat, names, values


def funcspace_oracle_pairs():
    """Chains 1-5, mixed chains, K2 and seeded contexts of at most six
    concepts."""
    rng = random.Random(23)
    chains = [chain_context(n) for n in range(1, 6)]
    pairs = [(c, c) for c in chains]
    pairs += [(chains[0], chains[4]), (chains[4], chains[0]), (chains[3], chains[1])]
    pairs += [(k2_context(), C3), (C2, k2_context())]
    ctxs = [random_context_with_sem_at_most(rng, 6, 4, 4) for _ in range(30)]
    pairs += list(zip(ctxs[::2], ctxs[1::2]))
    return pairs


def test_funcspace_concepts_are_every_closure():
    for P, Q in ((C2, C2), (C3, C2)):
        fs = funcspace(P, Q)
        attrs = fs.attributes
        want = {
            fs.closure(a for i, a in enumerate(attrs) if m >> i & 1)
            for m in range(1 << len(attrs))
        }
        assert closed_family(fs.closure, attrs) == want
        assert set(fs.sem[1].values()) == want
    for P, Q in funcspace_oracle_pairs():
        fs = funcspace(P, Q)
        left, right = sem_lattice(P).elements, sem_lattice(Q).elements
        assert fs.attributes == tuple(pair_id(x, y) for x in left for y in right)
        lat, names, values = closure_engine_build(fs)
        got, got_names = fs.concepts()
        assert got.elements == lat.elements
        assert got.poset.up_masks == lat.poset.up_masks
        assert got.poset.down_masks == lat.poset.down_masks
        assert got == lat and got.join_table == lat.join_table
        assert got.meet_table == lat.meet_table
        assert got_names == names
        assert {w: fs.decode(w) for w in got.elements} == {
            w: frozenset(fs.attr_pairs[a] for a in members) for w, members in names.items()
        }
        assert fs._concept_of_values == values
        assert fs.sem[0] == lat.as_join_semilattice()


def test_funcspace_calls_closure_only_to_enumerate_the_closed_family(monkeypatch):
    """The concepts are the enumerated mappings, so building the function
    space and currying through it run no closure; ``closed_family`` over the
    closure, the independent side of ``lemma5.9``, still does."""
    calls = []
    real = FunctionSpaceContext.closure
    monkeypatch.setattr(
        FunctionSpaceContext, "closure", lambda self, attrs: calls.append(1) or real(self, attrs)
    )
    fs = funcspace(chain_context(5), chain_context(5))
    assert len(fs.sem[1]) == 126
    prod, fs3 = product(C2, C3), funcspace(C3, C3)
    for m in enumerate_mappings(prod.sem.semilattice, sem_lattice(C3).semilattice):
        assert uncurry(curry(m, prod, fs3), prod, fs3) == m
    assert calls == []
    closed_family(fs.closure, fs.attributes)
    assert len(calls) == 505


def test_lemma5_9_checks_the_concepts_against_the_closure(monkeypatch):
    """The law's carrier comes from the closure engine, not from the
    hom-set build it is compared with: a broken closure fails the law."""
    assert run_law("lemma5.9", seed=1).ok
    monkeypatch.setattr(FunctionSpaceContext, "closure", lambda self, attrs: frozenset())
    rep = run_law("lemma5.9", seed=1)
    assert not rep.ok
    assert rep.witness["message"] == "function-space concepts differ from the mapping hom-set"


def test_lemma5_9_reads_each_hom_set_once(monkeypatch):
    """The law compares the closure carrier with the function space's own
    concepts, so each context pair enumerates its hom-set once, inside
    ``fs.sem``; the two-chain check at the end makes one call more."""
    from cxtcat import category, laws

    calls = []
    real = category.enumerate_mappings

    def spy(S, T):
        calls.append((S, T))
        return real(S, T)

    monkeypatch.setattr(category, "enumerate_mappings", spy)
    monkeypatch.setattr(laws, "enumerate_mappings", spy)
    rep = run_law("lemma5.9", seed=1)
    assert rep.ok and "instances: 9 context pairs" in rep.lines
    assert len(calls) == 9 + 1


def test_lemma5_9_catches_a_dropped_concept_past_the_literal_check(monkeypatch):
    """On 4-chains the function space has 16 attributes, past the 12 of the
    literal cross-check; the closure carrier alone still catches a mapping
    missing from the concepts."""
    from functools import cached_property

    from cxtcat import laws

    C4 = chain_context(4)
    monkeypatch.setattr(laws, "_small_sem_contexts", lambda *a, **k: [C4] * 3)
    assert len(funcspace(C4, C4).attributes) == 16
    assert run_law("lemma5.9", seed=1).ok
    real = FunctionSpaceContext._mappings.func

    def dropped(self):
        ms = real(self)
        middle = sorted(ms, key=int.bit_count)[len(ms) // 2]
        return {k: m for k, m in ms.items() if k != middle}

    prop = cached_property(dropped)
    prop.__set_name__(FunctionSpaceContext, "_mappings")
    monkeypatch.setattr(FunctionSpaceContext, "_mappings", prop)
    rep = run_law("lemma5.9", seed=1)
    assert not rep.ok
    assert rep.witness["message"] == "function-space concepts differ from the mapping hom-set"


def test_funcspace_rejects_unknown_names():
    fs = funcspace(C2, C2)
    with pytest.raises(ValidationError) as exc:
        fs.closure(["zz", fs.attributes[0], "yy"])
    assert exc.value.law == "unknown-element"
    assert exc.value.witness == {"element": "yy"}
    assert str(exc.value) == "unknown attribute 'yy'"
    with pytest.raises(ValidationError) as exc:
        fs.decode("zz")
    assert exc.value.law == "unknown-element"
    assert exc.value.witness == {"element": "zz"}
    assert str(exc.value) == "unknown element 'zz'"


def test_funcspace_build_stops_at_the_enumeration_output_guard(tmp_path):
    """M6 into a 7-chain passes the 64-attribute guard with 56 attributes,
    and has more mappings than ``enumerate_mappings`` may return."""
    P, Q = context_of_semilattice(m_n(6)), chain_context(7)
    fs = funcspace(P, Q)
    assert len(fs.attributes) == 56
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded) as exc:
        fs.sem
    assert time.perf_counter() - start < 2.0
    assert exc.value.what == "enumerate_mappings output"
    assert exc.value.cap == ENUMERATION_OUTPUT_GUARD
    left, right = tmp_path / "m6.cxt", tmp_path / "c7.cxt"
    left.write_text(dump_cxt(P))
    right.write_text(dump_cxt(Q))
    assert main(["funcspace", str(left), str(right)]) == 3


def test_funcspace_closure_of_empty_is_constant_bottom():
    fs = funcspace(C2, C2)
    bottomQ = sem_lattice(C2).semilattice.bottom
    want = frozenset(
        (x, bottomQ) for x in sem_lattice(C2).elements
    )
    assert fs.decode(set_id(fs.closure([]))) == want


def test_funcspace_literal_guard():
    fs = funcspace(k2_context(), k2_context())
    with pytest.raises(SizeGuardExceeded):
        fs.literal_context(guard=4)


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_funcspace_random_instances(seed):
    rng = random.Random(seed)
    P = random_context_with_sem_at_most(rng, 3)
    Q = random_context_with_sem_at_most(rng, 3)
    fs = funcspace(P, Q)
    carrier = {fs.decode(e) for e in fs.sem[0].elements}
    homs = {
        frozenset(m.pairs)
        for m in enumerate_mappings(
            sem_lattice(P).semilattice, sem_lattice(Q).semilattice
        )
    }
    assert carrier == homs


# ---------------------------------------------------------------------------
# currying


def test_hom_set_counts_on_two_chains():
    P = Q = R = C2
    prod = product(P, Q)
    fs = funcspace(Q, R)
    homs_prod = enumerate_mappings(prod.sem.semilattice, sem_lattice(R).semilattice)
    homs_curry = enumerate_mappings(sem_lattice(P).semilattice, fs.sem[0])
    assert len(homs_prod) == len(homs_curry) == 6


def test_curry_uncurry_inverse_on_all_two_chain_mappings():
    P = Q = R = C2
    prod = product(P, Q)
    fs = funcspace(Q, R)
    homs_prod = enumerate_mappings(prod.sem.semilattice, sem_lattice(R).semilattice)
    homs_curry = enumerate_mappings(sem_lattice(P).semilattice, fs.sem[0])
    for m in homs_prod:
        assert uncurry(curry(m, prod, fs), prod, fs) == m
    for m in homs_curry:
        assert curry(uncurry(m, prod, fs), prod, fs) == m
    assert {canonical_id(curry(m, prod, fs)) for m in homs_prod} == {
        canonical_id(m) for m in homs_curry
    }


def test_curry_and_uncurry_match_the_relational_oracles():
    for P, Q, R in seeded_triples():
        prod, fs = product(P, Q), funcspace(Q, R)
        semP, semR = sem_lattice(P).semilattice, sem_lattice(R).semilattice
        for m in enumerate_mappings(prod.sem.semilattice, semR):
            want = relational_curry(m, prod, fs)
            assert curry(m, prod, fs).pairs == want
            assert validate_am(semP, fs.sem[0], want) == curry(m, prod, fs)
        for m in enumerate_mappings(semP, fs.sem[0]):
            want = relational_uncurry(m, prod, fs)
            assert uncurry(m, prod, fs).pairs == want
            assert validate_am(prod.sem.semilattice, semR, want) == uncurry(m, prod, fs)


def test_eval_mapping():
    Q = R = C2
    fs = funcspace(Q, R)
    lit = fs.literal_context()
    prod = product(lit, Q)
    ev = uncurry(identity_mapping(fs.sem[0]), prod, fs)
    assert ev.source == prod.sem.semilattice
    assert ev.target == sem_lattice(R).semilattice


def test_curry_structural_mismatch():
    P = Q = R = C2
    prod = product(P, Q)
    fs = funcspace(k2_context(), R)  # wrong left factor
    m = enumerate_mappings(prod.sem.semilattice, sem_lattice(R).semilattice)[0]
    with pytest.raises(ValidationError):
        curry(m, prod, fs)


def test_curry_natural_in_the_source():
    """Precomposing with g x id before transposing equals postcomposing the
    transpose with g."""
    P = Pp = Q = R = C2
    prod = product(P, Q)
    prod_p = product(Pp, Q)
    fs = funcspace(Q, R)
    semR = sem_lattice(R).semilattice
    for g in enumerate_mappings(sem_lattice(Pp).semilattice, sem_lattice(P).semilattice):
        g_cross_id = prod.pair(
            compose(prod_p.proj_left(), g), prod_p.proj_right()
        )
        for m in enumerate_mappings(prod.sem.semilattice, semR):
            lhs = curry(compose(g_cross_id, m), prod_p, fs)
            rhs = compose(g, curry(m, prod, fs))
            assert lhs == rhs


def test_curry_natural_in_the_target():
    """Postcomposing the mapping equals acting on the function space."""
    P = Q = R = Rp = C2
    prod = product(P, Q)
    fs = funcspace(Q, R)
    fs_p = funcspace(Q, Rp)
    semR = sem_lattice(R).semilattice
    lit = fs.literal_context()
    prod_eval = product(lit, Q)
    ev = uncurry(identity_mapping(fs.sem[0]), prod_eval, fs)
    for h in enumerate_mappings(semR, sem_lattice(Rp).semilattice):
        h_star = curry(compose(ev, h), prod_eval, fs_p)
        for m in enumerate_mappings(prod.sem.semilattice, semR):
            lhs = curry(compose(m, h), prod, fs_p)
            rhs = compose(curry(m, prod, fs), h_star)
            assert lhs == rhs
