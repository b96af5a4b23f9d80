"""The law checks run on index tables; the name-level scans they replaced
are kept here as their oracles.

Each oracle below is the definitional body over element names: bounds
through ``join``/``meet``, order through ``le``.  Every index-table check
must agree with its oracle, results and witnesses alike, on the inputs the
law suites build at law seeds 1-3 (recorded by wrapping the check where the
suites call it), on M3, N5, the diamond and chains 1-5, and on failing
inputs: the M3 witness triple, non-prime generators, non-iso maps and a
non-Scott table.

Contexts are held as attribute-mask rows; the CXT parser and writer and the
context builders (product, plus, tensor, the context of a semilattice, the
random and literal contexts) are compared with the pair-built contexts the
public constructor makes, the chunked inclusion cones with the pairwise
inclusion scan, and the names of set families with ``set_id``, which
``parse_set_id`` decodes back.

Spaces hold their opens as masks; the name-level bodies of the space code
(``lattice_from_sets`` among them, the builder of open-set and
function-space lattices before they read masks) are compared with it on
drawn lattices and meet-semilattices, fixed ones, each also listed out of
name order, and random families of sets.
"""

import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cxtcat import (
    canon,
    category,
    context,
    corpus,
    formats,
    kernels,
    laws,
    logic,
    mappings,
    order,
    topology,
)
from cxtcat.canon import fresh_id, pair_id, set_id
from cxtcat.category import funcspace, product
from cxtcat.context import FormalContext, alg_lattice, attr_closure, sem_lattice
from cxtcat.corpus import chain_context, chain_poset, diamond_poset, k2_context, m3_poset
from cxtcat.errors import ValidationError
from cxtcat.mappings import enumerate_mappings
from cxtcat.order import FiniteLattice, JoinSemilattice, down_set, validate_poset

SEEDS = (1, 2, 3)


# ---------------------------------------------------------------------------
# the name-level oracles


def is_distributive_oracle(L):
    for x in L.elements:
        for y in L.elements:
            for z in L.elements:
                if L.meet(x, L.join(y, z)) != L.join(L.meet(x, y), L.meet(x, z)):
                    return False, (x, y, z)
    return True, None


def meet_primes_oracle(L):
    out = []
    for x in L.elements:
        if x == L.top:
            continue
        if all(
            L.le(y, x) or L.le(z, x)
            for y in L.elements
            for z in L.elements
            if L.le(L.meet(y, z), x)
        ):
            out.append(x)
    return frozenset(out)


def meet_irreducibles_oracle(L):
    out = []
    for x in L.elements:
        if x == L.top:
            continue
        if all(y == x or z == x for y in L.elements for z in L.elements if L.meet(y, z) == x):
            out.append(x)
    return frozenset(out)


def point_prime_breach(L, members):
    """The ``point:prime`` witness pair of a point with ``members``, or None."""
    for x in L.elements:
        for y in L.elements:
            if L.meet(x, y) in members and x not in members and y not in members:
                return [x, y]
    return None


def is_order_iso_oracle(P, Q, f):
    if set(f.keys()) != set(P.elements) or set(f.values()) != set(Q.elements):
        return False
    if len(set(f.values())) != len(P.elements):
        return False
    return all(P.le(a, b) == Q.le(f[a], f[b]) for a in P.elements for b in P.elements)


def minimal_upper_bounds_oracle(D, xs):
    xs = frozenset(xs)
    D.check_members(xs)
    ubs = [u for u in D.elements if all(D.le(x, u) for x in xs)]
    return D.minimal(ubs)


def rz_entails_oracle(D, xs, ys):
    ys = frozenset(ys)
    D.check_members(ys)
    return all(D.le(y, m) for m in minimal_upper_bounds_oracle(D, xs) for y in ys)


def thm67_failures_oracle(P):
    """The failures of ``theorem_6_7_check(P)``: the right-hand side by
    name-level bound entailment over the concept lattice."""
    attrs = P.attributes
    D = alg_lattice(P).lattice.poset
    iota = {a: set_id(attr_closure(P, [a])) for a in attrs}
    failures = []
    for m in range(1 << len(attrs)):
        xs = frozenset(a for i, a in enumerate(attrs) if m >> i & 1)
        lhs = attr_closure(P, xs)
        rhs = frozenset(
            a for a in attrs if rz_entails_oracle(D, [iota[x] for x in xs], [iota[a]])
        )
        if lhs != rhs:
            failures.append({"set": sorted(xs), "closure": sorted(lhs), "entailed": sorted(rhs)})
    return failures


def curry_oracle(m, prod, fs):
    right = fs.left_sem.elements
    return tuple(
        fs._concept_of_values[tuple(m.apply(prod.combine(x, y)) for y in right)]
        for x in prod.left_sem.elements
    )


def uncurry_oracle(m, prod, fs):
    return tuple(
        fs.mapping(m.apply(x)).apply(y) for x, y in map(prod.decompose, prod.sem.elements)
    )


def k_on_morphism_oracle(f):
    src_s = order.k_semilattice(f.source)
    tgt_s = order.k_semilattice(f.target)
    return tuple(
        tgt_s.join_all(b for b in tgt_s.elements if f.target.le(b, f.apply(a)))
        for a in src_s.elements
    )


def directed_sup_breach_oracle(src, tgt, values):
    """The directed-suprema scan over names: the first directed mask whose
    supremum is not sent to the supremum of the image."""
    P = src.poset
    apply = dict(zip(P.elements, values)).__getitem__
    for mask in kernels.directed_masks(P.up_masks):
        members = [P.elements[i] for i in range(P.n) if mask >> i & 1]
        if apply(src.join_all(members)) != tgt.join_all(apply(x) for x in members):
            return members
    return None


def is_algebraic_oracle(L):
    """Every element is the join of the compacts below it, by name."""
    K = set(order.compacts(L).elements)
    return all(L.join_all(c for c in K if L.le(c, x)) == x for x in L.elements)


def compacts_oracle(L):
    """The compact elements by name: ``c`` fails when some directed ``D``
    has ``c <= sup D`` and no member above ``c``."""
    els = L.elements
    subsets = [[e for i, e in enumerate(els) if r >> i & 1] for r in range(1, 1 << len(els))]
    directed = [
        D for D in subsets if all(any(L.le(a, u) and L.le(b, u) for u in D) for a in D for b in D)
    ]
    return {
        c
        for c in els
        if not any(L.le(c, L.join_all(D)) and not any(L.le(c, d) for d in D) for D in directed)
    }


def topspace_oracle(points, opens):
    """The ``TopSpace`` checks over frozensets: every ordered pair of opens,
    in ``set_id`` order, is tested for its union and then its intersection."""
    pts = set(points)
    if len(pts) != len(points):
        repeated = min(x for x in pts if points.count(x) > 1)
        raise ValidationError("duplicate point", law="space:points", witness={"point": repeated})
    for o in opens:
        if not o <= pts:
            raise ValidationError(
                "open set contains unknown points",
                law="unknown-element",
                witness={"open": sorted(o)},
            )
    if frozenset() not in opens or frozenset(pts) not in opens:
        raise ValidationError("empty or full set missing", law="space:bounds")
    ordered = sorted(opens, key=set_id)
    for a in ordered:
        for b in ordered:
            if a | b not in opens:
                raise ValidationError(
                    "opens not closed under union",
                    law="space:unions",
                    witness={"pair": [sorted(a), sorted(b)]},
                )
            if a & b not in opens:
                raise ValidationError(
                    "opens not closed under intersection",
                    law="space:intersections",
                    witness={"pair": [sorted(a), sorted(b)]},
                )


def cone_closed_masks(cones):
    """Every subset mask, in increasing order, that holds the cone of each of
    its members: the upper sets on up-cones, the lower sets on down-cones."""
    n = len(cones)
    return [m for m in range(1 << n) if all(not cones[i] & ~m for i in range(n) if m >> i & 1)]


def random_poset_oracle(rng, n, prefix="e"):
    """``corpus.random_poset`` with the set-based closure to a fixpoint."""
    els = [f"{prefix}{i}" for i in range(n)]
    rank = list(range(n))
    rng.shuffle(rank)
    p = rng.uniform(0.25, 0.75)
    above = {i: {i} for i in range(n)}
    ordered = sorted(range(n), key=lambda i: rank[i])
    for ai, i in enumerate(ordered):
        for j in ordered[ai + 1:]:
            if rng.random() < p:
                above[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in list(above[i]):
                if not above[j] <= above[i]:
                    above[i] |= above[j]
                    changed = True
    return validate_poset(els, {(els[i], els[j]) for i in range(n) for j in above[i]})


# ---------------------------------------------------------------------------
# fixed lattices, and the law corpora recorded where the suites call
#
# The checks call through the modules (``order.meet_primes``, not an
# imported name), so that a mutant patched into a module is what they test;
# ``tests/test_mutants.py`` runs them under such mutants.


def n5_poset():
    els = ("0", "a", "b", "c", "1")
    leq = {(e, e) for e in els} | {("0", e) for e in els} | {(e, "1") for e in els}
    return validate_poset(els, leq | {("a", "b")})


def fixed_lattices():
    posets = [m3_poset(), n5_poset(), diamond_poset()] + [chain_poset(n) for n in range(1, 6)]
    return [FiniteLattice(P) for P in posets]


def recorded(owners, name, *specs):
    """The ``(args, result)`` of every call to ``name`` while the suites of
    ``specs`` run at seeds 1-3; the call is wrapped in each module of
    ``owners``."""
    calls = []
    real = getattr(owners[0], name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        for owner in owners:
            mp.setattr(owner, name, spy)
        for suite, max_sem in specs:
            for seed in SEEDS:
                assert laws.run_law(suite, seed=seed, max_sem=max_sem).ok, (suite, seed)
    return calls


def law_lattices():
    """Every lattice that ``cor6.17`` checks for distributivity at seeds 1-3,
    the ``thm3.6`` lattice corpora, and the fixed lattices."""
    out = {args[0] for args, _ in recorded([topology], "is_distributive", ("cor6.17", None))}
    for seed in SEEDS:
        out.update(corpus.corpus(50, lambda r: corpus.random_lattice(r, 6), seed))
    return list(out) + fixed_lattices()


# ---------------------------------------------------------------------------
# lattice checks: distributivity, primes, irreducibles, points


def check_lattice_agrees(L):
    assert order.is_distributive(L) == is_distributive_oracle(L)
    D = L.dual()
    assert order.meet_primes(L) == meet_primes_oracle(L)
    assert order.join_primes(L) == meet_primes_oracle(D)
    assert order.meet_irreducibles(L) == meet_irreducibles_oracle(L)
    assert order.join_irreducibles(L) == meet_irreducibles_oracle(D)


def check_points_agree(L):
    for g in L.elements:
        if g == L.top:
            continue
        members = down_set(L.poset, [g])
        want = point_prime_breach(L, members)
        if want is None:
            topology.LocalePoint(L, g, members)
            continue
        with pytest.raises(ValidationError) as exc:
            topology.LocalePoint(L, g, members)
        assert exc.value.law == "point:prime"
        assert exc.value.witness == {"pair": want}


def test_lattice_checks_agree_with_the_name_scans():
    lattices = law_lattices()
    assert len(lattices) > 60
    verdicts = set()
    for L in lattices:
        check_lattice_agrees(L)
        check_points_agree(L)
        verdicts.add(order.is_distributive(L)[0])
    assert verdicts == {True, False}


def test_m3_witness_triple_and_non_prime_generators():
    M3 = FiniteLattice(m3_poset())
    assert order.is_distributive(M3) == is_distributive_oracle(M3) == (False, ("x", "y", "z"))
    with pytest.raises(ValidationError) as exc:
        topology.LocalePoint(M3, "x", frozenset({"0", "x"}))
    assert exc.value.witness == {"pair": point_prime_breach(M3, {"0", "x"})} == {"pair": ["y", "z"]}
    N5 = FiniteLattice(n5_poset())
    assert order.is_distributive(N5) == is_distributive_oracle(N5)
    assert not order.is_distributive(N5)[0]
    for L in fixed_lattices():
        check_lattice_agrees(L)
        check_points_agree(L)


def test_spectrality_meets_agree_with_the_name_scan():
    checked = [args[0] for args, _ in recorded([laws], "spectrality_check", ("cor6.17", None))]
    for loc in checked + [topology.Locale(L) for L in fixed_lattices()[2:]]:
        L = loc.lattice
        K = set(order.compacts(L).elements)
        want = all(L.meet(a, b) in K for a in K for b in K)
        assert topology.spectrality_check(loc).compact_meets_closed == want


# ---------------------------------------------------------------------------
# order isomorphisms


def swapped(f, P):
    """``f`` with the images of the first comparable pair of distinct
    elements swapped: a bijection that is not an order-iso; None if ``P``
    is an antichain."""
    for a, b in combinations(P.elements, 2):
        if P.le(a, b) or P.le(b, a):
            g = dict(f)
            g[a], g[b] = f[b], f[a]
            return g
    return None


def test_order_iso_agrees_with_the_pair_scan():
    calls = recorded(
        [order, mappings, topology],
        "is_order_iso",
        ("thm3.6", None),
        ("thm4.4", None),
        ("cor6.17", None),
    )
    assert len(calls) > 100
    for (P, Q, f), result in calls:
        assert result is is_order_iso_oracle(P, Q, f) is True
        g = swapped(f, P)
        if g is not None:
            assert order.is_order_iso(P, Q, g) is is_order_iso_oracle(P, Q, g) is False
    # the fixed lattices onto themselves and onto their duals
    for L in fixed_lattices():
        P = L.poset
        ident = dict(zip(P.elements, P.elements))
        for Q in (P, L.dual().poset):
            for g in filter(None, (ident, swapped(ident, P))):
                assert order.is_order_iso(P, Q, g) is is_order_iso_oracle(P, Q, g)
    # bijections that are not isos, onto another order: only the cone of
    # the element sent to the bottom of the chain breaks
    A = validate_poset(("a", "b"), {("a", "a"), ("b", "b")})
    C = chain_poset(2)
    for f in ({"a": "c0", "b": "c1"}, {"a": "c1", "b": "c0"}):
        assert order.is_order_iso(A, C, f) is is_order_iso_oracle(A, C, f) is False
        assert order.is_order_iso(C, A, {v: k for k, v in f.items()}) is False
    # maps that are not bijections onto the elements
    P = chain_poset(3)
    f = dict(zip(P.elements, P.elements))
    for g in ({**f, "c0": "c1"}, {"c0": "c0"}, {**f, "c0": "zz"}):
        assert order.is_order_iso(P, P, g) is is_order_iso_oracle(P, P, g) is False


# ---------------------------------------------------------------------------
# bound entailment and Thm 6.7


def check_bounds_agree(D, width=2):
    for k in range(width + 1):
        for xs in combinations(D.elements, k):
            assert logic.minimal_upper_bounds(D, xs) == minimal_upper_bounds_oracle(D, xs)
            for y in D.elements:
                assert logic.rz_entails(D, xs, [y]) == rz_entails_oracle(D, xs, [y])
            assert logic.rz_entails(D, xs, D.elements) == rz_entails_oracle(D, xs, D.elements)


def test_bound_entailment_agrees_with_the_name_scan():
    contexts = list({args[0] for args, _ in recorded([laws], "theorem_6_7_check", ("thm6.7", None))})
    assert len(contexts) > 100
    for P in contexts + product_factors():
        assert list(logic.theorem_6_7_check(P).failures) == thm67_failures_oracle(P) == []
    for D in {alg_lattice(P).lattice.poset for P in contexts}:
        check_bounds_agree(D)
    for L in fixed_lattices():
        check_bounds_agree(L.poset, width=3)
    # posets where a pair has several minimal upper bounds, or none
    rng = random.Random(5)
    posets = [corpus.random_poset(rng, rng.randint(1, 7)) for _ in range(60)]
    bowtie = {(x, x) for x in "abcd"} | {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    posets.append(validate_poset("abcd", bowtie))
    seen = set()
    for D in posets:
        check_bounds_agree(D, width=3)
        seen.update(len(logic.minimal_upper_bounds(D, xs)) for xs in combinations(D.elements, 2))
    assert {0, 1, 2} <= seen


def test_bound_entailment_rejects_unknown_names_as_before():
    D = chain_poset(2)
    for xs, ys in (([], ["zz"]), (["zz"], []), (["zz"], ["yy"])):
        with pytest.raises(ValidationError) as want:
            rz_entails_oracle(D, xs, ys)
        with pytest.raises(ValidationError) as got:
            logic.rz_entails(D, xs, ys)
        assert (got.value.law, got.value.witness) == (want.value.law, want.value.witness)


# ---------------------------------------------------------------------------
# currying


def check_curry_agrees(m, prod, fs):
    assert category.curry(m, prod, fs).values == curry_oracle(m, prod, fs)


def check_uncurry_agrees(m, prod, fs):
    assert category.uncurry(m, prod, fs).values == uncurry_oracle(m, prod, fs)


def test_curry_and_uncurry_agree_with_the_name_tables():
    specs = (("prop5.10", None), ("prop5.10", 3))
    curried = recorded([category], "curry", *specs)
    uncurried = recorded([category], "uncurry", *specs)
    assert len(curried) > 100 and len(uncurried) > 100
    for args, _ in curried:
        check_curry_agrees(*args)
    for args, _ in uncurried:
        check_uncurry_agrees(*args)


def test_curry_and_uncurry_agree_off_the_chains():
    """Factors whose Sem is the diamond (K2), which the law corpora lack."""
    K2, C2 = k2_context(), chain_context(2)
    for P, Q, R in ((K2, C2, C2), (C2, K2, C2)):
        prod, fs = product(P, Q), funcspace(Q, R)
        for m in enumerate_mappings(prod.sem.semilattice, sem_lattice(R).semilattice):
            check_curry_agrees(m, prod, fs)
            c = category.curry(m, prod, fs)
            check_uncurry_agrees(c, prod, fs)
            assert category.uncurry(c, prod, fs) == m


# ---------------------------------------------------------------------------
# products, tensors and the closure operator by mask
#
# The product cuts its intent masks at the left width, the tensor lays out
# each concept's projections as a product intent mask, and the closure
# operator looks up each value by mask.  Their name-level bodies, which
# untagged names and rebuilt them with ``set_id``, are the oracles here.


def split_oracle(prod):
    """Each product concept's intent untagged into its two sides, each side
    named by ``set_id``."""
    out = {}
    for name, members in prod.sem.intents.items():
        ls, rs = set(), set()
        for x in members:
            side, orig = category.untag(x)
            (ls if side == "left" else rs).add(orig)
        out[name] = (set_id(ls), set_id(rs))
    return out


def projections_oracle(tens, name):
    """The first and second components of a tensor concept's attributes."""
    members = tens.sem.intents[name]
    p1 = frozenset(tens.attr_pairs[a][0] for a in members)
    p2 = frozenset(tens.attr_pairs[a][1] for a in members)
    return p1, p2


def iso_pairs_oracle(tens):
    """The relations of ``iso_plus`` and ``iso_minus``, by name: a product
    concept and a tensor concept are related when the tensor concept's
    projections, met with the factor attributes, lie in the intents of the
    product concept's factor concepts, or hold them."""
    prod = product(tens.left, tens.right)
    split = split_oracle(prod)
    ap, aq = set(tens.left.attributes), set(tens.right.attributes)
    plus, minus = set(), set()
    for x in prod.sem.elements:
        lx, rx = split[x]
        lset, rset = prod.left_sem.intents[lx], prod.right_sem.intents[rx]
        for y in tens.sem.elements:
            p1, p2 = projections_oracle(tens, y)
            if p1 & ap <= lset and p2 & aq <= rset:
                plus.add((x, y))
            if lset <= p1 and rset <= p2:
                minus.add((y, x))
    return plus, minus


def attr_closure_operator_oracle(P):
    """Each closure value named by ``set_id`` of its decoded members."""
    lat, members = order.lattice_from_masks(P.attributes, range(1 << len(P.attributes)))
    values = tuple(set_id(attr_closure(P, members[x])) for x in lat.elements)
    return order.ClosureOperator(lat.poset, values)


def check_product_agrees(P, Q):
    prod = category.product(P, Q)
    split = split_oracle(prod)
    assert {z: prod.decompose(z) for z in prod.sem.elements} == split
    assert all(prod.combine(x, y) == z for z, (x, y) in split.items())
    assert prod.proj_left().values == tuple(split[z][0] for z in prod.sem.elements)
    assert prod.proj_right().values == tuple(split[z][1] for z in prod.sem.elements)
    C = prod.context
    if len(C.attributes) <= order.POWERSET_GUARD:
        assert context.attr_closure_operator(C) == attr_closure_operator_oracle(C)


def check_tensor_agrees(P, Q):
    tens = category.tensor(P, Q)
    plus, minus = iso_pairs_oracle(tens)
    assert outcome(lambda: tens.iso_plus().pairs) == plus
    assert outcome(lambda: tens.iso_minus().pairs) == minus


def product_factors():
    """Chains 1-3, K2, and two factors whose attributes are listed out of
    name order and hold names that ``member_id`` escapes."""
    special = FormalContext(
        ["o1", "o2", "o3"],
        ["b", "a,b", "{", ""],
        [("o1", "b"), ("o1", "a,b"), ("o2", "{"), ("o2", ""), ("o3", "b"), ("o3", "")],
    )
    k2_renamed = FormalContext(["x", "y"], ["{", "a,b"], [("x", "{"), ("y", "a,b")])
    return [*(chain_context(n) for n in (1, 2, 3)), k2_context(), special, k2_renamed]


def test_products_and_tensors_agree_with_the_name_level_bodies():
    factors = product_factors()
    for P in factors:
        assert context.attr_closure_operator(P) == attr_closure_operator_oracle(P)
        for Q in factors:
            check_product_agrees(P, Q)
            check_tensor_agrees(P, Q)


@st.composite
def small_contexts(draw):
    """Up to three objects and three attributes, drawn in any order from
    names that ``member_id`` writes raw and names it escapes."""
    objects = draw(name_lists("opq", 3))
    attributes = draw(name_lists(("a", "b", "a,b", "", "{", "(x,y)"), 3))
    pairs = [(o, a) for o in objects for a in attributes]
    return FormalContext(objects, attributes, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


@given(small_contexts(), small_contexts())
@settings(max_examples=40, deadline=None)
def test_drawn_products_and_tensors_agree_with_the_name_level_bodies(P, Q):
    assert context.attr_closure_operator(P) == attr_closure_operator_oracle(P)
    check_product_agrees(P, Q)
    check_tensor_agrees(P, Q)


# ---------------------------------------------------------------------------
# the compacts functor and the directed-suprema scan


def test_k_semilattice_agrees_with_the_eager_constructor():
    """``k_semilattice`` enters ``L``'s order unchecked; the validating
    constructor gives an equal value with the same bottom and join table."""
    from test_order import NAME_LATTICES

    calls = recorded([order, mappings], "k_semilattice", ("thm3.6", None), ("thm4.4", None))
    assert len(calls) > 100
    for L in {args[0] for args, _ in calls} | set(NAME_LATTICES):
        K, want = order.k_semilattice(L), JoinSemilattice(L.poset)
        assert K == want
        assert (K.bottom, K.join_table) == (want.bottom, want.join_table) == (
            L.bottom,
            L.join_table,
        )


def test_compacts_functor_and_scott_scan_agree():
    specs = (("thm4.4", None),)
    kfs = recorded([laws], "k_on_morphism", *specs)
    scott = recorded([laws], "ScottFunction", *specs)
    assert len(kfs) > 100 and len(scott) > 100
    for (f,), _ in kfs:
        assert mappings.k_on_morphism(f).values == k_on_morphism_oracle(f)
    for args, _ in scott:
        assert mappings._directed_sup_breach(*args) is directed_sup_breach_oracle(*args) is None
    # identities and constant maps between the fixed lattices
    lattices = fixed_lattices()
    for L in lattices:
        for M in lattices:
            tables = [(M.bottom,) * L.poset.n, (M.top,) * L.poset.n]
            if M is L:
                tables.append(L.elements)
            for values in tables:
                f = mappings.ScottFunction(L, M, values)
                assert mappings.k_on_morphism(f).values == k_on_morphism_oracle(f)
                assert directed_sup_breach_oracle(L, M, values) is None


def test_a_non_scott_table_gets_the_same_witness():
    """A rotated table is not monotone, so it fails the scan too; the scan
    reports the directed set the name scan reports."""
    found = 0
    for L in fixed_lattices():
        els = L.elements
        for k in range(1, len(els)):
            values = els[k:] + els[:k]
            want = directed_sup_breach_oracle(L, L, values)
            assert mappings._directed_sup_breach(L, L, values) == want
            found += want is not None
    assert found > 10


# ---------------------------------------------------------------------------
# the finite theorems as engines: compacts, upper and lower sets
#
# ``compacts`` is the lattice itself and the upper sets come from the
# monotone-map search; the definitional folds over the directed sets are
# their oracles in the library, and the name scans here are the oracles of
# those folds.


def theorem_inputs():
    """300 random posets of 1-9 elements and 300 random lattices of up to 9,
    chains 1-10, the diamond, M3 and N5."""
    rng = random.Random(22)
    posets = [corpus.random_poset(rng, rng.randint(1, 9)) for _ in range(300)]
    fixed = [chain_poset(n) for n in range(1, 11)] + [diamond_poset(), m3_poset(), n5_poset()]
    lattices = [corpus.random_lattice(rng, 9) for _ in range(300)]
    return posets + fixed, lattices + [FiniteLattice(P) for P in fixed]


def test_upper_and_lower_sets_agree_with_the_cone_scan():
    posets, lattices = theorem_inputs()
    for L in lattices:
        assert topology._scott_open_scan(L) == cone_closed_masks(L.poset.up_masks)
    for P in posets:
        assert order._upper_set_masks(P) == cone_closed_masks(P.up_masks)
        assert order._upper_set_masks(P.dual()) == cone_closed_masks(P.down_masks)
    for L in lattices:
        P = L.poset
        want = sorted((P.set_of(m) for m in cone_closed_masks(P.down_masks)), key=set_id)
        assert topology.lower_sets(order.MeetSemilattice(P)) == want
        assert topology.scott_topology(L).opens == set(map(P.set_of, cone_closed_masks(P.up_masks)))


def random_families():
    """Families of subsets of up to five points: closures of random
    generators under unions, intersections or both, some with one member
    dropped or the bounds left out, and arbitrary families."""
    rng = random.Random(23)
    out = []
    for _ in range(400):
        points = tuple(f"p{i}" for i in range(rng.randint(0, 5)))
        subsets = [
            frozenset(p for i, p in enumerate(points) if m >> i & 1)
            for m in range(1 << len(points))
        ]
        fam = {frozenset(), frozenset(points)}
        fam.update(rng.sample(subsets, rng.randint(0, min(4, len(subsets)))))
        ops = rng.choice([(), (frozenset.union,), (frozenset.intersection,)] + [
            (frozenset.union, frozenset.intersection)
        ] * 2)
        grown = True
        while grown and ops:
            new = {op(a, b) for op in ops for a in fam for b in fam} - fam
            fam |= new
            grown = bool(new)
        if rng.random() < 0.3 and len(fam) > 2:
            fam.discard(rng.choice(sorted(fam, key=set_id)))
        if rng.random() < 0.1:
            fam.discard(frozenset())
        out.append((points, frozenset(fam)))
    return out


def test_topspace_closure_agrees_with_the_frozenset_scan():
    """The mask walk reports what the frozenset scan reports: the same law,
    message and witness, or no failure."""
    families = random_families()
    for L in fixed_lattices():
        P = L.poset
        families.append((P.elements, frozenset(map(P.set_of, order._upper_set_masks(P)))))
    seen = set()
    for points, opens in families:
        try:
            topspace_oracle(points, opens)
            want = None
        except ValidationError as e:
            want = (e.law, str(e), e.witness)
        try:
            topology.TopSpace(points, opens)
            got = None
        except ValidationError as e:
            got = (e.law, str(e), e.witness)
        assert got == want, (points, sorted(map(sorted, opens)))
        seen.add(want and want[0])
    assert seen == {None, "space:bounds", "space:unions", "space:intersections"}


def test_compacts_agree_with_the_definitional_fold():
    _, lattices = theorem_inputs()
    for L in lattices:
        P = L.poset
        if P.n <= 6:
            assert order._compact_fold(L) == P.mask_of(compacts_oracle(L))
        assert order._compact_fold(L) == (1 << P.n) - 1
        assert order.compacts(L) is P
        assert order.is_algebraic(L) == is_algebraic_oracle(L) is True


def test_is_algebraic_agrees_when_compacts_fall_short():
    """With only the bottom taken as compact, no lattice of two or more
    elements is the join of its compacts; both checks say so."""
    lattices = fixed_lattices()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(order, "compacts", lambda L: L.poset.restrict([L.bottom]))
        for L in lattices:
            assert order.is_algebraic(L) == is_algebraic_oracle(L) == (L.poset.n == 1)


def test_a_compacts_mismatch_names_the_least_element():
    L = FiniteLattice(m3_poset())
    K = L.poset.restrict(x for x in L.elements if x not in ("0", "y"))
    with pytest.raises(ValidationError) as exc:
        order._checked_compacts(L, K)
    assert (exc.value.law, exc.value.witness) == ("compacts:directed", {"element": "0"})


def test_directed_sets_are_listed_once_per_lattice_in_thm4_4(monkeypatch):
    """The compacts cross-check and the ``ScottFunction`` scan read one list
    of directed sets per lattice value."""
    scans, lattices = [], []
    real_scan, real_fold = kernels.directed_masks, order._fold_directed
    monkeypatch.setattr(kernels, "directed_masks", lambda up: scans.append(up) or real_scan(up))
    monkeypatch.setattr(order, "_fold_directed", lambda L: lattices.append(L) or real_fold(L))
    assert laws.run_law("thm4.4").ok
    assert len(scans) == len(lattices) > 10
    assert len({id(L) for L in lattices}) == len(lattices)


# ---------------------------------------------------------------------------
# corpus posets and semilattices


def replayed_draws(owners, name, *calls):
    """``(rng state before, args, result, rng state after)`` of each call to
    ``name`` while ``thm3.6`` and ``thm4.4`` run at seeds 1-3, and of the
    direct ``calls`` (argument tuples after the rng) at rng seeds 0, 1, ..."""
    draws = []
    real = getattr(owners[0], name)

    def spy(rng, *args):
        before = rng.getstate()
        out = real(rng, *args)
        draws.append((before, args, out, rng.getstate()))
        return out

    with pytest.MonkeyPatch.context() as mp:
        for owner in owners:
            mp.setattr(owner, name, spy)
        for seed in SEEDS:
            for suite in ("thm3.6", "thm4.4"):
                assert laws.run_law(suite, seed=seed).ok
        for seed, args in enumerate(calls):
            getattr(owners[0], name)(random.Random(seed), *args)
    return draws


def check_replay_agrees(oracle, before, args, got, after):
    """The oracle, run from the same rng state, gives an equal value and
    leaves the rng where the draw left it."""
    rng = random.Random()
    rng.setstate(before)
    want = oracle(rng, *args)
    assert want == got
    assert rng.getstate() == after
    return want


def test_random_poset_closure_agrees_with_the_set_fixpoint():
    """Each ``random_poset`` draw of the ``thm3.6`` and ``thm4.4`` corpora,
    replayed from its rng state through the oracle: the same poset and the
    same draws."""
    draws = replayed_draws([corpus], "random_poset", *((1 + k % 9,) for k in range(50)))
    assert len(draws) > 500
    for draw in draws:
        check_replay_agrees(random_poset_oracle, *draw)


def random_join_semilattice_oracle(rng, max_n):
    """``corpus.random_join_semilattice`` with each union-closed family named,
    ordered by name pairs and validated by the public constructors."""

    def build():
        if rng.random() < 0.5:
            base = rng.randint(2, 3)
            k = rng.randint(1, 3)
            fam = {frozenset()}
            for _ in range(k):
                g = frozenset(b for b in range(base) if rng.random() < 0.6)
                fam |= {s | g for s in fam}
            if len(fam) > max_n:
                return None
            names = {s: set_id(str(x) for x in s) for s in fam}
            els = tuple(sorted(names.values()))
            leq = {(names[a], names[b]) for a in fam for b in fam if a <= b}
            return JoinSemilattice(validate_poset(els, leq))
        P = random_poset_oracle(rng, rng.randint(1, max_n))
        try:
            return JoinSemilattice(P)
        except ValidationError:
            return None

    return corpus._rejection(rng, build)


def test_union_closed_semilattices_agree_with_the_validated_build():
    """The union-closed families are ordered by inclusion of masks and enter
    unchecked; replayed through the validated build, every draw of the
    ``thm3.6`` and ``thm4.4`` corpora gives the same order, bottom and join
    table."""
    draws = replayed_draws(
        [corpus, laws], "random_join_semilattice", *((2 + k % 7,) for k in range(100))
    )
    assert len(draws) > 500
    for draw in draws:
        want = check_replay_agrees(random_join_semilattice_oracle, *draw)
        got = draw[2]
        assert (got.bottom, got.join_table) == (want.bottom, want.join_table)


# ---------------------------------------------------------------------------
# completions and the order of enumerated mappings


def ideal_completion_oracle(S):
    """The ideals of ``S`` found by the definitional subset scan, named by
    ``set_id``, ordered by inclusion of their members and validated by the
    public constructors."""
    P = S.poset
    ideals = {set_id(s): s for s in map(P.set_of, kernels.ideal_masks(P.down_masks, P.up_masks))}
    els = tuple(sorted(ideals))
    leq = {(a, b) for a in els for b in els if ideals[a] <= ideals[b]}
    return FiniteLattice(validate_poset(els, leq))


def test_completions_agree_with_the_inclusion_build():
    """``S`` renamed is the completion the scan finds, on every semilattice
    whose completion ``thm3.6``, ``thm4.4`` and ``cor6.17`` build at seeds
    1-3 and on the fixed lattices (``tests/test_closure_builds.py`` draws
    random ones)."""
    calls = recorded(
        [order], "_build_ideal_completion", ("thm3.6", None), ("thm4.4", None), ("cor6.17", None)
    )
    assert len(calls) > 300
    for S in [args[0] for args, _ in calls] + [L.as_join_semilattice() for L in fixed_lattices()]:
        L, want = order.ideal_completion(S), ideal_completion_oracle(S)
        assert L == want and (L.bottom, L.top) == (want.bottom, want.top)
        P = S.poset
        assert order.ideal_names(S) == tuple(set_id(down_set(P, [a])) for a in P.elements)


# Names that need escaping, the empty name, characters below "," and ")",
# and names that are prefixes of each other: their order as names differs
# from the order of their escaped forms inside a pair id.
ODD_NAMES = (
    "", ",", "(", ")", "\\", " ", "!", "+", "}", "a", "a ", "a!", "a+", "a,", "a(", "a)",
    "a\\", "a,b", "ab", "b",
)


def renamed(S, names):
    """``S`` with element ``i`` named ``names[i]``, through the public
    constructors."""
    P = S.poset
    leq = {(names[i], names[j]) for i, cone in enumerate(P.up_masks) for j in order._bits(cone)}
    return JoinSemilattice(validate_poset(names, leq))


def raw_pair_set_name(m):
    """The sorted ``pair_id``s of the mapping ``m`` joined as they are: its
    ``set_id`` whenever ``member_id`` writes every pair id raw."""
    return "{" + ",".join(sorted(pair_id(a, b) for a, b in m.pairs)) + "}"


def test_enumerated_mappings_sort_as_their_pair_set_names():
    """``enumerate_mappings`` lists the mappings as sorting them by the raw
    join of their sorted ``pair_id``s does, on semilattices whose names
    need escaping or sort apart from their escaped forms."""
    rng = random.Random(25)
    for _ in range(200):
        S, T = (corpus.random_join_semilattice(rng, 5) for _ in range(2))
        S, T = (renamed(X, tuple(rng.sample(ODD_NAMES, X.poset.n))) for X in (S, T))
        got = enumerate_mappings(S, T)
        assert got == sorted(got, key=raw_pair_set_name), (S.elements, T.elements)


# ---------------------------------------------------------------------------
# contexts held as rows


def rows_oracle(objects, attributes, incidence):
    """Each object's attribute mask, read off the pairs by name."""
    return tuple(
        sum(1 << j for j, a in enumerate(attributes) if (o, a) in incidence) for o in objects
    )


def check_context_agrees(P, objects, attributes, incidence):
    """``P`` is the context the public constructor builds from the pairs."""
    incidence = frozenset(incidence)
    Q = FormalContext(objects, attributes, incidence)
    assert (P.objects, P.attributes) == (tuple(objects), tuple(attributes))
    assert P.rows == Q.rows == rows_oracle(objects, attributes, incidence)
    assert P.incidence == Q.incidence == incidence
    assert P == Q and hash(P) == hash(Q)


def name_lists(names, max_size):
    return st.lists(st.sampled_from(names), max_size=max_size, unique=True)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_context_rows_agree_with_the_pairs(data):
    """Rows, the ``incidence`` round trip, and equality and hashing exactly
    when the incidence is equal."""
    objects = data.draw(name_lists("opqrs", 5))
    attributes = data.draw(name_lists("abcdef", 6))
    pairs = [(o, a) for o in objects for a in attributes]
    one, two = (data.draw(st.sets(st.sampled_from(pairs))) if pairs else set() for _ in range(2))
    P = FormalContext(objects, attributes, one)
    check_context_agrees(P, objects, attributes, one)
    R = FormalContext._from_rows(P.objects, P.attributes, P.rows)
    assert R == P and hash(R) == hash(P) and R.incidence == P.incidence
    Q = FormalContext(objects, attributes, two)
    assert (P == Q) == (one == two)
    if one == two:
        assert hash(P) == hash(Q)
    assert all(P.has(o, a) == ((o, a) in one) for o in "opqrsz" for a in "abcdefz")


def test_context_checks_keep_their_laws_and_witnesses():
    with pytest.raises(ValidationError) as exc:
        FormalContext(["o", "p", "o"], ["a", "a"], [])
    assert (exc.value.law, exc.value.witness) == ("context:duplicates", {"element": "o"})
    with pytest.raises(ValidationError) as exc:
        FormalContext._from_rows(("o",), ("a", "b", "a"), (0,))
    assert (exc.value.law, exc.value.witness) == ("context:duplicates", {"element": "a"})
    with pytest.raises(ValidationError) as exc:
        FormalContext(["o", "p"], ["a"], [("p", "z"), ("o", "a"), ("q", "a"), ("p", "y")])
    assert (exc.value.law, exc.value.witness) == ("unknown-element", {"pair": ["p", "y"]})


def cxt_text_oracle(objects, attributes, incidence):
    """A Burmeister table written by names."""
    lines = ["B", "", str(len(objects)), str(len(attributes)), "", *objects, *attributes]
    lines += ["".join("X" if (o, a) in incidence else "." for a in attributes) for o in objects]
    return "\n".join(lines) + "\n"


def cxt_cases():
    """``(objects, attributes, incidence)``: no objects, no attributes,
    all-``.`` and all-``X`` rows, and random tables of widths 0-13."""
    cases = [
        ((), (), set()),
        ((), ("a", "b", "c"), set()),
        (("o", "p", "q"), (), set()),
        (("o", "p", "q"), ("a", "b", "c", "d"), set()),
        (("o", "p"), ("a", "b", "c"), {(o, a) for o in "op" for a in "abc"}),
    ]
    rng = random.Random(25)
    for width in range(14):
        for n in (1, 2, 7):
            objects = tuple(f"o{i}" for i in range(n))
            attributes = tuple(f"a{j}" for j in range(width))
            p = rng.random()
            incidence = {(o, a) for o in objects for a in attributes if rng.random() < p}
            cases.append((objects, attributes, incidence))
    return cases


def test_parse_cxt_agrees_with_the_pair_parser():
    """``parse_cxt`` reads each row into a mask; every table parses to the
    pair-built context and writes back byte for byte."""
    for objects, attributes, incidence in cxt_cases():
        text = cxt_text_oracle(objects, attributes, incidence)
        P = formats.parse_cxt(text)
        check_context_agrees(P, objects, attributes, incidence)
        assert formats.dump_cxt(P) == text
        assert formats.dump_cxt(FormalContext(objects, attributes, incidence)) == text


def product_oracle(P, Q):
    tl, tr = category.tag_left, category.tag_right
    objects = [tl(o) for o in P.objects] + [tr(o) for o in Q.objects]
    attributes = [tl(a) for a in P.attributes] + [tr(a) for a in Q.attributes]
    incidence = {(tl(o), tl(a)) for o, a in P.incidence} | {(tr(o), tr(a)) for o, a in Q.incidence}
    incidence |= {(tl(o), tr(a)) for o in P.objects for a in Q.attributes}
    incidence |= {(tr(o), tl(a)) for o in Q.objects for a in P.attributes}
    return objects, attributes, incidence


def plus_oracle(P):
    g, m = fresh_id("g", P.objects), fresh_id("m", P.attributes)
    objects, attributes = P.objects + (g,), P.attributes + (m,)
    incidence = set(P.incidence) | {(g, a) for a in attributes} | {(o, m) for o in objects}
    return objects, attributes, incidence


def tensor_oracle(P, Q):
    Pp, Qp = (FormalContext(*plus_oracle(X)) for X in (P, Q))
    objects = [pair_id(o1, o2) for o1 in Pp.objects for o2 in Qp.objects]
    attributes = [pair_id(a1, a2) for a1 in Pp.attributes for a2 in Qp.attributes]
    incidence = {
        (pair_id(o1, o2), pair_id(a1, a2))
        for o1, a1 in Pp.incidence
        for o2, a2 in Qp.incidence
    }
    return objects, attributes, incidence


def context_of_semilattice_oracle(S):
    els = S.elements
    return els, els, {(o, a) for o in els for a in els if S.le(a, o)}


def literal_context_oracle(fs):
    attrs = fs.attributes
    spo, sqo = fs.left_sem.semilattice, fs.right_sem.semilattice
    objects, incidence = [], set()
    for m in range(1 << len(attrs)):
        members = frozenset(a for i, a in enumerate(attrs) if m >> i & 1)
        oname = set_id(members)
        objects.append(oname)
        pairs = [fs.attr_pairs[a] for a in members]
        for aname, (a, b) in fs.attr_pairs.items():
            if sqo.le(b, sqo.join_all(bi for ai, bi in pairs if spo.le(ai, a))):
                incidence.add((oname, aname))
    return objects, attrs, incidence


def random_context_oracle(rng, max_objects, max_attributes):
    n_o = rng.randint(1, max_objects)
    n_a = rng.randint(1, max_attributes)
    objects = [f"o{i}" for i in range(n_o)]
    attributes = [f"a{i}" for i in range(n_a)]
    p = rng.uniform(0.2, 0.8)
    return objects, attributes, {(o, a) for o in objects for a in attributes if rng.random() < p}


def builder_contexts():
    """The terminal context, K2, chains 1-4, a context with empty rows and
    columns, and random contexts at seeds 1-3."""
    out = [category.terminal(), k2_context(), *(chain_context(n) for n in range(1, 5))]
    out.append(FormalContext(["o", "p"], ["a", "b", "c"], [("p", "b")]))
    for seed in SEEDS:
        rng = random.Random(seed)
        out += [corpus.random_context(rng, 4, 4) for _ in range(3)]
    return out


def test_context_builders_agree_with_the_pair_builds():
    """``product``, ``plus``, ``tensor`` and ``context_of_semilattice`` build
    rows by blocks; each agrees with its pair-built oracle."""
    ctxs = builder_contexts()
    for P in ctxs:
        check_context_agrees(category.plus(P), *plus_oracle(P))
        for Q in ctxs[:8]:
            check_context_agrees(category.product(P, Q).context, *product_oracle(P, Q))
            check_context_agrees(category.tensor(P, Q).context, *tensor_oracle(P, Q))
    lattices = [L.as_join_semilattice() for L in fixed_lattices()]
    rng = random.Random(25)
    for S in lattices + [corpus.random_join_semilattice(rng, 6) for _ in range(30)]:
        check_context_agrees(
            context.context_of_semilattice(S), *context_of_semilattice_oracle(S)
        )


def test_random_contexts_make_the_pair_draws():
    """``random_context`` at seeds 1-3: the same context from the same draws."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for k in range(40):
            args = (1 + k % 5, 1 + k % 7)
            before = rng.getstate()
            got = corpus.random_context(rng, *args)
            replay = random.Random()
            replay.setstate(before)
            check_context_agrees(got, *random_context_oracle(replay, *args))
            assert replay.getstate() == rng.getstate()


def test_literal_contexts_agree_with_the_pair_build():
    for P, Q in [
        (chain_context(1), chain_context(2)),
        (chain_context(2), chain_context(2)),
        (chain_context(2), chain_context(3)),
        (k2_context(), chain_context(2)),
    ]:
        fs = funcspace(P, Q)
        check_context_agrees(fs.literal_context(), *literal_context_oracle(fs))


def inclusion_cones_oracle(sets):
    """Cones by the pairwise inclusion scan."""
    up = [sum(1 << j for j, t in enumerate(sets) if s & t == s) for s in sets]
    down = [sum(1 << j for j, t in enumerate(sets) if s & t == t) for s in sets]
    return up, down


def inclusion_families(rng, width):
    """Families of distinct sets over ``width`` points that hold inclusions:
    random masks of varied density with their pairwise meets and joins."""
    full = (1 << width) - 1
    for size in (0, 1, 3, 6):
        base = []
        for _ in range(size):
            p = rng.random()
            base.append(sum(1 << j for j in range(width) if rng.random() < p))
        fam = base + [a & b for a in base for b in base] + [a | b for a in base for b in base]
        if size % 2:
            fam += [0, full]
        fam = list(dict.fromkeys(fam))
        rng.shuffle(fam)
        yield fam


def named_masks_oracle(points, masks):
    """Each distinct mask's members named by ``set_id``, sorted by name."""
    named = []
    for m in set(masks):
        members = sorted(p for j, p in enumerate(points) if m >> j & 1)
        named.append((set_id(members), m, members))
    return sorted(named)


# Point names that ``member_id`` escapes, and names holding its special
# characters that it writes raw.
SPECIAL_POINTS = ("", ",", "a,b", "{", "}", "(", "\\", "\\.", "a\\,b", "{a,b}", "(x,y)", "({a\\,b},c)")


def test_inclusion_cones_agree_with_the_inclusion_scan():
    """The column tables, chunked or read point by point, give the cones of
    the pairwise scan on widths 0-40, across chunk boundaries and short last
    chunks.  The same families, over points listed out of name order and led
    by ``SPECIAL_POINTS``, get the names ``set_id`` gives their member sets."""
    rng = random.Random(25)
    chunked = set()
    for width in range(41):
        points = [f"p{width - j}" for j in range(width)]
        points[: len(SPECIAL_POINTS)] = SPECIAL_POINTS[:width]
        for fam in inclusion_families(rng, width):
            assert kernels.inclusion_cones(fam, width) == inclusion_cones_oracle(fam), width
            assert order.named_masks(points, fam) == named_masks_oracle(points, fam), width
            chunked.add(len(fam) >= kernels.CHUNKED_MIN_SETS)
    assert chunked == {False, True}


# ---------------------------------------------------------------------------
# set names and their decoder


def parse_set_id(name):
    """The member set that ``set_id`` writes as ``name``: the text between
    the braces splits at each ``,`` outside brackets and escapes, and a
    member that starts with ``\\.`` drops the marker and its escapes."""
    assert name[0] == "{" and name[-1] == "}", name
    body, members, start, depth, i = name[1:-1], [], 0, 0, 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            i += 1
        elif c in "({":
            depth += 1
        elif c in ")}":
            depth -= 1
        elif c == "," and not depth:
            members.append(body[start:i])
            start = i + 1
        i += 1
    if body:
        members.append(body[start:])
    return frozenset(
        re.sub(r"\\(.)", r"\1", m[2:], flags=re.S) if m.startswith("\\.") else m for m in members
    )


# Members over the characters ``member_id`` escapes, the empty member
# among them, and set names and pair ids built from such members.
SET_MEMBERS = st.recursive(
    st.text(alphabet="a,{}()\\.", max_size=4),
    lambda inner: st.lists(inner, max_size=3).map(set_id)
    | st.tuples(inner, inner).map(lambda p: pair_id(*p)),
    max_leaves=8,
)


@given(st.lists(st.lists(SET_MEMBERS, max_size=4), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
@example([["a", "b"], ["a,b"]])
@example([[], [""]])
@example([["a\\,b"], ["a,b"]])
@example([["{a", "b}"], ["{a,b}"]])
def test_set_names_decode_back_and_tell_sets_apart(families):
    """``parse_set_id`` inverts ``set_id``, and distinct sets get distinct
    names; the examples are the pairs ``{a,b}``-style naming merges, and
    the raw ``a\\,b`` beside the member ``a,b``."""
    sets = {frozenset(xs) for xs in families}
    for xs in sets:
        assert parse_set_id(set_id(xs)) == xs, xs
    assert len({set_id(xs) for xs in sets}) == len(sets), sets


def test_law_corpora_names_are_written_raw():
    """``member_id`` is the identity on every member of every set name the
    law suites make at seeds 1-3, so the set names they print are the
    sorted members joined as they are."""
    specs = [(name, None) for name in laws.LAWS] + [("prop5.10", 3)]
    calls = recorded([canon, order], "member_id", *specs)
    assert len(calls) > 1000
    assert [x for (x,), out in calls if out != x] == []


def test_poset_documents_agree_with_json_dumps():
    """``dump_poset`` writes the bytes of ``json.dumps`` on posets in name
    order (concept posets) and out of it (shuffled, dual, random)."""
    rng = random.Random(25)
    posets = [sem_lattice(P).semilattice.poset for P in builder_contexts()]
    for n in range(1, 9):
        P = corpus.random_poset(rng, n)
        els = list(P.elements)
        rng.shuffle(els)
        posets += [P, P.dual(), validate_poset(els, P.leq)]
    assert any(list(P.elements) != sorted(P.elements) for P in posets)
    for P in posets:
        doc = {
            "elements": sorted(P.elements),
            "kind": "poset",
            "leq": sorted([a, b] for a, b in P.leq),
            "version": 1,
        }
        assert formats.dump_poset(P) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# spaces held as open masks, and the name-level bodies they replaced


def lattice_from_sets(family):
    """The inclusion lattice of a family of sets of names, its points indexed
    in name order, and its decoding table: what the open-set lattice and the
    function-space lattice were built by before they read masks."""
    fam = set(family)
    points = sorted(set().union(*fam))
    at = {p: i for i, p in enumerate(points)}
    return order.lattice_from_masks(points, {sum(1 << at[p] for p in s) for s in fam})


def specialization_order_oracle(T):
    pairs = set()
    for x in T.points:
        for y in T.points:
            if all(y in o for o in T.opens if x in o):
                pairs.add((x, y))
    for x, y in sorted(pairs):
        if x != y and (y, x) in pairs:
            raise ValidationError(
                f"specialization preorder is not antisymmetric on ({x!r}, {y!r})",
                law="specialization:antisymmetry",
                witness={"pair": [x, y]},
            )
    return order.FinitePoset(T.points, frozenset(pairs))


def base_and_coherence_oracle(L):
    T = topology.scott_topology(L)
    base = sorted((order.up_set(L.poset, [c]) for c in order.compacts(L).elements), key=set_id)
    details = []
    for o in sorted(T.opens, key=set_id):
        union = frozenset().union(*[b for b in base if b <= o]) if base else frozenset()
        if union != o:
            details.append(f"open {set_id(o)} is not the union of base members inside it")
    lat, decode = lattice_from_sets(T.opens)
    kopens = sorted((decode[e] for e in order.compacts(lat).elements), key=set_id)
    finite_unions = {
        frozenset().union(*(b for i, b in enumerate(base) if m >> i & 1))
        for m in range(1 << len(base))
    }
    if set(kopens) != finite_unions:
        details.append("compact opens differ from finite unions of base members")
    masks = [L.poset.mask_of(o) for o in kopens]
    for a in masks:
        for b in masks:
            if a & b not in set(masks):
                details.append(f"intersection {set_id(L.poset.set_of(a & b))} is not compact")
    return topology.BaseCoherenceReport(not details, tuple(base), tuple(kopens), tuple(details))


def frame_hom_oracle(f, X, Y):
    for x in X.points:
        if x not in f or f[x] not in set(Y.points):
            raise ValidationError(f"map is not total on points ({x!r})", law="unknown-element")

    def inv_of(o):
        return frozenset(x for x in X.points if f[x] in o)

    pre = {}
    for o in sorted(Y.opens, key=set_id):
        if inv_of(o) not in X.opens:
            return topology.FrameHomReport(False, o, None, False, False)
        pre[set_id(o)] = set_id(inv_of(o))
    meets = all(
        inv_of(a & b) == inv_of(a) & inv_of(b) for a in Y.opens for b in Y.opens
    ) and inv_of(frozenset(Y.points)) == frozenset(X.points)
    joins = all(
        inv_of(a | b) == inv_of(a) | inv_of(b) for a in Y.opens for b in Y.opens
    ) and inv_of(frozenset()) == frozenset()
    return topology.FrameHomReport(True, None, pre, meets, joins)


def lower_set_lattice_oracle(S):
    P, masks = topology._lower_set_masks(S)
    return order.lattice_from_masks(P.elements, masks)


def lemma_6_16_oracle(S):
    primes = sorted(order.meet_primes(lower_set_lattice_oracle(S)[0]))
    universe = frozenset(S.elements)
    complements = sorted(set_id(universe - f.members) for f in order.filters(S))
    return topology.Lemma616Report(complements == primes, tuple(complements), tuple(primes))


def stone_data_oracle(S):
    """The lower-set lattice, σ and ψ by name: each lower set is sent to the
    set of filters it meets, and the map is checked to be an order-iso."""
    lat, decode = lower_set_lattice_oracle(S)
    sigma = topology.scott_topology(order.flt_lattice(S))
    olat, _ = lattice_from_sets(sigma.opens)
    filt_members = {set_id(f.members): f.members for f in order.filters(S)}
    fmap = {
        e: set_id(name for name, members in filt_members.items() if members & decode[e])
        for e in lat.elements
    }
    if not order.is_order_iso(lat.poset, olat.poset, fmap):
        raise ValidationError(
            "lower-set locale does not match the Scott opens of the filter lattice",
            law="locale:lower-sets",
        )
    return lat, sigma, {o: e for e, o in fmap.items()}


def image_space_check_oracle(name, src, dst, fmap, details):
    if sorted(fmap) != sorted(src.points) or sorted(set(fmap.values())) != sorted(dst.points):
        details.append(f"{name}: point map is not a bijection")
        return
    if {frozenset(fmap[x] for x in o) for o in src.opens} != dst.opens:
        details.append(f"{name}: open families do not correspond")


def cor617_oracle(S):
    """The Cor. 6.17 report by name: filters keyed by their names, the filter
    space and the point space built as families of sets and checked by the
    public constructor, and the point maps read through ψ by name."""
    L = order.flt_lattice(S)
    lat, sigma, psi = stone_data_oracle(S)
    loc = topology.Locale(lat)
    D = order._join_dual(S)
    phi = dict(zip(D.elements, order.ideal_names(D)))
    assert order.is_order_iso(D.poset, order.compacts(L), phi)
    fnames = {set_id(f.members): f.members for f in order.filters(S)}
    fpoints = tuple(sorted(fnames))
    fam = {frozenset(), frozenset(fpoints)}
    for a in S.elements:
        g = frozenset(n for n in fpoints if a in fnames[n])
        fam |= {s | g for s in fam}
    filter_space = topology.TopSpace(fpoints, frozenset(fam))
    pts = topology.locale_points(loc)
    pnames = tuple(sorted(p.generator for p in pts))
    by_gen = {p.generator: p for p in pts}
    popens = frozenset(
        frozenset(g for g in pnames if a not in by_gen[g].members) for a in loc.elements
    )
    point_space = topology.TopSpace(pnames, popens)
    to_filters = {
        x: set_id(frozenset(a for a in S.elements if L.le(phi[a], x))) for x in L.elements
    }
    universe = frozenset(L.elements)
    to_points = {x: psi[set_id(universe - down_set(L.poset, [x]))] for x in L.elements}
    details = []
    image_space_check_oracle("filters", sigma, filter_space, to_filters, details)
    image_space_check_oracle("points", sigma, point_space, to_points, details)
    if len({len(sigma.opens), len(filter_space.opens), len(point_space.opens)}) != 1:
        details.append("open-set counts differ")
    return topology.Cor617Report(
        not details, sigma, filter_space, point_space, to_filters, to_points, tuple(details)
    )


def out_of_name_order(P, rng):
    """``P`` with its elements listed in a shuffled order other than name
    order (when it has two or more)."""
    els = list(P.elements)
    rng.shuffle(els)
    if els == sorted(els):
        els.reverse()
    return validate_poset(tuple(els), P.leq)


def unordered_n5():
    """N5 listed top first, its names against its order."""
    els = ("z", "y", "b", "m", "a")
    below = {("a", "m"), ("m", "y"), ("a", "y"), ("a", "b")}
    return validate_poset(els, {(x, x) for x in els} | {(x, "z") for x in els} | below)


def fixed_space_posets(rng):
    """M3, N5, the diamond and chains 1-4, each also out of name order."""
    posets = [m3_poset(), n5_poset(), diamond_poset(), unordered_n5()]
    posets += [chain_poset(n) for n in range(1, 5)]
    return posets + [out_of_name_order(P, rng) for P in posets]


def same_space(T, U):
    """The same points, in any order, and the same opens."""
    return sorted(T.points) == sorted(U.points) and T.opens == U.opens


def check_stone_agrees(S):
    got, want = topology.corollary_6_17_spaces(S), cor617_oracle(S)
    assert got.as_dict() == want.as_dict()
    assert got.ok and got.to_filters == want.to_filters and got.to_points == want.to_points
    for field in ("scott_space", "filter_space", "point_space"):
        T = getattr(got, field)
        assert same_space(T, getattr(want, field)), field
        assert topology.TopSpace(T.points, T.opens) == T, field
    assert topology.lemma_6_16_check(S) == lemma_6_16_oracle(S)
    loc, sigma, psi = order._memo(S, "_stone_data", topology._stone_data)
    lat, sigma_by_name, psi_by_name = stone_data_oracle(S)
    assert loc.lattice == lat and sigma == sigma_by_name
    where = {m: i for i, m in enumerate(topology._lower_set_lattice(S)[1])}
    named = order.named_masks(sigma.points, sigma.open_masks)
    assert {n: lat.elements[where[topology._moved(o, psi)]] for n, o, _ in named} == psi_by_name


def outcome(build, *args):
    try:
        return build(*args)
    except ValidationError as e:
        return (e.law, str(e), e.witness)


def check_lattice_spaces_agree(L, M, rng):
    """Scott space checks, open-set lattice, specialization order, base and
    coherence, and frame homomorphisms from ``L``'s space into ``M``'s."""
    T, TM = topology.scott_topology(L), topology.scott_topology(M)
    assert topology.TopSpace(T.points, T.opens) == T
    assert T.sorted_opens == sorted(T.opens, key=set_id)
    assert topology.specialization_order(T) == specialization_order_oracle(T) == L.poset
    assert topology.open_set_lattice(T) == lattice_from_sets(T.opens)
    assert topology.scott_base_and_coherence(L) == base_and_coherence_oracle(L)
    for _ in range(4):
        f = {x: rng.choice(M.elements) for x in L.elements}
        assert topology.frame_hom_of_continuous(f, T, TM) == frame_hom_oracle(f, T, TM)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_spaces_agree_with_the_name_level_bodies(seed):
    """On drawn meet-semilattices (and their duals, which stand for them)
    and drawn lattices, each listed also out of name order, the mask-held
    spaces give the reports, spaces, witnesses and ψ of the name-level
    bodies."""
    rng = random.Random(seed)
    M = corpus.random_meet_semilattice(rng, 6)
    for S in (M, M.dual(), order.MeetSemilattice(out_of_name_order(M.poset, rng))):
        check_stone_agrees(S)
    L, N = corpus.random_lattice(rng, 6), corpus.random_lattice(rng, 4)
    for X in (L, FiniteLattice(out_of_name_order(L.poset, rng))):
        check_lattice_spaces_agree(X, N, rng)


def test_spaces_of_fixed_lattices_agree_with_the_name_level_bodies():
    rng = random.Random(27)
    posets = fixed_space_posets(rng)
    for P in posets:
        check_stone_agrees(order.MeetSemilattice(P))
        check_stone_agrees(JoinSemilattice(P))
        check_lattice_spaces_agree(FiniteLattice(P), FiniteLattice(rng.choice(posets)), rng)


def test_spaces_of_arbitrary_families_agree_with_the_name_level_bodies():
    """Valid spaces among the random families, non-T0 ones too: the
    specialization order or its antisymmetry witness, the open-set lattice,
    and frame homomorphisms between them, continuous or not."""
    rng = random.Random(28)
    spaces = []
    for points, opens in random_families():
        try:
            spaces.append(topology.TopSpace(points, opens))
        except ValidationError:
            continue
    laws_seen = set()
    for T in spaces:
        got = outcome(topology.specialization_order, T)
        assert got == outcome(specialization_order_oracle, T)
        laws_seen.add(got[0] if isinstance(got, tuple) else None)
        assert topology.open_set_lattice(T) == lattice_from_sets(T.opens)
    assert laws_seen == {None, "specialization:antisymmetry"}
    verdicts = set()
    for _ in range(300):
        X, Y = rng.choice(spaces), rng.choice(spaces)
        if not Y.points:
            continue
        f = {x: rng.choice(Y.points) for x in X.points}
        got = topology.frame_hom_of_continuous(f, X, Y)
        assert got == frame_hom_oracle(f, X, Y)
        verdicts.add(got.continuous)
    assert verdicts == {False, True}


def function_space_contexts():
    pairs = [(chain_context(2), chain_context(2)), (chain_context(3), chain_context(2))]
    pairs += [(k2_context(), chain_context(2)), (chain_context(2), k2_context())]
    rng = random.Random(29)
    for _ in range(4):
        pairs.append((corpus.random_context(rng, 3, 2), corpus.random_context(rng, 2, 3)))
    return pairs


def test_function_space_lattices_agree_with_the_pair_sets():
    """The function-space lattice built on pair-attribute masks is the one
    built on each mapping's set of pair attributes, and each concept is the
    mapping whose pair set it decodes to."""
    for P, Q in function_space_contexts():
        fs = funcspace(P, Q)
        attr_of = {p: a for a, p in fs.attr_pairs.items()}
        homs = enumerate_mappings(fs.left_sem.semilattice, fs.right_sem.semilattice)
        by_set = {frozenset(attr_of[p] for p in m.pairs): m for m in homs}
        assert fs.concepts() == lattice_from_sets(by_set)
        for name, members in fs.sem[1].items():
            assert fs.mapping(name) == by_set[members]
