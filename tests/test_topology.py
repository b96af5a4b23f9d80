import random
from itertools import combinations
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat.canon import set_id
from cxtcat.corpus import (
    chain_poset,
    diamond_poset,
    m3_poset,
    random_lattice,
    random_meet_semilattice,
)
from cxtcat.errors import SizeGuardExceeded, ValidationError
from cxtcat.order import (
    FiniteLattice,
    MeetSemilattice,
    _join_dual,
    compacts,
    filters,
    flt_lattice,
    ideal_names,
    order_isomorphism,
    up_set,
)
from cxtcat.topology import (
    SCOTT_GUARD,
    Cor617Report,
    Locale,
    LocalePoint,
    TopSpace,
    corollary_6_17_spaces,
    frame_hom_of_continuous,
    lemma_6_16_check,
    locale_points,
    lower_set_locale,
    lower_sets,
    open_set_lattice,
    scott_base_and_coherence,
    scott_topology,
    specialization_order,
    spectrality_check,
)

from test_mappings import m_n


def diamond_lattice():
    return FiniteLattice(diamond_poset())


def upper_sets_oracle(L):
    """Independent scan of all subsets for upward closure."""
    els = L.elements
    out = set()
    for m in range(1 << len(els)):
        U = {e for i, e in enumerate(els) if m >> i & 1}
        if all(y in U for x in U for y in els if L.le(x, y)):
            out.add(frozenset(U))
    return out


def lower_sets_by_names(S):
    """Independent scan of all subsets, by element name, for downward closure."""
    els = S.elements
    out = []
    for r in range(len(els) + 1):
        for sub in combinations(els, r):
            if all(y in sub for x in sub for y in els if S.le(y, x)):
                out.append(frozenset(sub))
    return sorted(out, key=set_id)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_lower_sets_match_the_name_scan(seed):
    S = random_meet_semilattice(random.Random(seed), 6)
    assert lower_sets(S) == lower_sets_by_names(S)


# ---------------------------------------------------------------------------
# the Scott topology


def test_scott_singleton():
    L = FiniteLattice(chain_poset(1))
    assert scott_topology(L).opens == {frozenset(), frozenset({"c0"})}


def test_scott_two_chain():
    L = FiniteLattice(chain_poset(2))
    assert scott_topology(L).opens == {
        frozenset(),
        frozenset({"c1"}),
        frozenset({"c0", "c1"}),
    }


def test_scott_diamond_is_the_six_upper_sets():
    L = diamond_lattice()
    T = scott_topology(L)
    assert len(T.opens) == 6
    assert T.opens == upper_sets_oracle(L)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_scott_equals_upper_sets(seed):
    L = random_lattice(random.Random(seed), 5)
    assert scott_topology(L).opens == upper_sets_oracle(L)


def test_space_validation():
    with pytest.raises(ValidationError):
        TopSpace(("p",), frozenset({frozenset()}))  # missing full set
    with pytest.raises(ValidationError):
        TopSpace(
            ("p", "q", "r"),
            frozenset(
                {
                    frozenset(),
                    frozenset({"p"}),
                    frozenset({"q"}),
                    frozenset({"p", "q", "r"}),
                }
            ),
        )  # p | q missing


def test_a_repeated_point_is_named():
    full = frozenset({"p", "q"})
    with pytest.raises(ValidationError) as exc:
        TopSpace(("q", "p", "q", "p"), frozenset({frozenset(), full}))
    assert exc.value.law == "space:points"
    assert exc.value.witness == {"point": "p"}


# ---------------------------------------------------------------------------
# specialization


def test_specialization_round_trip_diamond():
    L = diamond_lattice()
    assert specialization_order(scott_topology(L)) == L.poset


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_specialization_round_trip_random(seed):
    L = random_lattice(random.Random(seed), 5)
    assert specialization_order(scott_topology(L)) == L.poset


def test_indiscrete_two_points_fail():
    T = TopSpace(("p", "q"), frozenset({frozenset(), frozenset({"p", "q"})}))
    with pytest.raises(ValidationError) as exc:
        specialization_order(T)
    assert exc.value.law == "specialization:antisymmetry"


def test_discrete_two_points():
    T = TopSpace(
        ("p", "q"),
        frozenset({frozenset(), frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})}),
    )
    P = specialization_order(T)
    assert P.leq == {("p", "p"), ("q", "q")}


def test_monotone_iff_continuous_small():
    """All functions between lattices of size <= 3 (they are the chains):
    order and topology agree."""
    for nL, nM in ((2, 2), (2, 3), (3, 2), (3, 3)):
        L = FiniteLattice(chain_poset(nL))
        M = FiniteLattice(chain_poset(nM, "d"))
        TL, TM = scott_topology(L), scott_topology(M)
        for values in iproduct(M.elements, repeat=nL):
            f = dict(zip(L.elements, values))
            monotone = all(
                M.le(f[a], f[b]) for a in L.elements for b in L.elements if L.le(a, b)
            )
            continuous = frame_hom_of_continuous(f, TL, TM).continuous
            assert monotone == continuous


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_monotone_iff_continuous_size_four_samples(seed):
    rng = random.Random(seed)
    L = FiniteLattice(diamond_poset())
    M = random_lattice(rng, 4)
    TL, TM = scott_topology(L), scott_topology(M)
    for _ in range(5):
        f = {x: rng.choice(M.elements) for x in L.elements}
        monotone = all(
            M.le(f[a], f[b]) for a in L.elements for b in L.elements if L.le(a, b)
        )
        assert monotone == frame_hom_of_continuous(f, TL, TM).continuous


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_scott_opens_form_a_spectral_locale(seed):
    L = random_lattice(random.Random(seed), 5)
    lat, _ = open_set_lattice(scott_topology(L))
    loc = Locale(lat)  # distributivity of set operations
    assert spectrality_check(loc).ok


# ---------------------------------------------------------------------------
# base and coherence


def test_base_two_chain():
    L = FiniteLattice(chain_poset(2))
    r = scott_base_and_coherence(L)
    assert r.ok
    assert set(r.base) == {frozenset({"c0", "c1"}), frozenset({"c1"})}


def test_all_opens_compact_finite_case():
    L = diamond_lattice()
    r = scott_base_and_coherence(L)
    assert r.ok
    assert set(r.compact_opens) == scott_topology(L).opens


def test_diamond_intersection_compact():
    L = diamond_lattice()
    a_up = up_set(L.poset, ["a"])
    b_up = up_set(L.poset, ["b"])
    assert a_up & b_up == up_set(L.poset, ["top"])
    assert scott_base_and_coherence(L).ok


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_base_and_coherence_of_m_k(k):
    """M_k (a bottom, ``k`` atoms and a top) has 2^k + 2 Scott opens, all
    compact; the opens lattice of M_5 and M_6 passes the old 20-element
    compacts guard."""
    L = FiniteLattice(m_n(k).poset)
    r = scott_base_and_coherence(L)
    assert r.ok and r.details == ()
    assert len(r.compact_opens) == (1 << k) + 2
    assert set(r.compact_opens) == scott_topology(L).opens


# ---------------------------------------------------------------------------
# locales


def test_locale_rejects_m3():
    with pytest.raises(ValidationError) as exc:
        Locale(FiniteLattice(m3_poset()))
    assert exc.value.law == "locale:distributivity"


def test_lower_set_locale_sizes():
    S2 = MeetSemilattice(chain_poset(2))
    assert len(lower_set_locale(S2).elements) == 3
    SD = MeetSemilattice(diamond_poset())
    assert len(lower_set_locale(SD).elements) == 6


def test_lower_set_locale_singleton():
    S = MeetSemilattice(chain_poset(1))
    loc = lower_set_locale(S)
    assert len(loc.elements) == 2


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_lower_set_locale_matches_scott_opens(seed):
    S = random_meet_semilattice(random.Random(seed), 5)
    lower_set_locale(S)  # raises if the isomorphism check fails


def test_locale_points_of_three_chain():
    S = MeetSemilattice(chain_poset(2))
    loc = lower_set_locale(S)
    pts = locale_points(loc)
    assert len(pts) == 2
    for p in pts:
        assert p.generator != loc.lattice.top


def test_two_element_locale_has_one_point():
    S = MeetSemilattice(chain_poset(1))
    loc = lower_set_locale(S)
    assert len(locale_points(loc)) == 1


def test_point_validation():
    loc = lower_set_locale(MeetSemilattice(chain_poset(2)))
    L = loc.lattice
    with pytest.raises(ValidationError):
        LocalePoint(L, L.top, frozenset(L.elements))


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_lemma_6_16(seed):
    S = random_meet_semilattice(random.Random(seed), 6)
    assert lemma_6_16_check(S).ok


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_lower_set_locales_are_spectral(seed):
    S = random_meet_semilattice(random.Random(seed), 6)
    assert spectrality_check(lower_set_locale(S)).ok


# ---------------------------------------------------------------------------
# the three spaces


def test_cor617_two_chain():
    S = MeetSemilattice(chain_poset(2))
    r = corollary_6_17_spaces(S)
    assert r.ok
    assert len(r.scott_space.points) == 2
    assert len(r.scott_space.opens) == 3


def test_cor617_singleton():
    S = MeetSemilattice(chain_poset(1))
    r = corollary_6_17_spaces(S)
    assert r.ok
    assert len(r.scott_space.points) == 1


def test_cor617_diamond():
    S = MeetSemilattice(diamond_poset())
    r = corollary_6_17_spaces(S)
    assert r.ok
    assert len(r.scott_space.points) == 4
    assert r.as_dict()["open_counts"] == [6, 6, 6]


def test_filter_queries_share_one_ideal_scan_per_value(monkeypatch):
    """The lemma, the locale and the spaces of cor. 6.17 all read the
    filters of one semilattice, given as a meet- or a join-semilattice.
    The scan guard is not part of the memo's key."""
    from cxtcat import order

    scans = []
    real = order.kernels.ideal_masks
    monkeypatch.setattr(order.kernels, "ideal_masks", lambda *a: scans.append(1) or real(*a))
    M = MeetSemilattice(diamond_poset())
    for S in (M, M.dual()):
        scans.clear()
        lemma_6_16_check(S)
        corollary_6_17_spaces(S)
        filters(S)
        assert len(scans) == 1
        monkeypatch.setattr(order, "DIRECTED_SCAN_CAP", 8)
        filters(S)
        flt_lattice(S)
        assert len(scans) == 1


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_a_join_semilattice_stands_for_its_dual(seed):
    """The lemma, the locale and the spaces of cor. 6.17 read a
    join-semilattice as its dual meet-semilattice, as ``filters`` does."""
    for M in (MeetSemilattice(diamond_poset()), random_meet_semilattice(random.Random(seed), 5)):
        results = []
        for S in (M, M.dual()):
            loc = lower_set_locale(S)
            results.append((lemma_6_16_check(S), loc, corollary_6_17_spaces(S)))
        assert results[0] == results[1]
        assert results[0][0].ok and results[0][2].ok


def test_cor617_builds_one_locale_per_semilattice(monkeypatch):
    """The lemma reads the lattice of lower sets without building a locale,
    and ``lower_set_locale`` is memoized on the semilattice value, so the
    law builds one locale for each distinct semilattice of its corpus."""
    from cxtcat import topology
    from cxtcat.laws import run_law

    built = []
    real = topology._set_family_locale
    monkeypatch.setattr(
        topology, "_set_family_locale", lambda L: built.append(real(L)) or built[-1]
    )
    for S in (MeetSemilattice(diamond_poset()), random_meet_semilattice(random.Random(3), 5)):
        built.clear()
        assert lemma_6_16_check(S).ok
        loc = lower_set_locale(S)
        assert corollary_6_17_spaces(S).ok
        assert built == [loc]
    built.clear()
    rep = run_law("cor6.17", seed=1)
    assert rep.ok and rep.lines == ["instances: 17 meet-semilattices"]
    assert len(built) == 15  # the corpus draws two values twice


def test_cor617_builds_the_lower_sets_once_per_semilattice(monkeypatch, capsys):
    """The lemma and the locale share one lattice of lower sets per
    semilattice value, equal values are one object, and the law's output is
    unchanged."""
    from cxtcat import topology
    from cxtcat.cli import main

    calls = []
    real = topology._lower_set_masks
    monkeypatch.setattr(topology, "_lower_set_masks", lambda S: calls.append(S) or real(S))
    assert main(["laws", "cor6.17", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "instances: 17 meet-semilattices\ncor6.17: PASS\n"
    assert len(calls) == 15  # 17 instances, 15 distinct values


def test_lemma_6_16_runs_past_the_scott_guard():
    """A 15-chain is past ``SCOTT_GUARD``: the locale's check against the
    Scott opens refuses it, but the lemma computes no Scott topology and
    still answers."""
    S = MeetSemilattice(chain_poset(15).dual())
    assert len(S.elements) > SCOTT_GUARD
    r = lemma_6_16_check(S)
    assert r.ok and len(r.primes) == 15
    with pytest.raises(SizeGuardExceeded):
        lower_set_locale(S)


def test_cor617_precondition_failure(monkeypatch):
    """φ is read off ``ideal_names``; names that break the order are refused."""
    from cxtcat import topology

    S = MeetSemilattice(diamond_poset())
    D = S.dual()
    names = list(ideal_names(D))
    i = D.elements.index(D.bottom)  # below every other element
    j = (i + 1) % len(names)
    names[i], names[j] = names[j], names[i]
    monkeypatch.setattr(topology, "ideal_names", lambda D: tuple(names))
    with pytest.raises(ValidationError) as exc:
        corollary_6_17_spaces(S)
    assert exc.value.law == "cor6.17:precondition"
    assert str(exc.value) == "dual of the semilattice is not isomorphic to the compacts"


def cor617_by_search(S):
    """The report built from the isomorphisms that ``order_isomorphism``
    finds: φ from the dual of ``S`` onto the compacts of the filter lattice,
    and ψ from the Scott open-set lattice onto the lower-set locale.  ψ is
    injected as the point map it is held as: it sends the principal open
    ``up(k)`` of each point ``k`` of σ to a principal lower set
    ``down(a)`` of ``S``, and ``psi[k]`` is the index of ``a``."""
    from cxtcat import topology

    L = flt_lattice(S)
    loc = lower_set_locale(S)
    sigma = scott_topology(L)
    phi = order_isomorphism(_join_dual(S).poset, compacts(L))
    psi = order_isomorphism(open_set_lattice(sigma)[0].poset, loc.lattice.poset)
    assert phi is not None and psi is not None
    D = _join_dual(S)  # a lower set of S is an upper set of D
    lowers = {set_id(low): low for low in lower_sets(S)}
    points = []
    for x in L.elements:
        low = lowers[psi[set_id(up_set(L.poset, [x]))]]
        points.append(next(a for a in low if all(D.le(a, b) for b in low)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "ideal_names", lambda D: tuple(phi[a] for a in D.elements))
        mp.setitem(S.__dict__, "_stone_data", (loc, sigma, tuple(map(D.poset.index.get, points))))
        return corollary_6_17_spaces(S)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_cor617_isos_by_construction_match_the_search(seed):
    M = random_meet_semilattice(random.Random(seed), 6)
    for S in (M, M.dual()):
        oracle = cor617_by_search(S)
        r = corollary_6_17_spaces(S)
        assert type(r) is type(oracle) is Cor617Report
        for name in Cor617Report._fields:
            assert getattr(r, name) == getattr(oracle, name), name
        assert r.ok


def test_cor617_runs_without_the_isomorphism_search(monkeypatch, capsys, tmp_path):
    import cxtcat
    from cxtcat import formats, order
    from cxtcat.cli import main
    from cxtcat.laws import run_law

    def refuse(P, Q):
        raise AssertionError("order_isomorphism called")

    for module in (cxtcat, order):
        monkeypatch.setattr(module, "order_isomorphism", refuse)
    assert run_law("cor6.17", seed=1).ok
    path = tmp_path / "diamond.json"
    path.write_text(formats.dump_poset(diamond_poset()), encoding="utf-8")
    assert main(["topology", str(path), "--report", "stone"]) == 0
    assert '"ok": true' in capsys.readouterr().out


def test_cor617_builds_one_scott_topology_per_semilattice(monkeypatch):
    from cxtcat import topology
    from cxtcat.laws import run_law

    calls = []
    real = topology.scott_topology
    monkeypatch.setattr(topology, "scott_topology", lambda L, guard=None: calls.append(L) or real(L, guard))
    rep = run_law("cor6.17", seed=1)
    assert rep.ok and rep.lines == ["instances: 17 meet-semilattices"]
    assert len(calls) == 15  # one per distinct semilattice


# ---------------------------------------------------------------------------
# frame homomorphisms


def test_identity_frame_hom():
    T = scott_topology(diamond_lattice())
    r = frame_hom_of_continuous({p: p for p in T.points}, T, T)
    assert r.continuous and r.preserves_meets and r.preserves_joins


def test_constant_map_frame_hom():
    T = scott_topology(diamond_lattice())
    r = frame_hom_of_continuous({p: "top" for p in T.points}, T, T)
    assert r.continuous and r.preserves_meets and r.preserves_joins
    assert r.preimage["{a,top}"] == "{a,b,bot,top}"


def test_discontinuous_map_witness():
    L = FiniteLattice(chain_poset(2))
    T = scott_topology(L)
    r = frame_hom_of_continuous({"c0": "c1", "c1": "c0"}, T, T)
    assert not r.continuous
    assert r.witness_open == frozenset({"c1"})


def test_monotone_map_between_diamond_spaces():
    L = diamond_lattice()
    T = scott_topology(L)
    f = {"bot": "bot", "a": "top", "b": "b", "top": "top"}
    r = frame_hom_of_continuous(f, T, T)
    assert r.continuous and r.preserves_meets and r.preserves_joins
