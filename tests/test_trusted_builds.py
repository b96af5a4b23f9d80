"""Morphisms, locales and Scott spaces that are sound by construction skip
the public checks: the mapping and Scott-function builders enter their
tables through ``mappings._trusted``, the lower-set locale skips the subset
form of the frame law, and ``scott_topology`` skips the closure walk of
``TopSpace``.  Every trusted output the law suites build is rebuilt here
through the public constructor, each Scott function also passes the
definitional directed-suprema scan, each lower-set locale passes the full
frame law, each Scott space passes ``TopSpace(...)``, and a trusted builder
that swaps two values of its table makes its law fail."""

import gc
import random
import sys

import pytest

from cxtcat import category, laws, mappings, order, topology
from cxtcat import corpus as corpus_module
from cxtcat.category import ProductContext, bang
from cxtcat.cli import main
from cxtcat.context import ConceptLattice, FormalContext, SemLattice
from cxtcat.corpus import (
    corpus,
    random_join_semilattice,
    random_lattice,
    random_meet_semilattice,
)
from cxtcat.mappings import ScottFunction, _trusted, choose_mapping, enumerate_mappings
from cxtcat.order import FiniteLattice, JoinSemilattice, MeetSemilattice
from cxtcat.topology import Locale

# Every builder that enters a table through ``_trusted``, by function name;
# ``build`` makes the enumerated picks of ``enumerate_mappings``, and
# ``epsilon_inverse`` the table ``validate_am`` checked once per value.
TRUSTED_SITES = {
    "build",
    "compose",
    "identity_mapping",
    "k_on_morphism",
    "_epsilon_raw",
    "epsilon_inverse",
    "compose_functions",
    "identity_function",
    "idl_on_morphism",
    "eta",
    "bang",
    "proj_left",
    "proj_right",
    "pair",
    "curry",
    "uncurry",
}
LAW_RUNS = [
    ("thm4.4", 1, None),
    ("thm4.4", 7, None),
    ("prop5.6", 1, None),
    ("prop5.6", 3, 3),
    ("prop5.10", 1, None),
    ("prop5.10", 2, 3),
]


@pytest.fixture
def trusted_builds(monkeypatch):
    """Every distinct trusted output, keyed by the function that built it."""
    built: dict[str, set] = {}
    real = mappings._trusted

    def record(cls, source, target, values):
        out = real(cls, source, target, values)
        built.setdefault(sys._getframe(1).f_code.co_name, set()).add(out)
        return out

    monkeypatch.setattr(mappings, "_trusted", record)
    monkeypatch.setattr(category, "_trusted", record)
    return built


def directed_sup_breach(f):
    """The first directed subset of the source, by definition, whose
    supremum ``f`` does not send to the supremum of its image; or None."""
    L, M = f.source, f.target
    els = L.elements
    for mask in range(1, 1 << len(els)):
        members = [x for i, x in enumerate(els) if mask >> i & 1]
        directed = all(
            any(L.le(a, c) and L.le(b, c) for c in members) for a in members for b in members
        )
        if directed and f.apply(L.join_all(members)) != M.join_all(map(f.apply, members)):
            return members
    return None


def frame_law_breach(L):
    """The first ``(x, subset)``, by definition, with
    ``x ∧ ⋁subset != ⋁{x ∧ s : s in subset}``; or None."""
    els = L.elements
    for mask in range(1 << len(els)):
        sub = [e for i, e in enumerate(els) if mask >> i & 1]
        sup = L.join_all(sub)
        for x in els:
            if L.meet(x, sup) != L.join_all(L.meet(x, s) for s in sub):
                return x, sub
    return None


def test_every_trusted_build_passes_the_public_checks(trusted_builds):
    for name, seed, max_sem in LAW_RUNS:
        assert laws.run_law(name, seed=seed, max_sem=max_sem).ok, (name, seed)
        for P in laws._small_sem_contexts(seed, max_sem or 3):
            bang(P)
    assert set(trusted_builds) == TRUSTED_SITES
    for site, outs in trusted_builds.items():
        for out in outs:
            assert type(out)(out.source, out.target, out.values) == out, site
            if isinstance(out, ScottFunction):
                assert directed_sup_breach(out) is None, site


def test_every_lower_set_locale_meets_the_full_frame_law(monkeypatch):
    built = []
    real = topology._set_family_locale
    monkeypatch.setattr(
        topology, "_set_family_locale", lambda L: built.append(real(L)) or built[-1]
    )
    for seed in (1, 2, 3):
        assert laws.run_law("cor6.17", seed=seed).ok
    assert len(built) > 40
    for loc in built:
        assert frame_law_breach(loc.lattice) is None
        assert Locale(loc.lattice) == loc


def test_every_scott_topology_passes_the_public_space_checks(monkeypatch):
    """``scott_topology`` enters the upper sets without the pairwise closure
    check; rebuilt through ``TopSpace(...)``, each space passes it.  M12 is
    at ``SCOTT_GUARD``; its definitional scan is skipped here, as it is
    tested apart and does not change the space."""
    from cxtcat.corpus import chain_poset, diamond_poset, m3_poset, random_lattice
    from test_index_oracles import n5_poset
    from test_mappings import m_n

    rng = random.Random(24)
    fixed = [chain_poset(n) for n in range(1, 11)] + [diamond_poset(), m3_poset(), n5_poset()]
    lattices = [FiniteLattice(P) for P in fixed] + [random_lattice(rng, 9) for _ in range(50)]
    spaces = [topology.scott_topology(L) for L in lattices]
    monkeypatch.setattr(order, "DIRECTED_SCAN_CAP", 0)
    spaces.append(topology.scott_topology(FiniteLattice(m_n(12).poset)))
    assert len(spaces[-1].opens) == 4098
    for T in spaces:
        assert topology.TopSpace(T.points, T.opens) == T


def test_the_public_locale_keeps_both_checks():
    """``Locale(L)`` still runs the subset scan: stubbing binary
    distributivity out leaves the scan to reject a non-distributive lattice."""
    from cxtcat.corpus import m3_poset
    from cxtcat.errors import ValidationError
    from cxtcat.order import FiniteLattice

    M3 = FiniteLattice(m3_poset())
    with pytest.raises(ValidationError) as exc:
        Locale(M3)
    assert "triple" in exc.value.witness
    with pytest.raises(ValidationError) as exc:
        topology._set_family_locale(M3)
    assert "triple" in exc.value.witness
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "is_distributive", lambda L: (True, None))
        with pytest.raises(ValidationError) as exc:
            Locale(M3)
    assert exc.value.witness.keys() == {"element", "subset"}


# ---------------------------------------------------------------------------
# a trusted builder that breaks its table must fail a law


def swap_two_values(f):
    """``f`` with its first two distinct values swapped."""
    vals = list(f.values)
    i = next((i for i in range(1, len(vals)) if vals[i] != vals[0]), None)
    if i is not None:
        vals[0], vals[i] = vals[i], vals[0]
    return _trusted(type(f), f.source, f.target, tuple(vals))


def _mutated(fn):
    return lambda *args: swap_two_values(fn(*args))


MUTATIONS = [
    ("compose", [mappings, laws], ["thm4.4", "prop5.6"]),
    ("idl_on_morphism", [mappings, laws], ["thm4.4"]),
    ("pair", [ProductContext], ["prop5.6"]),
    ("curry", [category], ["prop5.10"]),
]


@pytest.mark.parametrize("name, owners, suites", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_a_swapped_table_fails_the_law(monkeypatch, capsys, name, owners, suites):
    for owner in owners:
        monkeypatch.setattr(owner, name, _mutated(getattr(owner, name)))
    for suite in suites:
        for seed in (1, 2):
            assert main(["laws", suite, "--seed", str(seed)]) == 1, (suite, seed)
            assert f"{suite}: PASS" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# one draw per hom-set, and equal corpus values shared


def test_choose_mapping_draws_what_the_hom_set_choice_draws():
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(10):
            S, T = random_join_semilattice(rng, 4), random_join_semilattice(rng, 4)
            state = rng.getstate()
            want = rng.choice(enumerate_mappings(S, T))
            after = rng.getstate()
            rng.setstate(state)
            assert choose_mapping(rng, S, T) == want
            assert rng.getstate() == after


def test_corpus_returns_one_object_per_value():
    sls = corpus(12, lambda r: random_meet_semilattice(r, 5), 1)
    by_value = {}
    for S in sls:
        assert by_value.setdefault(S, S) is S
    assert len(by_value) < len(sls)  # seed 1 draws a value twice
    # the table lives for one call: a second corpus has its own objects
    again = corpus(12, lambda r: random_meet_semilattice(r, 5), 1)
    assert again == sls and all(a is not b for a, b in zip(again, sls))


@pytest.mark.parametrize(
    "draw, checked", [(random_join_semilattice, "JoinSemilattice"), (random_lattice, "FiniteLattice")]
)
def test_a_corpus_build_error_other_than_a_failed_law_propagates(draw, checked, monkeypatch):
    """The corpus draws again only when a drawn poset fails its law; any
    other error from the validating constructor propagates.  At rng seed 0
    the first draw of both builders validates a random poset."""

    class Broken(getattr(corpus_module, checked)):
        def __init__(self, P):
            raise TypeError("broken constructor")

    monkeypatch.setattr(corpus_module, checked, Broken)
    with pytest.raises(TypeError, match="broken constructor"):
        draw(random.Random(0), 5)


def test_no_memo_holds_its_value_in_a_reference_cycle():
    """A memo holding a structure that refers back to its value (a counit
    mapping kept on ``S``, or a concept lattice kept on its context) would
    keep the value, with every memo on it, alive after the run until the
    cyclic collector ran."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name in ("thm4.4", "cor6.17", "prop5.6", "prop5.7", "lemma5.9", "prop5.10", "thm6.7"):
            assert laws.run_law(name, seed=1).ok
        gc.collect()
        kept = [
            o
            for o in gc.garbage
            if isinstance(
                o,
                (
                    JoinSemilattice,
                    MeetSemilattice,
                    FiniteLattice,
                    FormalContext,
                    SemLattice,
                    ConceptLattice,
                ),
            )
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert kept == []

