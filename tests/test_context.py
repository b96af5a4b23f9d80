import contextlib
import io
import random
import tempfile
from itertools import chain as ichain, combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxtcat import formats
from cxtcat.canon import set_id
from cxtcat.cli import main
from cxtcat.context import (
    CLOSED_SET_GUARD,
    ConceptLattice,
    SemLattice,
    alg_lattice,
    alpha,
    approx_closure,
    attr_closure,
    attr_closure_operator,
    closed_masks,
    concept_masks,
    concept_names,
    context_of_semilattice,
    is_closed,
    make_context,
    omega,
    sem_lattice,
)
from cxtcat.corpus import chain_context, chain_poset, diamond_poset, k2_context, random_context
from cxtcat.errors import SizeGuardExceeded, ValidationError
from cxtcat.order import (
    JoinSemilattice,
    ideal_completion,
    is_order_iso,
    order_isomorphism,
)
from test_index_oracles import parse_set_id


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


def test_undeclared_incidence_reports_the_least_pair():
    with pytest.raises(ValidationError) as exc:
        make_context(["o", "p"], ["a"], [("z", "a"), ("p", "q"), ("o", "b"), ("o", "a")])
    assert (exc.value.law, str(exc.value), exc.value.witness) == (
        "unknown-element",
        "incidence pair ('o', 'b') references undeclared names",
        {"pair": ["o", "b"]},
    )


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


def test_the_concept_structure_is_built_once_per_context(monkeypatch):
    """``sem_lattice``, ``alg_lattice`` and ``concept_masks`` read one build
    memoized on the context.  An equal context built apart builds its own,
    and the two give equal, equally hashed lattices; the memo changes
    neither the context's hash nor its repr, and the intents are not
    compared."""
    from cxtcat import context

    builds = []
    real = context.closed_masks
    monkeypatch.setattr(context, "closed_masks", lambda P: builds.append(1) or real(P))
    P, P2 = k2_context(), k2_context()
    fresh = (hash(P), repr(P))
    sem, alg, masks = sem_lattice(P), alg_lattice(P), concept_masks(P)
    assert sem_lattice(P).semilattice is sem.semilattice and alg_lattice(P).lattice is alg.lattice
    assert len(builds) == 1
    assert [P.attrs_of_mask(m) for m in masks] == [alg.intents[x] for x in alg.elements]
    sem2, alg2 = sem_lattice(P2), alg_lattice(P2)
    assert len(builds) == 2 and sem2.semilattice is not sem.semilattice
    assert (sem2, hash(sem2)) == (sem, hash(sem)) and (alg2, hash(alg2)) == (alg, hash(alg))
    assert P == P2 and (hash(P), repr(P)) == fresh == (hash(P2), repr(P2))
    assert SemLattice(P, sem.semilattice, {}) == sem and ConceptLattice(P, alg.lattice, {}) == alg
    assert sem != alg_lattice(P2) and sem_lattice(chain_context(2)) != sem


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
    cap."""
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
    assert len(sem_lattice(P8).elements) == 256


def closed_masks_powerset(rows: list[int], n_attrs: int) -> list[int]:
    """All closed attribute masks, by scanning the full powerset."""
    full = (1 << n_attrs) - 1
    seen = set()
    for y in range(full + 1):
        c = full
        for r in rows:
            if r & y == y:
                c &= r
        seen.add(c)
    return sorted(seen)


def powerset_oracle_names(P):
    """Closed-set names by the definitional scan of every attribute subset."""
    masks = closed_masks_powerset(P.rows, len(P.attributes))
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
    sem, alg = sem_lattice(P), alg_lattice(P)  # at most 2^7 closed sets
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


# ---------------------------------------------------------------------------
# the staged build: masks, then names, then the order


# Names with the characters ``member_id`` escapes, spaces and non-ASCII
# text; ``,`` and the empty name give sets that ``{a,b}``-style naming
# would merge.
_NAMES = st.text(alphabet=["a", "b", ",", "{", "}", "(", "\\", " ", "é", "Ж", "𝔸"], max_size=3)


@st.composite
def contexts(draw):
    objects = draw(st.lists(_NAMES, max_size=6, unique=True))
    attrs = draw(st.lists(_NAMES, max_size=6, unique=True))
    pairs = [(o, a) for o in objects for a in attrs]
    incidence = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return make_context(objects, attrs, incidence)


@given(contexts())
@settings(max_examples=150, deadline=None)
def test_staged_build_agrees_with_the_lattices(P):
    """The mask count and the names are those of both lattices, and the
    lattices' intents are those of the per-set naming of the masks; every
    name decodes back to its intent."""
    sem, alg = sem_lattice(P), alg_lattice(P)
    masks = closed_masks(P)
    assert len(masks) == len(sem.elements) == len(alg.elements)
    assert concept_names(P) == list(sem.elements) == list(alg.elements)
    assert concept_names(P) == powerset_oracle_names(P)
    named = sorted((set_id(P.attrs_of_mask(m)), m) for m in masks)
    assert sem.intents == alg.intents == {n: P.attrs_of_mask(m) for n, m in named}
    assert all(parse_set_id(n) == xs for n, xs in sem.intents.items())


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _context_files(P, folder: Path) -> list[Path]:
    files = [folder / "p.json"]
    files[0].write_text(formats.dump_context(P), encoding="utf-8")
    files.append(folder / "p.cxt")
    files[1].write_text(formats.dump_cxt(P), encoding="utf-8")
    return files


@given(contexts())
@settings(max_examples=60, deadline=None)
def test_validate_and_concepts_print_what_the_lattices_hold(P):
    """``validate`` counts the closed sets; ``concepts`` lists the lattices'
    names."""
    sem, alg = sem_lattice(P), alg_lattice(P)
    validate = (
        f"OK context: {len(P.objects)} objects, {len(P.attributes)} attributes; "
        f"Sem size {len(sem.elements)}\n"
    )
    with tempfile.TemporaryDirectory() as folder:
        for path in _context_files(P, Path(folder)):
            assert _cli(["validate", str(path)]) == (0, validate, "")
            for which, structure in (([], alg), (["--which", "alg"], alg), (["--which", "sem"], sem)):
                listing = "".join(n + "\n" for n in structure.elements)
                assert _cli(["concepts", str(path), *which]) == (0, listing, "")


@pytest.mark.parametrize(
    "attrs, incidence, names",
    [
        pytest.param(
            ["a", "b", "a,b"],
            [("o1", "a"), ("o1", "b"), ("o2", "a,b")],
            ["{\\.a\\,b}", "{a,\\.a\\,b,b}", "{a,b}", "{}"],
            id="a,b",
        ),
        pytest.param(
            ["", "x"], [("o1", ""), ("o2", "x")], ["{\\.,x}", "{\\.}", "{x}", "{}"], id="empty"
        ),
    ],
)
def test_closed_sets_once_sharing_a_name_are_served(tmp_path, attrs, incidence, names):
    """``{a, b}`` and ``{"a,b"}``, and ``∅`` and ``{""}``, once shared a
    name and were refused; now each closed set has its own name, which
    decodes back to it, and every output verb serves the context."""
    P = make_context(["o1", "o2"], attrs, incidence)
    sem = sem_lattice(P)
    assert list(sem.elements) == names
    assert {n: parse_set_id(n) for n in names} == sem.intents
    path = tmp_path / "p.json"
    path.write_text(formats.dump_context(P), encoding="utf-8")
    validate = f"OK context: 2 objects, {len(attrs)} attributes; Sem size 4\n"
    assert _cli(["validate", str(path)]) == (0, validate, "")
    assert _cli(["concepts", str(path)]) == (0, "".join(n + "\n" for n in names), "")
    rc, doc, _ = _cli(["convert", str(path), "--to", "semilattice"])
    assert rc == 0 and formats.load_poset(doc) == sem.semilattice.poset
    rc, dot, _ = _cli(["dot", str(path)])
    assert rc == 0 and all(formats._dot_quote(n) in dot for n in names)


def test_verbs_over_the_guard_exit_3_with_the_lattice_message(tmp_path):
    attrs = [f"a{i}" for i in range(10)]
    P = make_context(attrs, attrs, [(o, a) for o in attrs for a in attrs if o != a])
    with pytest.raises(SizeGuardExceeded) as exc:
        sem_lattice(P)
    for path in _context_files(P, tmp_path):
        for argv in (["validate"], ["concepts"], ["concepts", "--which", "sem"]):
            assert _cli([argv[0], str(path), *argv[1:]]) == (3, "", f"{exc.value}\n")
