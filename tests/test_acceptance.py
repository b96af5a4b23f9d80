"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every criterion is exact (no tolerances) and carries
a wall-clock budget that is asserted.
"""

import time
from contextlib import contextmanager
from itertools import chain as ichain, combinations

from cxtcat import formats
from cxtcat.canon import set_id
from cxtcat.cli import main
from cxtcat.context import (
    alg_lattice,
    approx_closure,
    attr_closure,
    make_context,
    sem_lattice,
)
from cxtcat.corpus import (
    chain_poset,
    corpus,
    k2_context,
    random_context,
    random_information_system,
    random_lattice,
    random_meet_semilattice,
    rng_for,
)
from cxtcat.laws import LAWS, run_law
from cxtcat.logic import elements, is_to_ccp, lindenbaum, semilattice_to_ccp
from cxtcat.order import (
    down_set,
    flt_lattice,
    ideal_completion,
    is_order_iso,
)
from cxtcat.topology import (
    lemma_6_16_check,
    scott_base_and_coherence,
    scott_topology,
    specialization_order,
)


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} FAIL: {description}")
        raise
    dt = time.perf_counter() - t0
    print(f"criterion {number:>2} PASS ({dt:6.2f}s / {limit_s:g}s): {description}")
    assert dt <= limit_s, f"criterion {number} exceeded its budget: {dt:.2f}s"


def subsets(xs):
    xs = sorted(xs)
    return [
        frozenset(c)
        for c in ichain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))
    ]


def test_criterion_01_completion_isomorphisms():
    with criterion(1, "completion/compacts isomorphisms on 50+50 structures", 5):
        rep = run_law("thm3.6")
        assert rep.ok, rep.witness


def test_criterion_02_closure_suite():
    with criterion(2, "finitary closure degenerates; concepts complete Sem", 5):
        ctxs = corpus(100, lambda r: random_context(r, 5, 5))
        assert len(ctxs) >= 100
        for P in ctxs:
            for Y in subsets(P.attributes):
                assert approx_closure(P, Y) == attr_closure(P, Y)
            sem = sem_lattice(P)  # construction validates the semilattice
            assert sem.intents[sem.semilattice.bottom] == attr_closure(P, ())
            alg = alg_lattice(P)
            idl = ideal_completion(sem.semilattice)
            fmap = {
                name: set_id(down_set(sem.semilattice.poset, [name]))
                for name in alg.elements
            }
            assert is_order_iso(alg.lattice.poset, idl.poset, fmap)


def test_criterion_03_functors_and_naturality():
    with criterion(3, "functor laws and naturality squares on 50 pairs", 5):
        rep = run_law("thm4.4")
        assert rep.ok, rep.witness


def test_criterion_04_products():
    with criterion(4, "product counts, projections, unique pairing", 10):
        rep = run_law("prop5.6")
        assert rep.ok, rep.witness


def test_criterion_05_tensor():
    with criterion(5, "tensor isomorphisms compose to identities", 10):
        rep = run_law("prop5.7")
        assert rep.ok, rep.witness


def test_criterion_06_function_space():
    with criterion(6, "function-space concepts are the mapping hom-sets", 10):
        rep = run_law("lemma5.9")
        assert rep.ok, rep.witness
        # the two-chain instance explicitly: three concepts in a chain
        from cxtcat.category import funcspace
        from cxtcat.corpus import chain_context

        fs = funcspace(chain_context(2), chain_context(2))
        lat, _ = fs.concepts()
        assert len(lat.elements) == 3
        assert all(
            lat.le(a, b) or lat.le(b, a) for a in lat.elements for b in lat.elements
        )


def test_criterion_07_currying():
    with criterion(7, "currying bijection, hom-set count 6 = 6", 10):
        rep = run_law("prop5.10")
        assert rep.ok, rep.witness
        assert "hom-sets: 6 = 6" in rep.lines


def test_criterion_08_logic_suite():
    with criterion(8, "entailment round trips, Lindenbaum round trip, models", 10):
        rep = run_law("prop6.9")
        assert rep.ok, rep.witness
        rng = rng_for(None)
        for _ in range(30):
            S = random_meet_semilattice(rng, 6)
            la = lindenbaum(semilattice_to_ccp(S))
            f = {a: la.class_of({a}) for a in S.elements}
            assert is_order_iso(S.poset, la.semilattice.poset, f)
        for _ in range(20):
            system = random_information_system(rng, 5)
            lat, members = elements(system)
            la = lindenbaum(is_to_ccp(system))
            fl = flt_lattice(la.semilattice)
            fmap = {
                name: set_id(
                    frozenset(c for c, rep_ in la.classes.items() if rep_ <= members[name])
                )
                for name in lat.elements
            }
            assert is_order_iso(lat.poset, fl.poset, fmap)


def test_criterion_09_bound_entailment():
    with criterion(9, "closure equals bound entailment over concepts", 10):
        rep = run_law("thm6.7")
        assert rep.ok, rep.witness


def test_criterion_10_topology_suite():
    with criterion(10, "specialization round trip, base/coherence, Stone spaces", 10):
        lats = corpus(40, lambda r: random_lattice(r, 5))
        for L in lats:
            assert specialization_order(scott_topology(L)) == L.poset
            assert scott_base_and_coherence(L).ok
        rep = run_law("cor6.17")
        assert rep.ok, rep.witness
        for n in (1, 2, 3):
            from cxtcat.order import MeetSemilattice

            S = MeetSemilattice(chain_poset(n))
            assert lemma_6_16_check(S).ok


def test_criterion_11_io_and_laws_verbs(tmp_path, capsys):
    with criterion(11, "byte-stable files, deterministic DOT, law verbs exit 0", 5):
        k2 = tmp_path / "k2.cxt"
        k2.write_text(formats.dump_cxt(k2_context()))
        canonical = k2.read_text()
        assert formats.dump_cxt(formats.parse_cxt(canonical)) == canonical
        term = formats.dump_cxt(make_context([], [], []))
        assert formats.dump_cxt(formats.parse_cxt(term)) == term
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        assert main(["dot", str(k2), "-o", str(a)]) == 0
        assert main(["dot", str(k2), "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()
        for name in LAWS:
            assert main(["laws", name]) == 0, name
        capsys.readouterr()
