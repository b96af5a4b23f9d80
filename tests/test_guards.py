"""Size caps are module constants, read when each check runs.

Every exhaustive stage refuses work past its cap with ``SizeGuardExceeded``
naming the stage, the size reached and the cap.  Only two library calls take
a cap as a parameter (the ones the CLI's ``--guard`` flags set), and a guard
never changes a result, so no memo is keyed by one.
"""

import inspect
import math

import pytest

from cxtcat import category, context, logic, mappings, order, topology
from cxtcat.category import FunctionSpaceContext, funcspace
from cxtcat.context import (
    alg_lattice,
    approx_closure,
    attr_closure_operator,
    make_context,
    sem_lattice,
)
from cxtcat.corpus import chain_context, chain_poset
from cxtcat.errors import SizeGuardExceeded
from cxtcat.logic import (
    CcpSystem,
    InformationSystem,
    close_entailment,
    context_to_is,
    theorem_6_7_check,
)
from cxtcat.mappings import enumerate_mappings
from cxtcat.order import FiniteLattice, MeetSemilattice, powerset_lattice
from cxtcat.topology import lower_sets, scott_topology

from test_mappings import chain_s, m_n


def names(n):
    return [f"x{i:02d}" for i in range(n)]


def bare(n):
    """A context with ``n`` attributes and no objects."""
    return make_context([], names(n), [])


def chain_lattice(n):
    return FiniteLattice(chain_poset(n))


def factors(n):
    """``(a, b)`` with ``a * b == n`` and ``a`` the largest divisor up to sqrt(n)."""
    a = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    return a, n // a


def with_closed_sets(n):
    """A context with ``n = 2^k + 1`` closed attribute sets, the last one
    added by the last object row: objects 0..k-1 bear everything but their
    own attribute (2^k intents, all holding ``z``), and one object bears
    nothing."""
    k = (n - 1).bit_length() - 1
    assert n == (1 << k) + 1
    attrs = names(k)
    incidence = [(o, a) for o in attrs for a in attrs + ["z"] if o != a]
    return make_context(attrs + ["empty"], attrs + ["z"], incidence)


# (module, constant, stage, build, lowered): ``build(n)`` returns a call that
# brings the stage to size ``n``; ``lowered`` is a second value of the cap.
CAPS = [
    (order, "SUBSET_SCAN_GUARD", "lower_sets",
     lambda n: lambda: lower_sets(MeetSemilattice(chain_poset(n))), 3),
    (order, "POWERSET_GUARD", "powerset_lattice", lambda n: lambda: powerset_lattice(names(n)), 2),
    (order, "POWERSET_GUARD", "attr_closure_operator",
     lambda n: lambda: attr_closure_operator(bare(n)), 2),
    (context, "APPROX_CLOSURE_GUARD", "approx_closure",
     lambda n: lambda: approx_closure(bare(n), names(n)), 2),
    (context, "CLOSED_SET_GUARD", "closed attribute sets",
     lambda n: lambda: sem_lattice(with_closed_sets(n)), 4),
    (context, "CLOSED_SET_GUARD", "closed attribute sets",
     lambda n: lambda: alg_lattice(with_closed_sets(n)), 8),
    (mappings, "ENUMERATION_GUARD", "enumerate_mappings",
     lambda n: lambda: enumerate_mappings(*(chain_s(k) for k in factors(n))), 20),
    # The search stops one mapping past the cap, whatever the full count.
    (mappings, "ENUMERATION_OUTPUT_GUARD", "enumerate_mappings output",
     lambda n: lambda: enumerate_mappings(m_n(10), chain_s(20, "d")), 16),
    (category, "LITERAL_OBJECT_GUARD", "funcspace literal objects",
     lambda n: lambda: funcspace(chain_context(1), chain_context(n)).literal_context(), 3),
    (category, "FUNCSPACE_ATTRIBUTE_GUARD", "funcspace",
     lambda n: lambda: funcspace(*(chain_context(k) for k in factors(n))), 20),
    (logic, "PROPOSITION_GUARD", "information system",
     lambda n: lambda: InformationSystem(tuple(names(n)), []), 2),
    (logic, "PROPOSITION_GUARD", "close_entailment",
     lambda n: lambda: close_entailment(names(n), []), 2),
    (logic, "PROPOSITION_GUARD", "ccp system",
     lambda n: lambda: CcpSystem(tuple(names(n)), []), 2),
    (logic, "PROPOSITION_GUARD", "context_to_is", lambda n: lambda: context_to_is(bare(n)), 2),
    (logic, "PROPOSITION_GUARD", "theorem_6_7_check",
     lambda n: lambda: theorem_6_7_check(bare(n)), 2),
    (logic, "SEQUENT_MATERIALIZE_GUARD", "ccp sequent materialization",
     lambda n: lambda: CcpSystem(tuple(names(n)), []).sequents(), 2),
    (topology, "SCOTT_GUARD", "scott_topology",
     lambda n: lambda: scott_topology(chain_lattice(n)), 3),
]


@pytest.mark.parametrize(
    "module, name, what, build, lowered", CAPS, ids=[f"{c[2]}-{c[1]}" for c in CAPS]
)
def test_each_cap_stops_its_stage_one_past_the_constant(
    module, name, what, build, lowered, monkeypatch
):
    """An input one past the constant raises naming the stage and the
    constant; lowering the constant moves the cap, so it is read at call
    time."""
    for cap in (getattr(module, name), lowered):
        monkeypatch.setattr(module, name, cap)
        with pytest.raises(SizeGuardExceeded) as exc:
            build(cap + 1)()
        assert (exc.value.what, exc.value.size, exc.value.cap) == (what, cap + 1, cap)
        assert str(exc.value) == f"{what}: size {cap + 1} exceeds guard {cap}"


def test_the_default_caps():
    """The values the README's table of caps lists."""
    assert (order.SUBSET_SCAN_GUARD, order.DIRECTED_SCAN_CAP, order.POWERSET_GUARD) == (20, 16, 10)
    assert (context.APPROX_CLOSURE_GUARD, context.CLOSED_SET_GUARD) == (16, 512)
    assert (mappings.ENUMERATION_GUARD, mappings.ENUMERATION_OUTPUT_GUARD) == (512, 1 << 15)
    assert (category.LITERAL_OBJECT_GUARD, category.FUNCSPACE_ATTRIBUTE_GUARD) == (12, 64)
    assert (logic.PROPOSITION_GUARD, logic.SEQUENT_MATERIALIZE_GUARD) == (12, 10)
    assert topology.SCOTT_GUARD == 14


# Every cap parameter left in the library: the two guards the CLI's
# ``--guard`` flags set.
SIGNATURES = {
    order.compacts: ["L"],
    order.is_algebraic: ["L"],
    order.k_semilattice: ["L"],
    order.powerset_lattice: ["base"],
    order.theorem_3_6_isos: ["S", "L"],
    order.ideals: ["S"],
    order.ideal_completion: ["S"],
    order.filters: ["S"],
    order.flt_lattice: ["S"],
    context.approx_closure: ["P", "ys"],
    context.attr_closure_operator: ["P"],
    context.sem_lattice: ["P"],
    context.alg_lattice: ["P"],
    mappings.k_on_morphism: ["f"],
    mappings.eta: ["L"],
    mappings.enumerate_mappings: ["S", "T"],
    category.funcspace: ["P", "Q"],
    FunctionSpaceContext.literal_context: ["self", "guard"],
    CcpSystem.sequents: ["self"],
    logic.theorem_6_7_check: ["P"],
    topology.scott_topology: ["L", "guard"],
    topology.scott_base_and_coherence: ["L"],
    topology.lower_sets: ["S"],
    topology.lower_set_locale: ["S"],
    topology.corollary_6_17_spaces: ["S"],
    topology.spectrality_check: ["loc"],
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__qualname__)
def test_only_the_cli_guards_and_verify_are_parameters(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


@pytest.mark.parametrize("stage", ["closed_masks", "concept_names"])
def test_orderless_closed_set_stages_stop_at_the_same_guard(stage):
    """``validate`` and ``concepts`` stop at the cap with the message of
    ``sem_lattice``."""
    cap = context.CLOSED_SET_GUARD
    with pytest.raises(SizeGuardExceeded) as exc:
        getattr(context, stage)(with_closed_sets(cap + 1))
    assert str(exc.value) == f"closed attribute sets: size {cap + 1} exceeds guard {cap}"
