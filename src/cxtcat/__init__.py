"""Finite formal contexts, algebraic lattices, and the category tying them
together: approximable mappings, products, tensors, function spaces and
currying, conjunctive logics and information systems, Scott topologies and
locales — with every structural law executable and exhaustively checkable on
small carriers."""

__version__ = "0.1.0"

from .errors import CxtcatError, FormatError, SizeGuardExceeded, ValidationError
from .order import (
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
    is_algebraic,
    is_distributive,
    meet_primes,
    order_isomorphism,
    theorem_3_6_isos,
    up_set,
    validate_poset,
)
from .context import (
    ConceptLattice,
    FormalContext,
    SemLattice,
    alg_lattice,
    alpha,
    approx_closure,
    attr_closure,
    context_of_semilattice,
    make_context,
    omega,
    sem_lattice,
)
from .mappings import (
    ApproximableMapping,
    ScottFunction,
    compose,
    enumerate_mappings,
    epsilon,
    eta,
    identity_mapping,
    idl_on_morphism,
    k_on_morphism,
    validate_am,
)
from .category import (
    FunctionSpaceContext,
    ProductContext,
    TensorContext,
    bang,
    curry,
    funcspace,
    plus,
    product,
    tensor,
    terminal,
    uncurry,
)
from .logic import (
    CcpSystem,
    InformationSystem,
    LindenbaumAlgebra,
    ccp_to_is,
    close_entailment,
    context_to_is,
    elements,
    is_to_ccp,
    lindenbaum,
    rz_entails,
    semilattice_to_ccp,
    theorem_6_7_check,
)
from .topology import (
    Locale,
    LocalePoint,
    TopSpace,
    corollary_6_17_spaces,
    frame_hom_of_continuous,
    lemma_6_16_check,
    locale_points,
    lower_set_locale,
    scott_base_and_coherence,
    scott_topology,
    specialization_order,
    spectrality_check,
)
from .laws import LAWS, run_law

__all__ = [name for name in dir() if not name.startswith("_")]
