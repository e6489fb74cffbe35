"""Exact step-function spaces over finite metric spaces, with a monad-law
verification harness and a continuity probe for multiplication candidates."""

__version__ = "0.1.0"

from .core import (
    FULL_WINDOW,
    FiniteSpace,
    Rat,
    TestFn,
    Window,
    as_rat,
    make_discrete_space,
    product_space,
    validate_metric,
)
from .stepfn import (
    StepFn,
    canonicalize,
    common_refinement,
    constant,
    evaluate,
    format_stepfn,
    measure_preimage,
    parse_stepfn,
    random_stepfn,
)
from .hm import (
    SpaceMap,
    d_hm,
    functional_eval,
    hm_map,
    pairing,
    product_projections,
    support,
    support_criterion_check,
    support_membership_check,
    unit,
)
from .tower import (
    CONSTANT_LEFT,
    DIAGONAL,
    REMAP_LAST,
    MuCandidate,
    d_hm2,
    diagonal_flatten,
    eta_h,
    h2_map,
    h_eta,
    iterated_functional_eval,
)
from .laws import (
    CANDIDATES,
    BudgetError,
    FiberResult,
    LawReport,
    ProbeRow,
    Witnesses,
    build_witnesses,
    check_associativity,
    check_naturality,
    check_unit_laws,
    discontinuity_probe,
    fiber_uniqueness,
    forced_value_chain,
)

__all__ = [name for name in dir() if not name.startswith("_")]
