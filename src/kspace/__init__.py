"""Non-deterministic reduction engine over stratified knowledge states.

Finds sound pre-fixed points of proposal maps (realizers) over states of
level-stratified atoms, and exhaustively checks the reduction relation's
invariants on concrete instances.
"""

from .core import (
    Atom,
    AtomUniverse,
    InvalidState,
    KspaceError,
    State,
    UnknownAtom,
    UnknownQuestion,
    homogeneous_level,
    is_state,
    level_restrict,
    query,
)
from .engine import (
    FuelExhausted,
    ReductionStep,
    ReductionTree,
    apply_step,
    enumerate_candidates,
    explore_tree,
    is_prefixed,
    make_strategy,
    run,
    step,
)
from .instances import (
    InstanceDoc,
    LoadedInstance,
    builtin_argmin,
    builtin_t3,
    gen_cascade,
    gen_random,
    load_instance,
)
from .oracle import (
    ContractViolation,
    MaskViolation,
    Realizer,
    StateView,
    Valuation,
    check_level_mask,
    is_sound,
    realize,
    truth,
)

__version__ = "0.1.0"
