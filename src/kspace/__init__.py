"""Non-deterministic reduction engine over stratified knowledge states.

Finds sound pre-fixed points of proposal maps (realizers) over states of
level-stratified atoms, and exhaustively checks the reduction relation's
invariants on concrete instances.
"""

from .core import (
    AtomUniverse,
    InvalidState,
    KspaceError,
    State,
    UnknownAtom,
    UnknownQuestion,
)
from .engine import (
    FuelExhausted,
    ReductionStep,
    ReductionTree,
    apply_step,
    explore_tree,
    is_prefixed,
    make_strategy,
    run,
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
    MaskViolation,
    Realizer,
    StateView,
    Valuation,
    is_sound,
    realize,
    truth,
)

__version__ = "0.1.0"
