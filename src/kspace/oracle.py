"""Layered valuations and realizers.

A valuation decides the truth of an atom relative to a state, but may
only inspect the state through queries at levels strictly below the
atom's own level.  That restriction is enforced by handing the valuation
a masked :class:`StateView` instead of the raw state, so the level-mask
equation holds by construction for any terminating procedure.

A realizer proposes new atoms for a state; its view is unmasked.  Every
surviving proposal must be unanswered in the state and true under the
valuation (the realizer contract); `realize` either filters violations
out or reports them, depending on mode.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .core import (
    AtomUniverse,
    Atom,
    KspaceError,
    State,
    level_restrict,
    query,
)

PROPOSAL_CAP = 64


class MaskViolation(KspaceError):
    """A valuation queried a question at or above its atom's level."""


class ContractViolation(KspaceError):
    """A raw proposal broke the realizer contract (strict mode only)."""

    CLAUSE_ANSWERED = "question-already-answered"
    CLAUSE_UNTRUE = "truth-false"

    def __init__(self, atom_id: str, clause: str, state: State):
        self.atom_id = atom_id
        self.clause = clause
        self.state = state
        super().__init__(f"proposal {atom_id!r} violates clause {clause}")


class ProposalCapExceeded(KspaceError):
    pass


class StateView:
    """Query-only access to a state, optionally masked below a level cap."""

    def __init__(self, universe: AtomUniverse, members: State,
                 level_cap: Optional[int] = None):
        self.universe = universe
        self._members = members
        self._level_cap = level_cap

    def query(self, question: str) -> State:
        level = self.universe.question_level(question)
        if self._level_cap is not None and level >= self._level_cap:
            raise MaskViolation(
                f"query of question {question!r} at level {level} "
                f"breaks the mask at cap {self._level_cap}"
            )
        return query(question, self._members, self.universe)

    def present(self, atom_id: str) -> bool:
        # an atom's level is its question's, so this is the mask check of
        # `query` without building the question's answer set
        atom = self.universe.atom(atom_id)
        if self._level_cap is not None and atom.level >= self._level_cap:
            raise MaskViolation(
                f"query of question {atom.question!r} at level {atom.level} "
                f"breaks the mask at cap {self._level_cap}"
            )
        return atom_id in self._members

    def answered(self, question: str) -> bool:
        return bool(self.query(question))


class Valuation:
    """Truth procedure over (atom, masked state view)."""

    def __init__(self, universe: AtomUniverse,
                 fn: Callable[[Atom, StateView], bool]):
        self.universe = universe
        self._fn = fn

    def evaluate(self, atom: Atom, view: StateView) -> bool:
        return bool(self._fn(atom, view))


class Realizer:
    """Proposal procedure over an unmasked state view."""

    def __init__(self, universe: AtomUniverse,
                 fn: Callable[[StateView], Iterable[str]]):
        self.universe = universe
        self._fn = fn

    def propose(self, view: StateView) -> frozenset[str]:
        raw = frozenset(self._fn(view))
        if len(raw) > PROPOSAL_CAP:
            raise ProposalCapExceeded(
                f"{len(raw)} proposals exceed cap {PROPOSAL_CAP}"
            )
        for atom_id in raw:
            self.universe.atom(atom_id)  # raises UnknownAtom
        return raw


def truth(v: Valuation, atom_id: str, members: State) -> bool:
    """Truth of an atom in a state, through the level-masked view."""
    atom = v.universe.atom(atom_id)
    view = StateView(v.universe, members, level_cap=atom.level)
    return v.evaluate(atom, view)


def is_sound(v: Valuation, members: State) -> bool:
    """True iff every member of the state is true in it."""
    return all(truth(v, a, members) for a in members)


def check_level_mask(v: Valuation, atom_id: str, members: State) -> bool:
    """Compare the verdict on X against the verdict on X masked below the
    atom's level; must agree for any well-formed valuation."""
    atom = v.universe.atom(atom_id)
    masked = level_restrict(members, "below", atom.level, v.universe)
    return truth(v, atom_id, members) == truth(v, atom_id, masked)


def realize(r: Realizer, v: Valuation, members: State,
            mode: str = "filter") -> frozenset[str]:
    """Contract-checked proposal set for a state.

    In ``filter`` mode, proposals whose question is already answered or
    whose truth fails are dropped silently (the filtered map is itself a
    realizer).  In ``strict`` mode the first violation raises
    :class:`ContractViolation` and the raw set is returned only when clean.
    """
    if mode not in ("filter", "strict"):
        raise ValueError(f"unknown realize mode {mode!r}")
    universe = r.universe
    raw = r.propose(StateView(universe, members))
    kept = []
    for atom_id in sorted(raw):
        atom = universe.atom(atom_id)
        if members & universe.question_atoms(atom.question):
            if mode == "strict":
                raise ContractViolation(
                    atom_id, ContractViolation.CLAUSE_ANSWERED, members)
            continue
        if not truth(v, atom_id, members):
            if mode == "strict":
                raise ContractViolation(
                    atom_id, ContractViolation.CLAUSE_UNTRUE, members)
            continue
        kept.append(atom_id)
    return raw if mode == "strict" else frozenset(kept)
