"""Layered valuations and realizers.

A valuation decides the truth of an atom relative to a state, but may
only inspect the state through queries at levels strictly below the
atom's own level.  That restriction is enforced by handing the valuation
a masked :class:`StateView` instead of the raw state, so the level-mask
equation holds by construction for any terminating procedure.

A realizer proposes new atoms for a state; its view is unmasked.  Every
surviving proposal must be unanswered in the state and true under the
valuation (the realizer contract); `realize` filters violations out and
names the first one it dropped.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .core import (
    AtomUniverse,
    KspaceError,
    State,
    UnknownAtom,
    query,
)

PROPOSAL_CAP = 64

# the realizer contract's clauses, as `Proposals.violation` names them
CLAUSE_ANSWERED = "question-already-answered"
CLAUSE_UNTRUE = "truth-false"


class MaskViolation(KspaceError):
    """A valuation queried a question at or above its atom's level."""


class ProposalCapExceeded(KspaceError):
    pass


class StateView:
    """Query-only access to a state, optionally masked below a level cap.

    A view answers for the state it was built on: it memoizes `answered`,
    one entry per question asked, so the caller must not mutate the set
    behind it.  A call that raises (a question at or above the cap, an
    unknown question) stores nothing and raises again when repeated.
    A masked view also holds `verdicts`, atom id -> truth verdict, for the
    atoms at its cap level, as `truth` returned them through it.
    """

    __slots__ = ("universe", "_members", "_level_cap", "_answered", "verdicts")

    def __init__(self, universe: AtomUniverse, members: State,
                 level_cap: Optional[int] = None):
        self.universe = universe
        self._members = members
        self._level_cap = level_cap
        self._answered: dict[str, bool] = {}
        self.verdicts: dict[str, bool] = {}

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
        level = self.universe.level_of[atom_id]
        if self._level_cap is not None and level >= self._level_cap:
            raise MaskViolation(
                f"query of question {self.universe.question_of[atom_id]!r} at "
                f"level {level} breaks the mask at cap {self._level_cap}"
            )
        return atom_id in self._members

    def answered(self, question: str) -> bool:
        answer = self._answered.get(question)
        if answer is None:
            answer = self._answered[question] = bool(self.query(question))
        return answer

    def members(self) -> State:
        """The whole state.  Only an unmasked view gives it out: a masked
        view raises MaskViolation, as a query at or above its cap does."""
        if self._level_cap is not None:
            raise MaskViolation(
                f"the whole state is not visible through the mask at cap "
                f"{self._level_cap}")
        return self._members


class Valuation:
    """Truth procedure `fn` over (atom id, masked state view).

    `truth` calls `fn` with an id of the universe and the view of the state
    masked below that atom's level; a procedure that needs the atom's level
    or question reads the universe's `level_of` or `question_of`."""

    def __init__(self, universe: AtomUniverse,
                 fn: Callable[[str, StateView], bool]):
        self.universe = universe
        self.fn = fn


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
        return raw


def truth(v: Valuation, atom_id: str, members: State,
          views: Optional[dict[int, StateView]] = None) -> bool:
    """Truth of an atom in a state: the valuation's procedure called with
    the atom id and the view of the state masked below the atom's level
    (UnknownAtom for an id outside the universe).  It evaluates on every
    call and stores the verdict in the view's `verdicts`; an evaluation
    that raises stores nothing.

    `views` maps a level cap to a masked view of this one state and is
    filled on first use, so that atoms of one level share a view, its
    `answered` memo and its verdicts; without it the call uses a dict of
    its own.  The result is the same as with a fresh view for any
    deterministic valuation: a shared view answers each question below
    its cap as a fresh one would, and stores nothing for a call that
    raises."""
    level = v.universe.level_of[atom_id]
    if views is None:
        views = {}
    view = views.get(level)
    if view is None:
        view = views[level] = StateView(v.universe, members, level_cap=level)
    verdict = view.verdicts[atom_id] = bool(v.fn(atom_id, view))
    return verdict


class TruthMemo:
    """Masked views kept along a walk over states, for one valuation.

    By the level mask, an atom's truth depends only on the state below its
    level, so a move from state X to X' keeps the views at levels <= the
    lowest level in X ^ X' and drops the rest (all of them when X ^ X'
    holds an id outside the universe): a kept view answers for X' by its
    mask, and its verdicts stay exact for any sequence of states and any
    valuation that reads the state only through its view.  `at` moves the
    memo and gives out its views; `realize` and `is_sound` read verdicts
    from them and call `truth` on a miss."""

    def __init__(self, universe: AtomUniverse):
        self.universe = universe
        self._members: State = frozenset()
        self._views: dict[int, StateView] = {}

    def at(self, members: State) -> dict[int, StateView]:
        """The views held for `members`, level -> masked view, after moving
        the memo there.  The caller may pass the dict to `truth` for this
        state until the memo moves again."""
        if members is not self._members and members != self._members:
            try:
                low = min(map(self.universe.level_of.__getitem__,
                              members ^ self._members))
            except UnknownAtom:  # an id outside the universe: keep none
                low = -1
            self._views = {level: view for level, view
                           in self._views.items() if level <= low}
            self._members = members
        return self._views


def is_sound(v: Valuation, members: State,
             memo: Optional[TruthMemo] = None) -> bool:
    """True iff every member of the state is true in it.  Each verdict is
    read from the masked view of its level, or evaluated by `truth`, which
    adds it there; the views are a dict of this call's own, or with a
    `memo` the ones it holds for the state (an empty state leaves the memo
    where it was)."""
    if not members:
        return True
    views = {} if memo is None else memo.at(members)
    level_of = v.universe.level_of
    for atom_id in members:
        held = views.get(level_of[atom_id])
        verdict = None if held is None else held.verdicts.get(atom_id)
        if verdict is None:
            verdict = truth(v, atom_id, members, views)
        if not verdict:
            return False
    return True


class Proposals(frozenset):
    """The proposals `realize` keeps.  `violation` is the first raw proposal,
    in id order, that it dropped and the clause it breaks, as
    ``(atom_id, clause)``, or None."""

    __slots__ = ("violation",)

    def __new__(cls, kept: Iterable[str], violation: Optional[tuple[str, str]]):
        self = super().__new__(cls, kept)
        self.violation = violation
        return self


def realize(r: Realizer, v: Valuation, members: State,
            memo: Optional[TruthMemo] = None) -> Proposals:
    """The raw proposals for a state that meet the realizer contract (the
    filtered map is itself a realizer); the first one dropped, in id order,
    is the result's `violation`.

    The "question already answered" clause is asked of the view the
    realizer was given, so a question the realizer's own rules asked about
    is answered once.  The truth clause reads its verdicts as `is_sound`
    does; a `memo`'s views are taken at the first verdict, so a call that
    reads none leaves the memo where it was."""
    universe = r.universe
    question_of = universe.question_of
    level_of = universe.level_of
    view = StateView(universe, members)
    views = None  # taken at the first verdict
    kept, dropped = [], []
    # key=str: an id of another type sorts and then fails its lookup
    for atom_id in sorted(r.propose(view), key=str):
        if view.answered(question_of[atom_id]):
            dropped.append((atom_id, CLAUSE_ANSWERED))
            continue
        if views is None:
            views = {} if memo is None else memo.at(members)
        held = views.get(level_of[atom_id])
        verdict = None if held is None else held.verdicts.get(atom_id)
        if verdict is None:
            verdict = truth(v, atom_id, members, views)
        if verdict:
            kept.append(atom_id)
        else:
            dropped.append((atom_id, CLAUSE_UNTRUE))
    return Proposals(kept, dropped[0] if dropped else None)
