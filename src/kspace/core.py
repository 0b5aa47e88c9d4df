"""Atoms, questions, levels and finite knowledge states.

A universe is a finite collection of atoms, each answering exactly one
question and sitting at one level.  A state is a set of atom ids that
answers every question at most once.  States are plain frozensets of ids
so that equal member sets compare (and hash) equal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


class KspaceError(Exception):
    """Base class for all errors raised by this package."""


class UnknownAtom(KspaceError):
    pass


class UnknownQuestion(KspaceError):
    pass


class InvalidState(KspaceError):
    pass


#: Highest atom level accepted.  The per-edge checks loop over every
#: level up to the top one, so their cost grows with its value.
MAX_LEVEL = 1000

# level comparison selectors accepted by `level_restrict`
_CMP_FUNCS = {
    "below": lambda lvl, n: lvl < n,
    "at": lambda lvl, n: lvl == n,
    "above": lambda lvl, n: lvl > n,
    "at_or_below": lambda lvl, n: lvl <= n,
}

State = frozenset


@dataclass(frozen=True)
class Atom:
    id: str
    question: str
    level: int
    label: Optional[str] = None


class AtomUniverse:
    """Finite, immutable collection of atoms indexed by id and by question."""

    def __init__(self, atoms: Iterable[Atom]):
        self._atoms: dict[str, Atom] = {}
        index: dict[str, set[str]] = {}
        for atom in atoms:
            if atom.id in self._atoms:
                raise InvalidState(f"duplicate atom id {atom.id!r}")
            if atom.level < 0:
                raise InvalidState(f"atom {atom.id!r} has negative level")
            if atom.level > MAX_LEVEL:
                raise InvalidState(
                    f"atom {atom.id!r} has level {atom.level} above {MAX_LEVEL}")
            self._atoms[atom.id] = atom
            index.setdefault(atom.question, set()).add(atom.id)
        self.question_index: dict[str, frozenset[str]] = {
            q: frozenset(ids) for q, ids in index.items()
        }
        # all atoms of a question must share one level
        self._question_levels: dict[str, int] = {}
        for q, ids in self.question_index.items():
            levels = {self._atoms[i].level for i in ids}
            if len(levels) > 1:
                raise InvalidState(f"question {q!r} mixes levels {sorted(levels)}")
            (self._question_levels[q],) = levels

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, atom_id: str) -> bool:
        return atom_id in self._atoms

    def atoms(self) -> list[Atom]:
        return sorted(self._atoms.values(), key=lambda a: a.id)

    def atom(self, atom_id: str) -> Atom:
        try:
            return self._atoms[atom_id]
        except KeyError:
            raise UnknownAtom(f"unknown atom id {atom_id!r}") from None

    def question_atoms(self, question: str) -> frozenset[str]:
        try:
            return self.question_index[question]
        except KeyError:
            raise UnknownQuestion(f"unknown question id {question!r}") from None

    def question_level(self, question: str) -> int:
        try:
            return self._question_levels[question]
        except KeyError:
            raise UnknownQuestion(f"unknown question id {question!r}") from None

    def level(self, atom_id: str) -> int:
        return self.atom(atom_id).level

    def max_level(self) -> int:
        if not self._atoms:
            return 0
        return max(a.level for a in self._atoms.values())

    def levels(self) -> list[int]:
        return sorted({a.level for a in self._atoms.values()})


def is_state(members: Iterable[str], universe: AtomUniverse) -> bool:
    """True iff no two distinct members answer the same question."""
    seen: set[str] = set()
    for atom_id in set(members):
        q = universe.atom(atom_id).question
        if q in seen:
            return False
        seen.add(q)
    return True


def level_restrict(members: State, cmp: str, n: int, universe: AtomUniverse) -> State:
    """Subset of the state whose atom levels satisfy ``cmp`` against ``n``."""
    try:
        keep = _CMP_FUNCS[cmp]
    except KeyError:
        raise ValueError(f"unknown comparison {cmp!r}") from None
    return frozenset(a for a in members if keep(universe.atom(a).level, n))


def homogeneous_level(members: State, universe: AtomUniverse) -> Optional[int]:
    """The common level of a nonempty single-level state, else None."""
    levels = {universe.atom(a).level for a in members}
    if len(levels) == 1:
        return next(iter(levels))
    return None


def query(question: str, members: State, universe: AtomUniverse) -> State:
    """The members of the state answering the given question (empty or singleton)."""
    return frozenset(members & universe.question_atoms(question))
