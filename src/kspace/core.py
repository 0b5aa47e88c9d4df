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


#: Highest atom level accepted.  Only the slow path of the per-edge checks
#: loops over every integer level up to the top one, a few int operations
#: each.  A universe's id sets per level (`ids_at_or_below`) are built only
#: for the levels asked for.
MAX_LEVEL = 1000

State = frozenset


@dataclass(frozen=True)
class Atom:
    id: str
    question: str
    level: int


class _ById(dict):
    """A table keyed by atom id whose failed lookup raises UnknownAtom."""

    __slots__ = ()

    def __missing__(self, atom_id):
        raise UnknownAtom(f"unknown atom id {atom_id!r}")


class _IdsAtOrBelow(dict):
    """Level n -> the frozenset of the ids at level n or below, built on
    first lookup from an id -> level table (never the universe itself,
    which would make a reference cycle)."""

    __slots__ = ("_level_of",)

    def __init__(self, level_of: dict[str, int]):
        super().__init__()
        self._level_of = level_of

    def __missing__(self, n: int) -> frozenset[str]:
        ids = self[n] = frozenset(
            atom_id for atom_id, level in self._level_of.items() if level <= n)
        return ids


class AtomUniverse:
    """Finite, immutable collection of atoms indexed by id and by question.

    `level_of` and `question_of` map each atom id to its level and to its
    question, and raise UnknownAtom for any other id; `ids_at_or_below[n]`
    is the frozenset of the ids at level n or below, built for each n on
    first use.  They let a step work on whole sets at a time.
    """

    def __init__(self, atoms: Iterable[Atom]):
        self._atoms: dict[str, Atom] = _ById()
        self.level_of: dict[str, int] = _ById()
        self.question_of: dict[str, str] = _ById()
        by_id, level_of, question_of = self._atoms, self.level_of, self.question_of
        self.ids_at_or_below: dict[int, frozenset[str]] = _IdsAtOrBelow(level_of)
        max_level = 0
        index: dict[str, set[str]] = {}
        for atom in atoms:
            atom_id, question, level = atom.id, atom.question, atom.level
            if atom_id in by_id:
                raise InvalidState(f"duplicate atom id {atom_id!r}")
            if level < 0:
                raise InvalidState(f"atom {atom_id!r} has negative level")
            if level > MAX_LEVEL:
                try:
                    shown = f" {level}"
                except ValueError:  # past the int-to-str digit limit
                    shown = ""
                raise InvalidState(
                    f"atom {atom_id!r} has level{shown} above {MAX_LEVEL}")
            by_id[atom_id] = atom
            level_of[atom_id] = level
            question_of[atom_id] = question
            if level > max_level:
                max_level = level
            index.setdefault(question, set()).add(atom_id)
        self._max_level = max_level
        self.question_index: dict[str, frozenset[str]] = {
            q: frozenset(ids) for q, ids in index.items()
        }
        # all atoms of a question must share one level
        self._question_levels: dict[str, int] = {}
        for q, ids in self.question_index.items():
            levels = set(map(level_of.__getitem__, ids))
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
        return self._atoms[atom_id]

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

    def known_below(self, atoms: Iterable[str], questions: Iterable[str],
                    cap: int = MAX_LEVEL + 1) -> bool:
        """True iff every atom and question id given is known and at a level
        below `cap` (by default any level): one table lookup per id."""
        for atom_id in atoms:
            if self.level_of.get(atom_id, cap) >= cap:
                return False
        for question in questions:
            if self._question_levels.get(question, cap) >= cap:
                return False
        return True

    def max_level(self) -> int:
        return self._max_level

    def levels(self) -> list[int]:
        return sorted({a.level for a in self._atoms.values()})


def level_restrict(members: State, n: int, universe: AtomUniverse) -> State:
    """The members at level <= n: the part of the state a step at level n
    keeps."""
    kept = universe.ids_at_or_below[n] & members
    if len(kept) < len(members) and not universe.level_of.keys() >= members:
        level_of = universe.level_of
        for atom_id in members:
            level_of[atom_id]  # raises UnknownAtom at the first unknown one
    return kept


def homogeneous_level(members: State, universe: AtomUniverse) -> Optional[int]:
    """The common level of a nonempty single-level state, else None."""
    levels = set(map(universe.level_of.__getitem__, members))
    if len(levels) == 1:
        return next(iter(levels))
    return None


def query(question: str, members: State, universe: AtomUniverse) -> State:
    """The members of the state answering the given question (empty or singleton)."""
    return frozenset(members & universe.question_atoms(question))
