"""Test-only reference: the step pipeline that the universe's id tables
replaced, kept to check that the tables change nothing observable.

`level_restrict`, `homogeneous_level` and `apply_step` are the former
`core` and `engine` functions verbatim, and `Candidates` is the former
`engine.Candidates` cut to its listing: the grouping of `__init__`,
`size`, iteration and `_level_sets`.  Each looks up one atom at a time
in an id -> (question, level) table of its own, built from the
universe's `atoms()` rows, not in the universe's `level_of` and
`question_of` tables that the program's step path reads.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from math import prod
from typing import Optional

from kspace.core import AtomUniverse, State, UnknownAtom
from kspace.engine import (
    CANDIDATE_CAP,
    CandidateExplosion,
    NotHomogeneous,
    QuestionConflict,
    ReductionStep,
)


class _Table(dict):
    __slots__ = ()

    def __missing__(self, atom_id):
        raise UnknownAtom(f"unknown atom id {atom_id!r}")


def atom_table(universe: AtomUniverse) -> dict[str, tuple[str, int]]:
    """Atom id -> (question, level), built from the universe's `atoms()`
    rows; a lookup of any other id raises UnknownAtom, as the universe's
    own tables do."""
    return _Table((atom_id, (question, level))
                  for atom_id, question, level in universe.atoms())


def level_restrict(members: State, n: int, universe: AtomUniverse) -> State:
    """The members at level <= n: the part of the state a step at level n
    keeps."""
    atoms = atom_table(universe)
    return frozenset(a for a in members if atoms[a][1] <= n)


def homogeneous_level(members: State, universe: AtomUniverse) -> Optional[int]:
    """The common level of a nonempty single-level state, else None."""
    atoms = atom_table(universe)
    levels = {atoms[a][1] for a in members}
    if len(levels) == 1:
        return next(iter(levels))
    return None


def apply_step(universe: AtomUniverse, members: State,
               chosen: State) -> ReductionStep:
    """The step that adds `chosen` to the state: keep levels <= n, add
    `chosen`, drop levels > n, where n is the level of `chosen`.  Raises
    NotHomogeneous or QuestionConflict, both InvalidCandidate, when
    `chosen` is not a nonempty one-level set that answers only questions
    the kept state leaves open, each once."""
    n = homogeneous_level(chosen, universe)
    if n is None:
        raise NotHomogeneous(f"chosen set {sorted(chosen)} is not homogeneous")
    # a chosen atom already in the state is kept: its question is answered
    kept = level_restrict(members, n, universe)
    atoms = atom_table(universe)
    questions = {atoms[a][0] for a in kept}
    for atom_id in chosen:
        question = atoms[atom_id][0]
        if question in questions:
            raise QuestionConflict(
                f"atom {atom_id!r} answers question {question!r}, which the "
                f"kept state or another chosen atom already answers")
        questions.add(question)
    return ReductionStep(members, chosen, kept | chosen, n)


class Candidates:
    """The nonempty homogeneous sub-states of a proposal set, in a fixed
    order: level ascending, then lexicographic on sorted member ids."""

    def __init__(self, universe: AtomUniverse, proposals: frozenset[str]):
        self.proposals = proposals
        atoms = atom_table(universe)
        by_level: dict[int, dict[str, list[str]]] = {}
        for atom_id in proposals:
            question, level = atoms[atom_id]
            by_level.setdefault(level, {}).setdefault(question, []).append(atom_id)
        self.levels = sorted(by_level)
        # level -> the sorted ids of each of its questions
        self._groups = {level: [sorted(ids) for ids in by_level[level].values()]
                        for level in self.levels}
        self._counts = [prod(len(ids) + 1 for ids in self._groups[level]) - 1
                        for level in self.levels]
        self.size = sum(self._counts)

    def __iter__(self) -> Iterator[State]:
        # checked on iter(), which list() calls before it asks len()
        if self.size > CANDIDATE_CAP:
            raise CandidateExplosion(f"more than {CANDIDATE_CAP} candidates")
        return itertools.chain.from_iterable(
            self._level_sets(self._groups[level]) for level in self.levels)

    @staticmethod
    def _level_sets(groups: list[list[str]]) -> list[State]:
        level_sets = []
        for choice in itertools.product(*[ids + [None] for ids in groups]):
            picked = frozenset(a for a in choice if a is not None)
            if picked:
                level_sets.append(picked)
        level_sets.sort(key=lambda s: tuple(sorted(s)))
        return level_sets
