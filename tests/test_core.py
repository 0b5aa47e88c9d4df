import pytest
from hypothesis import given, strategies as st

from kspace.core import (
    Atom,
    AtomUniverse,
    InvalidState,
    UnknownAtom,
    UnknownQuestion,
    homogeneous_level,
    is_state,
    level_restrict,
    query,
)

from conftest import fs


class TestUniverse:
    def test_duplicate_id_rejected(self):
        with pytest.raises(InvalidState):
            AtomUniverse([Atom("x", "q", 0), Atom("x", "q", 0)])

    def test_question_mixing_levels_rejected(self):
        with pytest.raises(InvalidState):
            AtomUniverse([Atom("x", "q", 0), Atom("y", "q", 1)])

    def test_question_index_partitions(self, t3_universe):
        all_ids = {a.id for a in t3_universe.atoms()}
        indexed = set()
        for q, ids in t3_universe.question_index.items():
            for atom_id in ids:
                assert t3_universe.atom(atom_id).question == q
            indexed |= ids
        assert indexed == all_ids

    def test_question_level(self, t3_universe):
        assert [t3_universe.question_level(q) for q in ("q0", "q1", "q2")] == [0, 1, 2]
        with pytest.raises(UnknownQuestion):
            t3_universe.question_level("nope")


class TestIsState:
    def test_empty(self, t3_universe):
        assert is_state(fs(), t3_universe)

    def test_shared_question_rejected(self, t3_universe):
        assert not is_state(fs("b1", "b1'"), t3_universe)

    def test_distinct_questions(self, t3_universe):
        assert is_state(fs("a0", "b1", "c2"), t3_universe)

    def test_unknown_atom(self, t3_universe):
        with pytest.raises(UnknownAtom):
            is_state(fs("nope"), t3_universe)


class TestLevelRestrict:
    def test_below(self, t3_universe):
        X = fs("a0", "b1'", "c2")
        assert level_restrict(X, "below", 2, t3_universe) == fs("a0", "b1'")

    def test_at(self, t3_universe):
        X = fs("a0", "b1'", "c2")
        assert level_restrict(X, "at", 1, t3_universe) == fs("b1'")

    def test_above_max_is_empty(self, t3_universe):
        X = fs("a0", "b1'", "c2")
        assert level_restrict(X, "above", t3_universe.max_level(), t3_universe) == fs()

    def test_unknown_cmp(self, t3_universe):
        with pytest.raises(ValueError):
            level_restrict(fs(), "sideways", 0, t3_universe)


class TestHomogeneousLevel:
    def test_singleton(self, t3_universe):
        assert homogeneous_level(fs("b1"), t3_universe) == 1

    def test_empty_is_absent(self, t3_universe):
        assert homogeneous_level(fs(), t3_universe) is None

    def test_mixed_is_absent(self, t3_universe):
        assert homogeneous_level(fs("a0", "b1"), t3_universe) is None


class TestQuery:
    def test_answered(self, t3_universe):
        assert query("q1", fs("a0", "b1'"), t3_universe) == fs("b1'")

    def test_unanswered(self, t3_universe):
        assert query("q2", fs("a0", "b1'"), t3_universe) == fs()

    def test_empty_state(self, t3_universe):
        assert query("q0", fs(), t3_universe) == fs()

    def test_unknown_question(self, t3_universe):
        with pytest.raises(UnknownQuestion):
            query("q9", fs(), t3_universe)


# random universes and states for the algebraic properties

@st.composite
def universe_and_state(draw):
    n = draw(st.integers(1, 12))
    atoms = []
    question = 0
    while len(atoms) < n:
        level = draw(st.integers(0, 4))
        size = draw(st.integers(1, 2))
        for _ in range(min(size, n - len(atoms))):
            atoms.append(Atom(f"a{len(atoms)}", f"q{question}", level))
        question += 1
    universe = AtomUniverse(atoms)
    members = []
    taken = set()
    for atom in atoms:
        if atom.question not in taken and draw(st.booleans()):
            members.append(atom.id)
            taken.add(atom.question)
    return universe, frozenset(members)


@given(universe_and_state(), st.integers(0, 5))
def test_restriction_partitions(pair, n):
    universe, X = pair
    below = level_restrict(X, "below", n, universe)
    at = level_restrict(X, "at", n, universe)
    above = level_restrict(X, "above", n, universe)
    assert below | at == level_restrict(X, "at_or_below", n, universe)
    assert below | at | above == X
    assert not (below & at) and not (at & above) and not (below & above)


@given(universe_and_state())
def test_query_at_most_singleton(pair):
    universe, X = pair
    for q in universe.question_index:
        assert len(query(q, X, universe)) <= 1


@given(universe_and_state(), st.integers(0, 5))
def test_restrict_and_query_outputs_are_states(pair, n):
    universe, X = pair
    for cmp in ("below", "at", "above", "at_or_below"):
        assert is_state(level_restrict(X, cmp, n, universe), universe)
    for q in universe.question_index:
        assert is_state(query(q, X, universe), universe)
