import pytest
from hypothesis import given, strategies as st

from kspace.core import (
    AtomUniverse,
    InvalidState,
    UnknownQuestion,
    homogeneous_level,
    level_restrict,
    query,
)

from conftest import fs


class TestUniverse:
    def test_duplicate_id_rejected(self):
        with pytest.raises(InvalidState, match=r"^duplicate atom id 'x'$"):
            AtomUniverse([("x", "q", 0), ("x", "q", 0)])

    def test_question_mixing_levels_rejected(self):
        with pytest.raises(InvalidState,
                           match=r"^question 'q' mixes levels \[0, 1\]$"):
            AtomUniverse([("x", "q", 0), ("y", "q", 1)])

    @pytest.mark.parametrize("level, message", [
        (-1, "atom 'x' has negative level"),
        (1001, "atom 'x' has level 1001 above 1000"),
    ])
    def test_level_out_of_range_rejected(self, level, message):
        with pytest.raises(InvalidState) as info:
            AtomUniverse([("y", "qy", 0), ("x", "q", level)])
        assert str(info.value) == message

    def test_question_index_partitions(self, t3_universe):
        all_ids = {atom_id for atom_id, _, _ in t3_universe.atoms()}
        indexed = set()
        for q, ids in t3_universe.question_index.items():
            for atom_id in ids:
                assert t3_universe.question_of[atom_id] == q
            indexed |= ids
        assert indexed == all_ids

    def test_atoms_is_a_fresh_sorted_list(self, t3_universe):
        atoms = t3_universe.atoms()
        assert atoms == [("a0", "q0", 0), ("b1", "q1", 1), ("b1'", "q1", 1),
                         ("c2", "q2", 2)]
        atoms.clear()
        assert len(t3_universe.atoms()) == 4

    def test_atoms_gives_the_rows_back_sorted(self):
        rows = [("c", "qc", 2), ("a", "qa", 0), ("b2", "qb", 1), ("b1", "qb", 1)]
        universe = AtomUniverse(iter(rows))
        assert universe.atoms() == sorted(rows)
        assert len(universe) == 4 and "b2" in universe and "qb" not in universe
        assert universe.levels() == [0, 1, 2]

    def test_question_level(self, t3_universe):
        assert [t3_universe.question_level(q) for q in ("q0", "q1", "q2")] == [0, 1, 2]
        with pytest.raises(UnknownQuestion):
            t3_universe.question_level("nope")


class TestLevelRestrict:
    def test_keeps_levels_at_or_below(self, t3_universe):
        X = fs("a0", "b1'", "c2")
        assert level_restrict(X, 1, t3_universe) == fs("a0", "b1'")

    def test_minus_one_keeps_nothing(self, t3_universe):
        X = fs("a0", "b1'", "c2")
        assert level_restrict(X, -1, t3_universe) == fs()

    def test_above_max_is_empty(self, t3_universe):
        # the top level keeps the whole state: nothing lies above it
        X = fs("a0", "b1'", "c2")
        assert level_restrict(X, t3_universe.max_level(), t3_universe) == X


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
            atoms.append((f"a{len(atoms)}", f"q{question}", level))
        question += 1
    universe = AtomUniverse(atoms)
    members = []
    taken = set()
    for atom_id, atom_question, _ in atoms:
        if atom_question not in taken and draw(st.booleans()):
            members.append(atom_id)
            taken.add(atom_question)
    return universe, frozenset(members)


@given(universe_and_state(), st.integers(-1, 5))
def test_restriction_partitions(pair, n):
    # the cut splits the state into the kept levels <= n and the rest
    universe, X = pair
    kept = level_restrict(X, n, universe)
    assert kept <= X
    for a in X:
        assert (universe.level_of[a] <= n) == (a in kept)


@given(universe_and_state())
def test_query_at_most_singleton(pair):
    universe, X = pair
    for q in universe.question_index:
        assert len(query(q, X, universe)) <= 1


@given(universe_and_state(), st.integers(-1, 5))
def test_restrict_and_query_outputs_are_states(pair, n):
    universe, X = pair

    def is_state(members):
        # no two members share a question
        questions = [universe.question_of[a] for a in members]
        return len(set(questions)) == len(questions)

    assert is_state(level_restrict(X, n, universe))
    for q in universe.question_index:
        assert is_state(query(q, X, universe))

