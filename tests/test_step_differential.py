"""The step pipeline on the universe's id tables against the per-atom
pipeline it replaced (`reference_steps`): for any universe, state, level
and chosen or proposed set, unknown ids and `set` inputs included, the
same result, or the same exception type and message."""

import gc
import weakref

from hypothesis import given, settings, strategies as st

from kspace.core import Atom, AtomUniverse, homogeneous_level, level_restrict
from kspace.engine import Candidates, apply_step

import reference_steps as reference
from conftest import fs
from test_core import universe_and_state
from test_engine import grouped_proposals

# ids no universe here holds: a lookalike string, a non-string, and an id
# that sorts before every other
UNKNOWN = ["zz", "a99", 5, ""]


def _outcome(call):
    """What a call returns, with its type, or its exception's type and
    message."""
    try:
        result = call()
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), result


def _with_unknown(data, members):
    """`members` as drawn: maybe with unknown ids, as a frozenset or a set."""
    members = set(members) | set(data.draw(st.lists(st.sampled_from(UNKNOWN),
                                                    max_size=2)))
    return data.draw(st.sampled_from([frozenset, set]))(members)


def _subset(data, universe):
    ids = [atom.id for atom in universe.atoms()]
    return data.draw(st.sets(st.sampled_from(ids))) if ids else set()


@settings(max_examples=500, deadline=None)
@given(universe_and_state(), st.data())
def test_level_restrict_matches_reference(pair, data):
    universe, state = pair
    members = _with_unknown(data, data.draw(st.sampled_from(
        [state, _subset(data, universe)])))
    n = data.draw(st.integers(-1, universe.max_level() + 2))
    assert _outcome(lambda: level_restrict(members, n, universe)) \
        == _outcome(lambda: reference.level_restrict(members, n, universe))


@settings(max_examples=500, deadline=None)
@given(universe_and_state(), st.data())
def test_homogeneous_level_matches_reference(pair, data):
    universe, state = pair
    members = _with_unknown(data, data.draw(st.sampled_from(
        [state, _subset(data, universe)])))
    assert _outcome(lambda: homogeneous_level(members, universe)) \
        == _outcome(lambda: reference.homogeneous_level(members, universe))


@settings(max_examples=500, deadline=None)
@given(universe_and_state(), st.data())
def test_apply_step_matches_reference(pair, data):
    universe, state = pair
    members = _with_unknown(data, state) if data.draw(st.booleans()) else state
    chosen = _subset(data, universe)
    if data.draw(st.booleans()):
        # one level of the state's own universe, the common case
        n = data.draw(st.integers(-1, universe.max_level() + 2))
        chosen = {a for a in chosen if universe.level_of[a] == n} or chosen
    chosen = _with_unknown(data, chosen) if data.draw(st.booleans()) else \
        data.draw(st.sampled_from([frozenset, set]))(chosen)
    assert _outcome(lambda: apply_step(universe, members, chosen)) \
        == _outcome(lambda: reference.apply_step(universe, members, chosen))


def _listing(cands):
    return cands.size, cands.levels, list(cands)


@settings(max_examples=500, deadline=None)
@given(grouped_proposals(), st.data())
def test_candidates_match_reference(pair, data):
    universe, proposals = pair
    if data.draw(st.booleans()):
        proposals = _with_unknown(data, proposals)
    assert _outcome(lambda: _listing(Candidates(universe, proposals))) \
        == _outcome(lambda: _listing(reference.Candidates(universe, proposals)))


@settings(max_examples=300, deadline=None)
@given(universe_and_state(), st.data())
def test_candidates_of_a_state_universe_match_reference(pair, data):
    universe, _ = pair
    proposals = frozenset(_subset(data, universe))
    assert _outcome(lambda: _listing(Candidates(universe, proposals))) \
        == _outcome(lambda: _listing(reference.Candidates(universe, proposals)))


def test_one_question_levels_list_singletons_in_id_order():
    universe = AtomUniverse([Atom(i, "q", 1) for i in ("b", "a", "c")]
                            + [Atom("x", "qx", 0)])
    proposals = fs("c", "a", "b", "x")
    assert list(Candidates(universe, proposals)) \
        == list(reference.Candidates(universe, proposals)) \
        == [fs("x"), fs("a"), fs("b"), fs("c")]


def test_ids_at_or_below_built_per_level_on_first_use():
    universe = AtomUniverse([Atom("a", "qa", 0), Atom("b", "qb", 3),
                             Atom("c", "qc", 1000)])
    assert level_restrict(fs("a", "b", "c"), 3, universe) == fs("a", "b")
    assert level_restrict(fs("a", "c"), 0, universe) == fs("a")
    assert dict(universe.ids_at_or_below) == {3: fs("a", "b"), 0: fs("a")}


def test_tables_hold_no_reference_to_the_universe():
    # reference counting alone frees a universe whose tables are built
    gc.disable()
    try:
        universe = AtomUniverse([Atom("a", "qa", 0), Atom("b", "qb", 1)])
        apply_step(universe, fs("b"), fs("a"))
        list(Candidates(universe, fs("a", "b")))
        assert universe.ids_at_or_below and universe.question_of
        ref = weakref.ref(universe)
        del universe
        assert ref() is None
    finally:
        gc.enable()
