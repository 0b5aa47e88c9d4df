"""A state view answers each question once, and each step's level is
computed once.

`StateView.answered` memoizes per view; the property checks that the
memo never changes an answer, a mask violation or an unknown question.
The counting guards check the cost: `core.query` is entered at most once
per (view, question), and `homogeneous_level` once per step or edge, by
`apply_step`, the one place a step is checked and its level computed.
"""

import inspect
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import kspace.engine
import kspace.oracle
from kspace.core import UnknownQuestion, query
from kspace.engine import STRATEGY_NAMES, explore_tree, make_strategy, run
from kspace.instances import builtin_t3, gen_cascade, gen_random, load_instance
from kspace.oracle import MaskViolation, StateView

from conftest import edges_of


@st.composite
def _view_cases(draw):
    """A gen_random universe, a valid state in it and a level cap from
    None to one above the top level."""
    n_atoms = draw(st.integers(1, 24))
    max_level = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 10**6))
    universe = load_instance(gen_random(n_atoms, max_level, 0, seed)).universe
    # at most one atom per question
    state = frozenset(
        atom_id for ids in universe.question_index.values()
        for atom_id in [draw(st.sampled_from(sorted(ids) + [None]))]
        if atom_id is not None)
    cap = draw(st.none() | st.integers(0, universe.max_level() + 1))
    return universe, state, cap


@settings(max_examples=200, deadline=None)
@given(_view_cases())
def test_answered_twice_matches_query(case):
    universe, state, cap = case
    view = StateView(universe, state, level_cap=cap)
    for question in sorted(universe.question_index):
        for _ in range(2):
            if cap is not None and universe.question_level(question) >= cap:
                with pytest.raises(MaskViolation):
                    view.answered(question)
            else:
                assert view.answered(question) == bool(
                    query(question, state, universe))
    for _ in range(2):
        with pytest.raises(UnknownQuestion):
            view.answered("no such question")


@pytest.fixture
def query_calls(monkeypatch):
    """(view, question) -> the number of `core.query` calls made for it.
    The views are kept alive, so that no two share an id."""
    calls: Counter = Counter()
    views = []
    original = kspace.oracle.query

    def counted(question, members, universe):
        # the caller is StateView.query
        view = inspect.currentframe().f_back.f_locals["self"]
        views.append(view)
        calls[id(view), question] += 1
        return original(question, members, universe)
    monkeypatch.setattr(kspace.oracle, "query", counted)
    return calls


_DOCS = {"t3": builtin_t3(), "cascade:6,2,0": gen_cascade(6, 2, 0),
         "cascade:4,2,1": gen_cascade(4, 2, 1),
         **{f"random:12,3,10,{seed}": gen_random(12, 3, 10, seed)
            for seed in range(8)}}


@pytest.mark.parametrize("doc", _DOCS.values(), ids=_DOCS.keys())
def test_query_entered_once_per_view_and_question(doc, query_calls):
    inst = load_instance(doc)
    explore_tree(inst.initial, inst.realizer, inst.valuation)
    for name in STRATEGY_NAMES:
        run(inst.initial, inst.realizer, inst.valuation,
            make_strategy(name, seed=1), fuel=100)
    assert query_calls
    assert max(query_calls.values()) == 1


@pytest.fixture
def level_calls(monkeypatch):
    calls = []
    original = kspace.engine.homogeneous_level

    def counted(members, universe):
        calls.append(members)
        return original(members, universe)
    monkeypatch.setattr(kspace.engine, "homogeneous_level", counted)
    return calls


def test_homogeneous_level_once_per_explored_edge(level_calls):
    inst = load_instance(gen_cascade(6, 2, 0))
    tree = explore_tree(inst.initial, inst.realizer, inst.valuation)
    assert edges_of(tree)
    assert len(level_calls) == len(edges_of(tree))


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_homogeneous_level_once_per_run_step(name, level_calls):
    inst = load_instance(gen_cascade(4, 2, 0))
    trace, _ = run(inst.initial, inst.realizer, inst.valuation,
                   make_strategy(name, seed=1), fuel=100)
    assert trace
    assert len(level_calls) == len(trace)
