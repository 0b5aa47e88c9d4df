"""The realizer `load_instance` builds, which re-evaluates only the rules
that read an atom (or the question of an atom) that changed since the
last state it realized, against the memo-free reference realizer: the
same raw proposals and `realize` results, kept proposals and first
violation alike, whatever order the states come in."""

import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from kspace.engine import STRATEGY_NAMES, FuelExhausted, explore_tree, make_strategy, run
from kspace.instances import builtin_t3, gen_cascade, gen_random, load_instance
from kspace.oracle import MaskViolation, StateView, realize

from reference_conditions import reference_realizer
from test_acceptance import _fuzz_params
from test_strategy_differential import LAYERED, layered_doc

# (id, document, fuel for `run`, whether to explore it)
CASES = [("t3", builtin_t3(), 10, True)]
CASES += [(f"cascade:{k},{w},{s}", gen_cascade(k, w, s), 200, True)
          for k in range(1, 5) for w in (1, 2) for s in range(3)]
CASES += [(f"fuzz:{seed}", gen_random(*_fuzz_params(seed), seed),
           10 * (_fuzz_params(seed)[0] + 1), True)
          for seed in range(200)]
# thousands of candidates per state: run traces only
CASES += [(f"layered:{q},{t},{f},{s}", layered_doc(3, q, t, f, s), 1000, False)
          for q, t, f in LAYERED for s in range(2)]


def _realized(realizer, valuation, state):
    result = realize(realizer, valuation, state)
    return result, result.violation


def _assert_agrees(inst, ref, state):
    view = StateView(inst.universe, state)
    assert inst.realizer.propose(view) == ref.propose(view), sorted(state)
    assert (_realized(inst.realizer, inst.valuation, state)
            == _realized(ref, inst.valuation, state)), sorted(state)


def _trace_states(inst, ref, name, fuel):
    try:
        trace, final = run(inst.initial, ref, inst.valuation,
                           make_strategy(name, seed=1), fuel)
    except FuelExhausted as exc:
        trace, final = exc.trace, exc.final
    return [edge.source for edge in trace] + [final]


@pytest.mark.parametrize("doc, fuel, explore",
                         [(doc, fuel, explore) for _, doc, fuel, explore in CASES],
                         ids=[name for name, _, _, _ in CASES])
def test_matches_reference(doc, fuel, explore):
    inst = load_instance(doc)
    ref = reference_realizer(inst.universe, doc)
    for name in STRATEGY_NAMES:
        for state in _trace_states(inst, ref, name, fuel):
            _assert_agrees(inst, ref, state)
    if not explore:
        return
    states = list(explore_tree(inst.initial, ref, inst.valuation, check_lemmas=False,
                               fuel_depth=fuel, max_nodes=300_000).parent)
    shuffled = states.copy()
    random.Random(0).shuffle(shuffled)
    for order in (states, states[::-1], shuffled):
        for state in order:
            _assert_agrees(inst, ref, state)
            _assert_agrees(inst, ref, state)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 4), st.integers(0, 24),
       st.integers(0, 2 ** 32), st.data())
def test_any_state_sequence_matches_reference(n_atoms, max_level, n_rules, seed, data):
    doc = gen_random(n_atoms, max_level, n_rules, seed)
    inst = load_instance(doc)
    ref = reference_realizer(inst.universe, doc)
    questions = sorted(inst.universe.question_index.items())
    for _ in range(data.draw(st.integers(1, 8))):
        state = set()
        for _, ids in questions:
            # at most one atom per question: a valid state
            pick = data.draw(st.integers(0, len(ids)))
            if pick:
                state.add(sorted(ids)[pick - 1])
        _assert_agrees(inst, ref, frozenset(state))


def _t3_states():
    inst = load_instance(builtin_t3())
    return list(explore_tree(inst.initial, inst.realizer, inst.valuation).parent)


def test_masked_view_raises_and_leaves_the_memo_valid():
    doc = builtin_t3()
    states = _t3_states()
    for before in states:
        for masked in states:
            for after in states:
                inst = load_instance(doc)
                ref = reference_realizer(inst.universe, doc)
                _assert_agrees(inst, ref, before)
                with pytest.raises(MaskViolation):
                    inst.realizer.propose(StateView(inst.universe, masked, level_cap=0))
                _assert_agrees(inst, ref, after)


class _Injected(Exception):
    pass


class _FailingView(StateView):
    """An unmasked view whose queries raise after `budget` answers: a rule
    evaluation that fails partway through a call."""

    def __init__(self, universe, members, budget):
        super().__init__(universe, members)
        self.budget = budget

    def _spend(self):
        if self.budget == 0:
            raise _Injected
        self.budget -= 1

    def present(self, atom_id):
        self._spend()
        return super().present(atom_id)

    def answered(self, question):
        self._spend()
        return super().answered(question)


def _t3_read_through_the_view():
    """t3 with each realizer condition as the one part of an "or", which
    the rule compiler keeps as a condition read through the view: every
    rule the realizer evaluates queries the view, where t3's own rules are
    set tests that never do."""
    doc = builtin_t3()
    for rule in doc.realizer_rules:
        rule["condition"] = {"or": [rule["condition"]]}
    return doc


def _queries(doc, before, state):
    """The view queries a realizer that last realized `before` makes to
    realize `state`."""
    inst = load_instance(doc)
    inst.realizer.propose(StateView(inst.universe, before))
    view = _FailingView(inst.universe, state, budget=10**9)
    inst.realizer.propose(view)
    return 10**9 - view.budget


@pytest.mark.parametrize("budget", range(4))
def test_failed_evaluation_leaves_the_memo_valid(budget):
    doc = _t3_read_through_the_view()
    states = _t3_states()
    raised = 0
    for before in states:
        for failed in states:
            for after in states:
                inst = load_instance(doc)
                ref = reference_realizer(inst.universe, doc)
                _assert_agrees(inst, ref, before)
                fails = _queries(doc, before, failed) > budget
                with pytest.raises(_Injected) if fails else contextlib.nullcontext():
                    inst.realizer.propose(_FailingView(inst.universe, failed, budget))
                raised += fails
                _assert_agrees(inst, ref, after)
    assert raised
