"""Compiled conditions against the reference interpreter: identical truth
values, raw proposals and `realize` results at every reachable state."""

import pytest
from hypothesis import given, settings, strategies as st

from kspace.core import Atom, AtomUniverse
from kspace.engine import explore_tree
from kspace.instances import (
    InstanceDoc,
    builtin_t3,
    compile_expr,
    eval_expr,
    gen_cascade,
    gen_random,
    load_instance,
)
from kspace.oracle import MaskViolation, StateView, realize, truth

import reference_conditions
from reference_conditions import reference_realizer, reference_valuation
from test_acceptance import _fuzz_params

CASES = [("t3", builtin_t3(), {})]
CASES += [(f"cascade:{k},{w},{s}", gen_cascade(k, w, s), {})
          for k in range(1, 5) for w in (1, 2) for s in range(3)]
CASES += [(f"fuzz:{seed}", gen_random(*_fuzz_params(seed), seed),
           {"fuel_depth": 10 * (_fuzz_params(seed)[0] + 1), "max_nodes": 300_000})
          for seed in range(200)]


@pytest.mark.parametrize("doc,budget", [(doc, budget) for _, doc, budget in CASES],
                         ids=[name for name, _, _ in CASES])
def test_matches_reference(doc, budget):
    inst = load_instance(doc)
    universe = inst.universe
    ref_v = reference_valuation(universe, doc)
    ref_r = reference_realizer(universe, doc)
    tree = explore_tree(inst.initial, inst.realizer, inst.valuation,
                        check_lemmas=False, **budget)
    ref_tree = explore_tree(inst.initial, ref_r, ref_v, check_lemmas=False, **budget)
    assert list(tree.parent) == list(ref_tree.parent)
    for state in tree.parent:
        for atom in universe.atoms():
            assert truth(inst.valuation, atom.id, state) is truth(ref_v, atom.id, state)
        view = StateView(universe, state)
        assert inst.realizer.propose(view) == ref_r.propose(view)
        assert realize(inst.realizer, inst.valuation, state) == realize(ref_r, ref_v, state)


def test_depth_bound_rejects_no_generated_document():
    docs = [doc for _, doc, _ in CASES]
    docs += [gen_random(64, 16, 256, seed) for seed in range(20)]
    for doc in docs:
        again = InstanceDoc.from_json(doc.to_json())
        load_instance(again)
        assert again == doc


def _leaves(expr):
    """(key, id) of every "present" and "answered" leaf of a condition."""
    ((key, value),) = expr.items()
    if key in ("present", "answered"):
        yield key, value
    elif key == "not":
        yield from _leaves(value)
    elif key in ("and", "or"):
        for sub in value:
            yield from _leaves(sub)


# a fixed universe: three levels, shared and single-atom questions
_ATOMS = [Atom("a", "qa", 0), Atom("a'", "qa", 0), Atom("b", "qb", 0),
          Atom("c", "qc", 1), Atom("c'", "qc", 1), Atom("d", "qd", 2)]
_UNIVERSE = AtomUniverse(_ATOMS)


def _conditions():
    leaves = st.one_of(
        st.builds(lambda v: {"const": v}, st.booleans()),
        st.builds(lambda a: {"present": a}, st.sampled_from([a.id for a in _ATOMS])),
        st.builds(lambda q: {"answered": q},
                  st.sampled_from(sorted({a.question for a in _ATOMS}))))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(lambda c: {"not": c}, sub),
        st.builds(lambda cs: {"and": cs}, st.lists(sub, max_size=4)),
        st.builds(lambda cs: {"or": cs}, st.lists(sub, max_size=4))),
        max_leaves=20)


def _states():
    # at most one atom per question
    by_question = {}
    for atom in _ATOMS:
        by_question.setdefault(atom.question, []).append(atom.id)
    return st.tuples(*[st.sampled_from([None] + ids)
                       for ids in by_question.values()]).map(
        lambda picked: frozenset(a for a in picked if a is not None))


def _outcome(evaluate):
    try:
        return evaluate()
    except MaskViolation:
        return MaskViolation


@settings(max_examples=300, deadline=None)
@given(_conditions(), _states(), st.sampled_from([None, 0, 1, 2, 3]))
def test_random_condition_matches_reference(expr, state, cap):
    atoms, questions = set(), set()
    cond = compile_expr(expr, atoms, questions)
    leaves = set(_leaves(expr))
    assert atoms == {ref for key, ref in leaves if key == "present"}
    assert questions == {ref for key, ref in leaves if key == "answered"}
    # same value, or the same mask violation from the same first query
    view = StateView(_UNIVERSE, state, level_cap=cap)
    assert _outcome(lambda: eval_expr(cond, view)) \
        is _outcome(lambda: reference_conditions.eval_expr(expr, view))
