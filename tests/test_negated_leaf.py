"""A negated "answered" or "present" leaf, which `compile_expr` compiles
into one node, against the reference loader and interpreter: each form
loads or fails as `reference_documents.load_instance` does, and evaluates
as `reference_conditions.eval_expr` does."""

import itertools
import json

import pytest

from kspace.core import KspaceError
from kspace.instances import (
    MAX_CONDITION_DEPTH,
    InstanceDoc,
    compile_expr,
    eval_expr,
    load_instance,
)
from kspace.oracle import StateView, realize, truth

import reference_documents
import reference_conditions
from reference_conditions import reference_realizer, reference_valuation
from test_document_differential import _base_document, _outcome

# leaf key -> a level-0 id it may read, an unknown id, and an id the
# other table holds
_REFS = {"answered": ("q0", "ghost", "a0"), "present": ("a0", "ghost", "q0")}

_LEAVES = [{key: ref} for key, refs in _REFS.items() for ref in refs]
# malformed leaves, each of which the general case rejects
_LEAVES += [{key: bad} for key in _REFS for bad in (5, None, ["a0"])]
_LEAVES += [{"answered": "q0", "present": "a0"}, {}, "q0", {"absent": "a0"}]


def _nested(expr, depth):
    """`expr` as the node at `depth`, under depth-1 one-element "and"s."""
    for _ in range(depth - 1):
        expr = {"and": [expr]}
    return expr


_CASES = [(leaf, depth) for leaf in _LEAVES
          for depth in (1, 2, MAX_CONDITION_DEPTH - 1, MAX_CONDITION_DEPTH)]


def _ids(case):
    leaf, depth = case
    return f"{json.dumps(leaf)}@{depth}"


def _states(universe):
    """Every state of the universe: at most one atom per question."""
    by_question = {}
    for atom in universe.atoms():
        by_question.setdefault(atom.question, []).append(atom.id)
    for picked in itertools.product(*[[None] + ids for ids in by_question.values()]):
        yield frozenset(a for a in picked if a is not None)


def _evaluated(evaluate):
    try:
        return evaluate()
    except KspaceError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", _CASES, ids=map(_ids, _CASES))
@pytest.mark.parametrize("field, index", [("truth_rules", 0),
                                          ("realizer_rules", 1)])
def test_negated_leaf_loads_and_evaluates_as_reference(case, field, index):
    leaf, depth = case
    data = _base_document()
    rule = data[field][index]
    # the negation at `depth`, beside the rule's own condition if there is room
    rule["condition"] = {"not": leaf} if depth == 1 else _nested(
        {"and": [rule["condition"], {"not": leaf}]}, depth - 1)
    text = json.dumps(data)
    new = _outcome(lambda: load_instance(InstanceDoc.from_dict(json.loads(text))))
    old = _outcome(lambda: reference_documents.load_instance(
        reference_documents.from_dict(json.loads(text))))
    assert new == old
    if isinstance(new[0], type):
        return
    doc = InstanceDoc.from_dict(json.loads(text))
    inst = load_instance(doc)
    universe = inst.universe
    ref_v = reference_valuation(universe, doc)
    ref_r = reference_realizer(universe, doc)
    for state in _states(universe):
        for atom in universe.atoms():
            assert truth(inst.valuation, atom.id, state) is truth(ref_v, atom.id, state)
        assert realize(inst.realizer, inst.valuation, state) \
            == realize(ref_r, ref_v, state)


@pytest.mark.parametrize("case", [(leaf, depth) for leaf, depth in _CASES
                                  if depth < MAX_CONDITION_DEPTH],
                         ids=_ids)
def test_compiled_negated_leaf_evaluates_as_reference(case):
    leaf, depth = case
    expr = _nested({"not": leaf}, depth)
    inst = load_instance(InstanceDoc.from_dict(_base_document()))
    universe = inst.universe
    atoms, questions = set(), set()
    try:
        cond = compile_expr(expr, atoms, questions)
    except KspaceError:
        # malformed: the document test above compares the error
        return
    ref_atoms, ref_questions = set(), set()
    reference_documents.compile_expr(expr, ref_atoms, ref_questions)
    assert (atoms, questions) == (ref_atoms, ref_questions)
    for state in _states(universe):
        for cap in (None, 0, 1, 2, 3):
            view = StateView(universe, state, level_cap=cap)
            assert _evaluated(lambda: eval_expr(cond, view)) \
                == _evaluated(lambda: reference_conditions.eval_expr(expr, view))
