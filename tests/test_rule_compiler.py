"""The realizer rule compiler (`compile_rule`) against `compile_expr` and
the reference interpreter: for any condition, well formed or not, the
same first SchemaError and the same atom and question read sets, and for
any well-formed condition over the universe, the same verdict in
`_rule_realizer`'s `propose` on any state, ids outside the universe
included."""

import json

from hypothesis import given, settings, strategies as st

from kspace.instances import (
    MAX_CONDITION_DEPTH,
    InstanceDoc,
    SchemaError,
    _rule_realizer,
    compile_expr,
    compile_rule,
    eval_expr,
    load_instance,
)
from kspace.oracle import StateView

import reference_documents
import reference_conditions
from test_condition_differential import _ATOMS, _UNIVERSE
from test_document_differential import _outcome

_ATOM_IDS = [atom_id for atom_id, _, _ in _ATOMS]
_QUESTIONS = sorted({question for _, question, _ in _ATOMS})
# malformed nodes, each rejected by `compile_expr`
_MALFORMED = [{"answered": 5}, {"present": None}, {"present": ["a"]},
              {"const": 1}, {"absent": "a"}, {}, "a", 5, None,
              {"answered": "qa", "present": "a"}, {"and": 3}, {"or": {"a": 1}},
              {"not": []}, {"not": {"answered": 5}}, {"not": {}}]


def _conditions(known_only: bool):
    """Conditions over the universe's ids; unless `known_only`, also over
    unknown and cross-table ids, with malformed nodes."""
    atom_ids, questions = _ATOM_IDS, _QUESTIONS
    if not known_only:
        atom_ids = atom_ids + ["ghost", "qa"]
        questions = questions + ["ghost", "a"]
    leaves = [st.builds(lambda v: {"const": v}, st.booleans()),
              st.builds(lambda a: {"present": a}, st.sampled_from(atom_ids)),
              st.builds(lambda q: {"answered": q}, st.sampled_from(questions))]
    if not known_only:
        leaves.append(st.sampled_from(_MALFORMED))
    return st.recursive(st.one_of(leaves), lambda sub: st.one_of(
        st.builds(lambda c: {"not": c}, sub),
        st.builds(lambda cs: {"and": cs}, st.lists(sub, max_size=5)),
        st.builds(lambda cs: {"or": cs}, st.lists(sub, max_size=4))),
        max_leaves=16)


def _deep(expr, depth: int, key: str):
    """`expr` as the node at `depth`, under one-part "and"s or "not"s."""
    for _ in range(depth - 1):
        expr = {"not": expr} if key == "not" else {"and": [expr]}
    return expr


def _any_condition(known_only: bool):
    """A condition, possibly nested near the depth bound, whole or as the
    last part of a top-level "and"."""
    base = _conditions(known_only)
    # well-formed conditions mostly within the bound, the others across it
    top = MAX_CONDITION_DEPTH - 1 if known_only else MAX_CONDITION_DEPTH + 1
    deep = st.builds(_deep, base, st.integers(top - 4, top),
                     st.sampled_from(["and", "not"]))
    return st.one_of(
        base, deep,
        st.builds(lambda parts, last: {"and": parts + [last]},
                  st.lists(base, max_size=4), deep))


def _compiled(compile_fn, expr):
    """The compiled condition, or the SchemaError message, and the read
    sets filled up to that point."""
    atoms, questions = set(), set()
    try:
        result = compile_fn(expr, atoms, questions)
    except SchemaError as exc:
        result = str(exc)
    return result, atoms, questions


@settings(max_examples=400, deadline=None)
@given(_any_condition(known_only=False))
def test_compiles_and_loads_as_compile_expr(expr):
    rule, atoms, questions = _compiled(compile_rule, expr)
    cond, cond_atoms, cond_questions = _compiled(compile_expr, expr)
    assert isinstance(rule, str) == isinstance(cond, str)
    if isinstance(rule, str):
        assert rule == cond
    assert (atoms, questions) == (cond_atoms, cond_questions)
    # in a document: the same first error, or the same instance
    text = json.dumps({
        "atoms": [{"id": atom_id, "question": question, "level": level}
                  for atom_id, question, level in _ATOMS],
        "truth_rules": [{"atom": "a", "condition": {"const": True}}],
        "realizer_rules": [{"condition": {"const": True}, "propose": ["a"]},
                           {"condition": expr, "propose": ["a"]}],
        "initial": []})
    assert _outcome(lambda: load_instance(InstanceDoc.from_dict(json.loads(text)))) \
        == _outcome(lambda: reference_documents.load_instance(
            reference_documents.from_dict(json.loads(text))))


# members a state may hold beyond the universe's atoms: an unknown id, a
# question id, and an id of another type
_STATES = st.frozensets(st.sampled_from(_ATOM_IDS + ["ghost", "qa", 7]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_any_condition(known_only=True), min_size=1, max_size=6)
       .filter(lambda exprs: all(not isinstance(_compiled(compile_expr, e)[0], str)
                                 for e in exprs)),
       st.lists(_STATES, min_size=1, max_size=6))
def test_propose_matches_reference(exprs, states):
    rules = []
    for i, expr in enumerate(exprs):
        atoms, questions = set(), set()
        rules.append((compile_rule(expr, atoms, questions), [f"r{i}"],
                      atoms, questions))
    realizer = _rule_realizer(_UNIVERSE, rules)
    for state in states:
        expected = set()
        for i, expr in enumerate(exprs):
            verdict = reference_conditions.eval_expr(expr, StateView(_UNIVERSE, state))
            cond = _compiled(compile_expr, expr)[0]
            assert eval_expr(cond, StateView(_UNIVERSE, state)) is verdict
            if verdict:
                expected.add(f"r{i}")
        # the realizer keeps its verdicts from the last state realized
        assert realizer.propose(StateView(_UNIVERSE, state)) == expected, sorted(
            state, key=str)


def _partition(expr):
    """`compile_rule`'s partition by its definition: the parts of a
    top-level "and", or the condition itself, that are well-formed
    `answered`/`present` leaves or the negation of one, as
    {(key, negated): ids}, and the other parts in document order."""
    parts = [expr]
    if isinstance(expr, dict) and list(expr) == ["and"] and isinstance(expr["and"], list):
        parts = expr["and"]
    sets = {(key, negated): set() for key in ("answered", "present")
            for negated in (False, True)}
    rest = []
    for part in parts:
        leaf, negated = part, False
        if isinstance(part, dict) and list(part) == ["not"] and isinstance(part["not"], dict):
            leaf, negated = part["not"], True
        if isinstance(leaf, dict) and len(leaf) == 1:
            ((key, ref),) = leaf.items()
            if key in ("answered", "present") and isinstance(ref, str):
                sets[key, negated].add(ref)
                continue
        rest.append(part)
    return sets, rest


@settings(max_examples=400, deadline=None)
@given(_any_condition(known_only=True)
       .filter(lambda expr: not isinstance(_compiled(compile_expr, expr)[0], str)))
def test_partition_is_the_top_level_leaves_and_the_other_parts_in_order(expr):
    answered, open_, present, absent, rest = compile_rule(expr, set(), set())
    sets, parts = _partition(expr)
    assert answered == sets["answered", False] and open_ == sets["answered", True]
    assert present == sets["present", False] and absent == sets["present", True]
    depth = 1 if parts == [expr] else 2
    assert rest == [compile_expr(part, set(), set(), depth) for part in parts]
