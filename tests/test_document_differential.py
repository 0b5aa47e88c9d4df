"""Checking each document once, in `load_instance`, against the former two
passes (`from_dict`'s field checks and condition walk, then `load_instance`'s
own): the same first error, or the same accepted instance."""

import json

import pytest
from hypothesis import given, settings

from kspace.instances import InstanceDoc, InstanceError, load_instance

import reference_documents as reference
from test_instances import _DOCUMENTS, _PYTHON_DOCUMENTS, _or_any


def _outcome(load):
    """The exception class and message a load raises, or a summary of the
    instance it returns."""
    try:
        inst = load()
    except InstanceError as exc:
        return type(exc), str(exc)
    return (inst.universe.atoms(), inst.initial,
            inst.truth_rule_count, inst.realizer_rule_count)


@settings(max_examples=2000, deadline=None)
@given(_or_any(_DOCUMENTS))
def test_json_value_matches_reference(data):
    text = json.dumps(data)
    assert _outcome(lambda: load_instance(InstanceDoc.from_dict(json.loads(text)))) \
        == _outcome(lambda: reference.load_instance(reference.from_dict(json.loads(text))))


@settings(max_examples=300, deadline=None)
@given(_PYTHON_DOCUMENTS)
def test_python_built_document_accepted_iff_reference_accepts(doc):
    new = _outcome(lambda: load_instance(doc))
    old = _outcome(lambda: reference.load_instance(doc))
    # with two or more faults, the first one named may differ
    both_raise = isinstance(new[0], type) and isinstance(old[0], type)
    assert both_raise or new == old


def _base_document():
    """Levels 0-2; truth rules and realizer rules that read only what
    they may.  The first and third truth rules are both at level 1."""
    return {
        "atoms": [{"id": "a0", "question": "q0", "level": 0},
                  {"id": "b1", "question": "q1", "level": 1},
                  {"id": "d1", "question": "qd", "level": 1},
                  {"id": "c2", "question": "q2", "level": 2}],
        "truth_rules": [{"atom": "b1", "condition": {"present": "a0"}},
                        {"atom": "a0", "condition": {"const": True}},
                        {"atom": "d1", "condition": {"answered": "q0"}},
                        {"atom": "c2", "condition": {"present": "b1"}}],
        "realizer_rules": [
            {"condition": {"not": {"answered": "q0"}}, "propose": ["a0"]},
            {"condition": {"and": [{"present": "a0"}, {"not": {"answered": "q1"}}]},
             "propose": ["b1"]},
            {"condition": {"and": [{"present": "b1"}, {"not": {"answered": "q2"}}]},
             "propose": ["c2"]}],
        "initial": [],
    }


# reads that fail a level-1 truth rule: an unknown atom, an unknown
# question, an atom at the rule's own level, a question above it and an id
# known only in the other table
_BAD_READS = {"unknown atom": [{"present": "ghost"}],
              "unknown question": [{"answered": "ghost"}],
              "atom at own level": [{"present": "d1"}],
              "question above": [{"answered": "q2"}],
              "atom id as question": [{"answered": "a0"}],
              "question id as atom": [{"present": "q0"}],
              # the first in id order is named: atom "c2", not "zz"
              "two faults": [{"present": "zz"}, {"present": "c2"}]}


@pytest.mark.parametrize("read", _BAD_READS.values(), ids=_BAD_READS.keys())
@pytest.mark.parametrize("field, index", [
    ("truth_rules", 0), ("truth_rules", 2),
    ("realizer_rules", 0), ("realizer_rules", 2)])
def test_faulty_read_matches_reference(field, index, read):
    data = _base_document()
    rule = data[field][index]
    rule["condition"] = {"and": [rule["condition"], *read]}
    text = json.dumps(data)
    new = _outcome(lambda: load_instance(InstanceDoc.from_dict(json.loads(text))))
    old = _outcome(lambda: reference.load_instance(reference.from_dict(json.loads(text))))
    assert new == old
    # a realizer rule may read any level
    level_only = field == "realizer_rules" and read[0] in (
        {"present": "d1"}, {"answered": "q2"})
    assert isinstance(new[0], type) != level_only
