"""Checking each document once, in `load_instance`, against the former two
passes (`from_dict`'s field checks and condition walk, then `load_instance`'s
own): the same first error, or the same accepted instance."""

import json

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
