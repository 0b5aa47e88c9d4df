"""`load_instance` checks the ids a clean rule reads by table lookups.

Every atom and question a condition reads must exist and, in a truth
rule, lie below the rule's own level.  On a rule that passes, the check
is one dict lookup per id (`AtomUniverse.known_below`); the ordered
search through `AtomUniverse.level_of` and `question_level`, which names
the first fault, runs only for a rule that fails it.  The counting guard
checks that cost: loading a clean document enters `question_level` never
and looks up `level_of[...]` at most once per truth rule, for the rule's
own level.
"""

from collections import Counter

import pytest

from kspace.core import AtomUniverse, _ById
from kspace.instances import (
    LevelMaskViolation,
    UnknownReference,
    builtin_t3,
    gen_cascade,
    gen_random,
    load_instance,
)

from test_acceptance import _fuzz_params

_CLEAN = {"t3": builtin_t3(),
          **{f"cascade:{k},{w},{s}": gen_cascade(k, w, s)
             for k, w, s in [(1, 1, 0), (6, 2, 0), (8, 3, 0), (4, 2, 1), (21, 3, 2)]},
          **{f"random:{seed}": gen_random(*_fuzz_params(seed), seed)
             for seed in range(200)}}


class _CountedById(_ById):
    """An id table that counts the ids it is indexed with."""

    __slots__ = ("counter",)

    def __getitem__(self, ref):
        self.counter[ref] += 1
        return super().__getitem__(ref)


@pytest.fixture
def lookups(monkeypatch):
    """The ids `AtomUniverse.level_of[...]` and `question_level` are
    entered with."""
    calls = {"level": Counter(), "question_level": Counter()}
    original_init = AtomUniverse.__init__
    original_question_level = AtomUniverse.question_level

    def counted_init(self, atoms):
        original_init(self, atoms)
        level_of = _CountedById(self.level_of)
        level_of.counter = calls["level"]
        self.level_of = level_of

    def counted_question_level(self, ref):
        calls["question_level"][ref] += 1
        return original_question_level(self, ref)
    monkeypatch.setattr(AtomUniverse, "__init__", counted_init)
    monkeypatch.setattr(AtomUniverse, "question_level", counted_question_level)
    return calls


@pytest.mark.parametrize("doc", _CLEAN.values(), ids=_CLEAN.keys())
def test_clean_document_reads_checked_by_lookups(doc, lookups):
    assert doc.initial == []
    load_instance(doc)
    assert not lookups["question_level"]
    truth_rules = Counter(rule["atom"] for rule in doc.truth_rules)
    assert not lookups["level"] - truth_rules


@pytest.mark.parametrize("edit, error, message", [
    (lambda d: d.truth_rules[1].update(condition={"answered": "q2"}),
     LevelMaskViolation,
     "truth rule for 'b1' references question 'q2' at level 2, "
     "at or above its own level 1"),
    (lambda d: d.realizer_rules[2].update(condition={"present": "ghost"}),
     UnknownReference, "realizer rule 2 references unknown atom 'ghost'"),
])
def test_bad_read_still_raises(edit, error, message, lookups):
    doc = builtin_t3()
    edit(doc)
    with pytest.raises(error) as info:
        load_instance(doc)
    assert str(info.value) == message
