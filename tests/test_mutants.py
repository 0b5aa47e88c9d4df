"""The table of `tests/mutants.py`, the hand-mutant runner: each mutant's
snippet occurs exactly once in its file and differs from its replacement,
and each test it names is defined in the file it names."""

import re

import pytest

import mutants


def test_names_are_unique():
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_snippet_occurs_once_and_its_tests_exist(mutant):
    text = (mutants.ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        source = (mutants.ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {name}\b", source, re.M), test
