import json

import pytest
from hypothesis import given, settings, strategies as st

from kspace.engine import STRATEGY_NAMES, explore_tree, make_strategy, run
from kspace.instances import (
    DuplicateTruthRule,
    InstanceDoc,
    InstanceError,
    LevelMaskViolation,
    SchemaError,
    UnknownReference,
    UnsoundInitial,
    builtin_argmin,
    builtin_t3,
    gen_cascade,
    gen_random,
    load_instance,
)
from kspace.oracle import check_level_mask, is_sound, realize

from conftest import fs


class TestLoadInstance:
    def test_t3_loads(self):
        inst = load_instance(builtin_t3())
        assert inst.initial == fs()
        assert len(inst.universe) == 4

    def test_mask_violation(self):
        doc = InstanceDoc(
            atoms=[{"id": "lo", "question": "ql", "level": 1},
                   {"id": "hi", "question": "qh", "level": 2}],
            truth_rules=[{"atom": "lo", "condition": {"present": "hi"}}],
            realizer_rules=[],
            initial=[])
        with pytest.raises(LevelMaskViolation):
            load_instance(doc)

    def test_unsound_initial(self):
        doc = builtin_t3()
        doc.initial = ["a0", "b1"]
        with pytest.raises(UnsoundInitial):
            load_instance(doc)

    def test_duplicate_truth_rule(self):
        doc = builtin_t3()
        doc.truth_rules.append({"atom": "a0", "condition": {"const": False}})
        with pytest.raises(DuplicateTruthRule):
            load_instance(doc)

    def test_unknown_reference(self):
        doc = builtin_t3()
        doc.realizer_rules[0]["propose"] = ["ghost"]
        with pytest.raises(UnknownReference):
            load_instance(doc)

    def test_initial_must_be_a_state(self):
        doc = builtin_t3()
        doc.initial = ["b1", "b1'"]
        with pytest.raises(SchemaError):
            load_instance(doc)


class TestDocSchema:
    def test_roundtrip(self):
        doc = builtin_t3()
        again = InstanceDoc.from_json(doc.to_json())
        assert again == doc

    def test_unknown_top_level_key(self):
        import json
        data = json.loads(builtin_t3().to_json())
        data["extra"] = 1
        with pytest.raises(SchemaError):
            InstanceDoc.from_dict(data)

    def test_unknown_condition_key(self):
        doc = builtin_t3()
        doc.truth_rules[0]["condition"] = {"xor": []}
        with pytest.raises(SchemaError):
            load_instance(InstanceDoc.from_json(doc.to_json()))

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            InstanceDoc.from_json("{nope")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["a", "b", "q", "present", "and"]),
    lambda sub: st.lists(sub, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "not", "const", "id"]), sub, max_size=2),
    max_leaves=8)
_IDS = st.sampled_from(["a", "b", "c"])


def _or_any(strategy):
    """A well-formed value, or one time in ten any JSON value instead."""
    return st.integers(0, 9).flatmap(lambda i: _JSON if i == 0 else strategy)


_CONDITIONS = st.recursive(
    _or_any(st.one_of(st.fixed_dictionaries({"const": st.booleans()}),
                      st.fixed_dictionaries({"present": _IDS}),
                      st.fixed_dictionaries({"answered": st.sampled_from(["q0", "q1"])}))),
    lambda sub: _or_any(st.one_of(st.fixed_dictionaries({"not": sub}),
                                  st.fixed_dictionaries({"and": st.lists(sub, max_size=3)}),
                                  st.fixed_dictionaries({"or": st.lists(sub, max_size=3)}))),
    max_leaves=6)


def _document_fields(conditions):
    """A strategy per document field, each field mostly well-formed."""
    return {
        "atoms": _or_any(st.lists(_or_any(st.fixed_dictionaries(
            {"id": _or_any(_IDS), "question": _or_any(st.sampled_from(["q0", "q1"])),
             "level": _or_any(st.integers(-1, 2))},
            optional={"label": _or_any(st.just("text"))})), max_size=4)),
        "truth_rules": _or_any(st.lists(_or_any(st.fixed_dictionaries(
            {"atom": _or_any(_IDS), "condition": conditions})), max_size=3)),
        "realizer_rules": _or_any(st.lists(_or_any(st.fixed_dictionaries(
            {"condition": conditions,
             "propose": _or_any(st.lists(_or_any(_IDS), max_size=2))})),
            max_size=3)),
        "initial": _or_any(st.lists(_or_any(_IDS), max_size=2)),
    }


_DOCUMENTS = st.fixed_dictionaries(_document_fields(_CONDITIONS))


@settings(max_examples=300, deadline=None)
@given(_or_any(_DOCUMENTS))
def test_any_json_value_loads_or_raises_instance_error(data):
    try:
        load_instance(InstanceDoc.from_dict(json.loads(json.dumps(data))))
    except InstanceError:
        pass


# documents built in Python, which reach `load_instance` without `from_dict`:
# any field, and any node of a condition, may be any JSON value
_ANY_CONDITION = _CONDITIONS | st.dictionaries(
    st.sampled_from(["const", "present", "answered", "not", "and", "or"]),
    _JSON, min_size=1, max_size=2)
_PYTHON_DOCUMENTS = st.builds(InstanceDoc, **_document_fields(_ANY_CONDITION))


@settings(max_examples=300, deadline=None)
@given(_PYTHON_DOCUMENTS)
def test_python_built_document_loads_or_raises_instance_error(doc):
    try:
        load_instance(doc)
    except InstanceError:
        pass


def _t3_with(edit):
    doc = builtin_t3()
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, message", [
    (_t3_with(lambda d: setattr(d, "atoms", [1])), "bad atom entry"),
    (_t3_with(lambda d: setattr(d, "initial", [["a0"]])), "initial must be a list"),
    (_t3_with(lambda d: d.truth_rules[0].update(atom=["a0"])),
     "truth rule atom must be an id string"),
    (_t3_with(lambda d: d.atoms[0].update(level="0")), "atom level must be an integer"),
    (_t3_with(lambda d: d.realizer_rules.__setitem__(0, ["x"])), "bad realizer rule"),
    (_t3_with(lambda d: d.realizer_rules[0].update(propose="a0")),
     "propose must be a list"),
    # "a0" read as a list of characters would propose atoms "a" and "0"
    (_t3_with(lambda d: (d.atoms.extend([{"id": "a", "question": "qa", "level": 0},
                                         {"id": "0", "question": "q_0", "level": 0}]),
                         d.realizer_rules[0].update(propose="a0"))),
     "propose must be a list"),
    (_t3_with(lambda d: setattr(d, "truth_rules", {"atom": "a0"})),
     "truth_rules must be a list"),
])
def test_python_built_bad_field_is_a_schema_error(doc, message):
    with pytest.raises(SchemaError, match=message):
        load_instance(doc)


@pytest.mark.parametrize("condition, message", [
    ({"and": "xy"}, "and takes a list"),
    (["x"], "single-key object"),
    ({"not": None}, "single-key object"),
    ({"present": ["a0"]}, "present takes an id string"),
])
def test_python_built_bad_condition_is_a_schema_error(condition, message):
    doc = builtin_t3()
    doc.realizer_rules[0]["condition"] = condition
    with pytest.raises(SchemaError, match=message):
        load_instance(doc)


class TestT3Dynamics:
    def test_unique_normal_form(self):
        inst = load_instance(builtin_t3())
        tree = explore_tree(fs(), inst.realizer, inst.valuation)
        assert tree.normal_forms == {fs("a0", "b1'", "c2")}

    def test_every_visited_state_is_sound(self):
        inst = load_instance(builtin_t3())
        tree = explore_tree(fs(), inst.realizer, inst.valuation)
        for state in tree.states:
            assert is_sound(inst.valuation, state)

    def test_level_mask_holds_everywhere(self):
        inst = load_instance(builtin_t3())
        tree = explore_tree(fs(), inst.realizer, inst.valuation)
        for state in tree.states:
            for atom in inst.universe.atoms():
                assert check_level_mask(inst.valuation, atom.id, state)


class TestArgmin:
    def test_every_strategy_finds_the_minimum(self):
        points = [5, 3, 7, 3, 9]
        inst = builtin_argmin(points)
        for name in STRATEGY_NAMES:
            _, final = run(inst.initial, inst.realizer, inst.valuation,
                           make_strategy(name, seed=2), 64)
            assert points[inst.witness(final)] == min(points)

    def test_single_point(self):
        inst = builtin_argmin([0])
        trace, final = run(inst.initial, inst.realizer, inst.valuation,
                           make_strategy("lowest-level-first"), 64)
        assert inst.witness(final) == 0
        assert len(trace) <= 2

    def test_descending_values_revise_repeatedly(self):
        points = [3, 2, 1, 0]
        inst = builtin_argmin(points)
        trace, final = run(inst.initial, inst.realizer, inst.valuation,
                           make_strategy("lowest-level-first"), 64)
        erasures = sum(1 for e in trace if e.level == 0 and e.source
                       and any(inst.universe.atom(a).level == 1
                               for a in e.source - e.target))
        # strict prefix minima after the initial guess: 2, 1, 0
        assert erasures == 3
        assert inst.witness(final) == 3


class TestCascade:
    def test_minimal_shape(self):
        doc = gen_cascade(1, 1, 0)
        inst = load_instance(doc)
        ids = {a.id for a in inst.universe.atoms()}
        assert ids == {"base", "right1", "wrong1_0"}
        assert inst.universe.max_level() == 1

    def test_stats_are_seed_independent(self):
        stats = set()
        for seed in (0, 1, 42):
            inst = load_instance(gen_cascade(2, 2, seed))
            tree = explore_tree(fs(), inst.realizer, inst.valuation)
            stats.add((tree.node_count, tree.edge_count, tree.max_depth,
                       tree.distinct_state_count))
        assert len(stats) == 1

    def test_regression_stats(self):
        # frozen from exhaustive exploration; the explorer is the oracle
        expected = {
            (1, 1): (6, 5, 3, 4),
            (2, 1): (16, 15, 5, 6),
            (2, 2): (36, 35, 5, 8),
            (4, 2): (486, 485, 9, 14),
        }
        for (depth, width), values in expected.items():
            inst = load_instance(gen_cascade(depth, width, 0))
            tree = explore_tree(fs(), inst.realizer, inst.valuation)
            assert (tree.node_count, tree.edge_count, tree.max_depth,
                    tree.distinct_state_count) == values
            assert len(tree.normal_forms) == 1
            assert tree.check_failures == []


class TestGenRandom:
    def test_deterministic_in_seed(self):
        assert gen_random(10, 3, 8, 5) == gen_random(10, 3, 8, 5)
        assert gen_random(10, 3, 8, 5) != gen_random(10, 3, 8, 6)

    def test_every_doc_loads(self):
        for seed in range(30):
            load_instance(gen_random(12, 4, 10, seed))

    def test_lint_clean_by_construction(self):
        for seed in range(20):
            inst = load_instance(gen_random(10, 3, 10, seed))
            tree = explore_tree(fs(), inst.realizer, inst.valuation,
                                check_lemmas=False)
            for state in tree.states:
                realize(inst.realizer, inst.valuation, state, mode="strict")

    def test_parameter_caps(self):
        from kspace.instances import InstanceError
        with pytest.raises(InstanceError):
            gen_random(1000, 3, 10, 0)
