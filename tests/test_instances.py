import json

import pytest
from hypothesis import given, settings, strategies as st

from kspace.engine import STRATEGY_NAMES, explore_tree, make_strategy, run
from kspace.instances import (
    MESSAGE_LIMIT,
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
from kspace.oracle import is_sound, realize, truth

from conftest import fs, mask_equation_holds


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


class TestInitialIsState:
    # the initial members must form a state: no two answer one question
    def load(self, initial):
        doc = builtin_t3()
        doc.initial = initial
        return load_instance(doc)

    def test_empty(self):
        assert self.load([]).initial == fs()

    def test_shared_question_rejected(self):
        with pytest.raises(SchemaError, match="answer some question twice"):
            self.load(["a0", "b1", "b1'"])

    def test_distinct_questions(self):
        assert self.load(["a0", "b1'"]).initial == fs("a0", "b1'")
        # a state, so the load goes on to the soundness check
        with pytest.raises(UnsoundInitial):
            self.load(["a0", "b1", "c2"])

    def test_unknown_atom(self):
        with pytest.raises(UnknownReference, match="'nope'"):
            self.load(["nope", "a0"])


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
# atom and question ids share one pool, so a document may name an atom and
# a question alike
_IDS = st.sampled_from(["a", "b", "c", "q0", "q1"])


def _or_any(strategy):
    """A well-formed value, or one time in ten any JSON value instead."""
    return st.integers(0, 9).flatmap(lambda i: _JSON if i == 0 else strategy)


_CONDITIONS = st.recursive(
    _or_any(st.one_of(st.fixed_dictionaries({"const": st.booleans()}),
                      st.fixed_dictionaries({"present": _IDS}),
                      st.fixed_dictionaries({"answered": _IDS}))),
    lambda sub: _or_any(st.one_of(st.fixed_dictionaries({"not": sub}),
                                  st.fixed_dictionaries({"and": st.lists(sub, max_size=3)}),
                                  st.fixed_dictionaries({"or": st.lists(sub, max_size=3)}))),
    max_leaves=6)


def _document_fields(conditions):
    """A strategy per document field, each field mostly well-formed."""
    return {
        "atoms": _or_any(st.lists(_or_any(st.fixed_dictionaries(
            {"id": _or_any(_IDS), "question": _or_any(_IDS),
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


@pytest.mark.parametrize("level", [1001, 10**4000, 10**5000],
                         ids=["1001", "4001-digits", "5001-digits"])
def test_level_above_max_is_a_schema_error(level):
    doc = _t3_with(lambda d: d.atoms[0].update(level=level))
    try:
        message = f"atom 'a0' has level {level} above 1000"
    except ValueError:  # past the int-to-str digit limit: the level is left out
        message = "atom 'a0' has level above 1000"
    with pytest.raises(SchemaError) as err:
        load_instance(doc)
    assert str(err.value) == str(SchemaError(message))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.atoms[0].update(label=10**5000), "atom label must be a string"),
    (lambda d: d.truth_rules[0].update(condition=10**5000),
     "condition must be a single-key object"),
    (lambda d: d.realizer_rules[0].update(propose=[10**5000]),
     "propose must be a list of atom id strings"),
], ids=["label", "condition", "propose"])
def test_int_past_digit_limit_in_message_is_a_schema_error(edit, message):
    # the message would show the int with repr, which raises ValueError
    with pytest.raises(SchemaError, match=message):
        load_instance(_t3_with(edit))


def test_value_nested_past_recursion_limit_in_message_is_a_schema_error():
    # repr of the entry would raise RecursionError
    doc = _t3_with(lambda d: d.atoms.__setitem__(0, _nested_lists(100_000)))
    with pytest.raises(SchemaError, match="bad atom entry"):
        load_instance(doc)


def _nested_lists(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


_LONG = list(range(1000))


@pytest.mark.parametrize("edit", [
    lambda d: setattr(d, "atoms", {"a": _LONG}),
    lambda d: d.atoms.__setitem__(0, _LONG),
    lambda d: d.atoms[0].update(level=str(_LONG)),
    lambda d: d.truth_rules.__setitem__(0, _LONG),
    lambda d: d.realizer_rules.__setitem__(0, _LONG),
    lambda d: setattr(d, "initial", _LONG),
    lambda d: d.truth_rules[0].update(condition=_LONG),
    lambda d: d.truth_rules[0].update(condition={str(_LONG): True}),
], ids=["list", "atom", "atom-field", "truth-rule", "realizer-rule", "ids",
        "condition", "condition-key"])
def test_long_value_message_is_cut(edit):
    doc = builtin_t3()
    edit(doc)
    with pytest.raises(SchemaError) as err:
        load_instance(doc)
    assert len(str(err.value)) == MESSAGE_LIMIT + len("...")
    assert str(err.value).endswith("...")


def test_deeply_nested_atom_entry_message_is_cut():
    doc = builtin_t3()
    doc.atoms[0] = _nested_lists(500)
    with pytest.raises(SchemaError) as err:
        load_instance(doc)
    prefix = "bad atom entry "
    assert str(err.value) == prefix + "[" * (MESSAGE_LIMIT - len(prefix)) + "..."


@pytest.mark.parametrize("length", [0, 1, MESSAGE_LIMIT - 1, MESSAGE_LIMIT,
                                    MESSAGE_LIMIT + 1, 10 * MESSAGE_LIMIT])
def test_message_is_cut_only_past_the_limit(length):
    message = "x" * length
    expected = message if length <= MESSAGE_LIMIT else message[:MESSAGE_LIMIT] + "..."
    assert str(InstanceError(message)) == str(SchemaError(message)) == expected


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


def _negate_in_place(node) -> None:
    """Negate every node of a condition, innermost first, each in its own
    dict, so every dict and list of the condition changes; an "and" or "or"
    list also gains a part that decides it."""
    ((key, value),) = node.items()
    for sub in (value if key in ("and", "or") else [value] if key == "not" else []):
        _negate_in_place(sub)
    if key in ("and", "or"):
        value.reverse()
        value.append({"const": key == "or"})
    node.clear()
    node["not"] = {key: value}


def _verdicts(inst, states):
    return [([truth(inst.valuation, atom_id, state)
              for atom_id, _, _ in inst.universe.atoms()],
             sorted(realize(inst.realizer, inst.valuation, state)))
            for state in states]


@pytest.mark.parametrize("make_doc", [builtin_t3, lambda: gen_random(12, 3, 10, 7),
                                      lambda: gen_cascade(3, 2, 0)],
                         ids=["t3", "random:12,3,10,7", "cascade:3,2,0"])
def test_changing_a_loaded_document_changes_no_verdict(make_doc):
    """A loaded instance shares no dict or list with its document: negating
    every condition node and replacing every proposal list in place after
    `load_instance` leaves each truth value and realized set as it was."""
    doc = make_doc()
    inst = load_instance(doc)
    states = list(explore_tree(inst.initial, inst.realizer, inst.valuation).parent)
    before = _verdicts(inst, states)
    for rule in doc.truth_rules + doc.realizer_rules:
        _negate_in_place(rule["condition"])
    for rule in doc.realizer_rules:
        rule["propose"][:] = [atom["id"] for atom in doc.atoms]
    assert _verdicts(inst, states) == before


class TestT3Dynamics:
    def test_unique_normal_form(self):
        inst = load_instance(builtin_t3())
        tree = explore_tree(fs(), inst.realizer, inst.valuation)
        assert tree.normal_forms == {fs("a0", "b1'", "c2")}

    def test_every_visited_state_is_sound(self):
        inst = load_instance(builtin_t3())
        tree = explore_tree(fs(), inst.realizer, inst.valuation)
        for state in tree.parent:
            assert is_sound(inst.valuation, state)

    def test_level_mask_holds_everywhere(self):
        inst = load_instance(builtin_t3())
        tree = explore_tree(fs(), inst.realizer, inst.valuation)
        for state in tree.parent:
            for atom_id, _, _ in inst.universe.atoms():
                assert mask_equation_holds(inst.valuation, atom_id, state)


class TestArgmin:
    def test_guess_is_true_iff_no_smaller_point_is_evaluated(self):
        points = [5, 3, 7, 3]
        inst = builtin_argmin(points)
        for bits in range(2 ** len(points)):
            evaluated = [n for n in range(len(points)) if bits >> n & 1]
            state = frozenset(f"e{n}" for n in evaluated)
            for n in range(len(points)):
                assert truth(inst.valuation, f"e{n}", state) is True
            for m in range(len(points)):
                expected = all(points[n] >= points[m] for n in evaluated)
                assert truth(inst.valuation, f"w{m}", state) is expected

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
                       and any(inst.universe.level_of[a] == 1
                               for a in e.source - e.target))
        # strict prefix minima after the initial guess: 2, 1, 0
        assert erasures == 3
        assert inst.witness(final) == 3


class TestCascade:
    def test_minimal_shape(self):
        doc = gen_cascade(1, 1, 0)
        inst = load_instance(doc)
        ids = {atom_id for atom_id, _, _ in inst.universe.atoms()}
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
            for state in tree.parent:
                assert realize(inst.realizer, inst.valuation, state).violation is None

    def test_parameter_caps(self):
        from kspace.instances import InstanceError
        with pytest.raises(InstanceError):
            gen_random(1000, 3, 10, 0)
