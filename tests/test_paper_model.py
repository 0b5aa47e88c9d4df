"""kspace against an independent model of the paper's definitions
(`paper_model`), which shares no code with the package.

For each document: `explore_tree` finds the model's states, edges,
normal forms, path count and depth; `lint` reports the model's first
contract violation of each state; every `run` strategy walks a model path
to a model normal form; and at every reachable state each atom's truth is
the model's and obeys the level-mask equation.  The model itself checks
the paper's claims: every reachable state is sound, the step graph is
acyclic, and every normal form has P(X) contained in X.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kspace.cli import main
from kspace.engine import STRATEGY_NAMES, explore_tree, make_strategy, run
from kspace.instances import (
    InstanceDoc,
    builtin_t3,
    gen_cascade,
    gen_random,
    load_instance,
)
from kspace.oracle import is_sound, truth

from conftest import edges_of
from paper_model import PaperModel

UNLIMITED = 10**30
RANDOM_SEEDS = (0, 1, 2)


def _lint(instance_arg):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lint", instance_arg, "--format", "json",
                     "--max-nodes", str(UNLIMITED)])
    return code, json.loads(out.getvalue())


def check_against_model(doc, instance_arg):
    """Compare kspace on `doc` with the model; `instance_arg` names the
    document on the command line."""
    model = PaperModel(doc)
    states, edges, normal_forms = model.graph()
    paths, depth = model.path_figures(model.initial, edges)
    # the paper's claims, in the model
    assert all(model.sound(X) for X in states)
    assert all(model.proposals(X) <= X for X in normal_forms)

    inst = load_instance(doc)
    r, v = inst.realizer, inst.valuation
    tree = explore_tree(inst.initial, r, v, max_nodes=UNLIMITED)
    assert tree.parent.keys() == states
    tree_edges = edges_of(tree)
    assert len(tree_edges) == len(edges)
    assert {(e.source, e.chosen, e.target, e.level) for e in tree_edges} == edges
    assert tree.normal_forms == normal_forms
    assert (tree.node_count, tree.max_depth) == (paths, depth)
    assert tree.check_failures == []

    violations = []
    for X in sorted(states, key=sorted):
        found = model.violation(X)
        if found is not None:
            violations.append({"state": sorted(X), "atom": found[0],
                               "clause": found[1]})
    assert _lint(instance_arg) == (
        5 if violations else 0,
        {"states_checked": len(states), "violations": violations})

    for name in STRATEGY_NAMES:
        for seed in RANDOM_SEEDS if name == "seeded-random" else (0,):
            trace, final = run(inst.initial, r, v, make_strategy(name, seed),
                               fuel=len(states))
            current = model.initial
            for e in trace:
                assert (e.source, e.chosen, e.target, e.level) in edges
                assert e.source == current
                current = e.target
            assert final == current and final in normal_forms

    for X in states:
        assert is_sound(v, X) == model.sound(X)
        for atom_id, level in model.level.items():
            # the level-mask equation, with the masked side restricted by
            # the model
            assert (truth(v, atom_id, X)
                    == truth(v, atom_id, model.below(X, level))
                    == model.true(atom_id, X))


DOCS = [("t3", builtin_t3)]
DOCS += [(f"cascade:{k},{w},{s}", lambda k=k, w=w, s=s: gen_cascade(k, w, s))
         for k in range(1, 5) for w in (1, 2) for s in (0, 1)]
DOCS += [(f"random:8,3,10,{seed}", lambda seed=seed: gen_random(8, 3, 10, seed))
         for seed in range(300)]


@pytest.mark.parametrize("spec, make_doc", DOCS, ids=[spec for spec, _ in DOCS])
def test_agrees_with_model(spec, make_doc):
    check_against_model(make_doc(), spec)


# ---------------------------------------------------------------------------
# small documents that gen_random does not write: any condition over at
# most 10 atoms (empty "and" and "or" included), ids out of listing order,
# proposals that break the realizer contract, sound non-empty initial states

ATOM_IDS = ("k", "b7", "x", "a", "m2", "z", "c", "b", "y0", "d")


def _condition(draw, readable, depth):
    """A condition that reads only the atom dicts in `readable`, nested at
    most `depth` objects deep."""
    kinds = ["const", "present", "answered"] if readable else ["const"]
    if depth > 1:
        kinds += ["not", "and", "or"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return {"const": draw(st.integers(0, 3)) > 0}
    if kind == "present":
        return {"present": draw(st.sampled_from(readable))["id"]}
    if kind == "answered":
        return {"answered": draw(st.sampled_from(readable))["question"]}
    if kind == "not":
        return {"not": _condition(draw, readable, depth - 1)}
    return {kind: [_condition(draw, readable, depth - 1)
                   for _ in range(draw(st.integers(0, 3)))]}


@st.composite
def small_docs(draw):
    ids = draw(st.permutations(ATOM_IDS))[:draw(st.integers(1, len(ATOM_IDS)))]
    atoms, levels = [], []  # levels[q]: the level of question q
    for atom_id in ids:
        # a new question, or one an earlier atom answers
        if levels and not draw(st.integers(0, 2)):
            q = draw(st.integers(0, len(levels) - 1))
        else:
            q = len(levels)
            levels.append(draw(st.integers(0, 3)))
        atoms.append({"id": atom_id, "question": f"q{q}", "level": levels[q]})
    truth_rules = [
        {"atom": atom["id"], "condition": _condition(
            draw, [a for a in atoms if a["level"] < atom["level"]],
            draw(st.integers(1, 3)))}
        for atom in atoms if draw(st.integers(0, 4))]
    realizer_rules = []
    for _ in range(draw(st.integers(0, 12))):
        propose = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=2))
        condition = _condition(draw, atoms, draw(st.integers(1, 3)))
        # most rules wait for their proposals' questions to be open, so
        # that reductions run several steps deep
        if draw(st.integers(0, 3)):
            condition = {"and": [condition] + [
                {"not": {"answered": a["question"]}} for a in propose]}
        realizer_rules.append(
            {"condition": condition, "propose": [a["id"] for a in propose]})
    by_question: dict = {}
    for atom in atoms:
        by_question.setdefault(atom["question"], []).append(atom["id"])
    initial = [draw(st.sampled_from(question_ids))
               for question_ids in by_question.values() if draw(st.booleans())]
    return InstanceDoc(atoms=atoms, truth_rules=truth_rules,
                       realizer_rules=realizer_rules, initial=initial)


@settings(max_examples=300, deadline=None)
@given(doc=small_docs())
def test_small_documents_agree_with_model(doc):
    # load_instance rejects an unsound initial state
    if not PaperModel(doc).sound(frozenset(doc.initial)):
        doc.initial = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(doc.to_json(), encoding="utf-8")
        check_against_model(doc, str(path))
