"""The strategies that choose from the grouped proposals against the
reference strategies that scan the materialized candidate list: identical
traces and final states, or the same fuel exhaustion."""

import random

import pytest

from kspace import engine
from kspace.engine import STRATEGY_NAMES, FuelExhausted
from kspace.instances import (
    InstanceDoc,
    builtin_argmin,
    builtin_t3,
    gen_cascade,
    gen_random,
    load_instance,
)
from kspace.oracle import realize

import reference_strategies as reference
from test_acceptance import _fuzz_params

RANDOM_SEEDS = (0, 1, 7, 12345)
LAYERED_QUESTIONS = 12


def layered_doc(levels, questions, right, wrong, seed):
    """Levels that open one at a time, each with `questions` independent
    questions of `right` true and `wrong` false atoms: (right + 1) **
    questions - 1 candidates at a state where a whole level is open."""
    rng = random.Random(seed)
    atoms, truth_rules, realizer_rules = [], [], []
    rights_below, questions_below = [], []
    for level in range(levels):
        rights, level_questions = [], []
        for j in range(questions):
            question = f"q{level}_{j}"
            ids = [f"x{level}_{j}_{k}" for k in range(right + wrong)]
            true_ids = rng.sample(ids, right)
            # true once a random question below holds one of its true atoms
            cond = ({"or": [{"present": a} for a in rng.choice(rights_below)]}
                    if rights_below else {"const": True})
            for atom_id in ids:
                atoms.append({"id": atom_id, "question": question, "level": level})
                truth_rules.append({"atom": atom_id, "condition":
                                    cond if atom_id in true_ids else {"not": cond}})
            gate = [{"not": {"answered": question}}]
            gate += [{"answered": q} for q in questions_below]
            realizer_rules.append({"condition": {"and": gate}, "propose": ids})
            rights.append(true_ids)
            level_questions.append(question)
        rights_below, questions_below = rights, level_questions
    return InstanceDoc(atoms=atoms, truth_rules=truth_rules,
                       realizer_rules=realizer_rules, initial=[])


# (questions, true atoms, false atoms) per level: 4095 candidates each
LAYERED = [(LAYERED_QUESTIONS, 1, 3), (6, 3, 1)]


def _outcome(run, make_strategy, inst, name, seed, fuel):
    try:
        return run(inst.initial, inst.realizer, inst.valuation,
                   make_strategy(name, seed), fuel)
    except FuelExhausted as exc:
        return ("fuel exhausted", exc.trace, exc.final)


STRATEGY_CASES = [(name, 0) for name in STRATEGY_NAMES if name != "seeded-random"]
STRATEGY_CASES += [("seeded-random", seed) for seed in RANDOM_SEEDS]

# (id, loader, fuel)
INSTANCES = [("t3", lambda: load_instance(builtin_t3()), 10)]
INSTANCES += [(f"argmin:{i}", lambda i=i: builtin_argmin(
    [random.Random(i).randint(0, 20) for _ in range(4 + 7 * i)]), 200)
    for i in range(5)]
INSTANCES += [(f"cascade:{k},{w},{s}", lambda k=k, w=w, s=s:
               load_instance(gen_cascade(k, w, s)), 200)
              for k in range(1, 5) for w in (1, 2) for s in range(3)]
INSTANCES += [(f"fuzz:{seed}", lambda seed=seed: load_instance(
    gen_random(*_fuzz_params(seed), seed)), 10 * (_fuzz_params(seed)[0] + 1))
    for seed in range(200)]
INSTANCES += [(f"layered:{q},{t},{f},{s}", lambda q=q, t=t, f=f, s=s:
               load_instance(layered_doc(3, q, t, f, s)), 1000)
              for q, t, f in LAYERED for s in range(2)]


@pytest.mark.parametrize("load, fuel", [(load, fuel) for _, load, fuel in INSTANCES],
                         ids=[name for name, _, _ in INSTANCES])
def test_matches_reference(load, fuel):
    inst = load()
    for name, seed in STRATEGY_CASES:
        got = _outcome(engine.run, engine.make_strategy, inst, name, seed, fuel)
        want = _outcome(reference.run, reference.make_strategy, inst, name,
                        seed, fuel)
        assert got == want, (name, seed)


@pytest.mark.parametrize("questions, right, wrong", LAYERED)
def test_layered_instances_are_wide(questions, right, wrong):
    inst = load_instance(layered_doc(3, questions, right, wrong, 0))
    proposals = realize(inst.realizer, inst.valuation, inst.initial)
    cands = list(engine.Candidates(inst.universe, proposals))
    assert len(cands) == (right + 1) ** questions - 1 == 4095
