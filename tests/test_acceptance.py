"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import random

import pytest

from kspace.cli import main as cli_main
from kspace.engine import (
    STRATEGY_NAMES,
    Candidates,
    check_node,
    explore_tree,
    is_prefixed,
    make_strategy,
    run,
)
from kspace.instances import (
    builtin_argmin,
    builtin_t3,
    gen_cascade,
    gen_random,
    load_instance,
)
from kspace.oracle import is_sound, realize

from conftest import edges_of

EMPTY = frozenset()
FUZZ_SEED_COUNT = 1000
CASCADE_SEEDS = 20


def _report(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _fuzz_params(seed):
    rng = random.Random(seed)
    n_atoms = rng.randint(3, 20)
    max_level = rng.randint(1, 5)
    n_rules = rng.randint(2, n_atoms)
    return n_atoms, max_level, n_rules


@pytest.fixture(scope="module")
def fuzz_corpus():
    corpus = []
    for seed in range(FUZZ_SEED_COUNT):
        n_atoms, max_level, n_rules = _fuzz_params(seed)
        inst = load_instance(gen_random(n_atoms, max_level, n_rules, seed))
        tree = explore_tree(EMPTY, inst.realizer, inst.valuation,
                            fuel_depth=10 * (n_atoms + 1), max_nodes=300_000,
                            check_lemmas=True)
        corpus.append((seed, inst, tree))
    return corpus


@pytest.fixture(scope="module")
def cascade_trees():
    trees = []
    for depth in range(1, 5):
        for width in (1, 2):
            for seed in range(CASCADE_SEEDS):
                inst = load_instance(gen_cascade(depth, width, seed))
                tree = explore_tree(EMPTY, inst.realizer, inst.valuation,
                                    fuel_depth=1000, max_nodes=300_000,
                                    check_lemmas=True)
                trees.append((depth, width, seed, inst, tree))
    return trees


def test_criterion_1_lemma_suite_exhaustive_t3():
    inst = load_instance(builtin_t3())
    tree = explore_tree(EMPTY, inst.realizer, inst.valuation)
    ok = (tree.node_count == 8 and tree.edge_count == 7
          and tree.max_depth == 4
          and tree.normal_forms == {frozenset({"a0", "b1'", "c2"})}
          and tree.check_failures == [])
    _report("criterion 1: T3 exhaustive lemma suite", ok,
            f"nodes={tree.node_count} edges={tree.edge_count} "
            f"depth={tree.max_depth} failures={len(tree.check_failures)}")


def test_criterion_2_lemma_suite_fuzzed(fuzz_corpus):
    lemma_failures = 0
    contract_violations = 0
    fuel_exhausted = 0
    for seed, inst, tree in fuzz_corpus:
        lemma_failures += len(tree.check_failures)
        for state in tree.parent:
            if realize(inst.realizer, inst.valuation, state).violation is not None:
                contract_violations += 1
        n_atoms = len(inst.universe)
        try:
            run(EMPTY, inst.realizer, inst.valuation,
                make_strategy("lowest-level-first"), 10 * (n_atoms + 1))
        except Exception:
            fuel_exhausted += 1
    ok = lemma_failures == 0 and contract_violations == 0 and fuel_exhausted == 0
    _report("criterion 2: fuzzed lemma suite over "
            f"{FUZZ_SEED_COUNT} instances", ok,
            f"lemma_failures={lemma_failures} "
            f"contract_violations={contract_violations} "
            f"fuel_exhausted={fuel_exhausted}")


def test_criterion_3_empirical_termination(fuzz_corpus, cascade_trees):
    # a returned tree is complete: it expanded every state a step reaches
    trees = [tree for *_, tree in fuzz_corpus + cascade_trees]
    incomplete = sum(1 for tree in trees
                     if any(edge.target not in tree.successors
                            for edge in edges_of(tree)))
    unique_cascade_normal_forms = all(
        len(tree.normal_forms) == 1 for *_, tree in cascade_trees)
    ok = incomplete == 0 and unique_cascade_normal_forms
    _report("criterion 3: every explored branch finite within budget", ok,
            f"trees={len(fuzz_corpus) + len(cascade_trees)} "
            f"incomplete={incomplete}")


def test_criterion_4_prefixed_triple_agreement(fuzz_corpus, cascade_trees):
    disagreements = 0
    trees = [(inst, tree) for _, inst, tree in fuzz_corpus]
    trees += [(inst, tree) for *_, inst, tree in cascade_trees]
    inst_t3 = load_instance(builtin_t3())
    trees.append((inst_t3, explore_tree(EMPTY, inst_t3.realizer,
                                        inst_t3.valuation, check_lemmas=False)))
    nodes = 0
    for inst, tree in trees:
        for state in tree.parent:
            nodes += 1
            proposals = realize(inst.realizer, inst.valuation, state)
            if check_node(state, Candidates(inst.universe, proposals)):
                disagreements += 1
            if is_prefixed(state, inst.realizer, inst.valuation) != (not proposals):
                disagreements += 1
    _report("criterion 4: pre-fixed-point triple agreement", disagreements == 0,
            f"states={nodes} disagreements={disagreements}")


def test_criterion_5_argmin_witness_correctness():
    rng = random.Random(20260823)
    wrong = 0
    for _ in range(200):
        points = [rng.randint(0, 50) for _ in range(rng.randint(1, 16))]
        inst = builtin_argmin(points)
        for name in STRATEGY_NAMES:
            _, final = run(inst.initial, inst.realizer, inst.valuation,
                           make_strategy(name, seed=rng.randint(0, 10**6)), 200)
            sound = is_sound(inst.valuation, final)
            prefixed = is_prefixed(final, inst.realizer, inst.valuation)
            if not (sound and prefixed
                    and points[inst.witness(final)] == min(points)):
                wrong += 1
    _report("criterion 5: argmin witness correct for 200 inputs x "
            f"{len(STRATEGY_NAMES)} strategies", wrong == 0, f"wrong={wrong}")


def test_criterion_6_soundness_preservation(fuzz_corpus, cascade_trees):
    unsound = 0
    states = 0
    trees = [(inst, tree) for _, inst, tree in fuzz_corpus]
    trees += [(inst, tree) for *_, inst, tree in cascade_trees]
    for inst, tree in trees:
        for state in tree.parent:
            states += 1
            if not is_sound(inst.valuation, state):
                unsound += 1
    _report("criterion 6: soundness preserved on every explored path",
            unsound == 0, f"states={states} unsound={unsound}")


def test_criterion_7_determinism(capsys):
    outputs = []
    for _ in range(2):
        cli_main(["explore", "random:12,3,10,7", "--format", "json"])
        outputs.append(capsys.readouterr().out)
    byte_identical = bool(outputs[0] == outputs[1] and outputs[0])
    _report("criterion 7: determinism", byte_identical,
            f"cli_byte_identical={byte_identical}")
