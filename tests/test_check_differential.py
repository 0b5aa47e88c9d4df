"""The per-edge checks on bit sets against the frozenset reference:
identical failure lists, in the same order, on explored edges and on
forged ones."""

import pytest
from hypothesis import given, settings, strategies as st

from kspace.core import AtomUniverse
from kspace.engine import ReductionStep, TruthRecords, check_edge, explore_tree
from kspace.instances import builtin_t3, gen_cascade, gen_random, load_instance
from kspace.oracle import Valuation

import reference_checks
from conftest import edges_of
from test_acceptance import _fuzz_params

CASES = [("t3", builtin_t3(), {})]
CASES += [(f"cascade:{k},{w},{s}", gen_cascade(k, w, s), {})
          for k in range(1, 5) for w in (1, 2) for s in range(3)]
CASES += [(f"fuzz:{seed}", gen_random(*_fuzz_params(seed), seed),
           {"fuel_depth": 10 * (_fuzz_params(seed)[0] + 1), "max_nodes": 300_000})
          for seed in range(200)]


def _reversed(edge):
    return ReductionStep(edge.target, edge.chosen, edge.source, edge.level)


@pytest.mark.parametrize("doc,budget", [(doc, budget) for _, doc, budget in CASES],
                         ids=[name for name, _, _ in CASES])
def test_matches_reference(doc, budget):
    inst = load_instance(doc)
    v = inst.valuation
    tree = explore_tree(inst.initial, inst.realizer, v, check_lemmas=False, **budget)
    for edge in edges_of(tree):
        assert check_edge(v, edge, records=TruthRecords(v)) \
            == reference_checks.check_edge(v, edge)
        # a step strictly grows its level, so the reversed step never does
        forged = _reversed(edge)
        fails = check_edge(v, forged, records=TruthRecords(v))
        assert "at-level-strict-growth" in fails
        assert fails == reference_checks.check_edge(v, forged)


def _parity_valuation(universe):
    """Truth flips with the number of present atoms below the atom's
    level, so that steps which erase or add low atoms break truth
    stability and soundness."""
    atoms = universe.atoms()
    ids = [atom_id for atom_id, _, _ in atoms]
    level_of = universe.level_of

    def evaluate(atom_id, view):
        below = sum(view.present(b) for b, _, level in atoms
                    if level < level_of[atom_id])
        return (below + ids.index(atom_id)) % 2 == 0
    return Valuation(universe, evaluate)


@st.composite
def gapped_edges(draw):
    """A forged edge between two arbitrary states of a universe whose
    levels have gaps, at a level n in -1..max+2."""
    levels = draw(st.one_of(st.just({0, 3, 7}),
                            st.sets(st.integers(0, 40), min_size=1, max_size=4)))
    questions: dict[str, list[str]] = {}
    atoms = []
    for level in sorted(levels):
        for q in range(draw(st.integers(1, 2))):
            question = f"q{level}_{q}"
            for k in range(draw(st.integers(1, 2))):
                atoms.append((f"a{level}_{q}_{k}", question, level))
                questions.setdefault(question, []).append(atoms[-1][0])

    def state():
        picks = [draw(st.sampled_from([None, *ids])) for ids in questions.values()]
        return frozenset(p for p in picks if p is not None)

    universe = AtomUniverse(atoms)
    X, s, Y = state(), state(), state()
    n = draw(st.integers(-1, max(levels) + 2))
    return _parity_valuation(universe), ReductionStep(X, s, Y, n)


@settings(max_examples=300, deadline=None)
@given(gapped_edges())
def test_forged_edges_match_reference(case):
    v, edge = case
    assert check_edge(v, edge, records=TruthRecords(v)) \
        == reference_checks.check_edge(v, edge)
