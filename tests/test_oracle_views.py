"""`truth`, `realize` and `is_sound`, which share one masked view per level
cap within a call, against the one-view-per-atom reference: the same kept
proposals, violation, soundness and raised exception on every explored
state, for the documents' valuations and for forged ones.  A guard counts
the views they build."""

import random

import pytest

from kspace import oracle
from kspace.engine import STRATEGY_NAMES, FuelExhausted, explore_tree, make_strategy, run
from kspace.instances import (
    builtin_argmin,
    builtin_t3,
    gen_cascade,
    gen_random,
    load_instance,
)
from kspace.oracle import MaskViolation, StateView, Valuation, is_sound, realize, truth

import reference_oracle as reference
from test_acceptance import _fuzz_params
from test_explorer_differential import _unmasked_parity_valuation
from test_strategy_differential import LAYERED, layered_doc

# (id, loader, explore budget)
CASES = [("t3", lambda: load_instance(builtin_t3()), {})]
CASES += [(f"cascade:{k},{w},{s}", lambda k=k, w=w, s=s:
           load_instance(gen_cascade(k, w, s)), {})
          for k in range(1, 5) for w in (1, 2) for s in range(3)]
CASES += [(f"argmin:{i}", lambda i=i: builtin_argmin(
    [random.Random(i).randint(0, 9) for _ in range(2 + i)]), {})
    for i in range(4)]
CASES += [(f"fuzz:{seed}", lambda seed=seed: load_instance(
    gen_random(*_fuzz_params(seed), seed)),
    {"fuel_depth": 10 * (_fuzz_params(seed)[0] + 1), "max_nodes": 300_000})
    for seed in range(200)]


def _explored(inst, budget):
    return explore_tree(inst.initial, inst.realizer, inst.valuation,
                        check_lemmas=False, **budget).parent


def _mask_probe(universe, catch):
    """Every other atom of a level asks its own question, which its mask
    forbids; the others ask the questions below their level.  With
    `catch`, a forbidden query counts as false instead of raising."""
    atoms = universe.atoms()
    index = {atom.id: i for i, atom in enumerate(atoms)}

    def evaluate(atom, view):
        if index[atom.id] % 2 == 0:
            try:
                return view.answered(atom.question)
            except MaskViolation:
                if catch:
                    return False
                raise
        below = {b.question for b in atoms if b.level < atom.level}
        return sum(view.answered(q) for q in sorted(below)) % 2 == 0
    return Valuation(universe, evaluate)


VALUATIONS = {
    "document": lambda inst: inst.valuation,
    "unmasked-forger": lambda inst: _unmasked_parity_valuation(inst.universe),
    "mask-probe-raising": lambda inst: _mask_probe(inst.universe, catch=False),
    "mask-probe-caught": lambda inst: _mask_probe(inst.universe, catch=True),
}


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # compared by type against the reference
        return type(exc)
    if isinstance(result, oracle.Proposals):
        return sorted(result), result.violation
    return result


def _truths(v, members):
    views = {}
    return [_outcome(truth, v, atom.id, members, views) for atom in v.universe.atoms()]


def _reference_truths(v, members):
    return [_outcome(reference.truth, v, atom.id, members) for atom in v.universe.atoms()]


@pytest.mark.parametrize("load,budget", [(load, budget) for _, load, budget in CASES],
                         ids=[name for name, _, _ in CASES])
def test_matches_reference(load, budget):
    inst = load()
    for make in VALUATIONS.values():
        v = make(inst)
        for state in _explored(inst, budget):
            assert (_outcome(realize, inst.realizer, v, state)
                    == _outcome(reference.realize, inst.realizer, v, state)), sorted(state)
            assert (_outcome(is_sound, v, state)
                    == _outcome(reference.is_sound, v, state)), sorted(state)
            assert _truths(v, state) == _reference_truths(v, state), sorted(state)


def test_mask_probe_raises_and_is_caught():
    # the comparisons above see a MaskViolation and both caught verdicts
    inst = load_instance(gen_cascade(3, 2, 0))
    outcomes = {name: {_outcome(reference.is_sound, make(inst), state)
                       for state in _explored(inst, {})}
                for name, make in VALUATIONS.items() if name.startswith("mask-probe")}
    assert MaskViolation in outcomes["mask-probe-raising"]
    assert outcomes["mask-probe-caught"] == {True, False}


# ---------------------------------------------------------------------------
# views built per call

class _CountingView(StateView):
    built = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _CountingView.built += 1


def _recording(v):
    """`v`, recording the level of each atom it evaluates."""
    levels = []

    def evaluate(atom, view):
        levels.append(atom.level)
        return v.evaluate(atom, view)
    return Valuation(v.universe, evaluate), levels


def _views_built(fn, *args):
    _CountingView.built = 0
    fn(*args)
    return _CountingView.built


def _guard_states():
    """(instance, state) pairs: every explored state of the cases above,
    and the run states of layered documents, whose states hold many
    atoms per level."""
    for _, load, budget in CASES:
        inst = load()
        for state in _explored(inst, budget):
            yield inst, state
    for q, t, f in LAYERED:
        inst = load_instance(layered_doc(3, q, t, f, 0))
        for name in STRATEGY_NAMES:
            try:
                trace, final = run(inst.initial, inst.realizer, inst.valuation,
                                   make_strategy(name, seed=1), 1000)
            except FuelExhausted as exc:
                trace, final = exc.trace, exc.final
            for state in [edge.source for edge in trace] + [final]:
                yield inst, state


def test_one_view_per_level(monkeypatch):
    monkeypatch.setattr(oracle, "StateView", _CountingView)
    monkeypatch.setattr(reference, "StateView", _CountingView)
    shared_in_realize = shared_in_is_sound = False
    for inst, state in _guard_states():
        v, levels = _recording(inst.valuation)
        built = _views_built(realize, inst.realizer, v, state)
        bound = 1 + len(set(levels))
        assert built <= bound, sorted(state)
        shared_in_realize |= _views_built(reference.realize, inst.realizer, v, state) > bound

        member_levels = {inst.universe.atom(a).level for a in state}
        assert _views_built(is_sound, v, state) <= len(member_levels), sorted(state)
        shared_in_is_sound |= (_views_built(reference.is_sound, v, state)
                               > len(member_levels))
    # one view per atom would break both bounds somewhere
    assert shared_in_realize and shared_in_is_sound
