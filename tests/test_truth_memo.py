"""`TruthMemo`, the truth memo of `run`, against a memo-free `truth`.

A memo keeps an atom's verdict while the state below the atom's level is
unchanged.  The property test walks it over arbitrary sequences of states,
jumps back to earlier states included: each verdict equals a fresh `truth`,
the valuation runs exactly when no verdict is held under that rule, and a
call that raises stores nothing.  The `run` tests check the CLI's
`sound_after`, `is_sound` and `is_prefixed` against a memo-free
recomputation, and count the valuation calls of one run."""

import contextlib
import functools
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from kspace import cli, oracle
from kspace.engine import STRATEGY_NAMES, is_prefixed
from kspace.instances import builtin_argmin, gen_random, load_instance
from kspace.oracle import TruthMemo, Valuation, is_sound, truth

from test_acceptance import _fuzz_params
from test_oracle_views import _mask_probe
from test_strategy_differential import LAYERED, layered_doc


@functools.lru_cache(maxsize=None)
def _fuzz_instance(seed):
    return load_instance(gen_random(*_fuzz_params(seed), seed))


@functools.lru_cache(maxsize=None)
def _argmin_instance(seed):
    rng = random.Random(seed)
    return builtin_argmin([rng.randint(0, 9) for _ in range(2 + seed % 6)])


VALUATIONS = {
    "document": lambda inst: inst.valuation,
    "mask-probe-raising": lambda inst: _mask_probe(inst.universe, catch=False),
    "mask-probe-caught": lambda inst: _mask_probe(inst.universe, catch=True),
}


def _counting(v):
    """`v`, and a list whose length is the number of its evaluations."""
    calls = []

    def evaluate(atom, view):
        calls.append(atom.id)
        return v.evaluate(atom, view)
    return Valuation(v.universe, evaluate), calls


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type with the fresh call
        return type(exc)


@st.composite
def walks(draw):
    """(valuation, [(state, atom ids asked there)]): a walk over valid
    states of a `gen_random` or argmin universe, which may return to a
    state it visited before."""
    seed = draw(st.integers(0, 199))
    inst = draw(st.sampled_from([_fuzz_instance(seed), _argmin_instance(seed)]))
    v = draw(st.sampled_from(sorted(VALUATIONS)).map(lambda name: VALUATIONS[name](inst)))
    universe = inst.universe
    ids = [atom.id for atom in universe.atoms()]
    questions = sorted(universe.question_index)
    visited, walk = [], []
    for _ in range(draw(st.integers(1, 8))):
        if visited and draw(st.booleans()):
            state = visited[draw(st.integers(0, len(visited) - 1))]
        else:
            # at most one atom per question
            picks = [draw(st.sampled_from([None, *sorted(universe.question_atoms(q))]))
                     for q in questions]
            state = frozenset(a for a in picks if a is not None)
            visited.append(state)
        walk.append((state, draw(st.lists(st.sampled_from(ids), max_size=2 * len(ids)))))
    return v, walk


def _below(universe, state, level):
    return frozenset(a for a in state if universe.level_of[a] < level)


@settings(max_examples=400, deadline=None)
@given(walks())
def test_memo_keeps_a_verdict_while_the_state_below_its_level_is_unchanged(walk):
    v, steps = walk
    universe = v.universe
    counted, calls = _counting(v)
    memo = TruthMemo(universe)
    held: set[str] = set()  # atoms whose verdict the memo should hold
    previous = frozenset()  # the state of the memo's last call
    for state, asked in steps:
        if asked:
            held = {a for a in held if _below(universe, state, universe.level_of[a])
                    == _below(universe, previous, universe.level_of[a])}
            previous = state
        views = {}
        for atom_id in asked:
            before = len(calls)
            got = _outcome(memo.truth, counted, atom_id, state, views)
            assert got == _outcome(truth, v, atom_id, state), (sorted(state), atom_id)
            assert len(calls) - before == (atom_id not in held), (sorted(state), atom_id)
            if not isinstance(got, type):  # a call that raised stores nothing
                held.add(atom_id)


# ---------------------------------------------------------------------------
# `run` through the CLI

def _run_specs(tmp_path):
    specs = ["t3"]
    specs += [f"cascade:{k},{w},{s}" for k in range(1, 5) for w in (1, 2) for s in range(3)]
    specs += ["random:{},{},{},{}".format(*_fuzz_params(seed), seed) for seed in range(200)]
    for q, t, f in LAYERED:
        path = tmp_path / f"layered_{q}_{t}_{f}.json"
        path.write_text(layered_doc(3, q, t, f, 0).to_json())
        specs.append(str(path))
    specs += ["argmin:3,1,4,1,5,9,2,6", "argmin:7", "argmin:5,5,2,2"]
    return specs


def _run_json(spec, strategy):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", spec, "--format", "json", "--strategy", strategy,
                         "--seed", "1", "--fuel", "200"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_run_verdicts_match_a_memo_free_recomputation(strategy, tmp_path):
    for spec in _run_specs(tmp_path):
        inst = cli.resolve_instance(spec)
        v, r = inst.valuation, inst.realizer
        code, out = _run_json(spec, strategy)
        assert code in (cli.EXIT_OK, cli.EXIT_BUDGET), spec
        for record in out["trace"]:
            assert record["sound_after"] == is_sound(v, frozenset(record["state_after"])), spec
        final = frozenset(out["result"]["final_state"])
        assert out["result"]["is_sound"] == is_sound(v, final), spec
        assert out["result"]["is_prefixed"] == is_prefixed(final, r, v), spec


@pytest.mark.parametrize("questions, right, wrong", LAYERED)
def test_run_evaluates_each_atom_once_per_state_below_its_level(
        questions, right, wrong, tmp_path, monkeypatch):
    # realize, is_sound and the memo reach truth through the oracle module
    path = tmp_path / "layered.json"
    path.write_text(layered_doc(3, questions, right, wrong, 0).to_json())
    universe = cli.resolve_instance(str(path)).universe
    calls, pairs = [], set()

    def counted(v, atom_id, members, views=None):
        calls.append(atom_id)
        pairs.add((atom_id, _below(universe, members, universe.level_of[atom_id])))
        return truth(v, atom_id, members, views)
    monkeypatch.setattr(oracle, "truth", counted)
    code, out = _run_json(str(path), "lowest-level-first")
    assert code == cli.EXIT_OK and out["result"]["steps"] == 3 * questions
    assert len(calls) <= len(pairs)
