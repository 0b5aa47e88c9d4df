"""`TruthMemo`, the truth memo of `run`, against a memo-free `truth`.

A memo keeps an atom's verdict while the state below the atom's level is
unchanged.  The first property test walks it over arbitrary sequences of
states, jumps back to earlier states included, reading verdicts through
`TruthMemo.at`, `is_sound` and `realize`: each verdict equals a fresh
`truth`, the valuation runs exactly when no verdict is held under that
rule, and an evaluation that raises stores nothing.  The second compares
`realize` and `is_sound` with and without a memo, on forged proposals and
on states that hold ids outside the universe: both give the same result
or exception, and a call that reads no verdict leaves the memo where it
was.  The `run` tests check the CLI's
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
from kspace.core import query
from kspace.oracle import Realizer, TruthMemo, Valuation, is_sound, realize, truth

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
        result = fn(*args)
    except Exception as exc:  # compared by type with the fresh call
        return type(exc)
    if isinstance(result, oracle.Proposals):
        return sorted(result), result.violation
    return result


ENTRIES = ("at", "is_sound", "realize")


@st.composite
def walks(draw):
    """(valuation, [(state, entry point, atom ids)]): a walk over valid
    states of a `gen_random` or argmin universe, which may return to a
    state it visited before.  The atom ids are those `at`'s reader asks
    or the forged realizer proposes; `is_sound` asks the state's own."""
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
        walk.append((state, draw(st.sampled_from(ENTRIES)),
                     draw(st.lists(st.sampled_from(ids), max_size=2 * len(ids)))))
    return v, walk


def _below(universe, state, level):
    return frozenset(a for a in state if universe.level_of[a] < level)


def _forged(universe, proposals):
    """A realizer that proposes `proposals` in every state."""
    return Realizer(universe, lambda view: proposals)


def _verdicts_asked(v, state, entry, asked):
    """The atoms whose verdicts `entry` reads in `state`, in its order,
    each with its fresh `_outcome(truth, ...)`: up to the first that
    raises and, for `is_sound`, the first that is false."""
    universe = v.universe
    if entry == "is_sound":
        asked = list(state)  # the order of is_sound's own loop
    elif entry == "realize":
        asked = [a for a in sorted(set(asked))
                 if not query(universe.question_of[a], state, universe)]
    out = []
    for atom_id in asked:
        fresh = _outcome(truth, v, atom_id, state)
        out.append((atom_id, fresh))
        if isinstance(fresh, type) or (entry == "is_sound" and not fresh):
            break
    return out


@settings(max_examples=400, deadline=None)
@given(walks())
def test_memo_keeps_a_verdict_while_the_state_below_its_level_is_unchanged(walk):
    v, steps = walk
    universe = v.universe
    level_of = universe.level_of
    counted, calls = _counting(v)
    memo = TruthMemo(universe)
    held: set[str] = set()  # atoms whose verdict the memo should hold
    previous = frozenset()  # the state the memo was last moved to
    for state, entry, asked in steps:
        verdicts = _verdicts_asked(v, state, entry, asked)
        if entry == "at" or verdicts:  # the entry point moves the memo
            held = {a for a in held if _below(universe, state, level_of[a])
                    == _below(universe, previous, level_of[a])}
            previous = state
        expected = []  # the atoms the valuation must run for: no verdict held
        for atom_id, fresh in verdicts:
            if atom_id not in held:
                expected.append(atom_id)
                if not isinstance(fresh, type):  # a verdict that raised is not stored
                    held.add(atom_id)
        before = len(calls)
        if entry == "at":
            # a reader of the table, as realize and is_sound are
            table, views = memo.at(state), {}
            for atom_id, fresh in verdicts:
                known = table.setdefault(level_of[atom_id], {})
                got = known.get(atom_id)
                if got is None:
                    got = _outcome(truth, counted, atom_id, state, views)
                    if not isinstance(got, type):
                        known[atom_id] = got
                assert got == fresh, (sorted(state), atom_id)
        elif entry == "is_sound":
            got = _outcome(is_sound, counted, state, memo)
            assert got == _outcome(is_sound, v, state), sorted(state)
        else:
            got = _outcome(realize, _forged(universe, frozenset(asked)), counted, state, memo)
            assert got == _outcome(realize, _forged(universe, frozenset(asked)), v, state)
        assert calls[before:] == expected, sorted(state)
        if previous is state:
            table = memo.at(state)
            assert {a for known in table.values() for a in known} == held, sorted(state)
            for level, known in table.items():
                for atom_id, verdict in known.items():
                    assert level_of[atom_id] == level
                    assert verdict is truth(v, atom_id, state), (sorted(state), atom_id)


# ---------------------------------------------------------------------------
# realize and is_sound with and without a memo

OUTSIDE = ("no-such-atom", 7)  # an unknown id and an id that is not a str


@st.composite
def call_walks(draw):
    """(valuation, [(state, entry point, proposals)]) on a `gen_random` or
    argmin universe.  A state may hold ids outside the universe; the
    proposals of the forged realizer mix atoms of the universe, answered
    or open and true or untrue in the state, with ids outside it."""
    seed = draw(st.integers(0, 199))
    inst = draw(st.sampled_from([_fuzz_instance(seed), _argmin_instance(seed)]))
    v = draw(st.sampled_from(sorted(VALUATIONS)).map(lambda name: VALUATIONS[name](inst)))
    universe = inst.universe
    pool = [*sorted(atom.id for atom in universe.atoms()), *OUTSIDE]
    questions = sorted(universe.question_index)
    visited, walk = [], []
    for _ in range(draw(st.integers(1, 8))):
        if visited and draw(st.booleans()):
            state = visited[draw(st.integers(0, len(visited) - 1))]
        else:
            picks = [draw(st.sampled_from([None, *sorted(universe.question_atoms(q))]))
                     for q in questions]
            state = frozenset(a for a in picks if a is not None)
            if draw(st.integers(0, 3)) == 0:
                state |= draw(st.sets(st.sampled_from(OUTSIDE), min_size=1))
            visited.append(state)
        walk.append((state, draw(st.sampled_from(ENTRIES[1:])),
                     draw(st.frozensets(st.sampled_from(pool)))))
    return v, walk


def _needs_verdict(universe, state, entry, proposals):
    """Whether the call reads a verdict before it returns or raises."""
    if entry == "is_sound":
        return bool(state)
    if len(proposals) > oracle.PROPOSAL_CAP:
        return False
    for atom_id in sorted(proposals, key=str):
        question = universe.question_of.get(atom_id)
        if question is None:
            return False  # realize raises on the id before any verdict
        if not query(question, state, universe):
            return True
    return False


@settings(max_examples=400, deadline=None)
@given(call_walks())
def test_memo_and_memo_free_calls_agree(walk):
    v, steps = walk
    universe = v.universe
    memo = TruthMemo(universe)
    position = frozenset()  # the state the memo was last moved to
    for state, entry, proposals in steps:
        call = (functools.partial(is_sound, v, state) if entry == "is_sound"
                else functools.partial(realize, _forged(universe, proposals), v, state))
        needs = _needs_verdict(universe, state, entry, proposals)
        table = memo.at(position)  # the memo's table, without moving it
        snapshot = {level: dict(known) for level, known in table.items()}
        got = _outcome(call, memo)
        assert got == _outcome(call), (sorted(state, key=str), sorted(proposals, key=str))
        if needs:
            position = state
            # every verdict stored equals a fresh one, so none is stored
            # for an evaluation that raised
            for level, known in memo.at(state).items():
                for atom_id, verdict in known.items():
                    assert universe.level_of[atom_id] == level
                    assert _outcome(truth, v, atom_id, state) is verdict, atom_id
        else:
            # the memo is where it was, with the verdicts it held
            assert memo.at(position) is table
            assert {level: dict(known) for level, known in table.items()} == snapshot


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
