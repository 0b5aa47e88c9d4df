import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import kspace
from kspace import engine
from kspace.cli import main
from kspace.instances import (
    RANDOM_MAX_ATOMS,
    RANDOM_MAX_LEVEL,
    RANDOM_MAX_RULES,
    InstanceDoc,
    builtin_t3,
)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _breach_doc():
    doc = builtin_t3()
    # unconditionally proposing c2 breaks the truth clause at {}
    doc.realizer_rules.append({"condition": {"const": True}, "propose": ["c2"]})
    return doc


def _unknown_key_doc():
    doc = builtin_t3()
    doc.truth_rules[0]["condition"] = {"maybe": True}
    return doc


def _independent_questions(n):
    """n true level-0 atoms on n questions, all proposed at every state."""
    ids = [f"a{i}" for i in range(n)]
    return InstanceDoc(
        atoms=[{"id": a, "question": f"q_{a}", "level": 0} for a in ids],
        truth_rules=[{"atom": a, "condition": {"const": True}} for a in ids],
        realizer_rules=[{"condition": {"const": True}, "propose": ids}],
        initial=[])


def _on_text(command, make_text):
    """argv builder: `command` on make_text() written to a file."""
    def build(tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(make_text())
        return [command, str(path)]
    return build


def _on_file(command, make_doc):
    """argv builder: `command` on make_doc() written to a file."""
    return _on_text(command, lambda: make_doc().to_json())


def _t3_with(edit):
    """JSON text of t3 after edit(data) changes its parsed document."""
    def make_text():
        data = json.loads(builtin_t3().to_json())
        edit(data)
        return json.dumps(data)
    return make_text


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(data):
        for step in path:
            data = data[step]
        data[key] = value
    return edit


def _duplicate_atom_and_bad_condition(data):
    """Two faults: the shape of a condition is checked before the ids."""
    data["atoms"].append(dict(data["atoms"][0]))
    data["truth_rules"][0]["condition"] = "a0"


def _deep_condition(key, depth):
    """JSON text of t3 whose first truth rule nests `depth` `key` objects."""
    opening, closing = {"and": ('{"and": [', "]}"), "not": ('{"not": ', "}")}[key]

    def make_text():
        doc = builtin_t3()
        doc.truth_rules[0]["condition"] = "deep"
        return doc.to_json().replace(
            '"deep"', opening * depth + '{"const": true}' + closing * depth)
    return make_text


def _non_utf8(tmp_path):
    path = tmp_path / "instance.json"
    path.write_bytes(b"\xff\xfe")
    return ["validate", str(path)]


class TestValidate:
    def test_t3_summary(self, capsys):
        code, out, _ = invoke(capsys, "validate", "t3")
        assert code == 0
        assert "atoms: 4" in out
        assert "levels: 3" in out

    def test_mask_violation_names_reference(self, capsys, tmp_path):
        doc = builtin_t3()
        doc.truth_rules[1]["condition"] = {"present": "c2"}  # level 2 >= 1
        path = tmp_path / "bad.json"
        path.write_text(doc.to_json())
        code, _, err = invoke(capsys, "validate", str(path))
        assert code == 2
        assert "c2" in err

    def test_file_instance_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "t3.json"
        path.write_text(builtin_t3().to_json())
        code, _, _ = invoke(capsys, "validate", str(path))
        assert code == 0

    def test_python_dash_m_runs_the_cli(self, capsys):
        _, want, _ = invoke(capsys, "validate", "t3")
        src = str(Path(kspace.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "kspace", "validate", "t3"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == want


class TestRun:
    def test_t3_lowest(self, capsys):
        code, out, _ = invoke(capsys, "run", "t3",
                              "--strategy", "lowest-level-first", "--fuel", "10")
        assert code == 0
        assert "steps: 3" in out
        assert 'final_state: ["a0", "b1\'", "c2"]' in out
        assert "is_sound: true" in out

    def test_trace_lines_are_jsonl(self, capsys):
        _, out, _ = invoke(capsys, "run", "t3", "--fuel", "10")
        steps = [json.loads(line) for line in out.splitlines()
                 if line.startswith("{")]
        assert len(steps) == 3
        assert set(steps[0]) == {"step_index", "level", "chosen", "dropped",
                                 "state_after", "sound_after"}

    def test_argmin_witness(self, capsys):
        code, out, _ = invoke(capsys, "run", "argmin:5,3,7,3,9", "--fuel", "64")
        assert code == 0
        assert "witness: 1" in out

    def test_fuel_exhaustion_exit_code(self, capsys):
        code, out, _ = invoke(capsys, "run", "t3", "--fuel", "1")
        assert code == 4
        assert "steps: 1" in out

    @pytest.mark.parametrize("strategy", engine.STRATEGY_NAMES)
    @pytest.mark.parametrize("n", [13, 64])
    def test_no_candidate_cap(self, capsys, tmp_path, strategy, n):
        # 2**n - 1 candidates at the first state (2**64 - 1 is past
        # sys.maxsize): `run` never lists them
        path = tmp_path / "wide.json"
        path.write_text(_independent_questions(n).to_json())
        code, out, _ = invoke(capsys, "run", str(path), "--format", "json",
                              "--strategy", strategy, "--seed", "3")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["final_state"] == sorted(f"a{i}" for i in range(n))
        assert result["is_prefixed"] is True and result["is_sound"] is True


class TestExplore:
    def test_t3_stats(self, capsys):
        code, out, _ = invoke(capsys, "explore", "t3")
        assert code == 0
        assert "node_count: 8" in out
        assert "edge_count: 7" in out
        assert "max_depth: 4" in out
        assert "edges_checked: 7" in out
        assert "check_failures: 0" in out

    def test_cascade_completes(self, capsys):
        code, out, _ = invoke(capsys, "explore", "cascade:2,1,0")
        assert code == 0
        assert "check_failures: 0" in out

    def test_seed_is_not_an_option(self, capsys):
        # only `run` has a seeded strategy
        for command in ("explore", "lint"):
            with pytest.raises(SystemExit) as err:
                main([command, "t3", "--seed", "1"])
            assert err.value.code == 2


class TestLint:
    def test_t3_clean(self, capsys):
        code, _, _ = invoke(capsys, "lint", "t3")
        assert code == 0

    def test_argmin_clean(self, capsys):
        code, _, _ = invoke(capsys, "lint", "argmin:3,2,1,0")
        assert code == 0

    def test_contract_breach_reported(self, capsys, tmp_path):
        path = tmp_path / "breach.json"
        path.write_text(_breach_doc().to_json())
        code, out, _ = invoke(capsys, "lint", str(path))
        assert code == 5
        assert "truth-false" in out

    def test_lemma_checks_are_off(self, capsys, monkeypatch):
        # lint reads only the reachable states, so it never runs a lemma
        def fail(*args, **kwargs):
            raise AssertionError("lint ran a lemma check")
        monkeypatch.setattr(engine, "check_edge", fail)
        monkeypatch.setattr(engine, "check_node", fail)
        code, _, _ = invoke(capsys, "lint", "cascade:3,2,0")
        assert code == 0
        with pytest.raises(SystemExit) as err:
            main(["lint", "t3", "--no-check-lemmas"])
        assert err.value.code == 2


class TestDeterminism:
    def test_json_output_is_byte_identical(self, capsys):
        argv = ["explore", "random:12,3,10,7", "--format", "json"]
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_run_seeded_random_reproducible(self, capsys):
        argv = ["run", "cascade:3,2,1", "--strategy", "seeded-random",
                "--seed", "9", "--format", "json"]
        _, out1, _ = invoke(capsys, *argv)
        _, out2, _ = invoke(capsys, *argv)
        assert out1 == out2


class TestBadSpecs:
    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "stats.json"
        code, out, _ = invoke(capsys, "explore", "t3", "--format", "json",
                              "--output", str(out_path))
        assert code == 0
        assert out == ""
        data = json.loads(out_path.read_text())
        assert data["node_count"] == 8


# (argv, or a builder taking tmp_path; expected exit code; part of stderr)
EXIT_CODE_CASES = [
    pytest.param(["validate", "t3"], 0, "", id="ok"),
    pytest.param(["validate", "cascade:1,2"], 2, "cascade takes",
                 id="bad-builtin-spec"),
    pytest.param(_on_file("validate", _unknown_key_doc), 2,
                 "unknown condition key", id="unknown-condition-key"),
    pytest.param(_on_text("validate", _t3_with(_duplicate_atom_and_bad_condition)), 2,
                 "condition must be a single-key object",
                 id="bad-condition-before-duplicate-atom"),
    pytest.param(["run", "t3", "--fuel", "0"], 2, "--fuel", id="fuel-zero"),
    pytest.param(_non_utf8, 2, "is not UTF-8",
                 id="non-utf8-file"),
    pytest.param(["explore", "t3", "--max-nodes", "-5"], 2, "--max-nodes",
                 id="max-nodes-negative"),
    pytest.param(["explore", "t3", "--max-depth", "-1"], 2, "--max-depth",
                 id="max-depth-negative"),
    pytest.param(["explore", "t3", "--max-depth", "0"], 4, "at depth 0",
                 id="max-depth-zero"),
    pytest.param(["validate", "/no/such/file.json"], 3, "/no/such/file.json",
                 id="missing-file"),
    pytest.param(lambda tmp: ["explore", "t3", "--output",
                              str(tmp / "missing" / "out.txt")],
                 3, "out.txt", id="output-into-missing-dir"),
    pytest.param(["run", "t3", "--fuel", "1"], 4, "", id="fuel"),
    pytest.param(["explore", "t3", "--max-depth", "2"], 4, "branch prefix",
                 id="depth-budget"),
    pytest.param(["explore", "t3", "--max-nodes", "2"], 4, "branch prefix",
                 id="node-budget"),
    pytest.param(_on_file("explore", lambda: _independent_questions(13)),
                 4, "more than 4096 candidates", id="candidate-cap"),
    pytest.param(_on_file("explore", lambda: _independent_questions(64)),
                 4, "more than 4096 candidates", id="candidate-cap-past-maxsize"),
    pytest.param(_on_file("run", lambda: _independent_questions(65)),
                 4, "65 proposals exceed cap 64", id="proposal-cap"),
    pytest.param(_on_file("lint", _breach_doc), 5, "",
                 id="lint-breach"),
    pytest.param(_on_text("run", _deep_condition("and", 400)), 2,
                 "nested more than 100 levels", id="condition-too-deep"),
    pytest.param(_on_text("validate", _deep_condition("not", 3000)), 2,
                 "JSON nested too deeply", id="json-too-deep"),
    pytest.param(_on_text("validate", _t3_with(_set("atoms", 5))), 2,
                 "atoms must be a list", id="atoms-not-a-list"),
    pytest.param(_on_text("validate", _t3_with(_set("truth_rules", 3))), 2,
                 "truth_rules must be a list", id="truth-rules-not-a-list"),
    pytest.param(_on_text("validate", _t3_with(_set("atoms", 0, "level", "1"))), 2,
                 "level must be an integer", id="level-string"),
    pytest.param(_on_text("validate", _t3_with(_set("atoms", 0, "level", 1.5))), 2,
                 "level must be an integer", id="level-float"),
    pytest.param(_on_text("validate", _t3_with(_set("atoms", 0, "level", True))), 2,
                 "level must be an integer", id="level-bool"),
    pytest.param(_on_text("validate", _t3_with(_set("atoms", 0, "id", ["a0"]))), 2,
                 "must be strings", id="atom-id-list"),
    pytest.param(_on_text("validate", _t3_with(_set("truth_rules", 0, "atom", ["a0"]))),
                 2, "must be an id string", id="truth-rule-atom-list"),
    pytest.param(_on_text("validate",
                          _t3_with(_set("realizer_rules", 0, "propose", [["a0"]]))),
                 2, "propose must be a list of atom id strings",
                 id="propose-entry-list"),
    pytest.param(_on_text("validate", _t3_with(_set("atoms", 3, "level", 1001))), 2,
                 "level 1001 above 1000", id="level-above-max"),
    pytest.param(_on_text("explore", _t3_with(_set("atoms", 3, "level", 1000))), 0,
                 "", id="level-at-max"),
    pytest.param(["validate", "cascade:65,1,0"], 2,
                 "depth*width + 1 must be at most 64", id="cascade-too-deep"),
    pytest.param(["validate", "cascade:1,65,0"], 2,
                 "depth*width + 1 must be at most 64", id="cascade-too-wide"),
    # the root proposes depth*width + 1 atoms, which the proposal cap bounds
    pytest.param(["validate", "cascade:64,1,0"], 2, "(got 65)",
                 id="cascade-past-proposal-cap"),
    pytest.param(["validate", "cascade:63,1,0"], 0, "", id="cascade-at-max"),
    pytest.param(["run", "cascade:21,3,0"], 0, "", id="cascade-product-at-max"),
]


@pytest.mark.parametrize("argv, expected, err_part", EXIT_CODE_CASES)
def test_exit_code(capsys, tmp_path, argv, expected, err_part):
    if callable(argv):
        argv = argv(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert err_part in err
    assert "Traceback" not in err


# exit codes README documents
DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}


def _spec(name, *fields):
    return name + ":" + ",".join(str(f) for f in fields)


def _in_or_past(low, high, small):
    """A small in-range value, or one just outside `low..high`."""
    return st.one_of(st.integers(low, min(high, small)),
                     st.sampled_from([low - 1, high + 1]))


BUILTIN_SPECS = st.one_of(
    st.just("t3"),
    st.lists(st.integers(0, 9), max_size=40).map(lambda xs: _spec("argmin", *xs)),
    st.tuples(st.integers(-1, 6), st.integers(-1, 6), st.integers(-1, 6))
    .map(lambda t: _spec("cascade", *t)),
    st.tuples(_in_or_past(1, RANDOM_MAX_ATOMS, 8),
              _in_or_past(0, RANDOM_MAX_LEVEL, 3),
              _in_or_past(0, RANDOM_MAX_RULES, 10),
              st.integers(-1, 50))
    .map(lambda t: _spec("random", *t)),
)
FLAG_VALUES = st.integers(-1, 50)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["validate", "run", "explore", "lint"]))
    argv = [command, draw(BUILTIN_SPECS)]
    if command == "run":
        argv += ["--fuel", str(draw(FLAG_VALUES)),
                 "--strategy", draw(st.sampled_from(engine.STRATEGY_NAMES)),
                 "--seed", str(draw(FLAG_VALUES))]
    elif command in ("explore", "lint"):
        argv += ["--max-depth", str(draw(FLAG_VALUES)),
                 "--max-nodes", str(draw(FLAG_VALUES))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_every_argv_exits_with_a_documented_code(argv):
    # the specs stay small, and explore/lint always get a bounded --max-nodes
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in DOCUMENTED_EXIT_CODES, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
