"""The CLI's per-call shortcuts change no output: the `--format json`
writer, the direct parse of a well-formed command line, and the cyclic GC
paused for a command.

The direct parse is checked against `PARSER.parse_args` three ways: fixed
lines run through `main` (`PARSE_CASES`), lines that Hypothesis draws from
every command's flags and values, well-formed or not (same namespace, or
the same exit code, stdout and stderr), and a guard that the benchmark's
command-line shapes never reach argparse."""

import argparse
import contextlib
import gc
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kspace import cli, engine
from kspace.cli import _to_json, main

BREACH_DOC = Path(__file__).parent / "data" / "breach.json"

# any code point, lone surrogates included, and the characters JSON escapes
TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                         st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é😀')))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), TEXT,
                   st.sampled_from([10 ** 4299, -(10 ** 4299), -1, 0]))
JSON_VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner) | st.dictionaries(TEXT, inner),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example({})
@example([])
@example({"": [[], {}, [{}]], "\ud800": "\udfff"})
@example(["a", 1, "b"])
def test_writer_matches_json_dumps(value):
    assert _to_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_int_past_the_digit_limit_raises_value_error_in_both():
    value = {"trace": [{"level": 10 ** 5000}]}
    with pytest.raises(ValueError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(ValueError):
        _to_json(value)


@pytest.mark.parametrize("value", [1.5, {"x": [0.0]}, {1, 2}, ["a", {"b": {3}}]],
                         ids=["float", "nested-float", "set", "nested-set"])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        _to_json(value)


def _outcome(argv, output=None):
    """(exit code, stdout, stderr, text of the `output` file) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    written = None
    if output is not None and output.exists():
        written = output.read_text()
        output.unlink()
    return code, out.getvalue(), err.getvalue(), written


VALID_LINES = [
    ["validate", "t3"],
    ["validate", "cascade:4,2,1", "--format", "json", "--output", "OUT"],
    ["run", "t3", "--strategy", "seeded-random", "--fuel", "5", "--seed", "2",
     "--format", "text"],
    ["run", "cascade:4,2,1", "--output", "OUT", "--format", "json"],
    ["explore", "cascade:4,2,1", "--max-depth", "3", "--max-nodes", "100",
     "--no-check-lemmas"],
    ["lint", "cascade:4,2,1", "--max-depth", "5", "--max-nodes", "50",
     "--format", "json"],
    ["explore", "--max-nodes", "5", "t3"],
    ["explore", "t3", "--format=json"],
    ["explore", "t3", "--max-d", "3"],
    ["run", "t3", "--str", "highest-level-first"],
    ["explore", "--", "t3"],
    ["run", "t3", "--"],
]
PARSE_CASES = VALID_LINES + [
    ["--", "explore", "t3"],
    ["explore", "t3", "--", "extra"],
    [],
    ["-h"],
    ["--help"],
    ["explore", "-h"],
    ["explore", "t3", "-h"],
    ["frobnicate", "t3"],
    ["explore"],
    ["explore", "t3", "extra"],
    ["explore", "t3", "--seed", "1"],
    ["lint", "t3", "--no-check-lemmas"],
    ["run", "t3", "--fuel", "0"],
    ["run", "t3", "--strategy", "bogus"],
    ["explore", "t3", "--format", "yaml"],
    ["validate", "cascade:6,,2,0"],
    # lines the direct parse leaves to argparse, and well-formed ones
    ["run", "t3", "--seed", "-1"],
    ["run", "t3", "--seed", "-x"],
    ["explore", "-", "--format", "json"],
    ["explore", "", "--format", "json"],
    ["explore", "-1"],
    ["explore", "t3", "--output", ""],
    ["explore", "t3", "--output", "-x"],
    ["explore", "t3", "--max-nodes"],
    ["explore", "t3", "--max-depth", "x"],
    ["explore", "t3", "--format", "json", "--format", "text"],
    ["explore", "t3", "--max-nodes", "0", "--max-nodes", "5"],
    ["explore", "t3", "--no-check-lemmas", "--no-check-lemmas"],
    ["explore", "t3", "--no-check-lemmas=1"],
    ["run", "t3", "--max-depth", "3"],
    ["lint", "--format", "json"],
    ["lint", "t3", "-h", "--format", "json"],
    ["validate", "t3", "--help"],
    ["validate", "--", "-"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parsing_once_prints_what_argparse_prints(monkeypatch, tmp_path, argv):
    output = tmp_path / "out.txt"
    argv = [str(output) if arg == "OUT" else arg for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")
    once = _outcome(argv, output)
    monkeypatch.setattr(cli, "_parse_args", cli.PARSER.parse_args)
    assert once == _outcome(argv, output)


@pytest.mark.parametrize("argv", VALID_LINES, ids=" ".join)
def test_a_valid_command_line_gives_argparse_namespace(argv):
    assert cli._parse_args(argv) == cli.PARSER.parse_args(argv)


def test_a_valid_command_line_skips_the_top_level_parser(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("parsed by the top-level parser")
    monkeypatch.setattr(cli.PARSER, "parse_args", fail)
    assert main(["explore", "t3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["node_count"] == 8


# every option string of the four commands, so a line can take a flag
# from the wrong command
FLAGS = sorted({flag for _, options, _ in cli._COMMANDS.values() for flag in options})
# each flag's values, valid or not
VALUES = ["json", "text", "bogus", *engine.STRATEGY_NAMES, "0", "1", "7",
          "-1", "-x", "1_0", "+3", " 3", "٣", "9" * 4400, "", "-", "t3", "a b"]
WORDS = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(VALUES),
    st.sampled_from(FLAGS).flatmap(lambda flag: st.sampled_from(
        [flag[:n] for n in range(2, len(flag))])),  # abbreviations
    st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.sampled_from(["-h", "--help", "--", "-", "--bogus", "-1", ""]),
    st.text(max_size=4),
)


def _admitted(command):
    """Each of the command's flags with a value it admits: well-formed
    chunks of its command line."""
    chunks = []
    for flag, action in cli._COMMANDS[command][1].items():
        if action.nargs == 0:
            chunks.append((flag,))
        else:
            values = action.choices or (["0", "1", "7"] if action.type else ["out", ""])
            chunks += [(flag, value) for value in values]
    return chunks


@st.composite
def command_lines(draw):
    """A command (or a word that is not one), then its flags with values it
    admits, mostly one positional, and sometimes other flags, values and
    words, in any order."""
    command = draw(st.sampled_from([*cli._COMMANDS] * 3 + ["frobnicate", "-h", "--"]))
    admitted = st.sampled_from(_admitted(command if command in cli._COMMANDS else "run"))
    chunks = draw(st.lists(admitted, max_size=4))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):  # positionals
        chunks.insert(draw(st.integers(0, len(chunks))),
                      (draw(st.sampled_from(["t3", "x.json", "cascade:4,2,1"])),))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # other words
        chunks.insert(draw(st.integers(0, len(chunks))), draw(st.one_of(
            st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
            st.tuples(WORDS))))
    return [command, *(word for chunk in chunks for word in chunk)]


def _parse_outcome(parse, argv):
    """The namespace `parse(argv)` returns, or its exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None)
@given(command_lines())
@example(["explore", "t3", "--max-nodes", "5", "--max-nodes", "0"])
@example(["run", "t3", "--strategy", "bogus", "--strategy", "seeded-random"])
@example(["explore", "t3", "--format", "json", "--no-check-lemmas", "cascade:4,2,1"])
@example(["lint", "t3", "--no-check-lemmas"])
@example(["run", "", "--seed", "-1"])
@example(["explore", "t3", "--output", "-x"])
def test_direct_parse_matches_argparse(argv):
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(cli.PARSER.parse_args, argv)


# the command-line shapes of the benchmark's workloads
BENCH_LINES = [
    ["explore", "fuzz0001.json", "--format", "json", "--max-depth", "60",
     "--max-nodes", "300000"],
    ["lint", "fuzz0001.json", "--format", "json", "--max-depth", "60",
     "--max-nodes", "300000"],
    ["explore", "cascade:8,3,0", "--no-check-lemmas", "--format", "json"],
    *(["run", "wide.json", "--format", "json", "--strategy", strategy, "--seed", "3"]
      for strategy in engine.STRATEGY_NAMES),
]


@pytest.mark.parametrize("argv", BENCH_LINES, ids=" ".join)
def test_the_benchmark_lines_never_reach_argparse(monkeypatch, argv):
    expected = cli.PARSER.parse_args(argv)

    def fail(*args, **kwargs):
        raise AssertionError("parsed by argparse")
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", fail)
    assert cli._parse_args(argv) == expected


def test_the_table_holds_each_command_parsers_option_strings():
    (subparsers,) = [action for action in cli.PARSER._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(cli._COMMANDS) == set(subparsers.choices)
    for name, parser in subparsers.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert set(cli._COMMANDS[name][1]) == flags - {"-h", "--help"}, name


GC_CASES = [
    pytest.param(["validate", "t3"], 0, id="success"),
    pytest.param(["validate", "cascade:1,2"], 2, id="kspace-error"),
    pytest.param(["run", "t3", "--fuel", "0"], 2, id="argparse-exit"),
]


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, expected", GC_CASES)
def test_gc_state_is_restored(restore_gc, enabled, argv, expected):
    (gc.enable if enabled else gc.disable)()
    assert _outcome(argv)[0] == expected
    assert gc.isenabled() is enabled


def test_gc_is_paused_during_a_command(restore_gc, monkeypatch):
    gc.enable()
    seen = []
    resolve = cli.resolve_instance

    def record(spec):
        seen.append(gc.isenabled())
        return resolve(spec)
    monkeypatch.setattr(cli, "resolve_instance", record)
    assert main(["explore", "t3"]) == 0
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("argv", [
    ["explore", "cascade:6,2,0", "--format", "json"],
    ["lint", str(BREACH_DOC), "--format", "json"],
    ["run", "cascade:4,2,1", "--format", "json"],
    ["run", "argmin:5,3,7,3,9"],
    ["run", "random:8,3,10,1"],
    ["validate", "cascade:1,2"],
    ["explore", "t3", "--max-nodes", "2"],
], ids=lambda argv: " ".join(argv).replace(str(BREACH_DOC), "breach.json"))
def test_a_command_leaves_no_cyclic_garbage(restore_gc, argv):
    # the premise of the pause: reference counting frees what a command builds
    gc.disable()
    gc.collect()
    _outcome(argv)
    assert gc.collect() == 0
