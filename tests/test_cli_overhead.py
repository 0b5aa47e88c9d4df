"""The CLI's per-call shortcuts change no output: the `--format json`
writer, one parse per command line, and the cyclic GC paused for a
command."""

import contextlib
import gc
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kspace import cli
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
