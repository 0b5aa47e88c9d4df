"""`lint`, which reads each state's contract violation off the explorer's
one pass, against the former two-pass `lint` (`reference_lint`): the same
exit code, stdout and stderr, in both output formats."""

import contextlib
import io
import json
import random

import pytest

from kspace.cli import main
from kspace.instances import builtin_t3, gen_random

import reference_lint
from test_acceptance import _fuzz_params
from test_cli import _breach_doc

MUTANT_SEEDS = range(200)


def _answered_breach_doc():
    doc = builtin_t3()
    # proposing a0 once it is in the state breaks the answered clause
    doc.realizer_rules.append({"condition": {"present": "a0"}, "propose": ["a0"]})
    return doc


def _mutant_doc(seed):
    """The fuzz document of `seed` with each conjunct of its realizer rules
    dropped at random, so that its raw proposals may break the contract."""
    doc = gen_random(*_fuzz_params(seed), seed)
    rng = random.Random(seed)
    for rule in doc.realizer_rules:
        rule["condition"]["and"] = [c for c in rule["condition"]["and"]
                                    if rng.random() < 0.5]
    return doc


def _random_spec(seed):
    return "random:" + ",".join(map(str, (*_fuzz_params(seed), seed)))


# (id, builtin spec or a document to write to a file)
CASES = [("t3", "t3")]
CASES += [(f"cascade:{k},{w},{s}",) * 2
          for k in range(1, 6) for w in (1, 2) for s in (0, 1)]
CASES += [(f"fuzz:{seed}", _random_spec(seed)) for seed in range(200)]
CASES += [(f"mutant:{seed}", _mutant_doc(seed)) for seed in MUTANT_SEEDS]
CASES += [("breach-untrue", _breach_doc()), ("breach-answered", _answered_breach_doc())]


def _lint(cli_main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _instance_arg(instance, tmp_path):
    if isinstance(instance, str):
        return instance
    path = tmp_path / "instance.json"
    path.write_text(instance.to_json())
    return str(path)


@pytest.mark.parametrize("instance", [instance for _, instance in CASES],
                         ids=[name for name, _ in CASES])
def test_matches_reference(instance, tmp_path):
    arg = _instance_arg(instance, tmp_path)
    for fmt in ("text", "json"):
        argv = ["lint", arg, "--format", fmt, "--max-nodes", "100000"]
        assert _lint(main, argv) == _lint(reference_lint.main, argv), fmt


def test_mutants_break_the_contract(tmp_path):
    """Most mutants report violations, so the comparison above covers
    violation output, not only clean runs."""
    reported = 0
    for seed in MUTANT_SEEDS:
        argv = ["lint", _instance_arg(_mutant_doc(seed), tmp_path),
                "--format", "json", "--max-nodes", "100000"]
        code, out, _ = _lint(main, argv)
        if code == 5:
            reported += 1
            assert json.loads(out)["violations"]
    assert reported >= len(MUTANT_SEEDS) // 2
