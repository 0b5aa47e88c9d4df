"""Record the exit code, stdout digest and stderr digest of fixed CLI calls.

The pins in `tests/data/output_pins.json` hold, for each call in `CASES`,
the exit code and the sha256 of the bytes `kspace` writes to stdout and to
stderr.  `tests/test_output_pins.py` checks them, so a change that alters
any printed byte of these calls fails tier-1.  Instance files are named
relative to `tests/data`, where each call runs.  Re-record only when a
change to the output is intended:

    PYTHONPATH=src python tests/record_output_pins.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from kspace.cli import main
from kspace.engine import STRATEGY_NAMES

DATA_DIR = Path(__file__).parent / "data"
PINS_PATH = DATA_DIR / "output_pins.json"

#: t3 with every atom id and question renamed to non-ASCII text (quotes,
#: a backslash, a tab, an astral character)
UNICODE_DOC = "unicode_ids.json"
#: t3 plus a rule that proposes c2 at every state: `lint` reports violations
BREACH_DOC = "breach.json"


def _commands() -> list[list[str]]:
    calls = []
    for spec in ("t3", "cascade:6,2,0", "argmin:5,3,7,3,9",
                 "random:12,3,10,7", "cascade:4,2,1"):
        calls += [["explore", spec], ["lint", spec], ["run", spec]]
    calls += [["explore", "cascade:8,3,0", "--no-check-lemmas"],
              ["lint", "cascade:8,3,0"], ["run", "cascade:8,3,0"]]
    calls += [["run", "cascade:4,2,1", "--strategy", name, "--seed", "3"]
              for name in STRATEGY_NAMES]
    # budget errors (exit 4): a partial trace, and no output at all
    calls += [["run", "cascade:6,2,0", "--fuel", "2"],
              ["explore", "cascade:6,2,0", "--max-nodes", "10"]]
    # explorer budget errors of both kinds, each with a partial tree
    calls += [["explore", "cascade:6,2,0", "--max-depth", "3"],
              ["lint", "cascade:8,3,0", "--max-nodes", "1000"],
              ["lint", "t3", "--max-depth", "2"]]
    calls += [["validate", spec] for spec in ("t3", "cascade:4,2,1", UNICODE_DOC)]
    calls += [[command, UNICODE_DOC] for command in ("explore", "lint", "run")]
    calls += [["lint", BREACH_DOC]]
    return calls


#: every command in the text and the json format, then command lines that
#: argparse rejects (exit 2, usage on stderr)
CASES = [argv + ["--format", fmt] for argv in _commands()
         for fmt in ("text", "json")] + [
    [],
    ["frobnicate", "t3"],
    ["run", "t3", "--fuel", "0"],
    ["explore", "t3", "extra"],
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout sha256 and stderr sha256 of one in-process CLI
    call, run in `DATA_DIR` with argparse's line width fixed at 80."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA_DIR)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, _sha256(out.getvalue()), _sha256(err.getvalue())


def record() -> list[dict]:
    pins = []
    for argv in CASES:
        code, stdout, stderr = call(argv)
        pins.append({"argv": argv, "exit": code, "stdout_sha256": stdout,
                     "stderr_sha256": stderr})
    return pins


if __name__ == "__main__":
    PINS_PATH.parent.mkdir(exist_ok=True)
    PINS_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {len(CASES)} pins to {PINS_PATH}", file=sys.stderr)
