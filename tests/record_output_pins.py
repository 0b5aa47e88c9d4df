"""Record the exit code and stdout digest of fixed CLI calls.

The pins in `tests/data/output_pins.json` hold, for each call in `CASES`,
the exit code and the sha256 of the bytes `kspace` writes to stdout, in
both output formats.  `tests/test_output_pins.py` checks them, so a change
that alters any printed byte of these calls fails tier-1.  Re-record only
when a change to the output is intended:

    PYTHONPATH=src python tests/record_output_pins.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from kspace.cli import main
from kspace.engine import STRATEGY_NAMES

PINS_PATH = Path(__file__).parent / "data" / "output_pins.json"


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
    return calls


#: every command in the text and the json format
CASES = [argv + ["--format", fmt] for argv in _commands()
         for fmt in ("text", "json")]


def call(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout sha256 of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def record() -> list[dict]:
    pins = []
    for argv in CASES:
        code, digest = call(argv)
        pins.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    return pins


if __name__ == "__main__":
    PINS_PATH.parent.mkdir(exist_ok=True)
    PINS_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {len(CASES)} pins to {PINS_PATH}", file=sys.stderr)
