"""The CLI's printed bytes and exit codes on fixed calls stay as recorded.

The golden digests of the benchmark hash parsed JSON only; these pins
hash the exact stdout and stderr bytes of `validate`, `explore`, `lint`
and `run` in both formats, and of command lines argparse rejects (see
`record_output_pins.py` for the calls and how to re-record).
"""

import json

import pytest

from record_output_pins import CASES, PINS_PATH, call

PINS = json.loads(PINS_PATH.read_text())


def test_pins_cover_every_case():
    assert [pin["argv"] for pin in PINS] == CASES


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: " ".join(pin["argv"]))
def test_output_matches_pin(pin):
    assert call(pin["argv"]) == (pin["exit"], pin["stdout_sha256"],
                                 pin["stderr_sha256"])
