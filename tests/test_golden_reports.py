"""Machine reports of every CLI command, compared byte for byte with goldens.

The goldens under ``tests/golden/reports`` were written by
``tests/golden/regenerate.py``.  Any difference in verdicts, totals,
violation order, residual signs, rule names, derived tensors or digests
shows up here.
"""

import json
from pathlib import Path

import pytest

from golden.regenerate import run_case

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_every_command_has_a_golden_report():
    from bihomsuper.cli import _HANDLERS

    assert {case["argv"][0] for case in CASES} == set(_HANDLERS)
    assert {case["exit_code"] for case in CASES} == {0, 1}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_machine_report_matches_golden(case):
    code, text = run_case(case["argv"])
    expected = (GOLDEN / "reports" / f"{case['name']}.json").read_text(encoding="utf-8")
    assert code == case["exit_code"]
    assert text == expected
