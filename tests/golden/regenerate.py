"""Write the golden machine reports that ``tests/test_golden_reports.py`` compares.

Run from the root of a checkout:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case is one CLI run with ``--format machine``.  Every command is run on
every document under ``tests/data`` and ``tests/golden/docs`` with its default
options, and kept when the document is accepted (exit code 0 or 1); explicit
option variants follow.  The reports, the exit codes and the argument lists
are written to ``tests/golden/``.  Regenerate only for an intended change of
report content, never to make a refactor pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
GOLDEN = TESTS / "golden"

# (case name, arguments after the command's document; paths relative to tests/)
VARIANTS = [
    ("check-rb__line_action__map-N_weight-2", ["check-rb", "data/line_action.json", "--map", "N", "--weight", "2"]),
    ("check-rb__ternary_basic__map-N_weight-0", ["check-rb", "data/ternary_basic.json", "--map", "N", "--weight", "0"]),
    ("check-rb__ternary_basic__map-N_weight-0_fail-fast",
     ["check-rb", "data/ternary_basic.json", "--map", "N", "--weight", "0", "--fail-fast"]),
    ("verify__perturbed_ternary__fail-fast", ["verify", "golden/docs/perturbed_ternary.json", "--fail-fast"]),
    ("verify__mixed_parity__fail-fast", ["verify", "golden/docs/mixed_parity.json", "--fail-fast"]),
    ("deformation-check__ternary_basic__w1-w2",
     ["deformation-check", "data/ternary_basic.json",
      "--omega1", "data/ternary_basic_w1.json", "--omega2", "data/ternary_basic_w2.json"]),
    ("deformation-check__ternary_basic__w2-w1_fail-fast",
     ["deformation-check", "data/ternary_basic.json",
      "--omega1", "data/ternary_basic_w2.json", "--omega2", "data/ternary_basic_w1.json", "--fail-fast"]),
    ("deformation-check__ternary_basic__w2-w1",
     ["deformation-check", "data/ternary_basic.json",
      "--omega1", "data/ternary_basic_w2.json", "--omega2", "data/ternary_basic_w1.json"]),
    ("derivations__ternary_basic__s1_r1_odd", ["derivations", "data/ternary_basic.json", "--s", "1", "--r", "1", "--parity", "odd"]),
    ("derivations__mixed_parity__odd", ["derivations", "golden/docs/mixed_parity.json", "--parity", "odd"]),
    ("derivations__mixed_parity__s1", ["derivations", "golden/docs/mixed_parity.json", "--s", "1"]),
    ("derivations__mixed_parity__r1_odd", ["derivations", "golden/docs/mixed_parity.json", "--r", "1", "--parity", "odd"]),
    ("quasiderivation__mixed_parity__map-Q", ["quasiderivation", "golden/docs/mixed_parity.json", "--map", "Q"]),
    ("quasiderivation__mixed_parity__map-N_s1", ["quasiderivation", "golden/docs/mixed_parity.json", "--map", "N", "--s", "1"]),
    ("quasiderivation__ternary_basic__map-R", ["quasiderivation", "data/ternary_basic.json", "--map", "R"]),
    ("derivations__twistable__s2_r1", ["derivations", "golden/docs/twistable.json", "--s", "2", "--r", "1"]),
    ("derivations__twistable__s1_r2", ["derivations", "golden/docs/twistable.json", "--s", "1", "--r", "2"]),
    ("quasiderivation__twistable__map-alpha_s2_r1",
     ["quasiderivation", "golden/docs/twistable.json", "--map", "alpha", "--s", "2", "--r", "1"]),
    ("quasiderivation__twistable__map-alpha_s1_r2",
     ["quasiderivation", "golden/docs/twistable.json", "--map", "alpha", "--s", "1", "--r", "2"]),
    ("check-rb__mixed_parity__map-N_weight-1", ["check-rb", "golden/docs/mixed_parity.json", "--map", "N", "--weight", "1"]),
    ("check-rb__mixed_parity__fail-fast", ["check-rb", "golden/docs/mixed_parity.json", "--fail-fast"]),
    ("rb-bracket__ternary_basic__weight-0", ["rb-bracket", "data/ternary_basic.json", "--weight", "0"]),
    ("rb-bracket__twistable__map-P_weight--1", ["rb-bracket", "golden/docs/twistable.json", "--map", "P", "--weight", "-1"]),
    ("rb-projection-twist__ternary_basic__map-P", ["rb-projection-twist", "data/ternary_basic.json", "--map", "P"]),
    ("rb-transfer__line_action__weight-1", ["rb-transfer", "data/line_action.json", "--weight", "1"]),
    ("rb-transfer__mixed_parity__map-N_weight-0", ["rb-transfer", "golden/docs/mixed_parity.json", "--map", "N", "--weight", "0"]),
    ("check-nijenhuis__ternary_basic__map-R", ["check-nijenhuis", "data/ternary_basic.json", "--map", "R"]),
    ("check-nijenhuis__mixed_parity__map-R", ["check-nijenhuis", "golden/docs/mixed_parity.json", "--map", "R"]),
    ("n-brackets__twistable__map-R", ["n-brackets", "golden/docs/twistable.json", "--map", "R"]),
    ("trivial-deformation__ternary_basic__map-R", ["trivial-deformation", "data/ternary_basic.json", "--map", "R"]),
    ("nijenhuis-rb-compat__ternary_basic__map-D", ["nijenhuis-rb-compat", "data/ternary_basic.json", "--map", "D", "--weight", "0"]),
    ("derivation-nijenhuis-rb__ternary_basic__map-R", ["derivation-nijenhuis-rb", "data/ternary_basic.json", "--map", "R"]),
    ("induce-tau__line_action__override", ["induce-tau", "data/line_action.json", "--override-tau-conditions"]),
    ("twist3__twistable__swapped", ["twist3", "golden/docs/twistable.json", "--alpha", "beta", "--beta", "alpha"]),
]


def documents() -> list[Path]:
    return sorted((TESTS / "data").glob("*.json")) + sorted((GOLDEN / "docs").glob("*.json"))


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one machine-format CLI run, from ``tests/``."""
    from bihomsuper.cli import main

    resolved = [str(TESTS / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved + ["--format", "machine"])
    return code, out.getvalue()


def default_cases() -> list[tuple[str, list[str]]]:
    from bihomsuper.cli import COMMANDS

    cases = []
    for command, row in COMMANDS.items():
        for doc in documents():
            rel = doc.relative_to(TESTS).as_posix()
            argv = [command, rel]
            if row.aux:
                argv += ["--omega1", "data/ternary_basic_w1.json", "--omega2", "data/ternary_basic_w2.json"]
            cases.append((f"{command}__{doc.stem}", argv))
    return cases


def main() -> None:
    sys.path.insert(0, str(TESTS.parent / "src"))
    manifest = []
    for name, argv in default_cases() + VARIANTS:
        code, text = run_case(argv)
        if code == 2:
            continue
        (GOLDEN / "reports" / f"{name}.json").write_text(text, encoding="utf-8")
        manifest.append({"name": name, "argv": argv, "exit_code": code})
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"{len(manifest)} golden reports written")


if __name__ == "__main__":
    main()
