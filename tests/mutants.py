#!/usr/bin/env python3
"""Registered mutants of ``src/bihomsuper``, each with the tests that must catch it.

Run from the root of a checkout:

    python tests/mutants.py              # every registered mutant
    python tests/mutants.py --only NAME  # one of them (repeatable)

Each mutant replaces one exact snippet of one source file.  The runner copies
``src/`` to a temporary directory, runs every named test on the unmutated copy
(they must pass), then applies one mutant at a time to a fresh copy and runs
its named tests with pytest.  A mutant is caught only if every test named for
it fails.  The exit status is 1 when the unmutated copy fails or a mutant
survives.  ``tests/test_mutants.py`` checks, in tier-1, that every snippet
still occurs exactly once, so a refactor that moves one updates this registry.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/bihomsuper
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids that must all fail on the mutant


LINALG = "tests/test_linalg.py::"
CORE = "tests/test_core.py::"
CLI = "tests/test_cli.py::"
DOCUMENTS = "tests/test_documents.py::"
DEFORMATIONS = "tests/test_deformations.py::"
DERIVATIONS = "tests/test_derivations.py::"
INTEGER = "tests/test_integer_kernels.py::"
GOLDEN = "tests/test_golden_reports.py::test_machine_report_matches_golden"
_BACK_SUBSTITUTION_RESCALE = "sol, den, s = [x * k for x in sol], den * k, s * k"
_COMMUTATOR_DENOMINATOR = "d, acc = X._d * m._d, {}"
_COMMUTATOR_TESTS = (INTEGER + "test_commutation_matches_dense_products_with_denominators",
                     DERIVATIONS + "test_derivation_reports_match_dense_oracle")
_STORED_FORM = CORE + "test_stored_form_matches_the_dense_oracle"

MUTANTS = (
    # linalg: fraction-free back-substitution and the int-row fast path of _primitive
    Mutant("back-substitution-earlier-coordinates-not-rescaled", "linalg.py",
           _BACK_SUBSTITUTION_RESCALE, "den, s = den * k, s * k",
           (LINALG + "test_kernel_basis_rescales_the_coordinates_it_has_filled",
            LINALG + "test_solve_linear_rescales_the_coordinates_it_has_filled",
            LINALG + "test_invert_matrix_rescales_the_coordinates_it_has_filled",
            LINALG + "test_int_mapping_and_fraction_rows_give_the_same_results",
            LINALG + "test_kernel_basis_equals_the_rref_nullspace_on_respread_rows",
            DERIVATIONS + "test_solver_bases_match_dense_oracle_on_perturbed_algebras",
            GOLDEN + "[derivations__mixed_parity__s1]")),
    Mutant("back-substitution-denominator-not-multiplied", "linalg.py",
           _BACK_SUBSTITUTION_RESCALE, "sol, s = [x * k for x in sol], s * k",
           (LINALG + "test_kernel_basis_rescales_the_coordinates_it_has_filled",
            LINALG + "test_solve_linear_rescales_the_coordinates_it_has_filled",
            LINALG + "test_invert_matrix_rescales_the_coordinates_it_has_filled",
            LINALG + "test_int_mapping_and_fraction_rows_give_the_same_results",
            LINALG + "test_solve_linear_equals_the_rref_solution_on_respread_systems",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            GOLDEN + "[quasiderivation__twistable__map-alpha_s2_r1]")),
    Mutant("primitive-int-path-for-a-fraction-row", "linalg.py",
           "if any(type(c) is not int for _, c in pairs):", "if all(type(c) is not int for _, c in pairs):",
           (LINALG + "test_solve_linear_consistent_and_inconsistent",
            LINALG + "test_solve_linear_rescales_the_coordinates_it_has_filled",
            LINALG + "test_invert_matrix_rescales_the_coordinates_it_has_filled",
            LINALG + "test_int_mapping_and_fraction_rows_give_the_same_results",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            GOLDEN + "[quasiderivation__ternary_basic__map-R]")),
    # derivations: the Leibniz rows over one denominator per system
    Mutant("leibniz-rows-rescale-dropped", "derivations.py",
           "scale = f.numerator * (d // f.denominator)", "scale = f.numerator",
           (INTEGER + "test_linearised_rows_match_dense_rows_with_denominators",
            INTEGER + "test_solver_rows_match_dense_oracles_with_denominators",
            DERIVATIONS + "test_solver_bases_match_dense_oracle_on_perturbed_algebras",
            "tests/test_cli.py::test_twist_power_within_the_digit_limit_is_solved",
            GOLDEN + "[derivations__twistable__s2_r1]")),
    Mutant("quasiderivation-rhs-not-multiplied-by-d", "derivations.py",
           "rhs.append(-targets.get(t, {}).get(k, ZERO) * d)", "rhs.append(-targets.get(t, {}).get(k, ZERO))",
           (INTEGER + "test_linearised_rows_match_dense_rows_with_denominators",
            INTEGER + "test_solver_rows_match_dense_oracles_with_denominators",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle")),
    # derivations: the commutation rows read both twists
    Mutant("commutation-rows-alpha-only", "derivations.py",
           "for m in (A.alpha, A.beta):", "for m in (A.alpha,):",
           (INTEGER + "test_solver_rows_match_dense_oracles_with_denominators",)),
    Mutant("commutation-rows-beta-only", "derivations.py",
           "for m in (A.alpha, A.beta):", "for m in (A.beta,):",
           (INTEGER + "test_solver_rows_match_dense_oracles_with_denominators",)),
    # core: twist commutation summed in ints over d_X d_m
    Mutant("commutator-d_m-dropped", "core.py", _COMMUTATOR_DENOMINATOR,
           "d, acc = X._d, {}", _COMMUTATOR_TESTS),
    Mutant("commutator-d_X-dropped", "core.py", _COMMUTATOR_DENOMINATOR,
           "d, acc = m._d, {}", _COMMUTATOR_TESTS),
    Mutant("commutator-d_m-for-both", "core.py", _COMMUTATOR_DENOMINATOR,
           "d, acc = m._d * m._d, {}", _COMMUTATOR_TESTS),
    Mutant("commutator-d_X-for-both", "core.py", _COMMUTATOR_DENOMINATOR,
           "d, acc = X._d * X._d, {}", _COMMUTATOR_TESTS),
    Mutant("commutator-m-X-sign-flipped", "core.py",
           "[((k, c), -a) for k, a in m._cols[r]]", "[((k, c), a) for k, a in m._cols[r]]",
           _COMMUTATOR_TESTS + (_STORED_FORM,)),
    # core: the stored form (d, int sparse columns) of a GradedMap is canonical and graded
    Mutant("stored-denominator-not-reduced", "core.py",
           "g = gcd(d, *(n for column in cols for _, n in column))", "g = 1",
           (CORE + "test_equal_maps_store_one_form", _STORED_FORM)),
    Mutant("stored-zero-entry-kept", "core.py",
           "cols = tuple(tuple([(k, n) for k, n in column if n]) for column in columns)",
           "cols = tuple(tuple(column) for column in columns)",
           (CORE + "test_equal_maps_store_one_form", _STORED_FORM, CORE + "test_inverse_exact_and_singular",
            DERIVATIONS + "test_supercommutator_basics")),
    Mutant("stored-grading-not-checked", "core.py",
           "bad = [(k, i) for i, column in enumerate(cols) for k, _ in column if P[k] ^ P[i] != parity]",
           "bad = []",
           (CORE + "test_graded_map_parity_invariant", _STORED_FORM,
            DOCUMENTS + "test_map_grading_violation_names_its_first_entry_by_rows")),
    # documents: a map is printed from its stored form, n / d per entry
    Mutant("map-tree-prints-the-numerator", "documents.py",
           "str(Fraction(n, d)) if n", "str(n) if n",
           (_STORED_FORM, GOLDEN + "[derivations__twistable__s2_r1]", GOLDEN + "[twist3__twistable__swapped]")),
    # cli: |det| of a twist by fraction-free (Bareiss) elimination of its ints over d
    Mutant("bareiss-division-by-previous-pivot-dropped", "cli.py", "row[c] * y) // previous", "row[c] * y) // 1",
           (CLI + "test_abs_det_pivots_by_position", CLI + "test_abs_det_matches_fraction_elimination_on_drawn_maps",
            CLI + "test_abs_det_matches_fraction_elimination[parities3-rows3-0]")),
    Mutant("bareiss-row-swap-dropped", "cli.py", "rows[c], rows[p] = rows[p], rows[c]", "pass",
           (CLI + "test_abs_det_matches_fraction_elimination_on_drawn_maps",
            CLI + "test_abs_det_matches_fraction_elimination[parities3-rows3-0]")),
    Mutant("abs-det-denominator-ignored", "cli.py", "Fraction(abs(previous), m._d ** len(rows))",
           "Fraction(abs(previous))",
           (CLI + "test_abs_det_pivots_by_position", CLI + "test_abs_det_matches_fraction_elimination_on_drawn_maps",
            CLI + "test_abs_det_matches_fraction_elimination[parities4-rows4-1]")),
    # derivations: the Koszul sign of the maps that D moves past
    Mutant("leibniz-koszul-sign-dropped", "derivations.py", "[signed] * p + [D]", "[M] * p + [D]",
           (INTEGER + "test_linearised_rows_match_dense_rows_with_denominators",
            DERIVATIONS + "test_derivation_reports_match_dense_oracle",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            DERIVATIONS + "test_solver_bases_match_dense_oracle_on_perturbed_algebras",
            DERIVATIONS + "test_binary_solver_matches_dense_oracle")),
    # deformations: the order of one composition term's basis tuple
    Mutant("composition-term-order-swapped", "deformations.py", "(1, (0, 1, 3, 2, 4),", "(1, (0, 1, 2, 3, 4),",
           (INTEGER + "test_composition_sums_match_dense_oracles",
            DEFORMATIONS + "test_deformation_reports_match_dense_oracle",
            DEFORMATIONS + "test_table_path_matches_direct_composition",
            GOLDEN + "[deformation-check__twistable]")),
)


def apply(mutant: Mutant, package: Path) -> None:
    """Replace the mutant's snippet in the copy of the package at ``package``."""
    path = package / mutant.file
    source = path.read_text()
    if source.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {source.count(mutant.snippet)} times in {mutant.file}")
    path.write_text(source.replace(mutant.snippet, mutant.replacement))


def _junit_key(node: str) -> tuple[str, str]:
    """The (classname, name) that pytest's JUnit XML gives the test with this node id."""
    path, *parts = node.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *parts[:-1]]), parts[-1]


def failed_tests(src: Path, tests: list[str], workdir: Path) -> set[str]:
    """Run ``tests`` against the package under ``src``; the node ids that failed or errored.

    A named test that pytest did not report (a stale node id) counts as failed,
    so the unmutated copy refuses it instead of a mutant reading as caught.
    """
    report = workdir / "junit.xml"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no",
                    f"--junitxml={report}", *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    passed = {(case.get("classname"), case.get("name")) for case in ET.parse(report).iter("testcase")
              if not any(child.tag in ("failure", "error", "skipped") for child in case)}
    return {test for test in tests if _junit_key(test) not in passed}


def run(mutants: list[Mutant]) -> int:
    with tempfile.TemporaryDirectory(prefix="bihomsuper-mutants-") as tmp:
        tmp = Path(tmp)
        clean = tmp / "clean"
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({test for mutant in mutants for test in mutant.tests})
        broken = failed_tests(clean, every_test, tmp)
        if broken:
            print(f"the unmutated copy fails {len(broken)} named tests:", *sorted(broken), sep="\n  ")
            return 1
        print(f"unmutated copy: {len(every_test)} named tests pass")
        survivors = []
        for mutant in mutants:
            copy = tmp / "mutant"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(clean, copy)
            apply(mutant, copy / "bihomsuper")
            passing = set(mutant.tests) - failed_tests(copy, list(mutant.tests), tmp)
            if passing:
                survivors.append(mutant.name)
                print(f"SURVIVED: {mutant.name}; these named tests still pass:", *sorted(passing), sep="\n  ")
            else:
                print(f"caught: {mutant.name} ({len(mutant.tests)} tests)")
        print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants caught")
        return 1 if survivors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", metavar="NAME", choices=[m.name for m in MUTANTS],
                        help="run only this mutant (repeatable)")
    args = parser.parse_args(argv)
    return run([m for m in MUTANTS if not args.only or m.name in args.only])


if __name__ == "__main__":
    sys.exit(main())
