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
ORACLES = "tests/test_operator_oracles.py::"
ALGEBRAS = "tests/test_algebras.py::"
TAU = "tests/test_tau.py::"
ROTA_BAXTER = "tests/test_rota_baxter.py::"
_LONG_POWER_REFUSAL = CLI + "test_power_with_long_and_short_entries_is_refused_without_long_gcds"
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
           (LINALG + "test_invert_matrix_roundtrip_and_singular",
            LINALG + "test_invert_matrix_equals_the_rref_inverse_including_singular_matrices",
            LINALG + "test_presolved_rows_give_the_rref_answers",
            LINALG + "test_int_mapping_and_fraction_rows_give_the_same_results",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            GOLDEN + "[quasiderivation__ternary_basic__map-R]")),
    # linalg: the presolve makes a one-entry row the pivot {j: 1} and strikes column j from the other rows
    Mutant("presolve-fixed-column-not-a-pivot", "linalg.py", "= {j: [{j: 1}] for j in fixed}", "= {}",
           (LINALG + "test_presolved_rows_give_the_rref_answers",
            LINALG + "test_kernel_basis_equals_the_rref_nullspace_on_respread_rows",
            DERIVATIONS + "test_solver_bases_match_dense_oracle_on_perturbed_algebras",
            GOLDEN + "[derivations__ternary_basic]")),
    Mutant("presolve-two-entry-row-fixes-its-first-column", "linalg.py",
           "for pairs in rows if len(pairs) == 1}", "for pairs in rows if len(pairs) in (1, 2)}",
           (LINALG + "test_presolved_rows_give_the_rref_answers",
            LINALG + "test_solve_linear_equals_the_rref_solution_on_respread_systems",
            LINALG + "test_invert_matrix_equals_the_rref_inverse_including_singular_matrices",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            GOLDEN + "[rb-inverse-derivation__ternary_basic]")),
    Mutant("back-substitution-skips-a-two-entry-row", "linalg.py", "if len(row) == 1:", "if len(row) <= 2:",
           (LINALG + "test_presolved_rows_give_the_rref_answers",
            LINALG + "test_kernel_basis_equals_the_rref_nullspace_on_respread_rows",
            DERIVATIONS + "test_derivation_reports_match_dense_oracle",
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
    # derivations: the Leibniz rows cover only the unknowns that no commutation row with one nonzero
    # coefficient fixes at 0; a quasiderivation keeps the rows that this empties but whose right-hand
    # side is nonzero.  Counting a stored, cancelled 0 drops the unknowns of cancelled rows (every one
    # under identity twists), and the kernel takes maps the re-check refuses
    Mutant("fixing-row-counts-a-cancelled-zero", "derivations.py",
           "[pos for pos, c in row.items() if c]", "list(row)",
           (INTEGER + "test_linearised_rows_match_dense_rows_with_denominators",
            DERIVATIONS + "test_solver_bases_match_dense_oracle_on_perturbed_algebras",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            GOLDEN + "[derivations__ternary_basic]",
            GOLDEN + "[quasiderivation__ternary_basic__map-R]")),
    Mutant("fixing-row-with-two-entries", "derivations.py",
           ") == 1 for pos in nonzero}", ") in (1, 2) for pos in nonzero}",
           (INTEGER + "test_linearised_rows_match_dense_rows_with_denominators",
            INTEGER + "test_pushed_leibniz_residuals_match_dense_walk",
            INTEGER + "test_interleaved_queries_read_the_contractions_of_their_own_key")),
    Mutant("quasiderivation-emptied-rows-dropped", "derivations.py",
           "sorted(leibniz.keys() | nonzero)", "sorted(leibniz.keys())",
           (INTEGER + "test_linearised_rows_match_dense_rows_with_denominators",
            DERIVATIONS + "test_binary_quasiderivation_inconsistent_system",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            GOLDEN + "[quasiderivation__blocked_twist]")),
    # derivations: the Leibniz contractions kept per algebra and (s, r, parity), and the maps pushed through
    # them by core._push_sum, which every contraction_sum also runs
    Mutant("leibniz-memo-key-without-parity", "derivations.py", "key = s, r, parity", "key = s, r",
           (INTEGER + "test_interleaved_queries_read_the_contractions_of_their_own_key",
            DERIVATIONS + "test_binary_solver_matches_dense_oracle",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle")),
    Mutant("leibniz-slot-push-reads-a-column", "core.py",
           "for i, n in f._rows[t[p]]", "for i, n in f._cols[t[p]]",
           (INTEGER + "test_pushed_leibniz_residuals_match_dense_walk",
            DERIVATIONS + "test_derivation_reports_match_dense_oracle",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            GOLDEN + "[derivations__mixed_parity__s1]")),
    Mutant("leibniz-outer-term-sign-flipped", "core.py", "x *= scale", "x *= -scale",
           (INTEGER + "test_pushed_leibniz_residuals_match_dense_walk",
            DERIVATIONS + "test_derivation_reports_match_dense_oracle",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            GOLDEN + "[derivations__twistable__s2_r1]",
            GOLDEN + "[quasiderivation__twistable__map-alpha_s2_r1]")),
    # derivations: a slot row indexed by the wrong argument is refused by the solver's re-check
    # (TheoremContradictionError), with no oracle involved
    Mutant("linearise-slot-indexed-by-the-first-argument", "derivations.py",
           "by_row.get(t[p], ())", "by_row.get(t[0], ())",
           (DERIVATIONS + "test_solver_recheck_holds_on_every_corpus_query",)),
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
           "g = gcd(min(ns, key=abs, default=d), d, *ns)", "g = 1",
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
    # core: the content gcd of a stored form starts from its least entry, so a power of a twist
    # with long and short entries is reduced without a gcd of two long ones (a timed test)
    Mutant("stored-gcd-long-entries-first", "core.py", "g = gcd(min(ns, key=abs, default=d), d, *ns)",
           "g = gcd(d, *ns)", (_LONG_POWER_REFUSAL,)),
    # cli: an entry whose numerator and denominator differ in bit length by more than 10^limit has
    # bits is refused before any gcd or division of the two (a timed test)
    Mutant("printable-bit-length-gap-dropped", "cli.py",
           "any(abs(abs(n).bit_length() - d.bit_length()) > gap for n, d in entries) or any(", "any(",
           (_LONG_POWER_REFUSAL,)),
    # cli: one power M^N is refused unbuilt when rho(M)^N / n, with rho(M)^k >= |tr M^k| / n, passes the
    # digit limit; without the / n, rho(Id) would read n^(1/k) and identity twists would be refused
    Mutant("trace-bound-without-the-division-by-n", "cli.py",
           "ratio = Fraction(abs(trace), n * power._d)", "ratio = Fraction(abs(trace), power._d)",
           (CLI + "test_twist_power_of_identity_twists_is_solved",
            CLI + "test_determinant_refuses_only_what_it_proves_unprintable[alpha4-<lambda>-True-2]")),
    # documents: a map is printed from its stored form, n / d per entry
    Mutant("map-tree-prints-the-numerator", "documents.py",
           "str(n) if d == 1 else", "str(n) if d else",
           (_STORED_FORM, GOLDEN + "[derivations__twistable__s2_r1]", GOLDEN + "[twist3__twistable__swapped]")),
    # documents: one canonical JSON writer for documents, digests and machine reports
    Mutant("writer-keys-not-sorted", "documents.py", "for k in sorted(node)]", "for k in node]",
           (DOCUMENTS + "test_canonical_writer_matches_json_dumps",
            DOCUMENTS + "test_canonical_writer_matches_json_dumps_on_the_golden_files",
            GOLDEN + "[verify__ternary_basic]")),
    Mutant("writer-nested-indent-step-wrong", "documents.py", 'inner = newline + "  "', 'inner = newline + " "',
           (DOCUMENTS + "test_canonical_writer_matches_json_dumps",
            DOCUMENTS + "test_canonical_writer_matches_json_dumps_on_the_golden_files",
            GOLDEN + "[derivations__ternary_basic]")),
    # documents: each entry validated once, at its field path, and read into the stored forms directly
    Mutant("parser-parity-additivity-dropped", "documents.py",
           "_expect(parities[k] == sum(parities[a] for a in args) % 2,", "_expect(True,",
           (DOCUMENTS + "test_parity_violation_rejected_with_path", CLI + "test_input_error_exit_two")),
    Mutant("int-map-path-drops-a-denominator", "documents.py", "n * (d // q)", "n * d",
           (DOCUMENTS + "test_scalars_read_as_as_scalar_reads_them",
            GOLDEN + "[derivations__twistable__s2_r1]", GOLDEN + "[twist3__twistable__swapped]")),
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
    Mutant("leibniz-koszul-sign-dropped", "derivations.py", "[signed] * p + [_UNKNOWN]", "[M] * p + [_UNKNOWN]",
           (INTEGER + "test_linearised_rows_match_dense_rows_with_denominators",
            DERIVATIONS + "test_derivation_reports_match_dense_oracle",
            DERIVATIONS + "test_quasiderivation_verdicts_match_dense_oracle",
            DERIVATIONS + "test_solver_bases_match_dense_oracle_on_perturbed_algebras",
            DERIVATIONS + "test_binary_solver_matches_dense_oracle")),
    # Koszul signs of the paper's identities.  The corpus Heisenberg superalgebras are 2-step
    # nilpotent, so the nested brackets the first four multiply vanish there, and one dense walk
    # catches each of them
    Mutant("tau-expansion-middle-sign-without-a", "tau.py",
           "add_image(out, (a, s, b), image, -ksign(P[a] * P[s]) * c)",
           "add_image(out, (a, s, b), image, -ksign(P[s]) * c)",
           (ORACLES + "test_transfer_criterion_reports_match_dense_walk",)),
    Mutant("tau-expansion-third-sign-without-a", "tau.py",
           "ksign(P[s] * (P[a] + P[b])) * c)", "ksign(P[s] * P[b]) * c)",
           (ORACLES + "test_transfer_criterion_reports_match_dense_walk",)),
    Mutant("direct-jacobi-s2-without-uv", "algebras.py",
           "s2 = ksign((P[z] + P[v]) * (P[x] + P[y]) + P[u] * P[v])", "s2 = ksign((P[z] + P[v]) * (P[x] + P[y]))",
           (ORACLES + "test_jacobi_reports_match_dense_walk",)),
    Mutant("cyclic-jacobi-third-row-without-uv", "algebras.py",
           "1 + P[z] * P[v] + (P[v] + P[z]) * (P[x] + P[y]) + P[u] * P[v]),",
           "1 + P[z] * P[v] + (P[v] + P[z]) * (P[x] + P[y])),",
           (ORACLES + "test_jacobi_reports_match_dense_walk",
            TAU + "test_induction_theorem_on_gl21_with_its_supertrace")),
    Mutant("binary-jacobi-second-row-exponent", "algebras.py",
           "(1, (1, 2, 0), lambda P, x, y, z: P[x] * P[y]),", "(1, (1, 2, 0), lambda P, x, y, z: P[x] * P[z]),",
           (ORACLES + "test_jacobi_reports_match_dense_walk",
            ALGEBRAS + "test_jacobi_on_twisted_fixture_vs_bruteforce",
            ALGEBRAS + "test_cyclic_reformulation_matches_on_corpus",
            GOLDEN + "[verify__mixed_parity]")),
    Mutant("tau-beta-symmetry-sign-flipped", "tau.py",
           "add_image(sym, (j, i), {0: a * b}, -1)", "add_image(sym, (j, i), {0: a * b}, 1)",
           (ORACLES + "test_tau_condition_reports_match_dense_walk",
            TAU + "test_identity_twists_reduce_to_annihilation_only",
            GOLDEN + "[induce-tau__central_pair]")),
    Mutant("weighted-term-weight-power-off-by-one", "rota_baxter.py",
           "R.weight ** (len(I) - 1)", "R.weight ** len(I)",
           (ORACLES + "test_weighted_identity_and_bracket_match_dense_walk",
            INTEGER + "test_leibniz_weighted_and_nijenhuis_sums_match_dense_oracles",
            ROTA_BAXTER + "test_make_rb_bracket_matches_independent_subset_sum",
            GOLDEN + "[check-rb__ternary_basic]")),
    Mutant("skew-swap-koszul-sign-dropped", "algebras.py",
           "image, ksign(P[t[p]] * P[t[p + 1]]))", "image, 1)",
           (ORACLES + "test_skew_and_multiplicativity_reports_match_dense_walk",
            ALGEBRAS + "test_classical_super_skew_reduces",
            GOLDEN + "[verify__mixed_parity]",
            GOLDEN + "[twist3__mixed_parity]")),
    # deformations: the order of one composition term's basis tuple
    Mutant("composition-term-order-swapped", "deformations.py", "(1, (0, 1, 3, 2, 4),", "(1, (0, 1, 2, 3, 4),",
           (INTEGER + "test_composition_sums_match_dense_oracles",
            DEFORMATIONS + "test_deformation_reports_match_dense_oracle",
            DEFORMATIONS + "test_table_path_matches_direct_composition",
            GOLDEN + "[deformation-check__twistable]")),
    # core: one push kernel for contraction_sum and the Leibniz re-check, over the lcm of c.denominator * d * d_f
    Mutant("push-sum-coefficient-denominator-dropped", "core.py", "c.denominator * d * f._d", "d * f._d",
           (INTEGER + "test_contract_and_contraction_sum_match_dense_products",
            INTEGER + "test_leibniz_weighted_and_nijenhuis_sums_match_dense_oracles",
            ROTA_BAXTER + "test_make_rb_bracket_matches_independent_subset_sum")),
    # algebras: the two walks, one block each for _report; a walk that runs on under fail-fast reports
    # the same, so only the tests that count its evaluated tuples see it
    Mutant("walk-block-runs-on-under-fail-fast", "algebras.py",
           "            if fail_fast:\n                break", "            if False:\n                break",
           (ALGEBRAS + "test_fail_fast_jacobi_walk_evaluates_only_the_tuples_it_counts",
            ROTA_BAXTER + "test_fail_fast_weighted_identity_evaluates_only_the_tuples_it_counts")),
    Mutant("twisted-tables-alpha-in-every-slot", "algebras.py",
           "A.bracket.contract([A.beta, A.beta, A.alpha])", "A.bracket.contract([A.alpha] * 3)",
           (ORACLES + "test_jacobi_reports_match_dense_walk",
            ALGEBRAS + "test_make_twist_3_examples",
            ROTA_BAXTER + "test_projection_twisted_algebra",
            GOLDEN + "[verify__twistable]")),
    # deformations: the Nijenhuis form-consistency residual, inductive minus subset form
    Mutant("nijenhuis-subset-sign-flipped", "deformations.py",
           "(-ksign(len(I) - 1), A.bracket, maps, powers[len(I)])",
           "(ksign(len(I) - 1), A.bracket, maps, powers[len(I)])",
           (ORACLES + "test_nijenhuis_reports_and_n_brackets_match_dense_walk",
            DEFORMATIONS + "test_subset_and_inductive_forms_agree_for_arbitrary_maps",
            INTEGER + "test_leibniz_weighted_and_nijenhuis_sums_match_dense_oracles",
            GOLDEN + "[check-nijenhuis__ternary_basic__map-R]")),
    # cli: each command's subparser takes the options of its row and no others
    Mutant("every-command-takes-every-option", "cli.py", "for key in row.options:", "for key in _OPTIONS:",
           (CLI + "test_each_command_takes_only_the_options_it_reads",
            "tests/test_cli_fuzz.py::test_mutated_documents_and_options_never_raise")),
    Mutant("check-rb-row-without-fail-fast", "cli.py", '_check_rb, "R", ("map_name", "weight", "fail_fast"))',
           '_check_rb, "R", ("map_name", "weight"))',
           (CLI + "test_each_command_takes_only_the_options_it_reads",
            GOLDEN + "[check-rb__mixed_parity__fail-fast]",
            GOLDEN + "[check-rb__ternary_basic__map-N_weight-0_fail-fast]")),
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
