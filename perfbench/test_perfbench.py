"""Tests of the benchmark itself: smoke run, answer checking, independent paths.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the package source and the test oracles on the path)
import families as fm  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def test_smoke_runs_every_workload_traced_and_untraced(tmp_path):
    lines = run.smoke(seed=3, workdir=tmp_path)
    assert set(lines) == {(w, t) for w in workloads.WHY for t in (0, 1)}
    for key, line in lines.items():
        assert line["correct"], key
        assert line["attempted"] >= 1 and line["failed"] == 0, key
    assert lines[("verify-scale", 1)]["metrics"]["trace.named_layer_share"]["value"] > 0.5


def test_a_wrong_expected_answer_is_counted_as_failed(tmp_path):
    from bihomsuper import cli

    jobs = workloads.build("derive-scale", 0, tmp_path, smoke=True).jobs
    derivations = next(j for j in jobs if j.argv[0] == "derivations")
    quasi = next(j for j in jobs if j.argv[0] == "quasiderivation")
    derivations.checks.append(workloads.derived_is("dimension", -1))
    quasi.exit_code = 1
    results, _ = run.run_rounds(cli, jobs, 0, 2)
    failures, _ = run.check_results(jobs, results)
    assert sorted(f["job"] for f in failures) == sorted([derivations.name, quasi.name] * 2)
    line = run._result(results, failures, {})
    assert not line["correct"] and line["failed"] == 4 and line["attempted"] == 2 * len(jobs)


def test_sparse_derivation_system_has_the_dense_oracle_nullity():
    for dim in (4, 5):
        fam = fm.family_of_dim(dim)
        alpha = fm.morphism_diagonal(fam, [F(3)], 5, 1)
        beta = fm.morphism_diagonal(fam, [F(2)], 7, -1)
        tensor = fm.twist(fm.ternary(fam), alpha, beta)
        dense_alpha = [[alpha[k] if k == i else F(0) for i in range(dim)] for k in range(dim)]
        dense_beta = [[beta[k] if k == i else F(0) for i in range(dim)] for k in range(dim)]
        queries = ((0, 0, 0), (1, 1, 0), (0, 0, 1)) if dim == 4 else ((1, 1, 0),)
        for s, r, parity in queries:
            rows, ncols = fm.derivation_rows(fam.parities, alpha, beta, tensor, s, r, parity)
            dense, dcols = oracles.derivation_constraint_matrix_3(
                fam.parities, dense_alpha, dense_beta, tensor, s, r, parity)
            assert ncols == dcols
            assert oracles.nullity(rows, ncols) == oracles.nullity(dense, dcols), (dim, s, r, parity)


def test_breaking_orbit_fails_jacobi_only_at_its_witness_tuple_family():
    for dim in (4, 5, 6, 7):
        fam = fm.family_of_dim(dim)
        base = fm.ternary(fam)
        ones = [F(1)] * dim
        triple, target, witness = fm.breaking_orbit(fam, 2)
        broken = fm.perturb(base, triple, target, F(-2))
        assert any(fm.jacobi_residual_at(fam.parities, broken, ones, ones, witness))
        assert not any(fm.jacobi_residual_at(fam.parities, base, ones, ones, witness))


def test_induced_tensor_matches_the_library():
    from bihomsuper import BiHomLieSuperalgebra, GradedMap, LinearForm, StructureTensor2, SuperSpace, induce_tau

    for dim in (4, 5, 6):
        fam = fm.family_of_dim(dim)
        space = SuperSpace(fam.parities)
        ident = GradedMap.identity(space)
        A = BiHomLieSuperalgebra(space, StructureTensor2.from_dict(space, fm.binary_bracket(fam)), ident, ident)
        induced = induce_tau(A, LinearForm(space, tuple(fm.tau_row(fam))))
        assert dict(induced.bracket.entries) == fm.ternary(fam)
