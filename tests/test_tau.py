"""Induction conditions and the induced ternary bracket."""

import itertools
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from bihomsuper import (
    BiHomLieSuperalgebra,
    GradedMap,
    LinearForm,
    PreconditionError,
    RotaBaxterOperator,
    StructureTensor2,
    SuperSpace,
    bracket_annihilating_forms,
    check_derivation_transfer,
    check_nijenhuis_transfer,
    check_quasiderivation_transfer,
    check_rb_transfer_criterion,
    check_tau_conditions,
    induce_tau,
    verify_3bihom_jacobi,
    verify_3bihom_skewsymmetry,
)
from bihomsuper import tau as tau_module
from bihomsuper.cli import main

from corpus import count_calls
from oracles import bracket2_of_vectors, nullspace, sign, unit_vec


def _ident(sp):
    return GradedMap.identity(sp)


def test_zero_form_always_satisfies_conditions(binary_corpus):
    for fx in binary_corpus:
        t = LinearForm.zero(fx.algebra.space)
        assert check_tau_conditions(fx.algebra, t).satisfied, fx.name


def test_identity_twists_reduce_to_annihilation_only():
    # with alpha = beta = Id the symmetry and proportionality conditions are
    # identities; only tau([x, y]) = 0 can fail
    sp = SuperSpace((0, 0))
    t2 = StructureTensor2.from_dict(sp, {(0, 1, 1): 1, (1, 0, 1): -1})
    A = BiHomLieSuperalgebra(sp, t2, _ident(sp), _ident(sp))
    bad = LinearForm(sp, (F(0), F(1)))
    w = check_tau_conditions(A, bad)
    assert w.beta_symmetry.passed and w.twist_proportionality.passed
    assert not w.bracket_annihilation.passed
    good = LinearForm(sp, (F(1), F(0)))
    assert check_tau_conditions(A, good).satisfied


def test_proportionality_violation_by_componentwise_expansion():
    # abelian dim-2, alpha = Id, beta = diag(1,2), tau = (1, 0):
    # at (x, y) = (e1, e2): tau(alpha e1) beta(e2) - tau(beta e1) alpha(e2)
    #                     = 2 e2 - e2 = e2  (violation)
    sp = SuperSpace((0, 0))
    A = BiHomLieSuperalgebra(
        sp, StructureTensor2.zero(sp), _ident(sp), GradedMap.diagonal(sp, [1, 2])
    )
    t = LinearForm(sp, (F(1), F(0)))
    w = check_tau_conditions(A, t)
    assert w.bracket_annihilation.passed
    assert w.beta_symmetry.passed
    assert not w.twist_proportionality.passed
    got = {v.where: v.residual for v in w.twist_proportionality.violations}
    assert got == {(0, 1): (F(0), F(1))}


def test_induce_zero_form_gives_zero_tensor(binary_corpus):
    for fx in binary_corpus[:6]:
        out = induce_tau(fx.algebra, LinearForm.zero(fx.algebra.space))
        assert out.bracket.is_zero()


def test_failing_conditions_refused_without_override():
    sp = SuperSpace((0, 0, 0))
    # [e1,e2] = e2 with e3 inert; tau = (0,1,0) hits the bracket image
    t2 = StructureTensor2.from_dict(sp, {(0, 1, 1): 1, (1, 0, 1): -1})
    A = BiHomLieSuperalgebra(sp, t2, _ident(sp), _ident(sp))
    bad = LinearForm(sp, (F(0), F(1), F(0)))
    with pytest.raises(PreconditionError):
        induce_tau(A, bad)
    unverified = induce_tau(A, bad, override=True)
    assert unverified.bracket is not None


def test_induced_entries_match_bruteforce_expansion(tau_corpus):
    # expand tau(x)[y,z] - (-1)^{|x||y|} tau(y)[x,z] + (-1)^{|z|(|x|+|y|)} tau(z)[x,y]
    # with independent code and compare every entry
    for fx in tau_corpus:
        A, tau = fx.algebra, fx.tau
        induced = induce_tau(A, tau)
        dim = A.space.dim
        P = A.space.parities
        entries = A.bracket.as_dict()
        t = tau.coefficients
        for i, j, l in itertools.product(range(dim), repeat=3):
            b_jl = bracket2_of_vectors(entries, dim, unit_vec(dim, j), unit_vec(dim, l))
            b_il = bracket2_of_vectors(entries, dim, unit_vec(dim, i), unit_vec(dim, l))
            b_ij = bracket2_of_vectors(entries, dim, unit_vec(dim, i), unit_vec(dim, j))
            expect = tuple(
                t[i] * a - sign(P[i] * P[j]) * t[j] * b + sign(P[l] * (P[i] + P[j])) * t[l] * c
                for a, b, c in zip(b_jl, b_il, b_ij)
            )
            assert induced.bracket.bracket_basis(i, j, l) == expect, fx.name


def test_induction_theorem_property(tau_corpus):
    for fx in tau_corpus:
        induced = induce_tau(fx.algebra, fx.tau)
        assert verify_3bihom_skewsymmetry(induced).passed, fx.name
        assert verify_3bihom_jacobi(induced).passed, fx.name


def test_linearity_in_the_form(tau_corpus):
    fx = next(f for f in tau_corpus if f.name == "heis4/id")
    a1 = induce_tau(fx.algebra, fx.tau)
    a2 = induce_tau(fx.algebra, fx.tau.scale(2))
    d1 = a1.bracket.as_dict()
    d2 = a2.bracket.as_dict()
    assert set(d1) == set(d2)
    for k, v in d1.items():
        assert d2[k] == 2 * v


def test_induced_tensor_parity_additivity(tau_corpus):
    for fx in tau_corpus:
        induced = induce_tau(fx.algebra, fx.tau)
        P = fx.algebra.space.parities
        for (i, j, l, k), c in induced.bracket.as_dict().items():
            assert c != 0
            assert P[k] == (P[i] + P[j] + P[l]) % 2


def test_bracket_annihilating_forms_solve_the_linear_condition(binary_corpus):
    for fx in binary_corpus:
        for form in bracket_annihilating_forms(fx.algebra):
            w = check_tau_conditions(fx.algebra, form)
            assert w.bracket_annihilation.passed, fx.name
    # on sl2 the derived subalgebra is everything, so only the zero form remains
    sl2 = next(f for f in binary_corpus if f.name == "sl2").algebra
    assert bracket_annihilating_forms(sl2) == []


def test_bracket_annihilating_forms_equal_the_dense_nullspace(binary_corpus, tau_corpus):
    # rows: the bracket on every basis pair, then a unit row per odd index
    for A in [fx.algebra for fx in binary_corpus] + [fx.algebra for fx in tau_corpus]:
        dim, P = A.space.dim, A.space.parities
        rows = [A.bracket.bracket_basis(i, j) for i, j in itertools.product(range(dim), repeat=2)]
        rows += [unit_vec(dim, i) for i in range(dim) if P[i]]
        expected = nullspace(rows, dim)
        assert [f.coefficients for f in bracket_annihilating_forms(A)] == expected


def _derivation_transfer(fixtures):
    fx = fixtures["axb3/id"]
    return check_derivation_transfer(fx.algebra, fx.tau, GradedMap.diagonal(fx.algebra.space, [0, 1, 0]), 0, 0)


def _quasiderivation_transfer(fixtures):
    fx = fixtures["axb3/id"]
    return check_quasiderivation_transfer(fx.algebra, fx.tau, GradedMap.diagonal(fx.algebra.space, [0, 1, 0]), 0, 0)


def _rb_transfer(fixtures):
    fx = fixtures["heis4/id"]
    op = RotaBaxterOperator(GradedMap.diagonal(fx.algebra.space, [1, -1, 5, -1]), F(1))
    return check_rb_transfer_criterion(fx.algebra, fx.tau, op)


def _nijenhuis_transfer(fixtures):
    fx = fixtures["heis4/id"]
    return check_nijenhuis_transfer(fx.algebra, fx.tau, GradedMap.diagonal(fx.algebra.space, [1, 1, 2, 1]))


@pytest.mark.parametrize("transfer", [_derivation_transfer, _quasiderivation_transfer, _rb_transfer,
                                      _nijenhuis_transfer])
def test_each_transfer_check_reads_the_tau_conditions_once(transfer, tau_corpus, monkeypatch):
    calls = count_calls(monkeypatch, tau_module.check_tau_conditions)
    result = transfer({fx.name: fx for fx in tau_corpus})
    assert result is True or result[0] is True
    assert len(calls) == 1


@pytest.mark.parametrize("bad_form, extra, code",
                         [(False, [], 0), (True, ["--override-tau-conditions"], 0), (True, [], 1)])
def test_induce_tau_command_reads_the_tau_conditions_once(bad_form, extra, code, tmp_path, monkeypatch, capsys):
    doc = json.loads((Path(__file__).parent / "data" / "line_action.json").read_text())
    if bad_form:  # a form hitting the bracket image fails the conditions
        doc["maps"]["tau"] = {"row": ["0", "1", "0"]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    calls = count_calls(monkeypatch, tau_module.check_tau_conditions)
    assert main(["induce-tau", str(path), "--format", "machine", *extra]) == code
    assert ("induced" in json.loads(capsys.readouterr().out)["derived"]) == (code == 0)
    assert len(calls) == 1
