"""Weighted Baxter operators, induced brackets, equivalences, transfer."""

import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest

from bihomsuper import (
    DimensionError,
    GradedMap,
    LinearForm,
    PreconditionError,
    RotaBaxterOperator,
    StructureTensor3,
    SuperSpace,
    ThreeBiHomLieSuperalgebra,
    check_inverse_derivation_equivalence,
    check_rb_transfer_criterion,
    induce_tau,
    is_derivation_3,
    is_rb2,
    is_rb3,
    make_projection_twisted_algebra,
    make_rb_bracket,
    verify_3bihom_jacobi,
    verify_3bihom_skewsymmetry,
)
from bihomsuper import load_document
from bihomsuper.core import vec_sub
from bihomsuper.rota_baxter import subset_deformations

import corpus
from oracles import unit_vec


def _ident(sp):
    return GradedMap.identity(sp)


def _t3e1():
    return next(f for f in corpus.ternary_fixtures() if f.name == "t3-e1").algebra


def test_zero_operator_holds_for_any_weight(binary_corpus):
    for fx in binary_corpus[:6]:
        for lam in (0, 1, -1, F(1, 2)):
            op = RotaBaxterOperator(GradedMap.zero(fx.algebra.space), F(lam))
            assert is_rb2(fx.algebra, op).passed, fx.name


def test_identity_operator_weight_minus_one(binary_corpus):
    for fx in binary_corpus[:6]:
        op = RotaBaxterOperator(_ident(fx.algebra.space), F(-1))
        assert is_rb2(fx.algebra, op).passed, fx.name


def test_identity_weight_zero_fails_on_nonzero_bracket():
    fx = next(f for f in corpus.binary_fixtures() if f.name == "axb2")
    op = RotaBaxterOperator(_ident(fx.algebra.space), F(0))
    rep = is_rb2(fx.algebra, op)
    assert not rep.passed
    # residual at (e1, e2): [e1,e2] - 2[e1,e2] = -e2
    got = {v.where: v.residual for v in rep.violations}
    assert got[(0, 1)] == (F(0), F(-1))


def test_ternary_zero_and_identity_cases():
    A = _t3e1()
    for lam in (0, 1, -1, F(1, 2)):
        assert is_rb3(A, RotaBaxterOperator(GradedMap.zero(A.space), F(lam))).passed
    assert is_rb3(A, RotaBaxterOperator(_ident(A.space), F(-1))).passed
    # binomial count: R = Id fails unless 3 + 3 lam + lam^2 = 1
    rep = is_rb3(A, RotaBaxterOperator(_ident(A.space), F(0)))
    assert not rep.passed


def test_commutation_precondition_enforced():
    sp = SuperSpace((0, 0))
    alpha = GradedMap.diagonal(sp, [1, 2])
    A = ThreeBiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), alpha, _ident(sp))
    bad = GradedMap(sp, ((F(0), F(1)), (F(0), F(0))), 0)
    with pytest.raises(PreconditionError):
        is_rb3(A, RotaBaxterOperator(bad, F(0)))


def test_projection_on_structured_fixture_weights():
    A = _t3e1()
    proj = GradedMap.diagonal(A.space, [1, 0, 0])
    # expansion gives residual -(lam + lam^2) R(e1) on the generating triple
    for lam, expected in ((0, True), (-1, True), (1, False), (F(1, 2), False)):
        ok = is_rb3(A, RotaBaxterOperator(proj, F(lam))).passed
        assert ok is expected, lam


def test_fail_fast_weighted_identity_evaluates_only_the_tuples_it_counts(monkeypatch):
    """Under fail-fast the weighted-identity walk, one residual (one vec_sub) per triple, stops at
    its first failing triple."""
    doc = load_document(Path(__file__).parent / "data" / "ternary_basic.json")
    calls = corpus.count_calls(monkeypatch, vec_sub)
    rep = is_rb3(corpus.document_algebra(doc, 3), RotaBaxterOperator(doc.map_named("N"), F(0)), fail_fast=True)
    assert len(rep.violations) == 1
    assert len(calls) == rep.total == 6 < doc.space.dim ** 3


def test_rb_corpus_verified(rb_corpus):
    for fx in rb_corpus:
        assert is_rb3(fx.algebra, fx.operator).passed, fx.name


def test_make_rb_bracket_zero_operator_scales_by_weight_squared():
    A = _t3e1()
    for lam in (0, 2):
        op = RotaBaxterOperator(GradedMap.zero(A.space), F(lam))
        out = make_rb_bracket(A, op)
        expect = A.bracket.scale(F(lam) * F(lam))
        assert out.bracket == expect


def test_make_rb_bracket_identity_operator_binomial():
    A = _t3e1()
    op = RotaBaxterOperator(_ident(A.space), F(-1))
    out = make_rb_bracket(A, op)
    # 3 + 3 lam + lam^2 at lam = -1 is 1
    assert out.bracket == A.bracket
    z = next(f for f in corpus.ternary_fixtures() if f.name == "zero3-dim2").algebra
    opz = RotaBaxterOperator(_ident(z.space), F(5))
    # zero bracket stays zero for any weight (is_rb3 passes trivially)
    assert make_rb_bracket(z, opz).bracket.is_zero()


def test_make_rb_bracket_matches_independent_subset_sum(rb_corpus):
    for fx in rb_corpus:
        if fx.algebra.bracket.is_zero():
            continue
        out = make_rb_bracket(fx.algebra, fx.operator)
        A, op = fx.algebra, fx.operator
        dim = A.space.dim
        Rm = [list(row) for row in op.map.matrix]
        ent = A.bracket.as_dict()
        lam = op.weight
        from oracles import bracket3_of_vectors, matvec

        for i, j, k in itertools.product(range(dim), repeat=3):
            acc = [F(0)] * dim
            for keep in range(1, 8):  # bitmask over the three slots
                slots = [bool(keep & (1 << b)) for b in range(3)]
                args = []
                for slot, idx in zip(slots, (i, j, k)):
                    v = unit_vec(dim, idx)
                    args.append(v if slot else matvec(Rm, v))
                size = sum(slots)
                term = bracket3_of_vectors(ent, dim, *args)
                w = lam ** (size - 1)
                for t in range(dim):
                    acc[t] += w * term[t]
            assert tuple(acc) == out.bracket.bracket_basis(i, j, k), fx.name


def test_rb_bracket_roundtrip_property(rb_corpus):
    for fx in rb_corpus:
        out = make_rb_bracket(fx.algebra, fx.operator)
        assert verify_3bihom_skewsymmetry(out).passed, fx.name
        assert verify_3bihom_jacobi(out).passed, fx.name
        assert is_rb3(out, fx.operator).passed, fx.name


def test_weight_scaling_property(rb_corpus):
    for fx in rb_corpus[:8]:
        for c in (F(2), F(-1, 3)):
            scaled = RotaBaxterOperator(fx.operator.map.scale(c), c * fx.operator.weight)
            assert is_rb3(fx.algebra, scaled).passed, fx.name


def test_inverse_derivation_equivalence_cases():
    A = _t3e1()
    # bracket nonzero: Id is neither weight-0 nor an inverse derivation
    assert check_inverse_derivation_equivalence(A, _ident(A.space)) is False
    # diag(a, b, -b) is a weight-0 operator with derivation inverse
    R = GradedMap.diagonal(A.space, [2, 1, -1])
    assert check_inverse_derivation_equivalence(A, R) is True
    assert is_derivation_3(A, R.inverse(), 0, 0).passed
    z = next(f for f in corpus.ternary_fixtures() if f.name == "zero3-dim2").algebra
    assert check_inverse_derivation_equivalence(z, GradedMap.diagonal(z.space, [2, 3])) is True
    with pytest.raises(PreconditionError):
        check_inverse_derivation_equivalence(A, GradedMap.zero(A.space))


def test_inverse_derivation_equivalence_over_candidates():
    for name, A, R in corpus.invertible_rb_candidates():
        check_inverse_derivation_equivalence(A, R)  # must not raise


def test_transfer_criterion_trivial_cases():
    fx = next(f for f in corpus.tau_fixtures() if f.name == "heis4/id")
    A, tau = fx.algebra, fx.tau
    ok, _ = check_rb_transfer_criterion(A, tau, RotaBaxterOperator(GradedMap.zero(A.space), F(0)))
    assert ok
    ok2, _ = check_rb_transfer_criterion(A, tau, RotaBaxterOperator(_ident(A.space), F(-1)))
    assert ok2


def test_transfer_criterion_two_sided_on_corpus():
    results = set()
    for name, A, tau, op in corpus.transfer_fixtures():
        ok, report = check_rb_transfer_criterion(A, tau, op)  # raises on any mismatch
        results.add(ok)
        direct = is_rb3(induce_tau(A, tau), op).passed
        assert ok == direct, name
    assert results == {True, False}


def test_transfer_criterion_distinguishing_fixture():
    # R = diag(1,-1,5,-1), weight 1: the signed sums are nonzero but lie in
    # ker(R + Id); the operator does transfer
    fx = next(f for f in corpus.tau_fixtures() if f.name == "heis4/id")
    A, tau = fx.algebra, fx.tau
    op = RotaBaxterOperator(GradedMap.diagonal(A.space, [1, -1, 5, -1]), F(1))
    assert is_rb2(A, op).passed
    ok, report = check_rb_transfer_criterion(A, tau, op)
    assert ok and report.passed
    # the signed sum itself is nonzero at (e1, e2, e3)
    v = A.bracket.bracket(op.map.column(1), op.map.column(2))
    assert any(c != 0 for c in v)


def test_projection_twisted_algebra():
    A = _t3e1()
    op0 = RotaBaxterOperator(_ident(A.space), F(-1))
    out = make_projection_twisted_algebra(A, op0)
    assert out.alpha == A.alpha and out.beta == A.beta
    assert out.bracket == make_rb_bracket(A, op0).bracket
    # genuine projection at weight 0
    proj = RotaBaxterOperator(GradedMap.diagonal(A.space, [1, 0, 0]), F(0))
    out2 = make_projection_twisted_algebra(A, proj)
    assert verify_3bihom_skewsymmetry(out2).passed
    assert verify_3bihom_jacobi(out2).passed
    # R = 0 with weight 0 gives zero maps and the zero bracket
    zop = RotaBaxterOperator(GradedMap.zero(A.space), F(0))
    out3 = make_projection_twisted_algebra(A, zop)
    assert out3.bracket.is_zero()
    assert out3.alpha.is_zero() and out3.beta.is_zero()
    # non-idempotent operators are rejected
    with pytest.raises(PreconditionError):
        make_projection_twisted_algebra(A, RotaBaxterOperator(GradedMap.diagonal(A.space, [2, 0, 0]), F(0)))


def test_subset_enumeration_order_is_canonical():
    A = _t3e1()
    op = RotaBaxterOperator(GradedMap.zero(A.space), F(1))
    subsets = [s for s, _ in subset_deformations(A, op, 0, 1, 2)]
    assert subsets == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


@pytest.mark.parametrize("where", ["first", "past"])
def test_basis_indices_out_of_range_are_refused(where):
    """-1 must not wrap to the last basis element, and dim must not surface as an IndexError."""
    A = _t3e1()
    bad = -1 if where == "first" else A.dim
    op = RotaBaxterOperator(_ident(A.space), F(1))
    with pytest.raises(DimensionError):
        subset_deformations(A, op, bad, 0, 0)
    with pytest.raises(DimensionError):
        LinearForm.zero(A.space).of_basis(bad)


def test_transfer_criterion_vacuous_for_zero_form():
    # with tau = 0 every signed sum vanishes and any binary operator transfers
    fz = next(f for f in corpus.tau_fixtures() if f.name == "heis-super2/zero")
    A, tau = fz.algebra, fz.tau
    op = RotaBaxterOperator(_ident(A.space), F(-1))
    assert is_rb2(A, op).passed
    ok, report = check_rb_transfer_criterion(A, tau, op)
    assert ok and report.passed
