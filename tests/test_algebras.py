"""Axiom verifiers: trivial cases, hand-expanded residuals, twist constructors."""

import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest

from bihomsuper import (
    BiHomLieSuperalgebra,
    DimensionError,
    GradedMap,
    StructureTensor2,
    StructureTensor3,
    SuperSpace,
    ThreeBiHomLieSuperalgebra,
    TwistError,
    make_twist_2,
    make_twist_3,
    verify_3bihom_jacobi,
    verify_3bihom_jacobi_cyclic,
    verify_3bihom_skewsymmetry,
    verify_bihom_jacobi,
    verify_bihom_skewsymmetry,
    verify_multiplicativity2,
    verify_multiplicativity3,
)
from bihomsuper import algebras, load_document

import corpus
from oracles import bracket2_of_vectors, matvec, sign, unit_vec


def _ident(sp):
    return GradedMap.identity(sp)


def test_zero_bracket_passes_everything():
    sp = SuperSpace((0, 1))
    A = BiHomLieSuperalgebra(sp, StructureTensor2.zero(sp), _ident(sp), _ident(sp))
    assert verify_bihom_skewsymmetry(A).passed
    assert verify_bihom_jacobi(A).passed
    assert verify_multiplicativity2(A).passed


def test_algebras_refuse_a_bracket_of_the_other_arity():
    # a binary algebra with a ternary bracket would be checked against the wrong identities
    sp = SuperSpace((0, 1))
    with pytest.raises(DimensionError, match="BiHomLieSuperalgebra needs a bracket of arity 2, got 3"):
        BiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), _ident(sp), _ident(sp))
    with pytest.raises(DimensionError, match="ThreeBiHomLieSuperalgebra needs a bracket of arity 3, got 2"):
        ThreeBiHomLieSuperalgebra(sp, StructureTensor2.zero(sp), _ident(sp), _ident(sp))


def test_classical_super_skew_reduces(binary_corpus):
    for fx in binary_corpus:
        if fx.algebra.alpha.is_identity() and fx.algebra.beta.is_identity():
            assert verify_bihom_skewsymmetry(fx.algebra).passed, fx.name


def test_skew_violations_match_hand_expansion():
    # dim-2 all even, [e1,e2] = e1 = -[e2,e1], alpha = Id, beta = diag(1,2):
    # residual(1,2) = [beta e1, e2] + [beta e2, e1] = e1 - 2 e1 = -e1
    sp = SuperSpace((0, 0))
    t = StructureTensor2.from_dict(sp, {(0, 1, 0): 1, (1, 0, 0): -1})
    A = BiHomLieSuperalgebra(sp, t, _ident(sp), GradedMap.diagonal(sp, [1, 2]))
    rep = verify_bihom_skewsymmetry(A)
    assert not rep.passed
    got = {v.where: v.residual for v in rep.violations}
    assert got == {(0, 1): (F(-1), F(0)), (1, 0): (F(-1), F(0))}

    # independent re-expansion straight from the defining identity
    entries = t.as_dict()
    beta = [[1, 0], [0, 2]]
    for (i, j), residual in got.items():
        bi = matvec(beta, unit_vec(2, i))
        bj = matvec(beta, unit_vec(2, j))
        lhs = bracket2_of_vectors(entries, 2, bi, unit_vec(2, j))
        rhs = bracket2_of_vectors(entries, 2, bj, unit_vec(2, i))
        expect = tuple(a + sign(0) * b for a, b in zip(lhs, rhs))
        assert residual == expect


def test_jacobi_on_twisted_fixture_vs_bruteforce(binary_corpus):
    fx = next(f for f in binary_corpus if f.name == "gl11-twist-psi")
    A = fx.algebra
    assert verify_bihom_jacobi(A).passed
    # independent brute-force evaluation of the cyclic identity
    entries = A.bracket.as_dict()
    dim = A.space.dim
    P = A.space.parities
    alpha = [list(map(F, row)) for row in A.alpha.matrix]
    beta = [list(map(F, row)) for row in A.beta.matrix]
    beta2 = [[sum(beta[k][t] * beta[t][i] for t in range(dim)) for i in range(dim)] for k in range(dim)]

    def term(x, y, z):
        inner = bracket2_of_vectors(
            entries, dim, matvec(beta, unit_vec(dim, y)), matvec(alpha, unit_vec(dim, z))
        )
        outer = bracket2_of_vectors(entries, dim, matvec(beta2, unit_vec(dim, x)), inner)
        return tuple(sign(P[x] * P[z]) * c for c in outer)

    for x, y, z in itertools.product(range(dim), repeat=3):
        total = tuple(
            a + b + c for a, b, c in zip(term(x, y, z), term(y, z, x), term(z, x, y))
        )
        assert all(c == 0 for c in total)


def test_multiplicativity_counterexample_has_witness():
    # alpha scales e2 but not its bracket source: [e1,e2] = e2, alpha = diag(2,1)
    sp = SuperSpace((0, 0))
    t = StructureTensor2.from_dict(sp, {(0, 1, 1): 1, (1, 0, 1): -1})
    A = BiHomLieSuperalgebra(sp, t, GradedMap.diagonal(sp, [2, 1]), _ident(sp))
    rep = verify_multiplicativity2(A)
    assert not rep.passed
    rules = {v.rule for v in rep.violations}
    assert "alpha-morphism" in rules
    # hand expansion: alpha([e1,e2]) = e2 but [alpha e1, alpha e2] = 2 e2
    v = next(v for v in rep.violations if v.rule == "alpha-morphism" and v.where == (0, 1))
    assert v.residual == (F(0), F(-1))


def test_ternary_zero_and_classical(ternary_corpus):
    for fx in ternary_corpus:
        assert verify_3bihom_skewsymmetry(fx.algebra).passed, fx.name
        assert verify_3bihom_jacobi(fx.algebra).passed, fx.name


def test_ternary_jacobi_catches_invalid_tensor():
    # odd line acting on an even one: passes both swaps but fails the
    # five-argument identity (no nonzero structure exists in this shape)
    sp = SuperSpace((1, 0))
    t = StructureTensor3.from_dict(sp, {(0, 0, 1, 1): 1, (0, 1, 0, 1): -1, (1, 0, 0, 1): 1})
    A = ThreeBiHomLieSuperalgebra(sp, t, _ident(sp), _ident(sp))
    assert verify_3bihom_skewsymmetry(A).passed
    rep = verify_3bihom_jacobi(A)
    assert not rep.passed
    assert {v.where for v in rep.violations} == {(0, 1, 0, 0, 0), (1, 0, 0, 0, 0)}


def test_cyclic_reformulation_matches_on_corpus(ternary_corpus):
    for fx in ternary_corpus:
        invertible = True
        try:
            fx.algebra.alpha.inverse()
        except Exception:
            invertible = False
        if fx.plainly_skew or invertible:
            assert verify_3bihom_jacobi_cyclic(fx.algebra).passed, fx.name


def test_verifier_determinism_and_relabeling_invariance():
    # a failing fixture: relabeling the basis permutes the violation set
    sp = SuperSpace((0, 0))
    t = StructureTensor2.from_dict(sp, {(0, 1, 0): 1, (1, 0, 0): -1})
    A = BiHomLieSuperalgebra(sp, t, _ident(sp), GradedMap.diagonal(sp, [1, 2]))
    rep1 = verify_bihom_skewsymmetry(A)
    rep2 = verify_bihom_skewsymmetry(A)
    assert rep1 == rep2  # deterministic
    # conjugate everything by the swap permutation
    perm = {0: 1, 1: 0}
    t_p = StructureTensor2.from_dict(
        sp, {(perm[i], perm[j], perm[k]): c for (i, j, k), c in t.as_dict().items()}
    )
    beta_p = GradedMap.diagonal(sp, [2, 1])
    A_p = BiHomLieSuperalgebra(sp, t_p, _ident(sp), beta_p)
    rep_p = verify_bihom_skewsymmetry(A_p)
    relabeled = {tuple(perm[i] for i in v.where) for v in rep1.violations}
    assert relabeled == {v.where for v in rep_p.violations}


def test_fail_fast_stops_early():
    sp = SuperSpace((0, 0))
    t = StructureTensor2.from_dict(sp, {(0, 1, 0): 1, (1, 0, 0): -1})
    A = BiHomLieSuperalgebra(sp, t, _ident(sp), GradedMap.diagonal(sp, [1, 2]))
    rep = verify_bihom_skewsymmetry(A, fail_fast=True)
    assert len(rep.violations) == 1
    assert rep.total < 4


def test_fail_fast_jacobi_walk_evaluates_only_the_tuples_it_counts(monkeypatch):
    """Under fail-fast the direct walk stops at its first failing 5-tuple."""
    doc = load_document(Path(__file__).parent / "golden" / "docs" / "perturbed_ternary.json")
    calls = corpus.count_calls(monkeypatch, algebras._jacobi_residual)
    rep = verify_3bihom_jacobi(corpus.document_algebra(doc, 3), fail_fast=True)
    assert len(rep.violations) == 1
    assert len(calls) == rep.total == 60 < doc.space.dim ** 5


def test_make_twist_2_identity_and_zero():
    sp = SuperSpace((0, 0))
    t = StructureTensor2.from_dict(sp, {(0, 1, 1): 1, (1, 0, 1): -1})
    A = BiHomLieSuperalgebra(sp, t, _ident(sp), _ident(sp))
    same = make_twist_2(A, _ident(sp), _ident(sp))
    assert same.bracket == t
    Z = BiHomLieSuperalgebra(sp, StructureTensor2.zero(sp), _ident(sp), _ident(sp))
    tw = make_twist_2(Z, GradedMap.diagonal(sp, [1, 2]), GradedMap.diagonal(sp, [3, 4]))
    assert tw.bracket.is_zero()


def test_make_twist_2_super_example_decided_by_verifiers():
    # (1|1) space, [e2,e2] = e1 with e2 odd; alpha = beta = diag(1,-1)
    sp = SuperSpace((0, 1))
    t = StructureTensor2.from_dict(sp, {(1, 1, 0): 1})
    A = BiHomLieSuperalgebra(sp, t, _ident(sp), _ident(sp))
    phi = GradedMap.diagonal(sp, [1, -1])
    tw = make_twist_2(A, phi, phi)  # verifiers accept or raise
    assert verify_bihom_jacobi(tw).passed
    # a non-morphism is rejected with a witness
    with pytest.raises(TwistError):
        make_twist_2(A, GradedMap.diagonal(sp, [1, 2]), GradedMap.diagonal(sp, [1, 2]))


def test_make_twist_3_examples():
    sp = SuperSpace((0, 0, 0))
    t = corpus.skew_fill_3(sp, {(0, 1, 2): [1, 0, 0]})
    L = ThreeBiHomLieSuperalgebra(sp, t, _ident(sp), _ident(sp))
    same = make_twist_3(L, _ident(sp), _ident(sp))
    assert same.bracket == t
    Z = ThreeBiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), _ident(sp), _ident(sp))
    tz = make_twist_3(Z, GradedMap.diagonal(sp, [1, 2, 3]), GradedMap.diagonal(sp, [4, 5, 6]))
    assert tz.bracket.is_zero()
    # diagonal morphisms: verified output
    a = GradedMap.diagonal(sp, [2, 3, F(1, 3)])
    b = GradedMap.diagonal(sp, [5, 7, F(1, 7)])
    tw = make_twist_3(L, a, b)
    assert verify_3bihom_skewsymmetry(tw).passed
    assert verify_3bihom_jacobi(tw).passed
    assert verify_multiplicativity3(tw).passed


def test_twist3_requires_untwisted_input():
    sp = SuperSpace((0, 0, 0))
    t = corpus.skew_fill_3(sp, {(0, 1, 2): [1, 0, 0]})
    L = ThreeBiHomLieSuperalgebra(sp, t, GradedMap.diagonal(sp, [1, 1, 1]), _ident(sp))
    # diagonal ones ARE the identity here, so this passes; a genuine twist fails
    make_twist_3(L, _ident(sp), _ident(sp))
    L2 = ThreeBiHomLieSuperalgebra(sp, t, GradedMap.diagonal(sp, [2, 1, 1]), _ident(sp))
    with pytest.raises(TwistError):
        make_twist_3(L2, _ident(sp), _ident(sp))


def test_multiplicativity_zero_bracket_with_commuting_maps():
    sp = SuperSpace((0, 1))
    A = BiHomLieSuperalgebra(
        sp,
        StructureTensor2.zero(sp),
        GradedMap.diagonal(sp, [2, 3]),
        GradedMap.diagonal(sp, [5, 7]),
    )
    assert verify_multiplicativity2(A).passed
