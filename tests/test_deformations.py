"""Wedge composition, deformation checks, N-brackets, Nijenhuis operators."""

import itertools
from fractions import Fraction as F

import pytest

from bihomsuper import (
    DeformationPair,
    DimensionError,
    GradedMap,
    PreconditionError,
    RotaBaxterOperator,
    StructureTensor3,
    SuperSpace,
    ThreeBiHomLieSuperalgebra,
    WedgePair,
    build_trivial_deformation,
    check_2cocycle,
    check_deformation,
    check_derivation_nijenhuis_rb_equivalence,
    check_nijenhuis_rb_compatibility,
    check_nijenhuis_transfer,
    is_nijenhuis_2,
    is_nijenhuis_3,
    make_n_bracket_1,
    make_n_bracket_2,
    omega_compose,
    solve_derivation_space,
    DerivationQuery,
)

import corpus


def _ident(sp):
    return GradedMap.identity(sp)


def _t3e1():
    return next(f for f in corpus.ternary_fixtures() if f.name == "t3-e1").algebra


def _all_compositions_vanish(A, wi, wj):
    sp = A.space
    for a, b, c, d, m in itertools.product(range(sp.dim), repeat=5):
        v = omega_compose(A, wi, wj, WedgePair.from_basis(sp, a, b), WedgePair.from_basis(sp, c, d), m)
        if any(x != 0 for x in v):
            return False
    return True


def test_composition_with_zero_inner_tensor_vanishes():
    A = _t3e1()
    z = StructureTensor3.zero(A.space)
    assert _all_compositions_vanish(A, A.bracket, z)


def test_self_composition_vanishes_on_plainly_skew_corpus(ternary_corpus):
    for fx in ternary_corpus:
        if fx.plainly_skew:
            assert _all_compositions_vanish(fx.algebra, fx.algebra.bracket, fx.algebra.bracket), fx.name


def test_self_composition_nonzero_on_unequal_twists_boundary(ternary_corpus):
    # verified algebra whose bracket is NOT plainly skew: the wedge-composition
    # form of the quintuple identity genuinely differs there
    fx = next(f for f in ternary_corpus if not f.plainly_skew)
    assert not _all_compositions_vanish(fx.algebra, fx.algebra.bracket, fx.algebra.bracket)


def test_composition_hand_expansion_single_entry():
    # dim-2 even space, ambient bracket zero, wj with one entry:
    # only the starred insertion and the symmetrized tail survive via wi
    sp = SuperSpace((0, 0))
    ident = _ident(sp)
    A = ThreeBiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), ident, ident)
    wj = StructureTensor3.from_dict(sp, {(0, 0, 1, 0): 1})
    wi = StructureTensor3.from_dict(sp, {(0, 0, 1, 1): 1})
    X = WedgePair.from_basis(sp, 0, 0)
    # Y = (e2, e2): star = wi(wj(X, e2), e2, e2) + wi(e2, wj(X, e2), e2)
    #             = wi(e1, e2, e2) + wi(e2, e1, e2) = 0; wj(Y, e2) = 0 too
    v = omega_compose(A, wi, wj, X, WedgePair.from_basis(sp, 1, 1), 1)
    assert all(c == 0 for c in v)
    # Y = (e1, e2): wj(X, alpha e1) = 0 and wj(X, alpha e2) = e1, so
    # star = wi(0, e2, e2) + wi(e1, e1, e2) = e2, everything else vanishes
    v2 = omega_compose(A, wi, wj, X, WedgePair.from_basis(sp, 0, 1), 1)
    assert v2 == (F(0), F(1))


def test_check_deformation_zero_pair(ternary_corpus):
    for fx in [f for f in ternary_corpus if f.plainly_skew][:6]:
        z = StructureTensor3.zero(fx.algebra.space)
        rep = check_deformation(fx.algebra, DeformationPair(z, z))
        assert rep.passed, fx.name


def test_check_deformation_bracket_as_first_coefficient():
    # w1 = ambient bracket, w2 = 0: degree sums telescope to multiples of the
    # self-composition, which vanishes for a plainly skew verified bracket
    A = _t3e1()
    rep = check_deformation(A, DeformationPair(A.bracket, StructureTensor3.zero(A.space)))
    assert rep.passed


def test_check_deformation_rejects_tensor_violating_swap():
    sp = SuperSpace((0, 0, 0))
    A = _t3e1()
    bad = StructureTensor3.from_dict(sp, {(0, 1, 2, 0): 1})  # no skew completion
    rep = check_deformation(A, DeformationPair(bad, StructureTensor3.zero(sp)))
    assert not rep.passed
    assert any(v.rule.startswith("swap-") for v in rep.violations)


def test_two_cocycle_examples():
    A = _t3e1()
    z = StructureTensor3.zero(A.space)
    assert check_2cocycle(A, z).passed
    assert check_2cocycle(A, A.bracket).passed  # twice the vanishing self-composition
    for N in (GradedMap.diagonal(A.space, [2, 3, 5]), GradedMap.diagonal(A.space, [1, 1, 7])):
        nb1 = make_n_bracket_1(A, N)
        assert check_2cocycle(A, nb1).passed


def test_n_bracket_scalar_examples():
    A = _t3e1()
    zero = GradedMap.zero(A.space)
    assert make_n_bracket_1(A, zero).is_zero()
    assert make_n_bracket_2(A, zero).is_zero()
    ident = _ident(A.space)
    assert make_n_bracket_1(A, ident) == A.bracket.scale(2)
    assert make_n_bracket_2(A, ident) == A.bracket
    half = ident.scale(F(1, 2))
    assert make_n_bracket_1(A, half) == A.bracket  # (3c - c) = 2c = 1
    assert make_n_bracket_2(A, half) == A.bracket.scale(F(1, 4))  # c^2


def test_nijenhuis_scalar_cases():
    A = _t3e1()
    for N in (GradedMap.zero(A.space), _ident(A.space), _ident(A.space).scale(3)):
        assert is_nijenhuis_3(A, N).passed


def test_nijenhuis_failure_detected():
    t4 = next(f for f in corpus.ternary_fixtures() if f.name == "t3-e4").algebra
    N = GradedMap.diagonal(t4.space, [1, 1, 1, 0])
    rep = is_nijenhuis_3(t4, N)
    assert not rep.passed
    assert all(v.rule == "nijenhuis" for v in rep.violations)


def test_subset_and_inductive_forms_agree_for_arbitrary_maps(ternary_corpus):
    # the two displayed forms are one identity; exercised via the internal
    # cross-check inside is_nijenhuis_3, which records any mismatch as a
    # form-consistency violation
    import random

    rng = random.Random(7)
    count = 0
    for fx in ternary_corpus:
        A = fx.algebra
        if not (A.alpha.is_identity() and A.beta.is_identity()):
            continue
        sp = A.space
        for _ in range(2):
            rows = [[F(0)] * sp.dim for _ in range(sp.dim)]
            for k in range(sp.dim):
                for i in range(sp.dim):
                    if sp.parity(k) == sp.parity(i):
                        rows[k][i] = F(rng.randint(-3, 3))
            N = GradedMap(sp, tuple(tuple(r) for r in rows), 0)
            rep = is_nijenhuis_3(A, N)
            assert not any(v.rule == "form-consistency" for v in rep.violations), fx.name
            count += 1
    assert count >= 10


def test_binary_nijenhuis_examples():
    ax = next(f for f in corpus.binary_fixtures() if f.name == "axb2").algebra
    assert is_nijenhuis_2(ax, _ident(ax.space)).passed
    assert is_nijenhuis_2(ax, GradedMap.zero(ax.space)).passed
    nil = GradedMap(ax.space, ((F(0), F(1)), (F(0), F(0))), 0)
    assert is_nijenhuis_2(ax, nil).passed
    # a failing one: diag(1,1,0) on the Heisenberg bracket
    h = next(f for f in corpus.binary_fixtures() if f.name == "heis3").algebra
    rep = is_nijenhuis_2(h, GradedMap.diagonal(h.space, [1, 1, 0]))
    assert not rep.passed


def test_nijenhuis_transfer_cases():
    for name, A, N in corpus.nijenhuis2_fixtures():
        t = None
        for fx in corpus.tau_fixtures():
            if fx.algebra == A:
                t = fx.tau
                break
        if t is None:
            continue
        assert check_nijenhuis_transfer(A, t, N), name


def test_nijenhuis_transfer_trivial_form():
    fz = next(f for f in corpus.tau_fixtures() if f.name == "heis-super2/zero")
    assert check_nijenhuis_transfer(fz.algebra, fz.tau, _ident(fz.algebra.space))


def test_nijenhuis_rb_compatibility_cases():
    A = _t3e1()
    N = GradedMap.diagonal(A.space, [2, 3, 5])
    for diag, lam in (((2, 1, -1), 0), ((1, 1, 1), -1), ((0, 0, 0), 0)):
        op = RotaBaxterOperator(GradedMap.diagonal(A.space, list(diag)), F(lam))
        assert check_nijenhuis_rb_compatibility(A, N, op)
    # identity N commutes with everything
    for fx in corpus.rb_fixtures()[:6]:
        assert check_nijenhuis_rb_compatibility(fx.algebra, _ident(fx.algebra.space), fx.operator)


def test_derivation_nijenhuis_rb_equivalence_cases():
    A = _t3e1()
    zero = GradedMap.zero(A.space)
    assert check_derivation_nijenhuis_rb_equivalence(A, zero) is True
    z = next(f for f in corpus.ternary_fixtures() if f.name == "zero3-dim2").algebra
    anyD = GradedMap.diagonal(z.space, [3, 7])
    assert check_derivation_nijenhuis_rb_equivalence(z, anyD) is True
    for D in solve_derivation_space(A, DerivationQuery(0, 0, 0)).basis:
        check_derivation_nijenhuis_rb_equivalence(A, D)  # must not raise


def test_build_trivial_deformation_examples():
    A = _t3e1()
    zero = GradedMap.zero(A.space)
    pair0 = build_trivial_deformation(A, zero)
    assert pair0.omega1.is_zero() and pair0.omega2.is_zero()
    assert check_deformation(A, pair0).passed
    ident = _ident(A.space)
    pair1 = build_trivial_deformation(A, ident)
    assert pair1.omega1 == A.bracket.scale(2)
    assert pair1.omega2 == A.bracket
    assert check_deformation(A, pair1).passed
    N = GradedMap.diagonal(A.space, [2, 3, 5])
    pair2 = build_trivial_deformation(A, N)
    assert check_deformation(A, pair2).passed
    # non-Nijenhuis operators are rejected before construction
    t4 = next(f for f in corpus.ternary_fixtures() if f.name == "t3-e4").algebra
    with pytest.raises(PreconditionError):
        build_trivial_deformation(t4, GradedMap.diagonal(t4.space, [1, 1, 1, 0]))


def test_deformed_top_coefficient_is_itself_a_bracket():
    # when the pair validates, the top coefficient with the same twists passes
    # both ternary verifiers
    from bihomsuper import verify_3bihom_jacobi, verify_3bihom_skewsymmetry

    A = _t3e1()
    for N in (GradedMap.diagonal(A.space, [2, 3, 5]), _ident(A.space)):
        pair = build_trivial_deformation(A, N)
        assert check_deformation(A, pair).passed
        top = ThreeBiHomLieSuperalgebra(A.space, pair.omega2, A.alpha, A.beta)
        assert verify_3bihom_skewsymmetry(top).passed
        assert verify_3bihom_jacobi(top).passed


def test_trivial_deformation_on_twisted_multiplicative_fixture():
    fx = next(f for f in corpus.ternary_fixtures() if f.name == "t3-e1-twist-equal")
    A = fx.algebra
    # N must commute with the twists: diagonal works
    N = GradedMap.diagonal(A.space, [4, 9, 25])
    if is_nijenhuis_3(A, N).passed:
        pair = build_trivial_deformation(A, N)
        assert check_deformation(A, pair).passed


def test_wedge_antisymmetry_invariant_on_skew_tensors():
    A = _t3e1()
    sp = A.space
    for a, b in itertools.product(range(sp.dim), repeat=2):
        X = WedgePair.from_basis(sp, a, b)
        Y = WedgePair.from_basis(sp, 0, 1)
        direct = omega_compose(A, A.bracket, A.bracket, X, Y, 2)
        swapped = omega_compose(A, A.bracket, A.bracket, X.swapped(), Y, 2)
        sgn = -1 if (X.parity_first & X.parity_second) else 1
        # evaluation against x1 ^ x2 flips with the Koszul sign of the swap
        assert direct == tuple(-sgn * c for c in swapped) or (
            all(c == 0 for c in direct) and all(c == 0 for c in swapped)
        )


def test_two_cocycle_for_nondiagonal_operator():
    # the first deformed bracket of any even map is closed for the degree-1 sum
    A = _t3e1()
    sp = A.space
    N = GradedMap(sp, ((F(1), F(2), F(0)), (F(0), F(1), F(3)), (F(1), F(0), F(1))), 0)
    assert check_2cocycle(A, make_n_bracket_1(A, N)).passed


def test_table_path_matches_direct_composition():
    # check_deformation evaluates compositions through the twisted tables
    # shared with the Jacobi verifiers; they must agree with the direct wedge
    # evaluation on every raw tuple
    from bihomsuper.algebras import _TwistedTables
    from bihomsuper.deformations import _compose_at

    fx = next(f for f in corpus.ternary_fixtures() if f.name == "t3-e1-twist-equal")
    A = fx.algebra
    N = GradedMap.diagonal(A.space, [2, 3, 5])
    w1 = make_n_bracket_1(A, N)
    tables = _TwistedTables(A, {0: A.bracket, 1: w1})
    sp = A.space
    for a, b, c, d, m in itertools.product(range(sp.dim), repeat=5):
        for ni, nj in ((0, 1), (1, 0), (1, 1)):
            w_i = A.bracket if ni == 0 else w1
            w_j = A.bracket if nj == 0 else w1
            direct = omega_compose(
                A, w_i, w_j, WedgePair.from_basis(sp, a, b), WedgePair.from_basis(sp, c, d), m
            )
            assert _compose_at(tables, ni, nj, a, b, c, d, m) == direct


def test_space_mismatch_is_a_dimension_error():
    A = _t3e1()
    other = SuperSpace((0, 0))
    w_other = StructureTensor3.zero(other)
    w = StructureTensor3.zero(A.space)
    with pytest.raises(DimensionError):
        DeformationPair(w, w_other)
    with pytest.raises(DimensionError):
        check_deformation(A, DeformationPair(w_other, w_other))
    with pytest.raises(DimensionError):
        check_2cocycle(A, w_other)
    with pytest.raises(DimensionError):
        omega_compose(A, w, w, WedgePair.from_basis(other, 0, 1), WedgePair.from_basis(A.space, 0, 1), 0)
