"""Derivation spaces, quasiderivations, supercommutators, transfer criteria."""

import itertools
from fractions import Fraction as F

import pytest

from bihomsuper import (
    DerivationQuery,
    GradedMap,
    PreconditionError,
    StructureTensor3,
    SuperSpace,
    ThreeBiHomLieSuperalgebra,
    check_derivation_transfer,
    check_quasiderivation_transfer,
    induce_tau,
    is_derivation_2,
    is_derivation_3,
    is_quasiderivation_2,
    is_quasiderivation_3,
    solve_derivation_space,
    solve_derivation_space_2,
    supercommutator,
)

import corpus
from oracles import (
    bracket2_of_vectors,
    derivation_constraint_matrix_2,
    derivation_constraint_matrix_3,
    matvec,
    nullity,
    sign,
)


def _ident(sp):
    return GradedMap.identity(sp)


def test_zero_map_is_always_a_derivation(ternary_corpus):
    for fx in ternary_corpus[:8]:
        D = GradedMap.zero(fx.algebra.space)
        for s, r in ((0, 0), (1, 2)):
            assert is_derivation_3(fx.algebra, D, s, r).passed, fx.name


def test_zero_bracket_any_commuting_map_is_a_derivation():
    sp = SuperSpace((0, 0))
    alpha = GradedMap.diagonal(sp, [1, 2])
    A = ThreeBiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), alpha, _ident(sp))
    ok = GradedMap.diagonal(sp, [3, 4])  # diagonal commutes with diagonal
    assert is_derivation_3(A, ok, 0, 0).passed
    bad = GradedMap(sp, ((F(0), F(1)), (F(0), F(0))), 0)  # does not commute with alpha
    rep = is_derivation_3(A, bad, 0, 0)
    assert not rep.passed
    assert any(v.rule == "commutes-with-alpha" for v in rep.violations)


def test_ad_style_maps_are_derivations_classically():
    # for a plainly skew ternary bracket with Id twists, fixing two arguments
    # gives a derivation (the adjoint action)
    fx = next(f for f in corpus.ternary_fixtures() if f.name == "t3-e1")
    A = fx.algebra
    sp = A.space
    for a, b in itertools.combinations(range(sp.dim), 2):
        cols = [A.bracket.bracket_basis(a, b, m) for m in range(sp.dim)]
        rows = tuple(tuple(cols[m][k] for m in range(sp.dim)) for k in range(sp.dim))
        ad = GradedMap(sp, rows, 0)
        assert is_derivation_3(A, ad, 0, 0).passed


def test_solver_dimension_zero_bracket_counts_parity_slots():
    sp = SuperSpace((0, 0, 1))
    A = ThreeBiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), _ident(sp), _ident(sp))
    even = solve_derivation_space(A, DerivationQuery(0, 0, 0))
    odd = solve_derivation_space(A, DerivationQuery(0, 0, 1))
    # even slots: 2x2 block on the even part plus 1 on the odd part
    assert even.dimension == 5
    # odd slots: 2 (even -> odd) + 2 (odd -> even)
    assert odd.dimension == 4


def test_solver_commutant_of_distinct_diagonal():
    sp = SuperSpace((0, 0, 0))
    alpha = GradedMap.diagonal(sp, [1, 2, 3])
    A = ThreeBiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), alpha, _ident(sp))
    space = solve_derivation_space(A, DerivationQuery(0, 0, 0))
    # distinct eigenvalues: commutant = diagonal maps
    assert space.dimension == 3
    for D in space.basis:
        for k in range(3):
            for i in range(3):
                if k != i:
                    assert D.matrix[k][i] == 0


def test_solver_matches_dense_oracle_on_dim2_fixtures(ternary_corpus):
    dim2 = [fx for fx in ternary_corpus if fx.algebra.space.dim == 2]
    assert dim2
    for fx in dim2:
        A = fx.algebra
        for s, r in ((0, 0), (1, 0), (0, 1)):
            for parity in (0, 1):
                ours = solve_derivation_space(A, DerivationQuery(s, r, parity)).dimension
                rows, ncols = derivation_constraint_matrix_3(
                    A.space.parities,
                    [list(r_) for r_ in A.alpha.matrix],
                    [list(r_) for r_ in A.beta.matrix],
                    A.bracket.as_dict(),
                    s,
                    r,
                    parity,
                )
                assert ours == nullity(rows, ncols), (fx.name, s, r, parity)


def test_solver_matches_dense_oracle_on_structured_fixture():
    fx = next(f for f in corpus.ternary_fixtures() if f.name == "t3-e1")
    A = fx.algebra
    ours = solve_derivation_space(A, DerivationQuery(0, 0, 0)).dimension
    rows, ncols = derivation_constraint_matrix_3(
        A.space.parities,
        [list(r_) for r_ in A.alpha.matrix],
        [list(r_) for r_ in A.beta.matrix],
        A.bracket.as_dict(),
        0, 0, 0,
    )
    assert ours == nullity(rows, ncols) == 6


def test_supercommutator_basics():
    sp = SuperSpace((0, 1))
    ident = _ident(sp)
    evenD = GradedMap.diagonal(sp, [2, 5])
    assert supercommutator(evenD, evenD).is_zero()
    assert supercommutator(evenD, ident).is_zero()
    odd1 = GradedMap(sp, ((F(0), F(1)), (F(0), F(0))), 1)
    odd2 = GradedMap(sp, ((F(0), F(0)), (F(1), F(0))), 1)
    got = supercommutator(odd1, odd2)
    # odd-odd commutator is the anticommutator D D' + D' D
    anti = odd1.compose(odd2).add(odd2.compose(odd1))
    assert got == anti
    assert got.parity == 0


def test_supercommutator_grading_closure(ternary_corpus):
    for fx in [f for f in ternary_corpus if f.algebra.space.dim <= 3][:6]:
        A = fx.algebra
        solved = {}
        for s, r in ((0, 0), (1, 0), (0, 1), (1, 1)):
            for parity in (0, 1):
                solved[(s, r, parity)] = solve_derivation_space(
                    A, DerivationQuery(s, r, parity)
                ).basis
        for (s1, r1, p1), basis1 in solved.items():
            for (s2, r2, p2), basis2 in solved.items():
                for D1 in basis1[:2]:
                    for D2 in basis2[:2]:
                        C = supercommutator(D1, D2)
                        assert is_derivation_3(A, C, s1 + s2, r1 + r2).passed, fx.name


def test_every_derivation_is_a_quasiderivation(ternary_corpus):
    for fx in [f for f in ternary_corpus if f.algebra.space.dim <= 3][:5]:
        A = fx.algebra
        for D in solve_derivation_space(A, DerivationQuery(0, 0, 0)).basis[:3]:
            ok, witness = is_quasiderivation_3(A, D, 0, 0)
            assert ok and witness is not None


def test_quasi_but_not_derivation_with_verified_witness():
    fx = next(f for f in corpus.ternary_fixtures() if f.name == "t3-e1")
    A = fx.algebra
    ident = _ident(A.space)
    assert not is_derivation_3(A, ident, 0, 0).passed
    ok, witness = is_quasiderivation_3(A, ident, 0, 0)
    assert ok
    # substitute the companion into the defining relation on all triples
    for i, j, l in itertools.product(range(3), repeat=3):
        lhs = witness.apply(A.bracket.bracket_basis(i, j, l))
        e = A.space.basis()
        rhs = A.bracket.bracket(ident.column(i), e[j], e[l])
        rhs = tuple(
            a + b + c
            for a, b, c in zip(
                rhs,
                A.bracket.bracket(e[i], ident.column(j), e[l]),
                A.bracket.bracket(e[i], e[j], ident.column(l)),
            )
        )
        assert lhs == rhs


def test_quasiderivation_zero_bracket_minimal_witness():
    sp = SuperSpace((0, 1))
    A = ThreeBiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), _ident(sp), _ident(sp))
    D = GradedMap.diagonal(sp, [1, 2])
    ok, witness = is_quasiderivation_3(A, D, 0, 0)
    assert ok
    assert witness.is_zero()  # free variables pinned to zero


def test_quasiderivation_rejects_noncommuting_candidate():
    sp = SuperSpace((0, 0))
    alpha = GradedMap.diagonal(sp, [1, 2])
    A = ThreeBiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), alpha, _ident(sp))
    bad = GradedMap(sp, ((F(0), F(1)), (F(0), F(0))), 0)
    with pytest.raises(PreconditionError):
        is_quasiderivation_3(A, bad, 0, 0)


def test_binary_derivation_and_solver():
    ax = next(f for f in corpus.binary_fixtures() if f.name == "axb3-trivline").algebra
    space = solve_derivation_space_2(ax, DerivationQuery(0, 0, 0))
    assert space.dimension >= 1
    for D in space.basis:
        assert is_derivation_2(ax, D, 0, 0).passed
    # ad(e3) = [., e3]-style map: D(e2) = -e2 is a derivation
    D = GradedMap.diagonal(ax.space, [0, 1, 0])
    assert is_derivation_2(ax, D, 0, 0).passed


def test_binary_solver_matches_dense_oracle(binary_corpus):
    for fx in binary_corpus:
        A = fx.algebra
        for s, r in ((0, 0), (1, 0), (0, 1)):
            for parity in (0, 1):
                ours = solve_derivation_space_2(A, DerivationQuery(s, r, parity)).dimension
                rows, ncols = derivation_constraint_matrix_2(
                    A.space.parities,
                    [list(r_) for r_ in A.alpha.matrix],
                    [list(r_) for r_ in A.beta.matrix],
                    A.bracket.as_dict(),
                    s,
                    r,
                    parity,
                )
                assert ours == nullity(rows, ncols), (fx.name, s, r, parity)


def _binary_quasi_target(A, D, M, i, j):
    """[D e_i, M e_j] + (-1)^{|e_i||D|} [M e_i, D e_j], straight from the entries."""
    dim = A.space.dim
    ent = A.bracket.as_dict()
    ei = tuple(F(int(t == i)) for t in range(dim))
    ej = tuple(F(int(t == j)) for t in range(dim))
    t1 = bracket2_of_vectors(ent, dim, matvec(D.matrix, ei), matvec(M.matrix, ej))
    t2 = bracket2_of_vectors(ent, dim, matvec(M.matrix, ei), matvec(D.matrix, ej))
    sgn = sign(A.space.parities[i] * D.parity)
    return tuple(a + sgn * b for a, b in zip(t1, t2))


def _assert_binary_companion(A, D, witness, s, r):
    M = A.alpha.power(s).compose(A.beta.power(r))
    ent = A.bracket.as_dict()
    dim = A.space.dim
    assert witness.parity == D.parity
    for i, j in itertools.product(range(dim), repeat=2):
        bracket = bracket2_of_vectors(
            ent, dim, tuple(F(int(t == i)) for t in range(dim)), tuple(F(int(t == j)) for t in range(dim))
        )
        assert matvec(witness.matrix, bracket) == _binary_quasi_target(A, D, M, i, j)


def test_binary_quasiderivation_witnesses(binary_corpus):
    named = {f.name: f.algebra for f in binary_corpus}
    # every derivation is a quasiderivation; the witness satisfies the relation
    for name in ("axb3-trivline", "gl11", "axb3-twist-phi"):
        A = named[name]
        for s, r in ((0, 0), (1, 0)):
            for D in solve_derivation_space_2(A, DerivationQuery(s, r, 0)).basis:
                ok, witness = is_quasiderivation_2(A, D, s, r)
                assert ok
                _assert_binary_companion(A, D, witness, s, r)
    # the identity is not a derivation of a nonzero bracket, but 2 Id is its companion
    ax = named["axb3-trivline"]
    ident = _ident(ax.space)
    assert not is_derivation_2(ax, ident, 0, 0).passed
    ok, witness = is_quasiderivation_2(ax, ident, 0, 0)
    assert ok
    _assert_binary_companion(ax, ident, witness, 0, 0)
    assert witness.matrix[1][1] == 2


def test_binary_quasiderivation_inconsistent_system():
    # heis3: [e1, e2] = e3.  D(e3) = e2 makes the target at (e3, e1) equal to
    # [e2, e1] = -e3 while [e3, e1] = 0, so no companion exists.
    named = {f.name: f.algebra for f in corpus.binary_fixtures()}
    heis = named["heis3"]
    D = GradedMap(heis.space, ((F(0),) * 3, (F(0), F(0), F(1)), (F(0),) * 3), 0)
    assert is_quasiderivation_2(heis, D, 0, 0) == (False, None)
    # odd candidate on heis-super2 ([e2, e2] = e1, e2 odd): D(e1) = e2 gives the
    # target [e2, e2] = e1 at (e1, e2) while [e1, e2] = 0
    sup = named["heis-super2"]
    odd = GradedMap(sup.space, ((F(0), F(0)), (F(1), F(0))), 1)
    assert is_quasiderivation_2(sup, odd, 0, 0) == (False, None)


def test_binary_quasiderivation_rejects_noncommuting_candidate():
    A = next(f for f in corpus.binary_fixtures() if f.name == "axb2-twist-aneb").algebra
    bad = GradedMap(A.space, ((F(0), F(1)), (F(0), F(0))), 0)
    with pytest.raises(PreconditionError):
        is_quasiderivation_2(A, bad, 0, 0)


def test_derivation_transfer_trivial_cases(tau_corpus):
    fx = next(f for f in tau_corpus if f.name == "axb3/id")
    zero = GradedMap.zero(fx.algebra.space)
    ok, report = check_derivation_transfer(fx.algebra, fx.tau, zero, 0, 0)
    assert ok and report.passed
    # tau = 0 induces the zero bracket; any derivation transfers
    fz = next(f for f in tau_corpus if f.name == "heis-super2/zero")
    D = GradedMap.diagonal(fz.algebra.space, [2, 1])
    assert is_derivation_2(fz.algebra, D, 0, 0).passed
    ok2, _ = check_derivation_transfer(fz.algebra, fz.tau, D, 0, 0)
    assert ok2


def test_derivation_transfer_end_to_end(tau_corpus):
    # D = diag(0,1,0) on the dim-3 fixture: binary derivation with tau(D(.)) = 0
    fx = next(f for f in tau_corpus if f.name == "axb3/id")
    D = GradedMap.diagonal(fx.algebra.space, [0, 1, 0])
    ok, report = check_derivation_transfer(fx.algebra, fx.tau, D, 0, 0)
    assert ok, report
    induced = induce_tau(fx.algebra, fx.tau)
    assert is_derivation_3(induced, D, 0, 0).passed


def test_derivation_transfer_conditions_can_fail():
    # D with tau(D(x)) != 0 on a bracket-generating slot fails the cyclic sum
    fx = next(f for f in corpus.tau_fixtures() if f.name == "heis4/id")
    A, tau = fx.algebra, fx.tau
    D = GradedMap.diagonal(A.space, [1, 0, 0, 0])  # D(e1) = e1, tau(e1) = 1
    assert is_derivation_2(A, D, 0, 0).passed
    ok, report = check_derivation_transfer(A, tau, D, 0, 0)
    assert not ok
    assert any(v.rule == "signed-cyclic-sum" for v in report.violations)


def test_quasiderivation_transfer(tau_corpus):
    fx = next(f for f in tau_corpus if f.name == "axb3/id")
    D = GradedMap.diagonal(fx.algebra.space, [0, 1, 0])
    ok, report = check_quasiderivation_transfer(fx.algebra, fx.tau, D, 0, 0)
    assert ok
    assert any("empirically" in n for n in report.notes)


def test_mixed_parity_candidate_must_be_decomposed():
    # GradedMap cannot even represent a mixed matrix; the decomposition helper
    # from core is the supported route
    from bihomsuper import parity_components

    sp = SuperSpace((0, 1))
    even, odd = parity_components(sp, ((1, 1), (1, 1)))
    A = ThreeBiHomLieSuperalgebra(sp, StructureTensor3.zero(sp), _ident(sp), _ident(sp))
    assert is_derivation_3(A, even, 0, 0).passed
    assert is_derivation_3(A, odd, 0, 0).passed
