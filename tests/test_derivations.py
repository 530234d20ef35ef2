"""Derivation spaces, quasiderivations, supercommutators, transfer criteria."""

import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomsuper import (
    DerivationQuery,
    GradedMap,
    PreconditionError,
    StructureTensor3,
    SuperSpace,
    TheoremContradictionError,
    ThreeBiHomLieSuperalgebra,
    check_derivation_transfer,
    check_quasiderivation_transfer,
    induce_tau,
    is_derivation_2,
    is_derivation_3,
    is_quasiderivation_2,
    is_quasiderivation_3,
    load_document,
    make_twist_2,
    solve_derivation_space,
    solve_derivation_space_2,
    supercommutator,
)
from bihomsuper import derivations

import corpus
from oracles import (
    bracket2_of_vectors,
    companion_rhs,
    companion_system,
    derivation_constraint_matrix_2,
    derivation_constraint_matrix_3,
    derivation_report,
    matvec,
    nullity,
    nullspace,
    rank,
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
        for s, r in itertools.product(range(3), repeat=2):
            for parity in (0, 1):
                ours = _solved_basis(fx.algebra, s, r, parity)
                assert ours == _oracle_basis(fx.algebra, s, r, parity), (fx.name, s, r, parity)


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
    cases = [(fx.algebra, sr) for fx in binary_corpus for sr in ((0, 0), (1, 0), (0, 1))]
    cases += [(_axb2_shear_twist(), sr) for sr in itertools.product(range(3), repeat=2)]
    for A, (s, r) in cases:
        for parity in (0, 1):
            assert _solved_basis(A, s, r, parity) == _oracle_basis(A, s, r, parity), (A, s, r, parity)


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


def _solved_basis(A, s, r, parity):
    """The solver's basis as vectors over the parity-allowed entries, in row-major order."""
    solve = solve_derivation_space if A.bracket.arity == 3 else solve_derivation_space_2
    P = A.space.parities
    slots = [(k, i) for k in range(len(P)) for i in range(len(P)) if P[k] == (P[i] + parity) % 2]
    return [tuple(D.matrix[k][i] for k, i in slots) for D in solve(A, DerivationQuery(s, r, parity)).basis]


def _oracle_basis(A, s, r, parity):
    """The kernel basis of the dense constraint matrix; like the solver's, 1 in each free coordinate."""
    build = derivation_constraint_matrix_3 if A.bracket.arity == 3 else derivation_constraint_matrix_2
    P, alpha, beta, entries, _ = _oracle_args(A)
    return nullspace(*build(P, alpha, beta, entries, s, r, parity))


def _oracle_args(A):
    return (
        A.space.parities,
        [list(r_) for r_ in A.alpha.matrix],
        [list(r_) for r_ in A.beta.matrix],
        A.bracket.as_dict(),
        A.bracket.arity,
    )


def _commuting_candidates(A, parity, rows, slots):
    """Maps of one parity commuting with both twists, from the oracle's kernel.

    Two kernel vectors of the commutation block, the sum of all of them,
    a mixed combination and, for even parity, the identity: candidates on both
    sides of the verdict.
    """
    dim = A.space.dim
    vectors = nullspace(rows[: 2 * dim * dim], len(slots))
    if vectors:
        vectors = vectors[:2] + [
            tuple(map(sum, zip(*vectors))),
            tuple(a - 2 * b for a, b in zip(vectors[0], vectors[-1])),
        ]
    maps = []
    for v in vectors:
        mat = [[F(0)] * dim for _ in range(dim)]
        for (k, i), c in zip(slots, v):
            mat[k][i] = c
        maps.append(GradedMap(A.space, tuple(map(tuple, mat)), parity))
    if parity == 0:
        maps.append(_ident(A.space))
    return maps


def _axb2_shear_twist():
    """axb2 ([e1, e2] = e2) twisted by the automorphism e1 -> e1 + e2, e2 -> 2 e2.

    The bracket's image is the line of e2, so the Leibniz rows leave a
    companion free on e1; only the commutation rows tie that column to the
    rest, since X shear e1 = X e1 + X e2.
    """
    ab = next(f for f in corpus.binary_fixtures() if f.name == "axb2").algebra
    shear = GradedMap(ab.space, ((F(1), F(0)), (F(1), F(2))), 0)
    return make_twist_2(ab, shear, shear)


def test_companion_commutes_with_non_diagonal_twists():
    A = _axb2_shear_twist()
    ident = _ident(A.space)
    assert not is_derivation_2(A, ident, 0, 0).passed
    for s, r, scale in ((0, 0, 2), (1, 0, 3), (1, 1, 5)):
        ok, witness = is_quasiderivation_2(A, ident, s, r)
        assert ok
        assert witness.commutes_with(A.alpha) and witness.commutes_with(A.beta)
        assert witness == ident.scale(scale), (s, r, witness.matrix)
        _assert_binary_companion(A, ident, witness, s, r)


def test_quasiderivation_verdicts_match_dense_oracle(binary_corpus, ternary_corpus):
    verdicts = {(arity, parity): set() for arity in (2, 3) for parity in (0, 1)}
    for A in [fx.algebra for fx in binary_corpus + ternary_corpus] + [_axb2_shear_twist()]:
        decide = is_quasiderivation_3 if A.bracket.arity == 3 else is_quasiderivation_2
        untwisted = A.alpha.is_identity() and A.beta.is_identity()
        for parity in (0, 1):
            rows, slots = companion_system(*_oracle_args(A), parity)
            system_rank = rank(rows)
            for D in _commuting_candidates(A, parity, rows, slots):
                for s, r in ((0, 0),) if untwisted else ((0, 0), (1, 1)):
                    rhs = companion_rhs(*_oracle_args(A), s, r, D.matrix, parity)
                    augmented = [row + [b] for row, b in zip(rows, rhs) if b or any(row)]
                    consistent = rank(augmented) == system_rank
                    ok, witness = decide(A, D, s, r)
                    assert ok == consistent, (A, s, r, D.matrix)
                    if ok:
                        assert witness.parity == D.parity
                        values = [witness.matrix[k][i] for k, i in slots]
                        assert list(matvec(rows, values)) == rhs, (A, s, r, D.matrix)
                    else:
                        assert witness is None
                    verdicts[A.bracket.arity, parity].add(ok)
    assert all(seen == {False, True} for seen in verdicts.values()), verdicts


def _perturbed(A, data):
    """A copy of A with one structure constant added, or A itself."""
    P, dim, arity = A.space.parities, A.space.dim, A.bracket.arity
    args = tuple(data.draw(st.integers(0, dim - 1)) for _ in range(arity))
    outputs = [k for k in range(dim) if P[k] == sum(P[a] for a in args) % 2]
    if not outputs:
        return A
    key = args + (data.draw(st.sampled_from(outputs)),)
    extra = type(A.bracket).from_dict(A.space, {key: data.draw(st.sampled_from([-1, 1, 2]))})
    return type(A)(A.space, A.bracket.add(extra), A.alpha, A.beta)


def _random_map(A, parity, data):
    """A map of the given parity with small entries at the parity-allowed positions."""
    dim, P = A.space.dim, A.space.parities
    slots = [(k, i) for k in range(dim) for i in range(dim) if P[k] == (P[i] + parity) % 2]
    values = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2)]),
                                min_size=len(slots), max_size=len(slots)))
    mat = [[F(0)] * dim for _ in range(dim)]
    for (k, i), c in zip(slots, values):
        mat[k][i] = F(c)
    return GradedMap(A.space, tuple(map(tuple, mat)), parity)


def test_derivation_reports_match_dense_oracle(binary_corpus, ternary_corpus):
    """Sparse Leibniz reports equal the dense tuple walk field for field.

    Candidates: random maps, commuting maps, solved derivations and
    derivations shifted by a random map, on corpus algebras and on copies with
    one structure constant perturbed; (s, r) in {0, 1, 2}^2, both parities,
    with and without fail-fast.
    """
    fixtures = [fx.algebra for fx in binary_corpus + ternary_corpus if fx.algebra.space.dim <= 4]
    verdicts = {2: set(), 3: set()}
    solved = {}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def prop(data):
        A = data.draw(st.sampled_from(fixtures))
        if data.draw(st.booleans()):
            A = _perturbed(A, data)
        s, r = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        parity = data.draw(st.sampled_from([0, 1]))
        kind = data.draw(st.sampled_from(["random", "commuting", "derivation", "shifted"]))
        if kind == "random":
            D = _random_map(A, parity, data)
        elif kind == "commuting":
            rows, slots = companion_system(*_oracle_args(A), parity)
            candidates = _commuting_candidates(A, parity, rows, slots)
            D = data.draw(st.sampled_from(candidates)) if candidates else _random_map(A, parity, data)
        else:
            solve = solve_derivation_space if A.bracket.arity == 3 else solve_derivation_space_2
            key = (A, s, r, parity)
            if key not in solved:
                solved[key] = solve(A, DerivationQuery(s, r, parity)).basis
            D = GradedMap.zero(A.space, parity)
            for B in solved[key]:
                D = D.add(B.scale(data.draw(st.integers(-2, 2))))
            if kind == "shifted":
                D = D.add(_random_map(A, parity, data))
        check = is_derivation_3 if A.bracket.arity == 3 else is_derivation_2
        for fail_fast in (False, True):
            rep = check(A, D, s, r, fail_fast=fail_fast)
            got = (rep.identity, rep.total, [(v.where, v.residual, v.rule) for v in rep.violations])
            expected = derivation_report(*_oracle_args(A), s, r, D.matrix, parity, fail_fast)
            assert got == expected, (A, s, r, D, fail_fast)
        verdicts[A.bracket.arity].add(rep.passed)

    prop()
    assert verdicts == {2: {False, True}, 3: {False, True}}, verdicts


def test_solver_bases_match_dense_oracle_on_perturbed_algebras(binary_corpus, ternary_corpus):
    """Solved bases equal the dense oracle's kernel entry for entry.

    Corpus algebras of every dimension, both arities, the shear-twisted axb2
    and copies with one structure constant perturbed; (s, r) in {0, 1, 2}^2 and
    both parities.  Kernels strictly between zero and the whole commutant occur
    for both arities, so the rows are not merely all absent or all present.
    """
    fixtures = [fx.algebra for fx in binary_corpus + ternary_corpus] + [_axb2_shear_twist()]
    seen = {2: set(), 3: set()}

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def prop(data):
        A = data.draw(st.sampled_from(fixtures))
        if data.draw(st.booleans()):
            A = _perturbed(A, data)
        s, r = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        parity = data.draw(st.sampled_from([0, 1]))
        ours = _solved_basis(A, s, r, parity)
        assert ours == _oracle_basis(A, s, r, parity), (A, s, r, parity)
        rows, slots = companion_system(*_oracle_args(A), parity)
        commutant = nullity(rows[: 2 * A.space.dim ** 2], len(slots))
        seen[A.bracket.arity].add(0 < len(ours) < commutant)

    prop()
    assert seen == {2: {False, True}, 3: {False, True}}, seen


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


def _twistable():
    """The ternary algebra of golden/docs/twistable.json: alpha = diag(2, 3, 1/3), beta = diag(5, 7, 1/7)."""
    doc = load_document(Path(__file__).parent / "golden" / "docs" / "twistable.json")
    return doc, ThreeBiHomLieSuperalgebra(doc.space, doc.bracket3, *doc.structure_maps())


def test_interleaved_twist_powers_on_one_algebra_match_dense_oracle():
    """alpha^s beta^r is kept on the algebra between calls; with alpha != beta,
    (1, 2) and (2, 1) differ, and each report still equals the dense walk."""
    _, A = _twistable()
    candidates = {sr: solve_derivation_space(A, DerivationQuery(*sr)).basis for sr in ((1, 2), (2, 1))}
    verdicts = set()
    for s, r in ((1, 2), (2, 1), (1, 2)):
        for D in candidates[1, 2] + candidates[2, 1]:
            rep = is_derivation_3(A, D, s, r)
            got = (rep.identity, rep.total, [(v.where, v.residual, v.rule) for v in rep.violations])
            assert got == derivation_report(*_oracle_args(A), s, r, D.matrix, D.parity), (s, r, D)
            verdicts.add(rep.passed)
    assert verdicts == {False, True}


def _binary_with_derivations():
    return next(f for f in corpus.binary_fixtures() if f.name == "axb3-trivline").algebra


@pytest.mark.parametrize("solve, algebra", [(solve_derivation_space, lambda: _twistable()[1]),
                                            (solve_derivation_space_2, _binary_with_derivations)])
def test_solver_recheck_refuses_a_perturbed_basis(solve, algebra, monkeypatch):
    """Each solved basis map is re-checked by evaluation, not trusted from the kernel."""
    real = derivations.kernel_basis

    def perturbed(rows, n):
        basis = real(rows, n)
        assert basis, "the test needs a nonzero derivation space"
        # adds E_33 (e_3 -> e_3), which lies outside both derivation spaces
        basis[-1] = tuple(basis[-1][:-1]) + (basis[-1][-1] + 1,)
        return basis

    monkeypatch.setattr(derivations, "kernel_basis", perturbed)
    with pytest.raises(TheoremContradictionError, match="solver produced a non-derivation"):
        solve(algebra(), DerivationQuery(1, 1))


def test_quasiderivation_witness_is_checked_by_substitution(monkeypatch):
    doc, A = _twistable()
    assert is_quasiderivation_3(A, doc.map_named("alpha"), 1, 1)[0]
    real = derivations.solve_linear

    def perturbed(rows, rhs, n):
        solution = list(real(rows, rhs, n))
        solution[0] += 1
        return solution

    monkeypatch.setattr(derivations, "solve_linear", perturbed)
    with pytest.raises(TheoremContradictionError, match="quasiderivation witness failed substitution"):
        is_quasiderivation_3(A, doc.map_named("alpha"), 1, 1)
