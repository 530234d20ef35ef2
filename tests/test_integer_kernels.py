"""The integer kernels against the dense oracles, on data with mixed denominators.

``StructureTensor.contract``, ``core.contraction_sum``, the nested-bracket
join ``algebras._composition_sum`` and the twist commutator ``core.commutator``
sum ints over one common denominator and make one Fraction per reported
coefficient; the derivation solvers read ``core.commutator_terms`` as int rows,
one denominator per twist, ``derivations._linearise`` gives the Leibniz rows as
ints over one denominator d per system, and ``derivations._residual`` pushes
known maps through the Leibniz contractions that the algebra keeps per
(s, r, parity).  These properties draw tensors
whose entries have denominators 1, 2, 3 and 7, slot, outer and twisting maps
with denominators 4, 5 and 9, and term coefficients 1/2 and -2/3, so that the
terms of one sum have different denominators and the first is seldom their
lcm.  Each asserts that both verdicts occur.  In a copy of the source they
catch: the rescale to the common denominator dropped, the outer map's
denominator ignored, the first term's denominator used for every term; in the
commutator either map's denominator dropped, one map's used for both and the
sign of m X flipped; in the Leibniz rows the rescale to d dropped, the first
term's denominator used for every term, d taken from the tensor alone, and a
quasiderivation's right-hand side not multiplied by d; in the pushed residuals
the memo keyed without the parity, s or r, D's column read in place of its row,
and the outer term's sign flipped.
"""

import itertools
from fractions import Fraction as F
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomsuper import (
    BiHomLieSuperalgebra,
    DeformationPair,
    DerivationQuery,
    GradedMap,
    RotaBaxterOperator,
    StructureTensor2,
    StructureTensor3,
    SuperSpace,
    ThreeBiHomLieSuperalgebra,
    check_2cocycle,
    check_deformation,
    commute,
    is_derivation_2,
    is_derivation_3,
    is_nijenhuis_2,
    is_nijenhuis_3,
    is_quasiderivation_2,
    is_quasiderivation_3,
    make_n_bracket_1,
    make_n_bracket_2,
    make_twist_2,
    make_twist_3,
    solve_derivation_space,
    solve_derivation_space_2,
    verify_3bihom_jacobi_cyclic,
    verify_bihom_jacobi,
    verify_multiplicativity2,
    verify_multiplicativity3,
)
from bihomsuper import derivations
from bihomsuper.core import commutator, contraction_sum, dense
from bihomsuper.rota_baxter import _weighted_terms

import corpus
import oracles

PROPERTY = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
TENSOR_VALUES = [1, -1, F(1, 2), F(-3, 2), F(2, 3), F(5, 7), F(-1, 7)]
MAP_VALUES = [0, 0, 1, -1, F(2, 5), F(-3, 4), F(5, 9)]
COEFFICIENTS = [1, -1, F(1, 2), F(-2, 3)]
SCALES = [1, F(1, 2), F(2, 3), F(3, 7)]
SPACES = [SuperSpace((0, 1)), SuperSpace((0, 1, 0)), SuperSpace((0, 0, 1))]


def _fields(rep):
    return rep.identity, rep.total, [(v.where, v.residual, v.rule) for v in rep.violations]


def _matrix(m):
    return [list(row) for row in m.matrix]


def _tensor(space, arity, data):
    """A random tensor of ``arity`` with a few entries drawn from TENSOR_VALUES."""
    P, dim = space.parities, space.dim
    entries = {}
    for _ in range(data.draw(st.integers(1, 6))):
        args = tuple(data.draw(st.integers(0, dim - 1)) for _ in range(arity))
        k = data.draw(st.sampled_from([k for k in range(dim) if P[k] == sum(P[a] for a in args) % 2]))
        entries[args + (k,)] = data.draw(st.sampled_from(TENSOR_VALUES))
    return (StructureTensor2 if arity == 2 else StructureTensor3).from_dict(space, entries)


def _map(space, data, parity=0):
    """A random homogeneous map with entries drawn from MAP_VALUES."""
    rows = [[F(data.draw(st.sampled_from(MAP_VALUES))) if (space.parity(k) + space.parity(i)) % 2 == parity
             else F(0) for i in space.indices()] for k in space.indices()]
    return GradedMap(space, tuple(map(tuple, rows)), parity)


def _twisted_fixtures():
    """Two verified algebras whose twists have denominators 4, 5 and 9: gl(1|1) twisted by
    diag(1, 1, 5, 1/5) and diag(1, 1, 3/4, 4/3), and t3-e1 by diag(3/4, 5, 1/5) and diag(1, 4/9, 9/4)."""
    named = {f.name: f.algebra for f in corpus.binary_fixtures() + corpus.ternary_fixtures()}
    gl11, t3 = named["gl11"], named["t3-e1"]

    def diag(A, *d):
        return GradedMap.diagonal(A.space, d)

    return [make_twist_2(gl11, diag(gl11, 1, 1, 5, F(1, 5)), diag(gl11, 1, 1, F(3, 4), F(4, 3))),
            make_twist_3(t3, diag(t3, F(3, 4), 5, F(1, 5)), diag(t3, 1, F(4, 9), F(9, 4)))]


def _fixtures(binary_corpus, ternary_corpus):
    """Verified algebras of dim at most 3 (ternary) or 4 (binary), and the two twisted ones."""
    algebras = [fx.algebra for fx in binary_corpus if fx.algebra.space.dim <= 4]
    algebras += [fx.algebra for fx in ternary_corpus if fx.algebra.space.dim <= 3]
    return algebras + _twisted_fixtures()


def _drawn_algebra(fixtures, data):
    """A fixture with its bracket scaled by one of SCALES, which keeps every axiom, and in
    some draws one structure constant added with a denominator 2, 3 or 7."""
    A = data.draw(st.sampled_from(fixtures))
    w = A.bracket.scale(data.draw(st.sampled_from(SCALES)))
    if data.draw(st.booleans()):
        P, dim = A.space.parities, A.space.dim
        args = tuple(data.draw(st.integers(0, dim - 1)) for _ in range(w.arity))
        k = data.draw(st.sampled_from([k for k in range(dim) if P[k] == sum(P[a] for a in args) % 2]))
        w = w.add(type(w).from_dict(A.space, {args + (k,): data.draw(st.sampled_from([F(1, 7), F(-1, 2), F(2, 3)]))}))
    return type(A)(A.space, w, A.alpha, A.beta)


def _commuting_map(A, data):
    """A diagonal map drawn from MAP_VALUES when both twists are diagonal, else a multiple of the
    identity by 2/5: either way it commutes with the twists."""
    if all(m.matrix == GradedMap.diagonal(A.space, [m.matrix[i][i] for i in A.space.indices()]).matrix
           for m in (A.alpha, A.beta)) and data.draw(st.booleans()):
        return GradedMap.diagonal(A.space, [data.draw(st.sampled_from(MAP_VALUES)) for _ in A.space.indices()])
    return GradedMap.identity(A.space).scale(F(2, 5))


def test_contract_and_contraction_sum_match_dense_products():
    """``contract`` and ``contraction_sum`` on every basis tuple against dense brackets of map columns.

    Terms carry their own tensor (denominators 1, 2, 3, 7), slot maps and an
    outer map or None (denominators 4, 5, 9) and a coefficient 1, -1, 1/2 or
    -2/3.  In some draws a last term cancels the first exactly with other
    denominators (its tensor scaled by 1/q and its coefficient by q), so that
    sums vanishing and not vanishing both occur.
    """
    outcomes = set()

    @PROPERTY
    @given(st.data())
    def prop(data):
        space = data.draw(st.sampled_from(SPACES))
        dim, arity = space.dim, data.draw(st.sampled_from([2, 3]))
        terms = []
        for _ in range(data.draw(st.integers(1, 3))):
            maps = [_map(space, data) for _ in range(arity)]
            outer = _map(space, data) if data.draw(st.booleans()) else None
            terms.append((data.draw(st.sampled_from(COEFFICIENTS)), _tensor(space, arity, data), maps, outer))
        if data.draw(st.booleans()):
            c, w, maps, outer = terms[0]
            q = data.draw(st.sampled_from([F(3, 5), F(7, 4), 9]))
            terms.append((-c * q, w.scale(1 / F(q)), maps, outer))
        total = contraction_sum(terms)
        for t in itertools.product(range(dim), repeat=arity):
            expected = [F(0)] * dim
            for c, w, maps, outer in terms:
                value = oracles._bracket_of_vectors(w.as_dict(), dim, [oracles._column(_matrix(m), i)
                                                                         for m, i in zip(maps, t)])
                assert dense(w.contract(maps).get(t, {}), dim) == tuple(value), (w, maps, t)
                if outer is not None:
                    value = oracles.matvec(_matrix(outer), value)
                expected = [a + c * b for a, b in zip(expected, value)]
            assert dense(total.get(t, {}), dim) == tuple(expected), (terms, t)
        outcomes.add(all(c == 0 for image in total.values() for c in image.values()))

    prop()
    assert outcomes == {False, True}


def test_leibniz_weighted_and_nijenhuis_sums_match_dense_oracles(binary_corpus, ternary_corpus):
    """The Leibniz reports, the weighted bracket sum and the Nijenhuis reports and N-brackets.

    Algebras: verified fixtures with the bracket scaled by 1/2, 2/3 or 3/7,
    perturbed in some draws, among them two with twists of denominators 4, 5
    and 9.  Derivation candidates: random maps of either parity, or a solved
    derivation scaled by 5/9, at (s, r) in {0, 1, 2}^2.  Weighted and Nijenhuis
    operators commute with the twists; the weights are 1/2 and -2/3.
    """
    fixtures = _fixtures(binary_corpus, ternary_corpus)
    verdicts = {"derivation": set(), "nijenhuis": set()}

    @PROPERTY
    @given(st.data())
    def prop(data):
        A = _drawn_algebra(fixtures, data)
        arity, ent, P = A.bracket.arity, A.bracket.as_dict(), A.space.parities
        s, r, parity = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)), data.draw(st.sampled_from([0, 1]))
        if data.draw(st.booleans()):
            D = _map(A.space, data, parity)
        else:
            solve = solve_derivation_space if arity == 3 else solve_derivation_space_2
            D = GradedMap.zero(A.space, parity)
            for B in solve(A, DerivationQuery(s, r, parity)).basis:
                D = D.add(B.scale(F(5, 9)))
        check = is_derivation_3 if arity == 3 else is_derivation_2
        for fail_fast in (False, True):
            expected = oracles.derivation_report(P, _matrix(A.alpha), _matrix(A.beta), ent, arity, s, r,
                                                 _matrix(D), parity, fail_fast)
            rep = check(A, D, s, r, fail_fast=fail_fast)
            assert _fields(rep) == expected, (A, D, s, r, fail_fast)
        verdicts["derivation"].add(rep.passed)

        R = RotaBaxterOperator(_commuting_map(A, data), F(data.draw(st.sampled_from([F(1, 2), F(-2, 3)]))))
        weighted = contraction_sum((c, A.bracket, maps, None) for _, c, maps in _weighted_terms(A, R))
        assert (type(A.bracket).from_values(A.space, weighted).as_dict()
                == oracles.rb_bracket_entries(ent, arity, _matrix(R.map), R.weight)), (A, R)

        N = _commuting_map(A, data)
        expected = oracles.nijenhuis_reports(ent, arity, _matrix(N))
        rep = is_nijenhuis_3(A, N) if arity == 3 else is_nijenhuis_2(A, N)
        assert _fields(rep) == expected[False], (A, N)
        assert make_n_bracket_1(A, N).as_dict() == oracles.n_bracket_entries(ent, arity, _matrix(N), 1)
        if arity == 3:
            assert make_n_bracket_2(A, N).as_dict() == oracles.n_bracket_entries(ent, 3, _matrix(N), 2)
        verdicts["nijenhuis"].add(rep.passed)

    prop()
    assert verdicts == {"derivation": {False, True}, "nijenhuis": {False, True}}, verdicts


def test_composition_sums_match_dense_oracles(binary_corpus, ternary_corpus):
    """The binary Jacobi and cyclic ternary reports, and deformation pairs with mixed denominators.

    Algebras as in the Leibniz property.  Deformation pairs are multiples of
    the bracket by two different coefficients among 1/2, -2/3, 3/5 and 5/7,
    each perturbed in some draws by a constant with denominator 2, 3 or 7, so
    that w, omega1 and omega2 have different denominators.  Every report is
    compared with and without fail-fast.
    """
    fixtures = _fixtures(binary_corpus, ternary_corpus)
    verdicts = {"jacobi": set(), "deformation": set()}

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def prop(data):
        A = _drawn_algebra(fixtures, data)
        args = (A.space.parities, _matrix(A.alpha), _matrix(A.beta), A.bracket.as_dict())
        if A.bracket.arity == 2:
            verify, expected = verify_bihom_jacobi, oracles.binary_jacobi_reports(*args)
        else:
            verify, expected = verify_3bihom_jacobi_cyclic, oracles.cyclic_jacobi_reports(*args)
        for fail_fast in (False, True):
            assert _fields(verify(A, fail_fast=fail_fast)) == expected[fail_fast], (A, fail_fast)
        verdicts["jacobi"].add(not expected[False][2])
        if A.bracket.arity == 2:
            return
        a, b = data.draw(st.lists(st.sampled_from([F(1, 2), F(-2, 3), F(3, 5), F(5, 7)]),
                                  min_size=2, max_size=2, unique=True))
        w1, w2 = (_drawn_algebra([type(A)(A.space, A.bracket.scale(c), A.alpha, A.beta)], data).bracket
                  for c in (a, b))
        expected = oracles.deformation_reports(*args, w1.as_dict(), w2.as_dict())
        for fail_fast in (False, True):
            rep = check_deformation(A, DeformationPair(w1, w2), fail_fast=fail_fast)
            assert _fields(rep) == expected[fail_fast], (A, w1, w2, fail_fast)
        verdicts["deformation"].add(rep.passed)
        assert _fields(check_2cocycle(A, w1)) == oracles.cocycle_report(*args, w1.as_dict()), (A, w1)

    prop()
    assert verdicts == {"jacobi": {False, True}, "deformation": {False, True}}, verdicts


def _polynomial(m, data):
    """c0 + c1 m + c2 m^2 with coefficients drawn from MAP_VALUES: a map that commutes with m."""
    c0, c1, c2 = (data.draw(st.sampled_from(MAP_VALUES)) for _ in range(3))
    return GradedMap.identity(m.space).scale(c0).add(m.scale(c1)).add(m.compose(m).scale(c2))


def test_commutation_matches_dense_products_with_denominators(binary_corpus, ternary_corpus):
    """``commutator``, ``commute``, the ``twists-commute`` residuals of multiplicativity and the
    ``commutes-with-*`` residuals of the derivation verifiers, against dense products.

    The twists are a random even map alpha and either another one or a
    polynomial in alpha, so that they do and do not commute; the candidates
    are random maps of either parity or polynomials in alpha.  Every entry is
    drawn from MAP_VALUES (denominators 4, 5 and 9), so d_X and d_m differ.
    Under fail-fast a failing commutation is reported whole, over 2 dim
    columns, and ends the report.
    """
    fixtures = _fixtures(binary_corpus, ternary_corpus)
    verdicts = {"twists": set(), "derivation": set()}

    @PROPERTY
    @given(st.data())
    def prop(data):
        A = data.draw(st.sampled_from(fixtures))
        alpha = _map(A.space, data)
        beta = _polynomial(alpha, data) if data.draw(st.booleans()) else _map(A.space, data)
        A = type(A)(A.space, A.bracket, alpha, beta)
        parity = data.draw(st.sampled_from([0, 1]))
        D = _polynomial(alpha, data) if parity == 0 and data.draw(st.booleans()) else _map(A.space, data, parity)

        def failing(rule, X, m):
            return [(where, col, rule) for where, col in oracles.commutator_columns(_matrix(X), _matrix(m)) if any(col)]

        for X, m in ((alpha, beta), (D, alpha), (D, beta)):
            got = [(where, dense(image, A.space.dim), "") for where, image in sorted(commutator(X, m).items())]
            assert got == failing("", X, m), (X, m)
            assert commute(X, m) == X.commutes_with(m) == (not got), (X, m)
        twists = failing("twists-commute", alpha, beta)
        mult = verify_multiplicativity3 if A.bracket.arity == 3 else verify_multiplicativity2
        assert [f for f in _fields(mult(A))[2] if f[2] == "twists-commute"] == twists, A
        expected = failing("commutes-with-alpha", D, alpha) + failing("commutes-with-beta", D, beta)
        check = is_derivation_3 if A.bracket.arity == 3 else is_derivation_2
        for fail_fast in (False, True):
            _, total, found = _fields(check(A, D, 0, 0, fail_fast=fail_fast))
            assert [f for f in found if f[2].startswith("commutes-with-")] == expected, (A, D)
            if fail_fast and expected:
                assert (total, found) == (2 * A.dim, expected), (A, D)
        verdicts["twists"].add(not twists)
        verdicts["derivation"].add(not expected)

    prop()
    assert verdicts == {"twists": {False, True}, "derivation": {False, True}}, verdicts


def _shear_twists():
    """axb2 ([e1, e2] = e2) under the commuting automorphisms S: e1 -> e1 + 16/45 e2, e2 -> 5/9 e2 and
    T: e1 -> e1 + 3/5 e2, e2 -> 1/4 e2, as (alpha, beta) = (S, T), (S, Id) and (Id, T): non-diagonal
    twists, whose commutation rows mix entries of X, and pairs where one twist's rows alone allow more."""
    ab = next(f for f in corpus.binary_fixtures() if f.name == "axb2").algebra
    S = GradedMap(ab.space, ((F(1), F(0)), (F(16, 45), F(5, 9))), 0)
    T = GradedMap(ab.space, ((F(1), F(0)), (F(3, 5), F(1, 4))), 0)
    ident = GradedMap.identity(ab.space)
    return [make_twist_2(ab, alpha, beta) for alpha, beta in ((S, T), (S, ident), (ident, T))]


def test_solver_rows_match_dense_oracles_with_denominators():
    """Solved derivation bases against the kernel of the dense constraint matrix, and quasiderivation
    verdicts and witnesses against the dense companion system.

    The algebras are the two with diagonal twists of denominators 4, 5 and 9
    and axb2 under non-diagonal ones; (s, r) runs over {0, 1, 2}^2 and both
    parities.  The candidates commute with the twists: kernel vectors of the
    dense commutation block, their sum and, for even maps, 5/9 times the
    identity.  Kernels strictly between zero and the whole commutant occur,
    and so do both quasiderivation verdicts.
    """
    seen, verdicts = set(), set()
    for A in _twisted_fixtures() + _shear_twists():
        arity, dim = A.bracket.arity, A.space.dim
        args = (A.space.parities, _matrix(A.alpha), _matrix(A.beta), A.bracket.as_dict())
        build = oracles.derivation_constraint_matrix_3 if arity == 3 else oracles.derivation_constraint_matrix_2
        solve = solve_derivation_space if arity == 3 else solve_derivation_space_2
        decide = is_quasiderivation_3 if arity == 3 else is_quasiderivation_2
        for parity in (0, 1):
            rows, slots = oracles.companion_system(*args, arity, parity)
            commutant = oracles.nullspace(rows[: 2 * dim * dim], len(slots))
            vectors = commutant[:2] + [tuple(map(sum, zip(*commutant)))] if commutant else []
            candidates = [GradedMap(A.space, tuple(tuple(dict(zip(slots, v)).get((k, i), F(0)) for i in range(dim))
                                                   for k in range(dim)), parity) for v in vectors]
            candidates += [GradedMap.identity(A.space).scale(F(5, 9))] if parity == 0 else []
            for s, r in itertools.product(range(3), repeat=2):
                basis = solve(A, DerivationQuery(s, r, parity)).basis
                ours = [tuple(D.matrix[k][i] for k, i in slots) for D in basis]
                assert ours == oracles.nullspace(*build(*args, s, r, parity)), (A, s, r, parity)
                seen.add(0 < len(ours) < len(commutant))
                for D in candidates:
                    rhs = oracles.companion_rhs(*args, arity, s, r, _matrix(D), parity)
                    consistent = oracles.rank([row + [b] for row, b in zip(rows, rhs)]) == oracles.rank(rows)
                    ok, witness = decide(A, D, s, r)
                    assert ok == consistent, (A, s, r, D)
                    if ok:
                        values = [witness.matrix[k][i] for k, i in slots]
                        assert (witness.parity, list(oracles.matvec(rows, values))) == (parity, rhs), (A, s, r, D)
                    verdicts.add(ok)
    assert seen == {False, True} and verdicts == {False, True}, (seen, verdicts)


def _commuting_twists(space, data):
    """Two even twists with entries from MAP_VALUES that commute: both diagonal, or a random map and a
    polynomial in it."""
    if data.draw(st.booleans()):
        return [GradedMap.diagonal(space, [data.draw(st.sampled_from(MAP_VALUES)) for _ in space.indices()])
                for _ in range(2)]
    alpha = _map(space, data)
    return [alpha, _polynomial(alpha, data)]


def test_linearised_rows_match_dense_rows_with_denominators():
    """The solvers' Leibniz rows, in ints over their denominator d, row by row against the dense
    constraint matrices off the unknowns that the commutation rows fix, and the quasiderivation
    right-hand sides against the dense ones times d.

    Tensors of arity 2 and 3 have entries from TENSOR_VALUES (denominators 2,
    3 and 7); the twists commute, have entries from MAP_VALUES (denominators
    4, 5 and 9) and are diagonal in some draws and not in others; (s, r) runs
    over {0, 1, 2}^2 and the parity over both.  The unknowns fixed at 0 are
    exactly the columns of the dense commutation rows with one nonzero entry,
    and every dense kernel vector is 0 on them.  The Leibniz rows cover the
    other unknowns only: every row (t, k) divided by d equals the dense row of
    (t, k) with the fixed columns removed, so rows absent from the sparse system
    are zero there.  The candidate D is a combination, with coefficients from
    MAP_VALUES, of the dense commutant's basis; the rows and right-hand sides
    handed to ``solve_linear`` are recorded, every commutation row first.
    Trivial and nontrivial derivation kernels both occur.
    """
    kernels = set()

    @PROPERTY
    @given(st.data())
    def prop(data):
        space, arity = data.draw(st.sampled_from(SPACES)), data.draw(st.sampled_from([2, 3]))
        w, (alpha, beta) = _tensor(space, arity, data), _commuting_twists(space, data)
        A = (ThreeBiHomLieSuperalgebra if arity == 3 else BiHomLieSuperalgebra)(space, w, alpha, beta)
        s, r, parity = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)), data.draw(st.sampled_from([0, 1]))
        dim, args = space.dim, (space.parities, _matrix(alpha), _matrix(beta), w.as_dict())
        keys = [(t, k) for t in itertools.product(range(dim), repeat=arity) for k in range(dim)]
        build = oracles.derivation_constraint_matrix_3 if arity == 3 else oracles.derivation_constraint_matrix_2
        expected, ncols = build(*args, s, r, parity)
        slots, index_of, commuting = derivations._commuting_system(A, parity)
        free = derivations._free(index_of, commuting)
        fixed = {j for row in expected[: 2 * dim * dim] if len(nonzero := [j for j, c in enumerate(row) if c]) == 1
                 for j in nonzero}
        assert set(index_of.values()) - set(free.values()) == fixed, (A, parity)
        kernel = oracles.nullspace(expected, ncols)
        assert all(v[j] == 0 for v in kernel for j in fixed), (A, s, r, parity)
        kernels.add(bool(kernel))
        contractions = derivations._contractions(A, s, r, parity)

        def off_fixed(dense):
            return [[c for j, c in enumerate(row) if j not in fixed] for row in dense]

        def over_d(rows, d):
            assert not any(pos in fixed for row in rows.values() for pos in row), (A, s, r, parity)
            return off_fixed([[F(rows.get(key, {}).get(pos, 0), d) for pos in range(ncols)] for key in keys])

        rows, d = derivations._linearise(contractions, free)
        assert all(type(c) is int for row in rows.values() for c in row.values())
        assert over_d(rows, d) == off_fixed(expected[2 * dim * dim:]), (A, s, r, parity)

        companion, _ = oracles.companion_system(*args, arity, parity)
        commutant = oracles.nullspace(companion[: 2 * dim * dim], len(slots))
        coefficients = [data.draw(st.sampled_from(MAP_VALUES)) for _ in commutant]
        values = [sum((c * v[j] for c, v in zip(coefficients, commutant)), F(0)) for j in range(len(slots))]
        D = derivations._slots_to_map(space, parity, slots, values)
        rhs = dict(zip(keys, oracles.companion_rhs(*args, arity, s, r, _matrix(D), parity)[2 * dim * dim:]))
        rows, d = derivations._linearise([entry for entry in contractions if entry[1] is None], free)
        assert over_d(rows, d) == off_fixed(companion[2 * dim * dim:]), (A, D, s, r)
        decide = is_quasiderivation_3 if arity == 3 else is_quasiderivation_2
        with mock.patch.object(derivations, "solve_linear", wraps=derivations.solve_linear) as solve:
            decide(A, D, s, r)
        system, scaled, _ = solve.call_args.args
        order = sorted(rows.keys() | {key for key, b in rhs.items() if b})
        assert system == commuting + [rows.get(key, {}) for key in order], (A, D, s, r)
        assert scaled == [0] * len(commuting) + [rhs[key] * d for key in order], (A, D, s, r)

    prop()
    assert kernels == {False, True}, kernels


def _drawn_twisted_algebra(data):
    """An algebra of arity 2 or 3 on a super space of SPACES, its tensor from TENSOR_VALUES and its twists
    from MAP_VALUES: commuting in some draws (:func:`_commuting_twists`), two independent maps in others."""
    space, arity = data.draw(st.sampled_from(SPACES)), data.draw(st.sampled_from([2, 3]))
    twists = _commuting_twists(space, data) if data.draw(st.booleans()) else [_map(space, data), _map(space, data)]
    return (ThreeBiHomLieSuperalgebra if arity == 3 else BiHomLieSuperalgebra)(space, _tensor(space, arity, data),
                                                                               *twists)


def _solved_and_perturbed(A, s, r, parity, data):
    """The solved basis of the (s, r)-derivations of the parity (the zero map when it is empty), and each
    map again with one parity-allowed entry shifted by a nonzero value from MAP_VALUES."""
    solve = solve_derivation_space if A.bracket.arity == 3 else solve_derivation_space_2
    basis = solve(A, DerivationQuery(s, r, parity)).basis or (GradedMap.zero(A.space, parity),)
    P, perturbed = A.space.parities, []
    for D in basis:
        k, i = data.draw(st.sampled_from([(k, i) for k in A.space.indices() for i in A.space.indices()
                                          if P[k] ^ P[i] == parity]))
        rows = _matrix(D)
        rows[k][i] += data.draw(st.sampled_from([c for c in MAP_VALUES if c]))
        perturbed.append(GradedMap(A.space, tuple(map(tuple, rows)), parity))
    return list(basis) + perturbed


def _assert_reports_match_dense_walk(A, D, s, r):
    """``is_derivation_2/3`` with and without fail-fast equal ``oracles.derivation_report``; the verdict."""
    check = is_derivation_3 if A.bracket.arity == 3 else is_derivation_2
    args = (A.space.parities, _matrix(A.alpha), _matrix(A.beta), A.bracket.as_dict(), A.bracket.arity)
    for fail_fast in (False, True):
        rep = check(A, D, s, r, fail_fast=fail_fast)
        expected = oracles.derivation_report(*args, s, r, _matrix(D), D.parity, fail_fast)
        assert _fields(rep) == expected, (A, D, s, r, fail_fast)
    return rep.passed


def test_pushed_leibniz_residuals_match_dense_walk():
    """The derivation verifiers push D through the Leibniz contractions kept on the algebra
    (``derivations._residual``); each report equals the dense walk field for field.

    Tensors of arity 2 and 3 have entries from TENSOR_VALUES; the twists have
    entries from MAP_VALUES and commute in some draws and not in others; s, r
    run over {0, 1, 2} and the parity over both.  The candidates are the solved
    basis maps, with and without one perturbed entry.  Both verdicts occur.
    """
    verdicts = {2: set(), 3: set()}

    @PROPERTY
    @given(st.data())
    def prop(data):
        A = _drawn_twisted_algebra(data)
        s, r, parity = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)), data.draw(st.sampled_from([0, 1]))
        for D in _solved_and_perturbed(A, s, r, parity, data):
            verdicts[A.bracket.arity].add(_assert_reports_match_dense_walk(A, D, s, r))

    prop()
    assert verdicts == {2: {False, True}, 3: {False, True}}, verdicts


def test_interleaved_queries_read_the_contractions_of_their_own_key():
    """One algebra keeps its Leibniz contractions per (s, r, parity) across interleaved queries.

    Six queries alternate on one drawn algebra: each shares with an earlier
    one (s, r) but not the parity, s and the parity but not r, or r and the
    parity but not s.  After each solve, every candidate solved so far, of
    either parity, is checked at the current (s, r) against the dense walk,
    so a memo read under a key missing any of the three shows.
    """
    verdicts = set()

    @settings(PROPERTY, max_examples=8)
    @given(st.data())
    def prop(data):
        A, candidates = _drawn_twisted_algebra(data), []
        for s, r, parity in ((1, 2, 0), (1, 2, 1), (2, 2, 1), (2, 1, 1), (2, 1, 0), (1, 2, 0)):
            candidates += _solved_and_perturbed(A, s, r, parity, data)
            for D in candidates:
                verdicts.add(_assert_reports_match_dense_walk(A, D, s, r))

    prop()
    assert verdicts == {False, True}, verdicts
