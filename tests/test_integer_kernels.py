"""The integer kernels against the dense oracles, on data with mixed denominators.

``StructureTensor.contract``, ``core.contraction_sum`` and the nested-bracket
join ``algebras._composition_sum`` sum ints over one common denominator and
make one Fraction per reported coefficient.  These properties draw tensors
whose entries have denominators 1, 2, 3 and 7, slot, outer and twisting maps
with denominators 4, 5 and 9, and term coefficients 1/2 and -2/3, so that the
terms of one sum have different denominators and the first is seldom their
lcm.  Each property asserts that both verdicts occur.  In a copy of the
source they catch: the rescale to the common denominator dropped, the outer
map's denominator ignored, and the first term's denominator used for every
term.
"""

import itertools
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomsuper import (
    DeformationPair,
    DerivationQuery,
    GradedMap,
    RotaBaxterOperator,
    StructureTensor2,
    StructureTensor3,
    SuperSpace,
    check_2cocycle,
    check_deformation,
    is_derivation_2,
    is_derivation_3,
    is_nijenhuis_2,
    is_nijenhuis_3,
    make_n_bracket_1,
    make_n_bracket_2,
    make_twist_2,
    make_twist_3,
    solve_derivation_space,
    solve_derivation_space_2,
    verify_3bihom_jacobi_cyclic,
    verify_bihom_jacobi,
)
from bihomsuper.core import contraction_sum, dense
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
