"""Core graded linear algebra: scalars, spaces, maps, tensors, signs."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomsuper import (
    DimensionError,
    GradedMap,
    LinearForm,
    ParityError,
    StructureTensor2,
    StructureTensor3,
    SuperSpace,
    WedgePair,
    commute,
    parity_components,
)
from bihomsuper.core import StructureTensor, basis_vector, ksign, vec_parity, vec_scale

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10)


def test_scalar_arithmetic_is_exact():
    a = F(1, 3)
    assert a + a + a == 1
    assert F(10, 4) == F(5, 2)
    assert F(5, 2).denominator == 2  # canonical reduced form


@given(rationals, rationals)
def test_scalar_add_sub_roundtrip(a, b):
    assert a + b - b == a


@given(rationals.filter(lambda x: x != 0))
def test_scalar_multiplicative_inverse(a):
    assert a * (1 / a) == 1


def test_superspace_validation():
    sp = SuperSpace((0, 1, 0))
    assert sp.dim == 3
    assert sp.parity(1) == 1
    with pytest.raises(DimensionError):
        SuperSpace(())
    with pytest.raises(ParityError):
        SuperSpace((0, 2))


def test_graded_map_parity_invariant():
    sp = SuperSpace((0, 1))
    # even map may not mix parities
    with pytest.raises(ParityError):
        GradedMap(sp, ((F(0), F(1)), (F(0), F(0))), 0)
    # the same matrix is a valid odd map
    odd = GradedMap(sp, ((F(0), F(1)), (F(0), F(0))), 1)
    assert odd.parity == 1


def test_graded_map_image_parity_support():
    sp = SuperSpace((0, 0, 1))
    m = GradedMap(sp, ((F(0),) * 3, (F(0),) * 3, (F(2), F(3), F(0))), 1)
    for i in sp.indices():
        img = m.column(i)
        p = vec_parity(sp, img)
        if any(c != 0 for c in img):
            assert p == (sp.parity(i) + m.parity) % 2


def test_apply_identity_and_zero():
    sp = SuperSpace((0, 1))
    v = (F(3), F(-2))
    assert GradedMap.identity(sp).apply(v) == v
    assert GradedMap.zero(sp).apply(v) == (F(0), F(0))


@given(st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=25)
def test_compose_matches_sequential_apply(vec):
    sp = SuperSpace((0, 0, 0))
    m1 = GradedMap(sp, ((F(1), F(2), F(0)), (F(0), F(1), F(1)), (F(3), F(0), F(1))), 0)
    m2 = GradedMap(sp, ((F(0), F(1), F(0)), (F(1), F(0), F(2)), (F(0), F(0), F(5))), 0)
    v = tuple(vec)
    assert m1.compose(m2).apply(v) == m1.apply(m2.apply(v))


def test_power_by_squaring_is_exact_for_large_exponents():
    sp = SuperSpace((0, 0))
    shear = GradedMap(sp, ((1, 1), (0, 1)))
    assert shear.power(100_000).matrix == ((1, 100_000), (0, 1))


def test_power_matches_repeated_composition():
    sp = SuperSpace((0, 1, 1))
    even = GradedMap(sp, ((2, 0, 0), (0, 1, F(1, 3)), (0, -1, 5)))
    odd = GradedMap(sp, ((0, 1, 2), (3, 0, 0), (F(-1, 2), 0, 0)), 1)
    for m in (even, odd):
        expected = GradedMap.identity(sp)
        for exponent in range(11):
            got = m.power(exponent)
            assert (got.matrix, got.parity) == (expected.matrix, expected.parity)
            expected = expected.compose(m)
    with pytest.raises(ValueError):
        even.power(-1)


def test_commute_examples():
    sp = SuperSpace((0, 0))
    ident = GradedMap.identity(sp)
    any_m = GradedMap(sp, ((F(1), F(2)), (F(3), F(4))), 0)
    assert commute(ident, any_m)
    d1 = GradedMap.diagonal(sp, [1, 5])
    d2 = GradedMap.diagonal(sp, [7, 2])
    assert commute(d1, d2)
    # [[0,1],[0,0]] and [[1,0],[0,2]] do not commute
    n = GradedMap(sp, ((F(0), F(1)), (F(0), F(0))), 0)
    d = GradedMap.diagonal(sp, [1, 2])
    assert n.compose(d).matrix != d.compose(n).matrix
    assert not commute(n, d)


def test_inverse_exact_and_singular():
    sp = SuperSpace((0, 0))
    m = GradedMap(sp, ((F(2), F(1)), (F(1), F(1))), 0)
    inv = m.inverse()
    assert m.compose(inv).is_identity()
    from bihomsuper import PreconditionError

    with pytest.raises(PreconditionError):
        GradedMap.zero(sp).inverse()


def test_parity_components_split():
    sp = SuperSpace((0, 1))
    even, odd = parity_components(sp, ((1, 2), (3, 4)))
    assert even.matrix == ((F(1), F(0)), (F(0), F(4)))
    assert odd.matrix == ((F(0), F(2)), (F(3), F(0)))
    assert even.parity == 0 and odd.parity == 1


def test_linear_form_vanishes_on_odd():
    sp = SuperSpace((0, 1))
    with pytest.raises(ParityError):
        LinearForm(sp, (F(1), F(1)))
    t = LinearForm(sp, (F(2), F(0)))
    assert t.apply((F(1), F(7))) == 2


def test_tensor2_zero_and_sparse_lookup():
    sp = SuperSpace((0, 0))
    z = StructureTensor2.zero(sp)
    assert z.bracket_basis(0, 1) == (F(0), F(0))
    t = StructureTensor2.from_dict(sp, {(0, 1, 0): 1})
    assert t.bracket_basis(0, 1) == (F(1), F(0))
    assert t.bracket_basis(1, 0) == (F(0), F(0))
    with pytest.raises(DimensionError):
        t.bracket_basis(0, 5)


def test_tensor2_parity_additivity_enforced():
    sp = SuperSpace((0, 1))
    # [e1, e1] = e2 would be an odd value of an even-even pair
    with pytest.raises(ParityError):
        StructureTensor2.from_dict(sp, {(0, 0, 1): 1})


@given(rationals, rationals)
@settings(max_examples=30)
def test_eval2_bilinear(a, b):
    sp = SuperSpace((0, 0, 0))
    t = StructureTensor2.from_dict(sp, {(0, 1, 2): 2, (1, 2, 0): -3, (2, 2, 1): F(1, 2)})
    e = sp.basis()
    u = vec_scale(a, e[0])
    lhs = t.bracket(u, e[1])
    rhs = vec_scale(a, t.bracket(e[0], e[1]))
    assert lhs == rhs
    mix = tuple(x + y for x, y in zip(vec_scale(a, e[0]), vec_scale(b, e[2])))
    assert t.bracket(mix, e[1]) == tuple(
        x + y
        for x, y in zip(
            vec_scale(a, t.bracket(e[0], e[1])), vec_scale(b, t.bracket(e[2], e[1]))
        )
    )


def test_eval3_zero_single_entry_and_trilinearity():
    sp = SuperSpace((0, 0))
    z = StructureTensor3.zero(sp)
    assert z.bracket_basis(0, 0, 1) == (F(0), F(0))
    t = StructureTensor3.from_dict(sp, {(0, 0, 1, 1): 5})
    assert t.bracket_basis(0, 0, 1) == (F(0), F(5))
    assert t.bracket_basis(1, 0, 0) == (F(0), F(0))
    e = sp.basis()
    # manual expansion of t(2 e1 + e2, e1, e2)
    u = (F(2), F(1))
    expect = tuple(
        2 * x + y for x, y in zip(t.bracket(e[0], e[0], e[1]), t.bracket(e[1], e[0], e[1]))
    )
    assert t.bracket(u, e[0], e[1]) == expect


def test_tensor3_partial_matrix_consistency():
    sp = SuperSpace((0, 0, 0))
    t = StructureTensor3.from_dict(sp, {(0, 1, 2, 0): 1, (1, 2, 0, 2): 3})
    e = sp.basis()
    for slot in (0, 1, 2):
        m = t.partial_matrix(slot, e[1], e[2])
        for free in sp.indices():
            args = {0: (e[free], e[1], e[2]), 1: (e[1], e[free], e[2]), 2: (e[1], e[2], e[free])}[slot]
            direct = t.bracket(*args)
            from_matrix = tuple(m[k][free] for k in sp.indices())
            assert direct == from_matrix


@pytest.mark.parametrize(
    "kind, entries",
    [
        (StructureTensor2, {(0, 2, 1): 2, (2, 1, 0): -1}),
        (StructureTensor3, {(0, 1, 2, 0): 1, (1, 2, 0, 2): 3}),
        (StructureTensor, {(0, 1, 2, 1, 0): 4, (2, 2, 1, 0, 1): -1}),
    ],
)
def test_any_arity_partial_matrix_matches_bracket(kind, entries):
    sp = SuperSpace((0, 0, 0))
    t = kind.from_dict(sp, entries)
    assert t.arity == len(next(iter(entries))) - 1
    e = sp.basis()
    fixed = [e[1], e[2], e[0]][: t.arity - 1]
    for slot in range(t.arity):
        m = t.partial_matrix(slot, *fixed)
        for free in sp.indices():
            args = fixed[:slot] + [e[free]] + fixed[slot:]
            assert t.bracket(*args) == tuple(m[k][free] for k in sp.indices())
    assert t.scale(2).add(t.scale(-1)) == t
    assert type(t.scale(2)) is kind


@pytest.mark.parametrize(
    "kind, entries",
    [
        (StructureTensor2, {(0, 2, 1): 2, (2, 1, 0): -1, (1, 1, 2): 3}),
        (StructureTensor3, {(0, 1, 2, 0): 1, (1, 2, 0, 2): 3, (2, 0, 1, 0): -1}),
        (StructureTensor, {(0, 1, 2, 1, 0): 4, (2, 2, 1, 0, 1): -1}),
    ],
)
def test_contract_matches_bracket_of_map_columns(kind, entries):
    sp = SuperSpace((0, 0, 0))
    t = kind.from_dict(sp, entries)
    full = GradedMap(sp, ((1, 2, 0), (0, -1, 3), (F(1, 2), 0, 1)), 0)
    # ``cancel`` sends e_0 and e_1 to opposite multiples of e_0: two preimages of one index
    cancel = GradedMap(sp, ((1, -1, 0), (0, 0, 0), (0, 0, 2)), 0)
    maps = [full, GradedMap.identity(sp), cancel, GradedMap.zero(sp), full]
    for chosen in [maps[: t.arity], maps[1 : t.arity + 1], [full] * t.arity, [cancel] * t.arity]:
        images = t.contract(chosen)
        for key in itertools.product(sp.indices(), repeat=t.arity):
            direct = t.bracket(*(m.column(i) for m, i in zip(chosen, key)))
            image = images.get(key, {})
            assert tuple(image.get(k, 0) for k in sp.indices()) == direct, (chosen, key)
    with pytest.raises(DimensionError):
        t.contract(maps[: t.arity - 1])
    with pytest.raises(DimensionError):
        t.contract([GradedMap.identity(SuperSpace((0, 1, 0)))] * t.arity)


def _graded_maps(space, parity):
    """Maps of one parity with small rational entries at the allowed positions."""
    P = space.parities
    cells = [(k, i) for k in space.indices() for i in space.indices() if P[k] == (P[i] + parity) % 2]

    def build(values):
        rows = [[F(0)] * space.dim for _ in space.indices()]
        for (k, i), c in zip(cells, values):
            rows[k][i] = c
        return GradedMap(space, tuple(map(tuple, rows)), parity)

    small = st.sampled_from([F(0), F(0), F(1), F(-2), F(1, 3)])
    return st.lists(small, min_size=len(cells), max_size=len(cells)).map(build)


MIXED = SuperSpace((0, 1, 0, 1))


@given(_graded_maps(MIXED, 0), _graded_maps(MIXED, 1), st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=40)
def test_sparse_apply_and_compose_match_dense_products(even, odd, v):
    def dense_apply(m, x):
        return tuple(sum((m.matrix[k][i] * x[i] for i in MIXED.indices()), F(0)) for k in MIXED.indices())

    for m in (even, odd):
        assert m.apply(v) == dense_apply(m, v)
        for other in (even, odd):
            product = m.compose(other)
            assert product.parity == (m.parity + other.parity) % 2
            for i in MIXED.indices():
                assert product.column(i) == dense_apply(m, other.column(i))
    with pytest.raises(ValueError):
        even.apply(["half", 0, 0, 0])  # entries are still read through as_scalar


def test_tensor_arity_is_read_from_keys():
    sp = SuperSpace((0, 1))
    with pytest.raises(DimensionError):
        StructureTensor.zero(sp)  # no keys to read the arity from
    with pytest.raises(DimensionError):
        StructureTensor.from_dict(sp, {(0, 0, 0): 1, (0, 0, 0, 0): 1})
    e = sp.basis()
    with pytest.raises(DimensionError):
        StructureTensor3.zero(sp).bracket(e[0], e[0])  # one argument short
    assert StructureTensor3.zero(sp).bracket_basis(1, 1, 0) == (F(0), F(0))


def test_wedge_pair_parities():
    sp = SuperSpace((0, 1))
    w = WedgePair.from_basis(sp, 0, 1)
    assert w.parity_first == 0 and w.parity_second == 1 and w.parity == 1
    with pytest.raises(ParityError):
        WedgePair(sp, (F(1), F(1)), basis_vector(2, 0))


def test_ksign():
    assert ksign(0) == 1
    assert ksign(1) == -1
    assert ksign(4) == 1
