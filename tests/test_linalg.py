"""Sparse fraction-free elimination against an independent dense oracle."""

from fractions import Fraction as F
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomsuper import invert_matrix, kernel_basis, solve_linear

from oracles import matvec, nullity, nullspace, rank, rref


def test_identity_matrix_has_trivial_kernel():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(rows, 3) == []


def test_zero_matrix_kernel_is_everything():
    rows = [[0, 0, 0]] * 3
    basis = kernel_basis(rows, 3)
    assert len(basis) == 3
    seen = {tuple(v) for v in basis}
    assert len(seen) == 3


def test_hand_eliminated_example():
    # [[1,1,0],[0,0,1]] has a one-dimensional kernel spanned by (1,-1,0)
    basis = kernel_basis([[1, 1, 0], [0, 0, 1]], 3)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * F(-1) == v[1] and v[2] == 0


small_entries = st.integers(min_value=-4, max_value=4)


@given(
    st.lists(
        st.lists(small_entries, min_size=4, max_size=4), min_size=2, max_size=5
    )
)
@settings(max_examples=60)
def test_kernel_vectors_satisfy_system_and_match_oracle_nullity(rows):
    basis = kernel_basis(rows, 4)
    for v in basis:
        assert matvec(rows, v) == (F(0),) * len(rows)
    assert len(basis) == nullity(rows, 4)


@given(
    st.lists(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=40)
def test_rational_rows_same_kernel_dimension_as_oracle(rows):
    assert len(kernel_basis(rows, 3)) == nullity(rows, 3)


def test_solve_linear_consistent_and_inconsistent():
    rows = [[1, 1], [0, 1]]
    sol = solve_linear(rows, [3, 1], 2)
    assert sol == (F(2), F(1))
    assert solve_linear([[1, 1], [2, 2]], [1, 3], 2) is None
    # underdetermined: free variable pinned to zero for determinism
    sol2 = solve_linear([[1, 1, 0]], [5], 3)
    assert sol2 == (F(5), F(0), F(0))


def test_invert_matrix_roundtrip_and_singular():
    m = ((F(2), F(1)), (F(1), F(1)))
    inv = invert_matrix(m)
    assert matvec(inv, matvec(m, (F(3), F(-4)))) == (F(3), F(-4))
    assert invert_matrix(((F(1), F(2)), (F(2), F(4)))) is None


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def square_matrices(draw):
    """Random n x n rational matrices, n <= 4; about half are made singular."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = [draw(st.lists(small_fractions, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        # overwrite the last row with a combination of the others (zero when n = 1)
        coeffs = draw(st.lists(small_fractions, min_size=n - 1, max_size=n - 1))
        m[-1] = [sum((c * row[j] for c, row in zip(coeffs, m)), F(0)) for j in range(n)]
    return m


@given(square_matrices())
@settings(max_examples=80)
def test_invert_matrix_is_an_inverse_or_none_exactly_when_singular(m):
    n = len(m)
    inv = invert_matrix(m)
    if rank(m) < n:
        assert inv is None
        return
    # row j of the comparison is A times column j of the inverse, which must be e_j
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert [list(matvec(m, col)) for col in zip(*inv)] == identity


@st.composite
def linear_systems(draw):
    """Random systems A x = b of up to 5 x 4; half take b from A's column space."""
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=4))
    rows = [draw(st.lists(small_fractions, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if draw(st.booleans()):
        x0 = draw(st.lists(small_fractions, min_size=ncols, max_size=ncols))
        rhs = list(matvec(rows, x0))
    else:
        rhs = draw(st.lists(small_fractions, min_size=nrows, max_size=nrows))
    return rows, rhs, ncols


@given(linear_systems())
@settings(max_examples=80)
def test_solve_linear_solves_or_none_exactly_when_inconsistent(system):
    rows, rhs, ncols = system
    sol = solve_linear(rows, rhs, ncols)
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    if rank(augmented) > rank(rows):
        assert sol is None
    else:
        assert sol is not None and len(sol) == ncols
        assert list(matvec(rows, sol)) == list(rhs)


def test_oracle_agrees_with_itself_on_span():
    # sanity for the oracle: kernel vectors from the oracle satisfy the system
    rows = [[2, 4, 0], [1, 2, 0]]
    for v in nullspace(rows, 3):
        assert matvec(rows, v) == (F(0), F(0))


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
MULTIPLES = st.sampled_from([1, 2, -1, -3, F(1, 2), F(-2, 3), F(5, 4)])


@st.composite
def respread(draw, base):
    """``base`` plus duplicates, rescaled copies (negative and Fraction multiples) and zero rows, shuffled.

    The row space is that of ``base``.
    """
    rows = [list(row) for row in base]
    for row in base:
        rows += [[c * x for x in row] for c in draw(st.lists(MULTIPLES, max_size=2))]
    rows += [[0] * len(base[0])] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


def given_as(draw, row):
    """A row as a dense list, a mapping of its nonzeros, or a mapping that keeps some zeros."""
    kind = draw(st.sampled_from(["dense", "mapping", "mapping with zeros"]))
    if kind == "dense":
        return list(row)
    return {j: c for j, c in enumerate(row) if c or (kind == "mapping with zeros" and j % 2)}


@st.composite
def messy_systems(draw, extra=0):
    """Up to 4 random rows of 1..5 columns plus ``extra`` columns, respread as above."""
    ncols = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(small_fractions, min_size=ncols + extra, max_size=ncols + extra),
                         min_size=1, max_size=4))
    return draw(respread(base)), ncols


def rref_solution(rows, rhs, ncols):
    """The zero-free-variable solution read off the RREF of [A | b]; None when inconsistent."""
    m, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return tuple(x)


@PROPERTY
@given(st.data())
def test_kernel_basis_equals_the_rref_nullspace_on_respread_rows(data):
    rows, ncols = data.draw(messy_systems())
    given_rows = [given_as(data.draw, row) for row in rows]
    assert kernel_basis(given_rows, ncols) == nullspace(rows, ncols)


def test_solve_linear_equals_the_rref_solution_on_respread_systems():
    outcomes = set()

    @PROPERTY
    @given(st.data())
    def prop(data):
        # the last column is the right-hand side; a respread row keeps its equation
        augmented, ncols = data.draw(messy_systems(extra=1))
        rows = [given_as(data.draw, row[:ncols]) for row in augmented]
        rhs = [row[ncols] for row in augmented]
        expected = rref_solution([row[:ncols] for row in augmented], rhs, ncols)
        assert solve_linear(rows, rhs, ncols) == expected
        outcomes.add(expected is None)

    prop()
    assert outcomes == {True, False}  # both consistent and inconsistent systems were drawn


def test_invert_matrix_equals_the_rref_inverse_including_singular_matrices():
    outcomes = set()

    @PROPERTY
    @given(st.data())
    def prop(data):
        n = data.draw(st.integers(1, 4))
        base = data.draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n),
                                  min_size=1, max_size=n))
        # fewer than n distinct base rows make the matrix singular
        matrix = data.draw(respread(base))[:n]
        matrix += [[0] * n] * (n - len(matrix))
        m, pivots = rref([row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)])
        expected = tuple(tuple(row[n:]) for row in m) if pivots[:n] == list(range(n)) else None
        assert invert_matrix(matrix) == expected
        outcomes.add(expected is None)

    prop()
    assert outcomes == {True, False}


@pytest.mark.parametrize("column", [-1, 3, "0", 1.0])
def test_mapping_row_outside_the_columns_is_refused(column):
    with pytest.raises(ValueError, match="outside range"):
        kernel_basis([{0: 1}, {column: 1}], 3)
    # column 3 would be the right-hand side of the augmented system
    with pytest.raises(ValueError, match="outside range"):
        solve_linear([{column: 1}], [1], 3)


def test_ragged_dense_row_is_refused():
    with pytest.raises(ValueError, match="ragged"):
        kernel_basis([[1, 0, 0], [1, 0]], 3)
    with pytest.raises(ValueError, match="ragged"):
        solve_linear([[1, 0, 0, 2]], [1], 3)


# Upper-triangular primitive rows whose pivots 2, 3, 5 divide none of the sums
# met in back-substitution, so each pivot scales up the coordinates filled before it.
CHAIN = [[2, 1, 1, 0], [0, 3, 1, 1], [0, 0, 5, 1]]
CHAIN_KERNEL = [(F(7, 30), F(-4, 15), F(-1, 5), F(1))]
CHAIN_SOLUTION = (F(4, 15), F(4, 15), F(1, 5))  # of the first three columns = (1, 1, 1)
CHAIN_INVERSE = ((F(1, 2), F(-1, 6), F(-1, 15)), (F(0), F(1, 3), F(-1, 15)), (F(0), F(0), F(1, 5)))


def test_kernel_basis_rescales_the_coordinates_it_has_filled():
    assert kernel_basis(CHAIN, 4) == CHAIN_KERNEL
    assert kernel_basis([[3, 1, 0, 0], [0, 2, 1, 1]], 4) == [
        (F(1, 6), F(-1, 2), F(1), F(0)), (F(1, 6), F(-1, 2), F(0), F(1))]


def test_solve_linear_rescales_the_coordinates_it_has_filled():
    assert solve_linear([row[:3] for row in CHAIN], [1, 1, 1], 3) == CHAIN_SOLUTION
    assert solve_linear([[3, 1, 0], [0, 2, 1]], [1, 1], 3) == (F(1, 6), F(1, 2), F(0))


def test_invert_matrix_rescales_the_coordinates_it_has_filled():
    assert invert_matrix([row[:3] for row in CHAIN]) == CHAIN_INVERSE
    assert invert_matrix([[3, 1], [0, 2]]) == ((F(1, 3), F(-1, 6)), (F(0), F(1, 2)))


def given_four_ways(rows):
    """Int dicts (the fast paths), dense Fractions, a non-dict mapping and dicts mixing ints and Fractions."""
    return [
        [{j: c for j, c in enumerate(row) if c} for row in rows],
        [[F(c) for c in row] for row in rows],
        [MappingProxyType(dict(enumerate(row))) for row in rows],
        [{j: c if j % 2 else F(c) for j, c in enumerate(row)} for row in rows],
    ]


def test_int_mapping_and_fraction_rows_give_the_same_results():
    rows = CHAIN + [[4, 5, 3, 1], [0, 0, 0, 0]]  # twice the first row plus the second, and a zero row
    square = [row[:3] for row in rows]
    kernels = [kernel_basis(form, 4) for form in given_four_ways(rows)]
    solutions = [solve_linear(form, [1, 1, 1, 3, 0], 3) for form in given_four_ways(square)]
    # invert_matrix takes dense rows: ints, Fractions, and ints beside Fractions
    inverses = [invert_matrix(form) for form in (
        square[:3], [[F(c) for c in row] for row in square[:3]],
        [[c if j % 2 else F(c) for j, c in enumerate(row)] for row in square[:3]])]
    assert kernels == [CHAIN_KERNEL] * 4
    assert solutions == [CHAIN_SOLUTION] * 4
    assert inverses == [CHAIN_INVERSE] * 3
    # the answers to int rows are Fractions too
    for vector in kernels[0] + [solutions[0]] + list(inverses[0]):
        assert all(type(x) is F for x in vector)


NONZERO = small_fractions.filter(bool)


def given_in_form(draw, row, dense_only=False):
    """A row as a dict of its nonzeros, a dict keeping its zeros, a MappingProxyType, or a dense
    list of Fractions or of ints where they are whole; ``dense_only`` keeps the two lists."""
    forms = ["fractions", "ints"] + ([] if dense_only else ["dict", "dict with zeros", "proxy"])
    form = draw(st.sampled_from(forms))
    whole = [c.numerator if c.denominator == 1 else c for c in map(F, row)]
    if form == "fractions":
        return [F(c) for c in row]
    if form == "ints":
        return whole
    nonzero = {j: c for j, c in enumerate(whole) if c or form == "dict with zeros"}
    return MappingProxyType(nonzero) if form == "proxy" else nonzero


@st.composite
def planted_systems(draw):
    """Rows [A | b] over n unknowns, shuffled: random rows; rows with one nonzero entry in A,
    with b = 0 (one entry in [A | b] too) or drawn; rows with their one entry in b; zero rows;
    and exact and scaled duplicates of all of them."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(small_fractions, min_size=n + 1, max_size=n + 1), max_size=3))
    for _ in range(draw(st.integers(0, n + 1))):
        j = draw(st.integers(0, n))  # j = n puts the one entry in b
        row = [draw(NONZERO) if i == j else F(0) for i in range(n + 1)]
        if j < n and draw(st.booleans()):
            row[n] = draw(small_fractions)
        rows.append(row)
    rows += [[F(0)] * (n + 1)] * draw(st.integers(0, 2))
    for row in list(rows):
        rows += [[c * x for x in row] for c in draw(st.lists(MULTIPLES, max_size=2))]
    return draw(st.permutations(rows)), n


def test_presolved_rows_give_the_rref_answers():
    """Rows with one nonzero entry fix their unknown before elimination; kernels, solutions and
    inverses still equal those read off the RREF, consistent or not, singular or not."""
    outcomes = set()

    @PROPERTY
    @given(st.data())
    def prop(data):
        augmented, n = data.draw(planted_systems())
        A, b = [row[:n] for row in augmented], [row[n] for row in augmented]
        assert kernel_basis([given_in_form(data.draw, row) for row in A], n) == nullspace(A, n)
        solution = rref_solution(A, b, n)
        given_b = given_in_form(data.draw, b, dense_only=True)
        assert solve_linear([given_in_form(data.draw, row) for row in A], given_b, n) == solution
        matrix = (A + [[F(0)] * n] * n)[:n]  # zero rows of A become rows [0 | e_i] of [A | I]
        m, pivots = rref([row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)])
        inverse = tuple(tuple(row[n:]) for row in m) if pivots[:n] == list(range(n)) else None
        assert invert_matrix([given_in_form(data.draw, row, dense_only=True) for row in matrix]) == inverse
        outcomes.update({("consistent", solution is not None), ("invertible", inverse is not None)})

    prop()
    assert outcomes == {(kind, seen) for kind in ("consistent", "invertible") for seen in (True, False)}
