"""Exact rational linear solvers built on sparse fraction-free elimination.

Every routine runs one forward pass and one back-substitution.  A row is a
dense sequence or a sparse mapping {column: coefficient}.  The forward pass
starts with the singleton-row presolve of Andersen & Andersen (Math. Program.
71 (1995) 221-245): a row whose one nonzero entry is in column j fixes x_j = 0,
becomes the pivot row {j: 1} unnormalised, and column j is struck from every
other row.  It reduces each remaining row to a primitive integer row
(denominators cleared, divided by the gcd of its entries, first entry
positive) and drops zero rows and duplicates.  It then visits the columns in
natural order and, among the rows leading in that column, pivots on the one
with the fewest nonzeros, in the manner of Markowitz; the other rows are
cross-multiplied against it and divided by their content, so they stay
primitive integer rows.  The pivot columns found in natural order depend only
on the row space, so the kernel basis (free coordinate 1), the solution with
zero free variables and the inverse do not depend on which rows were chosen as
pivots, nor on the presolve.  Back-substitution stays in ints over one common
denominator.  Kernel bases, particular solutions and matrix inverses
(elimination of [A | I]) all come from this pass.  These routines back the
derivation-space and quasiderivation solvers, the annihilating forms of
:mod:`bihomsuper.tau` and :meth:`GradedMap.inverse`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .core import Matrix, Vector, ZERO, as_scalar

__all__ = ["kernel_basis", "solve_linear", "invert_matrix"]

Row = Union[Sequence[object], Mapping[int, object]]
_Echelon = list[tuple[int, dict[int, int]]]  # (pivot column, integer row) by pivot column


def _entries(row: Row, ncols: int, *tail: tuple[int, object]) -> list[tuple[int, Fraction | int]]:
    """The nonzero (column, coefficient) pairs of a dense or mapping row over ``ncols`` columns, then of ``tail``."""
    if type(row) is dict or isinstance(row, Mapping):
        for j in row:
            if not (isinstance(j, int) and 0 <= j < ncols):
                raise ValueError(f"column {j!r} outside range({ncols})")
        pairs = row.items()
    elif len(row) != ncols:
        raise ValueError(f"ragged row of length {len(row)}, expected {ncols}")
    else:
        pairs = enumerate(row)
    if tail:
        pairs = chain(pairs, tail)
    return [(j, c) for j, x in pairs if (c := x if type(x) in (Fraction, int) else as_scalar(x))]


def _primitive(pairs) -> tuple[tuple[int, int], ...]:
    """The row as sorted (column, int) pairs with coprime entries, the first positive; () when zero."""
    pairs = sorted((j, c) for j, c in pairs if c)
    if not pairs:
        return ()
    if any(type(c) is not int for _, c in pairs):
        scale = lcm(*(c.denominator for _, c in pairs))
        pairs = [(j, c.numerator * (scale // c.denominator)) for j, c in pairs]
    g = gcd(*(c for _, c in pairs))
    if pairs[0][1] < 0:
        g = -g
    return tuple((j, c // g) for j, c in pairs)


def _echelon(rows: Iterable[list[tuple[int, Fraction | int]]], width: int) -> _Echelon:
    """The presolve, then forward elimination over the columns 0..width-1 in natural order."""
    rows = list(rows)
    fixed = {pairs[0][0] for pairs in rows if len(pairs) == 1}
    seen: set[tuple[tuple[int, int], ...]] = set()
    leading: dict[int, list[dict[int, int]]] = {j: [{j: 1}] for j in fixed}

    def add(pairs) -> None:
        key = _primitive(pairs)
        if key and key not in seen:
            seen.add(key)
            leading.setdefault(key[0][0], []).append(dict(key))

    for pairs in rows:
        if len(pairs) > 1:
            add([(j, c) for j, c in pairs if j not in fixed])
    echelon: _Echelon = []
    for c in range(width):
        candidates = leading.pop(c, None)
        if not candidates:
            continue
        pivot = min(candidates, key=len)  # fewest nonzeros; the first such row on ties
        echelon.append((c, pivot))
        p = pivot[c]
        for row in candidates:
            if row is pivot:
                continue
            f = row[c]
            reduced = {j: p * v for j, v in row.items() if j != c}
            for j, v in pivot.items():
                if j != c:
                    reduced[j] = reduced.get(j, 0) - f * v
            add(reduced.items())
    return echelon


def _back_substitute(echelon: _Echelon, sol: list[int], rhs: int | None = None) -> Vector:
    """Fill the pivot coordinates of ``sol`` so every echelon row holds.

    Row r reads sum_j row[j] sol[j] = row[rhs] (0 when ``rhs`` is None or the
    row has no entry there) over the unknown columns 0..len(sol)-1; the free
    coordinates already in ``sol`` stay as given, and the pivot coordinates are
    0 on entry, so a row with one entry is skipped.  ``sol`` holds int numerators
    over one denominator, 1 on entry; when a pivot p does not divide its sum s,
    all numerators and the denominator are multiplied by p / gcd(s, p).
    """
    n, den = len(sol), 1
    for c, row in reversed(echelon):
        if len(row) == 1:
            continue
        s = row.get(rhs, 0) * den - sum(v * sol[j] for j, v in row.items() if c < j < n and sol[j])
        p = row[c]
        if s % p:
            k = p // gcd(s, p)
            sol, den, s = [x * k for x in sol], den * k, s * k
        sol[c] = s // p
    return tuple(Fraction(x, den) if x else ZERO for x in sol)


def kernel_basis(rows: Sequence[Row], ncols: int) -> list[Vector]:
    """Exact basis of the right nullspace of the given coefficient rows.

    Each row is a sequence of ``ncols`` coefficients or a mapping from
    columns in range(ncols) to coefficients.  Each returned vector v satisfies
    A v = 0 exactly; the vectors are normalized so that the free coordinate
    driving each of them equals 1 and the other free coordinates are 0, which
    makes the output deterministic.  Returns [] for a trivial kernel.
    """
    echelon = _echelon((_entries(row, ncols) for row in rows), ncols)
    pivot_set = {c for c, _ in echelon}
    basis: list[Vector] = []
    for free in (c for c in range(ncols) if c not in pivot_set):
        sol = [0] * ncols
        sol[free] = 1
        basis.append(_back_substitute(echelon, sol))
    return basis


def solve_linear(rows: Sequence[Row], rhs: Sequence[object], ncols: int) -> Vector | None:
    """One exact solution of A x = b, or None when the system is inconsistent.

    Rows are given as in :func:`kernel_basis`.  Free variables are fixed to
    zero under the left-to-right pivot order, so the returned solution is
    deterministic and supported on pivot columns only.
    """
    if len(rows) != len(rhs):
        raise ValueError("number of rows and right-hand sides differ")
    augmented = (_entries(row, ncols, (ncols, b)) for row, b in zip(rows, rhs))
    echelon = _echelon(augmented, ncols + 1)
    if echelon and echelon[-1][0] == ncols:
        return None  # a pivot in the RHS column certifies inconsistency
    return _back_substitute(echelon, [0] * ncols, ncols)


def invert_matrix(matrix: Matrix) -> Matrix | None:
    """Exact inverse of a square rational matrix, or None when singular.

    Eliminates [A | I]: A is invertible exactly when the pivots land on the
    columns 0..n-1, and column j of the inverse solves A x = e_j.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    augmented = (_entries(row, n, (n + i, 1)) for i, row in enumerate(matrix))
    echelon = _echelon(augmented, 2 * n)
    if [c for c, _ in echelon] != list(range(n)):
        return None
    columns = [_back_substitute(echelon, [0] * n, n + j) for j in range(n)]
    return tuple(zip(*columns)) if n else ()
