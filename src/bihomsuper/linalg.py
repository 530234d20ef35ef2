"""Exact rational linear solvers built on fraction-free Gaussian elimination.

Every routine here runs one forward pass and one back-substitution.  The
forward pass is Bareiss elimination over integers (rows are scaled to a common
denominator first), so all intermediate values stay integral; divisions in the
back-substitution are exact by construction.  Kernel bases, particular
solutions and matrix inverses (elimination of [A | I]) all come from it.  These
routines back the derivation-space and quasiderivation solvers and
:meth:`GradedMap.inverse`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import Matrix, Vector, ZERO, ONE, as_scalar

__all__ = ["kernel_basis", "solve_linear", "invert_matrix"]


def _integer_rows(rows: Sequence[Sequence[object]], ncols: int) -> list[list[int]]:
    out: list[list[int]] = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"ragged row of length {len(row)}, expected {ncols}")
        fracs = [as_scalar(c) for c in row]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * scale) for f in fracs]
        if any(v != 0 for v in ints):
            out.append(ints)
    return out


def _bareiss_echelon(m: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination; returns the echelon rows and pivot columns."""
    rows = [row[:] for row in m]
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            fi = rows[i][c]
            for j in range(ncols):
                # Bareiss update: stays integral, exact division by the previous pivot.
                rows[i][j] = (p * rows[i][j] - fi * rows[r][j]) // prev
        pivots.append(c)
        prev = p
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _back_substitute(
    echelon: list[list[int]], pivots: list[int], sol: list[Fraction], rhs: int | None = None
) -> Vector:
    """Fill the pivot coordinates of ``sol`` so every echelon row holds.

    Row r reads sum_j echelon[r][j] sol[j] = echelon[r][rhs] (0 when ``rhs`` is
    None) over the unknown columns 0..len(sol)-1; the free coordinates already in
    ``sol`` stay as given.
    """
    n = len(sol)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = echelon[r]
        acc = sum((row[j] * sol[j] for j in range(c + 1, n) if sol[j]), ZERO)
        sol[c] = ((row[rhs] if rhs is not None else 0) - acc) / row[c]
    return tuple(sol)


def kernel_basis(rows: Sequence[Sequence[object]], ncols: int) -> list[Vector]:
    """Exact basis of the right nullspace of the given coefficient rows.

    Each returned vector v satisfies A v = 0 exactly; the vectors are
    normalized so that the free coordinate driving each of them equals 1,
    which makes the output deterministic.  Returns [] for a trivial kernel.
    """
    if ncols == 0:
        return []
    echelon, pivots = _bareiss_echelon(_integer_rows(rows, ncols), ncols)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in (c for c in range(ncols) if c not in pivot_set):
        sol = [ZERO] * ncols
        sol[free] = ONE
        basis.append(_back_substitute(echelon, pivots, sol))
    return basis


def solve_linear(
    rows: Sequence[Sequence[object]], rhs: Sequence[object], ncols: int
) -> Vector | None:
    """One exact solution of A x = b, or None when the system is inconsistent.

    Free variables are fixed to zero under the left-to-right pivot order, so
    the returned solution is deterministic and supported on pivot columns only.
    """
    if len(rows) != len(rhs):
        raise ValueError("number of rows and right-hand sides differ")
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    echelon, pivots = _bareiss_echelon(_integer_rows(augmented, ncols + 1), ncols + 1)
    if ncols in pivots:
        return None  # a pivot in the RHS column certifies inconsistency
    return _back_substitute(echelon, pivots, [ZERO] * ncols, ncols)


def invert_matrix(matrix: Matrix) -> Matrix | None:
    """Exact inverse of a square rational matrix, or None when singular.

    Eliminates [A | I]: A is invertible exactly when the pivots land on the
    columns 0..n-1, and column j of the inverse solves A x = e_j.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    augmented = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(matrix)]
    echelon, pivots = _bareiss_echelon(_integer_rows(augmented, 2 * n), 2 * n)
    if pivots != list(range(n)):
        return None
    columns = [_back_substitute(echelon, pivots, [ZERO] * n, n + j) for j in range(n)]
    return tuple(zip(*columns)) if n else ()
