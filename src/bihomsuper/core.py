"""Exact Z2-graded linear algebra: spaces, homogeneous maps, sparse brackets.

Scalars are :class:`fractions.Fraction` at every boundary, so every identity
check is an exact yes/no question with no tolerances.  Inside, a map stores
only its nonzero entries, as int columns over one denominator, and the
contraction kernels sum ints over one common denominator, in one push loop
(:func:`_push_sum`) for every contraction sum.  Basis elements
carry a parity (0 = even, 1 = odd); all sign bookkeeping uses the Koszul
convention, where transposing two odd symbols introduces a factor -1.

All container types here are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod
from typing import ClassVar, Iterable, Mapping, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

EVEN = 0
ODD = 1

ZERO = Fraction(0)
ONE = Fraction(1)

__all__ = [
    "EVEN",
    "ODD",
    "Scalar",
    "Vector",
    "Matrix",
    "BihomError",
    "DimensionError",
    "ParityError",
    "PreconditionError",
    "TheoremContradictionError",
    "SuperSpace",
    "GradedMap",
    "LinearForm",
    "StructureTensor",
    "StructureTensor2",
    "StructureTensor3",
    "WedgePair",
    "add_image",
    "as_scalar",
    "basis_vector",
    "commutator",
    "commutator_terms",
    "commute",
    "contraction_sum",
    "dense",
    "ksign",
    "parity_components",
    "slot_substitutions",
    "vec_add",
    "vec_is_zero",
    "vec_parity",
    "vec_scale",
    "vec_sub",
    "zero_vector",
]


class BihomError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(BihomError):
    """Objects defined over different spaces, or shapes that do not match."""


class ParityError(BihomError):
    """A grading invariant is violated (bad parity value, non-homogeneous data)."""


class PreconditionError(BihomError):
    """A documented precondition of an operation failed.

    Carries the failing reports or witness data in ``details`` so callers can
    surface actionable diagnostics.
    """

    def __init__(self, message: str, details: object = None):
        super().__init__(message)
        self.details = details


class TheoremContradictionError(BihomError):
    """An internally cross-checked equivalence came out inconsistent.

    This never fires on correct input; it exists so the test suite would
    detect a defect in one of the paired computations instead of silently
    trusting either side.
    """


def int_digit_limit() -> int:
    """The digits ``int`` to ``str`` conversion allows; 0 (no limit) before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


_DECIMAL_EXPONENT = re.compile(  # a decimal, its exponent optional, as fractions.Fraction reads it
    r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?\s*")


def as_scalar(value: object) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational.

    A decimal longer than :func:`int_digit_limit` allows is refused unexpanded:
    d significant digits at net exponent e make d + e digits when e >= 0.  When
    e = -k < 0 the denominator is 10^k / g, g = gcd(mantissa, 10^k); g is 1 or
    a power of 2 or of 5, so that denominator has k + 1 - len(str(g)) digits,
    or k + 1 when g = 1.  Any other value that is well-formed apart from its
    length, which Python's own conversion then refuses, is refused the same way.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {type(value).__name__} as an exact scalar")
    match, digits, limit = _DECIMAL_EXPONENT.fullmatch(value), 0, int_digit_limit()
    try:
        if match:
            whole, frac, exp = (g.replace("_", "") for g in match.groups(""))
            mantissa = str(int(whole + frac))
            significant = mantissa.rstrip("0")
            if not significant:
                return ZERO
            e = int(exp or 0) - len(frac) + len(mantissa) - len(significant)
            if e >= 0:
                digits = len(significant) + e
            else:  # 10^min(k, 4d) holds every factor 2 or 5 of a d-digit mantissa
                g = gcd(int(significant), 10 ** min(-e, 4 * len(significant)))
                digits = 1 - e - (len(str(g)) if g > 1 else 0)
        if not limit or digits <= limit:
            return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"not a rational number: {value!r}") from exc
    except ValueError as exc:
        try:  # a value that reads with each run of digits cut to one digit was refused for its length
            Fraction(re.sub(r"\d+", "1", value))
        except ValueError:
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise ValueError(f"{value!r} has more than {limit} digits, beyond the integer string conversion limit")


def ksign(exponent: int) -> int:
    """(-1)**exponent for integer exponents, evaluated mod 2."""
    return -1 if exponent & 1 else 1


# ---------------------------------------------------------------------------
# plain vector helpers (tuples of Fractions)
# ---------------------------------------------------------------------------

def zero_vector(dim: int) -> Vector:
    return (ZERO,) * dim


def basis_vector(dim: int, index: int) -> Vector:
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dimension {dim}")
    return tuple(ONE if i == index else ZERO for i in range(dim))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction | int, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True)
class SuperSpace:
    """A finite-dimensional Z2-graded vector space, given by basis parities.

    ``parities[i]`` is the parity of the basis element ``e_{i+1}`` (indices are
    0-based internally; serialized documents use 1-based indices).
    """

    parities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.parities) < 1:
            raise DimensionError("a graded space needs at least one basis element")
        if any(p not in (EVEN, ODD) for p in self.parities):
            raise ParityError(f"parities must be 0 or 1, got {self.parities}")
        object.__setattr__(self, "parities", tuple(int(p) for p in self.parities))

    @property
    def dim(self) -> int:
        return len(self.parities)

    def parity(self, index: int) -> int:
        return self.parities[index]

    def basis(self) -> list[Vector]:
        return [basis_vector(self.dim, i) for i in range(self.dim)]

    def indices(self) -> range:
        return range(self.dim)

    @cached_property
    def _identity(self) -> "GradedMap":  # shared by GradedMap.identity
        return GradedMap._of(self, EVEN, [[(i, 1)] for i in self.indices()], 1)

    def check_vector(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.dim:
            raise DimensionError(f"vector of length {len(v)} in a dim-{self.dim} space")
        return tuple(c if type(c) is Fraction else as_scalar(c) for c in v)


def vec_parity(space: SuperSpace, v: Vector) -> int | None:
    """Parity of a homogeneous vector, or None for mixed support.

    The zero vector is homogeneous of every parity; it reports EVEN.
    """
    seen: set[int] = {space.parity(i) for i, c in enumerate(v) if c != 0}
    if not seen:
        return EVEN
    if len(seen) == 1:
        return seen.pop()
    return None


def _sparse_columns(space: SuperSpace, rows: Iterable[Iterable[object]]) -> list[list[tuple[int, Fraction]]]:
    """The nonzero entries (k, c) of each column of a dim x dim matrix given by its rows, k ascending."""
    frozen = tuple(tuple(c if type(c) is Fraction else as_scalar(c) for c in row) for row in rows)
    if len(frozen) != space.dim or any(len(r) != space.dim for r in frozen):
        raise DimensionError(f"expected a {space.dim}x{space.dim} matrix")
    return [[(k, row[i]) for k, row in enumerate(frozen) if row[i]] for i in space.indices()]


@dataclass(frozen=True, init=False, repr=False)
class GradedMap:
    """A homogeneous linear endomorphism, stored as int sparse columns over one denominator.

    ``matrix[k][i]`` is the coefficient of ``e_k`` in the image of ``e_i``
    (columns are images of basis elements).  A map of parity ``p`` may only
    send a basis element of parity ``q`` into components of parity ``q + p``.
    The stored form is ``_cols[i]``, the pairs (k, n) with n / d = matrix[k][i] != 0,
    k ascending, over the least common denominator d = ``_d``: equal maps store,
    compare and hash equal forms.  ``matrix`` is the Fraction view, built on first read.
    """

    space: SuperSpace
    parity: int
    _d: int
    _cols: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, space: SuperSpace, matrix: Matrix, parity: int = EVEN):
        if parity not in (EVEN, ODD):
            raise ParityError(f"map parity must be 0 or 1, got {parity}")
        self._store(space, parity, _sparse_columns(space, matrix), None)

    @classmethod
    def _of(cls, space: SuperSpace, parity: int, columns, d: int | None = None) -> "GradedMap":
        """The map whose column i holds n / d at row k for the pairs (k, n) of ``columns[i]``, k ascending.

        The n are ints over ``d`` > 0, or Fractions when ``d`` is None.  Zeros
        are dropped, d is reduced and the grading is checked, as for a matrix.
        """
        m = cls.__new__(cls)
        m._store(space, parity, columns, d)
        return m

    def _store(self, space: SuperSpace, parity: int, columns, d: int | None) -> None:
        if d is None:  # over the lcm of reduced denominators the numerators have no common factor with d
            d = lcm(*(c.denominator for column in columns for _, c in column))
            cols = tuple(tuple([(k, c.numerator * (d // c.denominator)) for k, c in column if c]) for column in columns)
        else:
            cols = tuple(tuple([(k, n) for k, n in column if n]) for column in columns)
            ns = [n for column in cols for _, n in column]
            g = gcd(min(ns, key=abs, default=d), d, *ns)  # the least first: a gcd of 1 skips the rest
            if g > 1:
                d //= g
                cols = tuple(tuple([(k, n // g) for k, n in column]) for column in cols)
        P = space.parities
        bad = [(k, i) for i, column in enumerate(cols) for k, _ in column if P[k] ^ P[i] != parity]
        if bad:
            raise ParityError("entry ({},{}) violates the grading of a parity-{} map".format(*min(bad), parity))
        self.__dict__.update(space=space, parity=parity, _d=d, _cols=cols)

    def __repr__(self):
        return f"GradedMap(space={self.space!r}, matrix={self.matrix!r}, parity={self.parity!r})"

    @cached_property
    def matrix(self) -> Matrix:
        """The dense exact matrix, built from the stored form on first read."""
        d = self._d
        return tuple(tuple(Fraction(n, d) if n else ZERO for n in row) for row in self._int_rows())

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``_rows[k]`` lists the pairs (i, n) of the stored columns with row k, i ascending."""
        rows: list[list[tuple[int, int]]] = [[] for _ in self._cols]
        for i, column in enumerate(self._cols):
            for k, n in column:
                rows[k].append((i, n))
        return tuple(map(tuple, rows))

    def _int_rows(self) -> list[list[int]]:
        """The dense int matrix N with self = N / d."""
        rows = [[0] * len(self._cols) for _ in self._cols]
        for i, column in enumerate(self._cols):
            for k, n in column:
                rows[k][i] = n
        return rows

    @classmethod
    def identity(cls, space: SuperSpace) -> "GradedMap":
        """The identity of ``space``: one map per space instance, shared, as maps are immutable."""
        return space._identity

    @classmethod
    def zero(cls, space: SuperSpace, parity: int = EVEN) -> "GradedMap":
        return cls(space, ((ZERO,) * space.dim,) * space.dim, parity)

    @classmethod
    def diagonal(cls, space: SuperSpace, entries: Sequence[object]) -> "GradedMap":
        diag = [as_scalar(c) for c in entries]
        if len(diag) != space.dim:
            raise DimensionError("diagonal length does not match the space dimension")
        return cls._of(space, EVEN, [[(i, c)] for i, c in enumerate(diag)])

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """The image of v, summed in ints over d times the lcm of v's denominators."""
        vv = self.space.check_vector(v)
        den = lcm(*(x.denominator for x in vv))
        out = [0] * self.space.dim
        for x, column in zip(vv, self._cols):
            if x:
                a = x.numerator * (den // x.denominator)
                for k, n in column:
                    out[k] += a * n
        d = den * self._d
        return tuple(Fraction(c, d) if c else ZERO for c in out)

    def column(self, i: int) -> Vector:
        """Image of the basis element e_i."""
        if not 0 <= i < self.space.dim:
            raise DimensionError(f"basis index {i} out of range")
        return tuple(self.matrix[k][i] for k in self.space.indices())  # walks read one map's columns many times

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other (matrix product self @ other)."""
        if self.space != other.space:
            raise DimensionError("composition of maps on different spaces")
        columns = []
        for column in other._cols:
            image: dict[int, int] = {}
            for m, b in column:
                for k, a in self._cols[m]:
                    image[k] = image.get(k, 0) + a * b
            columns.append(sorted(image.items()))
        return GradedMap._of(self.space, (self.parity + other.parity) % 2, columns, self._d * other._d)

    def power(self, exponent: int) -> "GradedMap":
        if exponent < 0:
            raise ValueError("negative powers are not defined here; use inverse() first")
        result, square = None, self
        while exponent:
            if exponent & 1:
                result = square if result is None else result.compose(square)
            exponent >>= 1
            if exponent:
                square = square.compose(square)
        return GradedMap.identity(self.space) if result is None else result

    def scale(self, c: Fraction | int) -> "GradedMap":
        cc = as_scalar(c)
        columns = [[(k, n * cc.numerator) for k, n in column] for column in self._cols]
        return GradedMap._of(self.space, self.parity, columns, self._d * cc.denominator)

    def add(self, other: "GradedMap") -> "GradedMap":
        if self.space != other.space:
            raise DimensionError("sum of maps on different spaces")
        if self.parity != other.parity:
            raise ParityError("sum of maps of different parities is not homogeneous")
        d, a, b = lcm(self._d, other._d), self._int_rows(), other._int_rows()
        f, g, idx = d // self._d, d // other._d, self.space.indices()
        return GradedMap._of(self.space, self.parity, [[(k, a[k][i] * f + b[k][i] * g) for k in idx] for i in idx], d)

    def sub(self, other: "GradedMap") -> "GradedMap":
        return self.add(other.scale(-1))

    def commutes_with(self, other: "GradedMap") -> bool:
        return commute(self, other)

    def is_identity(self) -> bool:
        return self == GradedMap.identity(self.space)

    def is_zero(self) -> bool:
        return not any(self._cols)

    def inverse(self) -> "GradedMap":
        """Exact inverse; raises PreconditionError when singular."""
        from .linalg import invert_matrix

        inv = invert_matrix(self._int_rows())  # N^-1 = self^-1 / d, for self = N / d
        if inv is None:
            raise PreconditionError("map is singular and has no inverse")
        # An invertible odd map swaps the graded components; its inverse is
        # odd as well, which the constructor checks.
        return GradedMap(self.space, [[c * self._d for c in row] for row in inv], self.parity)


def commutator_terms(m: GradedMap, r: int, c: int) -> list[tuple[tuple[int, int], int]]:
    """X m - m X for a map X, written once: the entries ((k, i), a) that X[r][c] adds a * X[r][c] / d_m to.

    a is an int and d_m the denominator of m's integer form.  X[r][c] m[c][i] goes into (r, i) for
    the nonzero m[c][i], and -m[k][r] X[r][c] into (k, c) for the nonzero m[k][r].  :func:`commutator`
    evaluates it; the derivation solvers read it, scaled by d_m, as linear rows in the entries of X.
    """
    return [((r, i), a) for i, a in m._rows[c]] + [((k, c), -a) for k, a in m._cols[r]]


def commutator(X: GradedMap, m: GradedMap) -> dict[tuple[int], dict[int, Fraction]]:
    """The columns of X m - m X that are not zero, {(i,): {k: c}}, as a one-slot contraction: ints
    summed over d_X d_m, one Fraction per coefficient, entries that cancel in such a column kept as zeros."""
    if X.space != m.space:
        raise DimensionError("maps on different spaces never commute")
    d, acc = X._d * m._d, {}
    for c, column in enumerate(X._cols):
        for r, x in column:
            for (k, i), a in commutator_terms(m, r, c):
                image = acc.setdefault((i,), {})
                image[k] = image.get(k, 0) + a * x
    return {i: {k: Fraction(c, d) for k, c in image.items()} for i, image in acc.items() if any(image.values())}


def commute(m1: GradedMap, m2: GradedMap) -> bool:
    """True iff the two maps commute as matrices (m1 m2 = m2 m1)."""
    return not commutator(m1, m2)


def parity_components(space: SuperSpace, rows: Iterable[Iterable[object]]) -> tuple[GradedMap, GradedMap]:
    """Split an arbitrary square matrix into its (even, odd) homogeneous parts.

    Identity checks that depend on a Koszul sign are only defined for
    homogeneous maps, so mixed matrices must be decomposed first.
    """
    columns, P = _sparse_columns(space, rows), space.parities
    return tuple(GradedMap._of(space, parity, [[(k, c) for k, c in column if P[k] ^ P[i] == parity]
                                               for i, column in enumerate(columns)]) for parity in (EVEN, ODD))


@dataclass(frozen=True)
class LinearForm:
    """A linear form on a graded space, zero on every odd basis element."""

    space: SuperSpace
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", self.space.check_vector(self.coefficients))
        for i, c in enumerate(self.coefficients):
            if c != 0 and self.space.parity(i) == ODD:
                raise ParityError(
                    f"linear form has a nonzero coefficient at odd basis index {i}"
                )

    @classmethod
    def zero(cls, space: SuperSpace) -> "LinearForm":
        return cls(space, zero_vector(space.dim))

    def apply(self, v: Sequence[Fraction]) -> Fraction:
        vv = self.space.check_vector(v)
        return sum((c * x for c, x in zip(self.coefficients, vv)), ZERO)

    def of_basis(self, i: int) -> Fraction:
        if not 0 <= i < self.space.dim:
            raise DimensionError(f"basis index {i} out of range for dimension {self.space.dim}")
        return self.coefficients[i]

    def compose(self, m: GradedMap) -> "LinearForm":
        """The form v -> self(m(v)).  Requires an even map to stay graded."""
        if m.space != self.space:
            raise DimensionError("form and map live on different spaces")
        if m.parity != EVEN:
            raise ParityError("composing with an odd map does not preserve the grading")
        return LinearForm(self.space, tuple(self.apply(m.column(i)) for i in self.space.indices()))

    def scale(self, c: Fraction | int) -> "LinearForm":
        return LinearForm(self.space, vec_scale(as_scalar(c), self.coefficients))

    def is_zero(self) -> bool:
        return vec_is_zero(self.coefficients)


def _canonical_entries(
    space: SuperSpace, arity: int, entries: Mapping[tuple[int, ...], object]
) -> dict[tuple[int, ...], Fraction]:
    """Validate and sum sparse structure-constant entries, dropping zeros."""
    out: dict[tuple[int, ...], Fraction] = {}
    for raw_key, raw in entries.items():
        if len(raw_key) != arity + 1:
            raise DimensionError(
                f"entry key {raw_key} should have {arity} argument indices plus one output index"
            )
        if any(not 0 <= t < space.dim for t in raw_key):
            raise DimensionError(f"entry key {raw_key} out of range for dim {space.dim}")
        c = raw if type(raw) is Fraction else as_scalar(raw)
        if c == 0:
            continue
        key = tuple(int(t) for t in raw_key)
        *args, k = key
        if space.parities[k] != sum(space.parities[a] for a in args) % 2:
            raise ParityError(f"structure constant at {key} violates parity additivity")
        out[key] = out[key] + c if key in out else c
    return {k: c for k, c in out.items() if c}


@dataclass(frozen=True)
class StructureTensor:
    """A multilinear even bracket given by sparse structure constants.

    An entry ``(i_1, ..., i_n, k) -> c`` contributes ``c * e_k`` to
    ``[e_{i_1}, ..., e_{i_n}]``; the arity n is read from the length of the
    keys.  Every entry must satisfy parity additivity.  The subclasses
    :class:`StructureTensor2` and :class:`StructureTensor3` fix the arity, so
    that a tensor without entries still knows it.
    """

    space: SuperSpace
    entries: tuple[tuple[tuple[int, ...], Fraction], ...]
    arity: ClassVar[int | None] = None

    def __post_init__(self) -> None:
        raw = dict(self.entries)
        arity = self.arity
        if arity is None:
            if not raw:
                raise DimensionError("the arity of a tensor without entries is unknown")
            arity = len(next(iter(raw))) - 1
            object.__setattr__(self, "arity", arity)
        self._store(self.space, _canonical_entries(self.space, arity, raw))

    @classmethod
    def _of(cls, space: SuperSpace, entries: dict[tuple[int, ...], Fraction]) -> "StructureTensor":
        """The tensor of a fixed arity with ``entries``, already validated, summed and free of zeros."""
        t = cls.__new__(cls)
        t._store(space, entries)
        return t

    def _store(self, space: SuperSpace, entries: dict[tuple[int, ...], Fraction]) -> None:
        entries = tuple(sorted(entries.items()))
        images: dict[tuple[int, ...], list[Fraction]] = {}
        for (*args, k), c in entries:
            images.setdefault(tuple(args), [ZERO] * space.dim)[k] = c  # keys are unique
        self.__dict__.update(space=space, entries=entries, _images={a: tuple(v) for a, v in images.items()})

    @cached_property
    def _integral(self) -> tuple[int, tuple]:
        """(d, entries): the structure constants as ints over d, the lcm of their denominators."""
        d = lcm(*(c.denominator for _, c in self.entries))
        return d, tuple((key, c.numerator * (d // c.denominator)) for key, c in self.entries)

    @classmethod
    def from_dict(cls, space: SuperSpace, entries: Mapping[tuple[int, ...], object]):
        return cls(space, tuple(dict(entries).items()))  # type: ignore[arg-type]

    @classmethod
    def from_values(cls, space: SuperSpace, values: Mapping[tuple[int, ...], Mapping[int, object]]):
        """The tensor with ``values[t][k]`` as the coefficient of e_k in the bracket on
        the basis tuple t, as :meth:`contract` returns them; absent tuples bracket to zero."""
        return cls.from_dict(space, {t + (k,): c for t, image in values.items() for k, c in image.items()})

    @classmethod
    def zero(cls, space: SuperSpace):
        return cls(space, ())

    def _vectors(self, vectors: Sequence[Sequence[Fraction]], count: int) -> list[Vector]:
        if len(vectors) != count:
            raise DimensionError(f"expected {count} arguments, got {len(vectors)}")
        return [self.space.check_vector(v) for v in vectors]

    def bracket_basis(self, *indices: int) -> Vector:
        """[e_{i_1}, ..., e_{i_n}] as a coefficient vector."""
        dim = self.space.dim
        if len(indices) != self.arity or not all(0 <= i < dim for i in indices):
            shown = ",".join(str(i) for i in indices)
            raise DimensionError(f"basis indices ({shown}) out of range for dim {dim}")
        return self._images.get(indices) or zero_vector(dim)

    def bracket(self, *vectors: Sequence[Fraction]) -> Vector:
        """Multilinear extension of the basis bracket."""
        vs = self._vectors(vectors, self.arity)
        out = [ZERO] * self.space.dim
        for key, c in self.entries:
            for v, a in zip(vs, key):
                x = v[a]
                if not x:
                    break
                c *= x
            else:
                out[key[-1]] += c
        return tuple(out)

    def partial_matrix(self, slot: int, *fixed: Sequence[Fraction]) -> Matrix:
        """Matrix of the linear map obtained by fixing all arguments but one.

        ``slot`` names the free argument position; ``fixed`` fills the
        remaining positions in order.  Column ``m`` of the result is the
        bracket with ``e_m`` in the free slot.
        """
        if not 0 <= slot < self.arity:
            raise DimensionError(f"slot must be in 0..{self.arity - 1}, got {slot}")
        vs = self._vectors(fixed, self.arity - 1)
        dim = self.space.dim
        rows = [[ZERO] * dim for _ in range(dim)]
        for key, c in self.entries:
            for v, a in zip(vs, key[:slot] + key[slot + 1 : -1]):
                x = v[a]
                if not x:
                    break
                c *= x
            else:
                rows[key[-1]][key[slot]] += c
        return tuple(tuple(r) for r in rows)

    def contract(self, maps: Sequence["GradedMap"]) -> dict[tuple[int, ...], dict[int, Fraction]]:
        """The tensor with ``maps[q]`` substituted in slot q, on every basis tuple at once.

        Returns ``{t: {k: c}}``: the coefficient c of e_k in
        [m_1(e_{t_1}), ..., m_n(e_{t_n})].  Each entry is expanded over the
        nonzero preimages of its argument indices under each map, so the cost
        follows the nonzeros, not dim ** arity.  Tuples absent from the result
        have the zero image; coefficients that cancel are kept as zeros.
        """
        d, images = self._contract_int(maps)
        return {t: {k: Fraction(c, d) for k, c in image.items()} for t, image in images.items()}

    def _contract_int(self, maps: Sequence["GradedMap"]) -> tuple[int, dict[tuple[int, ...], dict[int, int]]]:
        """(d, images): :meth:`contract` summed in ints over d, the integer forms' denominators multiplied."""
        if len(maps) != self.arity:
            raise DimensionError(f"expected {self.arity} maps, got {len(maps)}")
        if any(m.space != self.space for m in maps):
            raise DimensionError("maps and tensor live on different spaces")
        out: dict[tuple[int, ...], dict[int, int]] = {}
        for key, c in self._integral[1]:
            k = key[-1]
            for combo in itertools.product(*(m._rows[a] for m, a in zip(maps, key))):
                coeff = c
                for _, x in combo:
                    coeff *= x
                image = out.setdefault(tuple(t for t, _ in combo), {})
                image[k] = image.get(k, 0) + coeff
        return self._integral[0] * prod(m._d for m in maps), out

    def is_zero(self) -> bool:
        return not self.entries

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.entries)

    def scale(self, c: Fraction | int):
        cc = as_scalar(c)
        return type(self)(self.space, tuple((k, cc * v) for k, v in self.entries))

    def add(self, other: "StructureTensor"):
        if self.space != other.space:
            raise DimensionError("sum of tensors on different spaces")
        merged = dict(self.entries)
        for k, v in other.entries:
            merged[k] = merged.get(k, ZERO) + v
        return type(self)(self.space, tuple(merged.items()))


# The fixed-arity tensors rebind the hot methods in their own class namespace
# so that per-arity call counters (perfbench/tracer.py) can wrap them.
class StructureTensor2(StructureTensor):
    """A bilinear bracket: an entry ``(i, j, k) -> c`` puts ``c * e_k`` in ``[e_i, e_j]``."""

    arity = 2
    bracket = StructureTensor.bracket


class StructureTensor3(StructureTensor):
    """A trilinear bracket: an entry ``(i, j, l, k) -> c`` puts ``c * e_k`` in ``[e_i, e_j, e_l]``."""

    arity = 3
    bracket = StructureTensor.bracket
    partial_matrix = StructureTensor.partial_matrix


@dataclass(frozen=True)
class WedgePair:
    """An ordered pair of homogeneous vectors standing for x1 ^ x2.

    Trilinear expressions evaluated against a WedgePair feed the two
    components into fixed argument slots; for skew tensors this makes the
    evaluation antisymmetric under the swap x1 <-> x2 up to the Koszul sign
    (-1)^{|x1||x2|}.
    """

    space: SuperSpace
    first: Vector
    second: Vector
    parity_first: int = field(init=False)
    parity_second: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "first", self.space.check_vector(self.first))
        object.__setattr__(self, "second", self.space.check_vector(self.second))
        p1 = vec_parity(self.space, self.first)
        p2 = vec_parity(self.space, self.second)
        if p1 is None or p2 is None:
            raise ParityError("wedge components must be homogeneous")
        object.__setattr__(self, "parity_first", p1)
        object.__setattr__(self, "parity_second", p2)

    @classmethod
    def from_basis(cls, space: SuperSpace, i: int, j: int) -> "WedgePair":
        return cls(space, basis_vector(space.dim, i), basis_vector(space.dim, j))

    @property
    def parity(self) -> int:
        return (self.parity_first + self.parity_second) % 2

    def swapped(self) -> "WedgePair":
        return WedgePair(self.space, self.second, self.first)


def slot_substitutions(n: int, inserted: GradedMap, sizes: Iterable[int] | None = None):
    """Yield (I, slot maps) over the nonempty subsets I of n slots, by size, then lexicographic.

    The slots in I keep their argument (the identity) and the others receive
    ``inserted``: the substitutions behind every weighted and Nijenhuis subset
    sum.  When ``sizes`` is given, only subsets of those sizes are yielded.
    """
    ident = GradedMap.identity(inserted.space)
    for size in range(1, n + 1) if sizes is None else sizes:
        for subset in itertools.combinations(range(n), size):
            yield subset, [ident if q in subset else inserted for q in range(n)]


def add_image(acc: dict, t: tuple[int, ...], image: Mapping[int, Fraction], coeff: object = ONE) -> None:
    """acc[t] += coeff * image, for sparse images {k: c}."""
    row = acc.setdefault(t, {})
    for k, c in image.items():
        row[k] = row.get(k, ZERO) + coeff * c


def _push_sum(terms) -> dict[tuple[int, ...], dict[int, Fraction]]:
    """The sum over the terms (c, p, d, images, f) of c times the map f pushed through an int contraction
    {t: {k: n}} over d (:meth:`StructureTensor._contract_int`): into its slot p, where the contraction has the
    identity, or outside when p is None.  c is an int or a Fraction; the ints are summed over the lcm of the
    c.denominator * d * d_f.  Returns ``{t: {k: c}}``, with coefficients that cancel kept as zeros."""
    terms = [(c, p, images, f, c.denominator * d * f._d) for c, p, d, images, f in terms]
    common, acc = lcm(*(den for *_, den in terms)), {}
    for c, p, images, f, den in terms:
        scale = c.numerator * (common // den)
        for t, image in images.items():
            if p is None:  # image component i goes to f's column i
                row = acc.setdefault(t, {})
                for i, x in image.items():
                    x *= scale
                    for k, y in f._cols[i]:
                        row[k] = row.get(k, 0) + x * y
            else:  # the image at t goes to each tuple with i in slot p, times f[t_p][i] from f's row t_p
                for i, n in f._rows[t[p]]:
                    row, x = acc.setdefault(t[:p] + (i,) + t[p + 1:], {}), scale * n
                    for k, y in image.items():
                        row[k] = row.get(k, 0) + x * y
    return {t: {k: Fraction(c, common) for k, c in row.items()} for t, row in acc.items()}


def contraction_sum(terms: Iterable[tuple[object, StructureTensor, Sequence[GradedMap], GradedMap | None]]):
    """The sum of c * m(w(m_1 x_1, ..., m_n x_n)) over the terms (c, w, (m_1, ..., m_n), m),
    on every basis tuple at once.

    Each term is one integer contraction, its images pushed through the outer
    map m (None for the identity) by :func:`_push_sum`; terms with c = 0 are
    skipped.  Returns ``{t: {k: c}}`` like :meth:`StructureTensor.contract`,
    with coefficients that cancel kept as zeros.
    """
    terms = [(as_scalar(c), w, maps, m) for c, w, maps, m in terms]
    return _push_sum([(c, None, *w._contract_int(maps), GradedMap.identity(w.space) if m is None else m)
                      for c, w, maps, m in terms if c])


def dense(image: Mapping[int, Fraction], dim: int) -> Vector:
    """The coefficient vector of a sparse image {k: c}."""
    return tuple(image.get(k, ZERO) for k in range(dim))
