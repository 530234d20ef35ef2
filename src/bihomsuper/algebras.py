"""Binary and ternary twisted Lie superalgebras and their axiom verifiers.

A verifier walks every relevant tuple of basis elements, computes the residual
vector of one defining identity, and reports each nonzero residual together
with the tuple that produced it.  Multilinearity makes basis-tuple validity
equivalent to validity on all homogeneous elements, and exact arithmetic makes
"holds" a decidable predicate.  Verifiers never trust the ``multiplicative``
claim flag carried by an algebra; that claim has its own verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    EVEN,
    ZERO,
    DimensionError,
    GradedMap,
    ParityError,
    PreconditionError,
    StructureTensor,
    SuperSpace,
    Vector,
    basis_tuples,
    commute,
    ksign,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)

__all__ = [
    "BiHomLieSuperalgebra",
    "ThreeBiHomLieSuperalgebra",
    "Violation",
    "VerificationReport",
    "TwistError",
    "verify_bihom_skewsymmetry",
    "verify_bihom_jacobi",
    "verify_multiplicativity2",
    "verify_3bihom_skewsymmetry",
    "verify_3bihom_jacobi",
    "verify_3bihom_jacobi_cyclic",
    "verify_multiplicativity3",
    "make_twist_2",
    "make_twist_3",
]


@dataclass(frozen=True)
class Violation:
    """One failing basis tuple: where it failed, which sub-rule, the residual."""

    where: tuple[int, ...]
    residual: tuple
    rule: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity exhaustively over basis tuples."""

    identity: str
    total: int
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "ok" if self.passed else f"{len(self.violations)} violation(s)"
        return f"{self.identity}: {state} over {self.total} tuple(s)"


class TwistError(PreconditionError):
    """A twist construction failed its preconditions or post-verification."""


@dataclass(frozen=True)
class _TwistedAlgebra:
    """A graded space with an even bracket and two even twisting maps.

    ``multiplicative`` is a claim recorded by whoever built the algebra; the
    multiplicativity verifiers check it.
    """

    space: SuperSpace
    bracket: StructureTensor
    alpha: GradedMap
    beta: GradedMap
    multiplicative: bool = False

    def __post_init__(self) -> None:
        if self.bracket.space != self.space:
            raise DimensionError("bracket is defined on a different space")
        for name, m in (("alpha", self.alpha), ("beta", self.beta)):
            if m.space != self.space:
                raise DimensionError(f"{name} is defined on a different space")
            if m.parity != EVEN:
                raise ParityError(f"{name} must be an even map")

    @property
    def dim(self) -> int:
        return self.space.dim


class BiHomLieSuperalgebra(_TwistedAlgebra):
    """A graded space with an even bilinear bracket (:class:`StructureTensor2`)
    and two even twisting maps; :func:`verify_multiplicativity2` checks the
    ``multiplicative`` claim."""


class ThreeBiHomLieSuperalgebra(_TwistedAlgebra):
    """Ternary analogue of :class:`BiHomLieSuperalgebra`, with a
    :class:`StructureTensor3` bracket."""


def _collect(identity, gen, fail_fast, notes=()):
    total = 0
    violations = []
    for where, rule, residual in gen:
        total += 1
        if not vec_is_zero(residual):
            violations.append(Violation(tuple(where), tuple(residual), rule))
            if fail_fast:
                break
    return VerificationReport(identity, total, tuple(violations), tuple(notes))


def _sorted_violations(residuals: dict, rule: str, dim: int, length: int, fail_fast: bool):
    """(violations, tuple count) of one rule evaluated on all basis tuples of ``length`` at once.

    ``residuals`` maps each failing tuple to its nonzero residual.  The result
    is what a walk over every tuple in lexicographic order would report: all
    failing tuples and dim ** length, or under fail-fast the first failing
    tuple and its rank plus 1.
    """
    failing = sorted(residuals)
    if fail_fast and failing:
        first = failing[0]
        rank = sum(i * dim ** (length - 1 - q) for q, i in enumerate(first))
        return [Violation(first, residuals[first], rule)], rank + 1
    return [Violation(t, residuals[t], rule) for t in failing], dim ** length


def _twisted_tensor(tensor: StructureTensor, first: GradedMap, last: GradedMap) -> StructureTensor:
    """The tensor [first(x_1), ..., first(x_{n-1}), last(x_n)], of the same kind as ``tensor``."""
    idx = tensor.space.indices()
    fcol = [first.column(i) for i in idx]
    lcol = [last.column(i) for i in idx]
    return type(tensor).from_images(
        tensor.space, tensor.arity, lambda t: tensor.bracket(*(fcol[i] for i in t[:-1]), lcol[t[-1]])
    )


def _twisted_skew_residuals(A, w: StructureTensor, suffix: str = ""):
    """Twisted swaps of adjacent slots of ``w`` on every basis tuple.

    With T(x) = [beta(x_1), ..., beta(x_{n-1}), alpha(x_n)], the residual for
    the slots (p, p+1) is T(x) + (-1)^{|x_p||x_{p+1}|} T(x with x_p, x_{p+1}
    exchanged).  Rules are named ``twisted-swap`` for n = 2 and
    ``swap-12``, ``swap-23``, ... otherwise, followed by ``suffix``.
    """
    P = A.space.parities
    T = _twisted_tensor(w, A.beta, A.alpha)
    n = w.arity
    for t in basis_tuples(A.space, n):
        base = T.bracket_basis(*t)
        for p in range(n - 1):
            swapped = T.bracket_basis(*t[:p], t[p + 1], t[p], *t[p + 2 :])
            rule = "twisted-swap" if n == 2 else f"swap-{p + 1}{p + 2}"
            yield t, rule + suffix, vec_add(base, vec_scale(ksign(P[t[p]] * P[t[p + 1]]), swapped))


def _morphism_images(tensor: StructureTensor, maps: tuple[tuple[str, GradedMap], ...]):
    """Yield (tuple, name, m([e_t]), [m(e_t)]) for each basis tuple, then each named map."""
    cols = [(name, m, [m.column(i) for i in tensor.space.indices()]) for name, m in maps]
    for t in basis_tuples(tensor.space, tensor.arity):
        value = tensor.bracket_basis(*t)
        for name, m, col in cols:
            yield t, name, m.apply(value), tensor.bracket(*(col[i] for i in t))


def _verify_multiplicativity(A, identity: str, fail_fast: bool) -> VerificationReport:
    ab = A.alpha.compose(A.beta)
    ba = A.beta.compose(A.alpha)

    def gen():
        for i in A.space.indices():
            yield (i,), "twists-commute", vec_sub(ab.column(i), ba.column(i))
        twists = (("alpha", A.alpha), ("beta", A.beta))
        for t, name, image, bracket in _morphism_images(A.bracket, twists):
            yield t, f"{name}-morphism", vec_sub(image, bracket)

    return _collect(identity, gen(), fail_fast)


def _is_morphism(tensor: StructureTensor, m: GradedMap) -> bool:
    """True iff m([x_1, ..., x_n]) = [m(x_1), ..., m(x_n)] on all basis tuples."""
    return all(image == bracket for _, _, image, bracket in _morphism_images(tensor, (("", m),)))


def verify_bihom_skewsymmetry(A: BiHomLieSuperalgebra, fail_fast: bool = False) -> VerificationReport:
    """Twisted skew-symmetry of the binary bracket.

    Residual per pair (i, j):
        [beta(e_i), alpha(e_j)] + (-1)^{|e_i||e_j|} [beta(e_j), alpha(e_i)].
    """
    return _collect("binary-twisted-skewsymmetry", _twisted_skew_residuals(A, A.bracket), fail_fast)


def verify_bihom_jacobi(A: BiHomLieSuperalgebra, fail_fast: bool = False) -> VerificationReport:
    """Twisted super-Jacobi identity of the binary bracket.

    Residual per triple (x, y, z), summing over cyclic shifts of the slots:
        sum_cyc (-1)^{|x||z|} [beta^2(x), [beta(y), alpha(z)]].
    """
    P = A.space.parities
    acol = [A.alpha.column(i) for i in A.space.indices()]
    bcol = [A.beta.column(i) for i in A.space.indices()]
    beta2 = A.beta.compose(A.beta)
    b2col = [beta2.column(i) for i in A.space.indices()]
    br = A.bracket.bracket

    def term(x, y, z):
        return vec_scale(ksign(P[x] * P[z]), br(b2col[x], br(bcol[y], acol[z])))

    def gen():
        for i, j, k in basis_tuples(A.space, 3):
            res = vec_add(vec_add(term(i, j, k), term(j, k, i)), term(k, i, j))
            yield (i, j, k), "twisted-jacobi", res

    return _collect("binary-twisted-jacobi", gen(), fail_fast)


def verify_multiplicativity2(A: BiHomLieSuperalgebra, fail_fast: bool = False) -> VerificationReport:
    """Commutation of the twists plus both bracket-morphism conditions."""
    return _verify_multiplicativity(A, "binary-multiplicativity", fail_fast)


_SWAP23_NOTE = (
    "second swap condition uses the sign (-1)^{|y||z|}, the product of the "
    "parities of the two exchanged arguments"
)


def verify_3bihom_skewsymmetry(
    A: ThreeBiHomLieSuperalgebra, fail_fast: bool = False
) -> VerificationReport:
    """Both twisted swap conditions of the ternary bracket.

    Per triple (x, y, z):
        [b(x), b(y), a(z)] + (-1)^{|x||y|} [b(y), b(x), a(z)]      (swap-12)
        [b(x), b(y), a(z)] + (-1)^{|y||z|} [b(x), b(z), a(y)]      (swap-23)
    """
    return _collect(
        "ternary-twisted-skewsymmetry",
        _twisted_skew_residuals(A, A.bracket),
        fail_fast,
        notes=(_SWAP23_NOTE,),
    )


class _TwistedTables:
    """The ternary bracket evaluated on twisted basis arguments, for both
    forms of the five-argument Jacobi identity.

    ``inner[a][b][c]`` is [b(e_a), b(e_b), a(e_c)].  ``outer_apply(u, v, w)``
    evaluates [b^2(e_u), b^2(e_v), w]; the partial-evaluation matrices behind
    it are built once per call of a verifier.
    """

    def __init__(self, A: ThreeBiHomLieSuperalgebra):
        idx = A.space.indices()
        self.P = A.space.parities
        beta2 = A.beta.compose(A.beta)
        b2 = [beta2.column(i) for i in idx]
        T = _twisted_tensor(A.bracket, A.beta, A.alpha)
        self.inner = [[[T.bracket_basis(a, b, c) for c in idx] for b in idx] for a in idx]
        self._outer = [[A.bracket.partial_matrix(2, b2[x], b2[y]) for y in idx] for x in idx]

    def outer_apply(self, u: int, v: int, w: Vector) -> Vector:
        support = [(t, c) for t, c in enumerate(w) if c]
        return tuple(sum((row[t] * c for t, c in support), ZERO) for row in self._outer[u][v])


def _jacobi_residual(tables: _TwistedTables, x, y, z, u, v) -> Vector:
    """LHS - RHS of the five-argument twisted Jacobi identity at one basis tuple:

        LHS = [b^2(x), b^2(y), [b(z), b(u), a(v)]]
        RHS = (-1)^{(|u|+|v|)(|x|+|y|+|z|)} [b^2(u), b^2(v), [b(x), b(y), a(z)]]
            - (-1)^{(|z|+|v|)(|x|+|y|) + |u||v|} [b^2(z), b^2(v), [b(x), b(y), a(u)]]
            + (-1)^{(|z|+|u|)(|x|+|y|)} [b^2(z), b^2(u), [b(x), b(y), a(v)]].
    """
    P, inner, outer = tables.P, tables.inner, tables.outer_apply
    lhs = outer(x, y, inner[z][u][v])
    s1 = ksign((P[u] + P[v]) * (P[x] + P[y] + P[z]))
    s2 = ksign((P[z] + P[v]) * (P[x] + P[y]) + P[u] * P[v])
    s3 = ksign((P[z] + P[u]) * (P[x] + P[y]))
    rhs = vec_scale(s1, outer(u, v, inner[x][y][z]))
    rhs = vec_sub(rhs, vec_scale(s2, outer(z, v, inner[x][y][u])))
    rhs = vec_add(rhs, vec_scale(s3, outer(z, u, inner[x][y][v])))
    return vec_sub(lhs, rhs)


def verify_3bihom_jacobi(
    A: ThreeBiHomLieSuperalgebra, fail_fast: bool = False
) -> VerificationReport:
    """The five-argument twisted Jacobi identity over all basis 5-tuples."""
    tables = _TwistedTables(A)

    def gen():
        for t in basis_tuples(A.space, 5):
            yield t, "twisted-jacobi", _jacobi_residual(tables, *t)

    return _collect("ternary-twisted-jacobi", gen(), fail_fast)


def verify_3bihom_jacobi_cyclic(
    A: ThreeBiHomLieSuperalgebra, fail_fast: bool = False
) -> VerificationReport:
    """Cross-check form of the ternary Jacobi identity as a cyclic sum.

    Rewrites the right-hand side as (-1)^{|z||v|} times the cyclic sum over
    (u, v, z) of (-1)^{(|u|+|v|)(|x|+|y|) + |z||u|} [b^2(u), b^2(v), [...a(z)]].
    Equivalent to the direct form whenever first-two-slot skew-symmetry applies
    to the outer brackets, e.g. for plainly skew brackets or invertible alpha.
    """
    P = A.space.parities
    tables = _TwistedTables(A)
    inner = tables.inner

    def cyc_term(x, y, z, u, v):
        s = ksign((P[u] + P[v]) * (P[x] + P[y]) + P[z] * P[u])
        return vec_scale(s, tables.outer_apply(u, v, inner[x][y][z]))

    def gen():
        for x, y, z, u, v in basis_tuples(A.space, 5):
            lhs = tables.outer_apply(x, y, inner[z][u][v])
            cyc = vec_add(
                vec_add(cyc_term(x, y, z, u, v), cyc_term(x, y, u, v, z)),
                cyc_term(x, y, v, z, u),
            )
            res = vec_sub(lhs, vec_scale(ksign(P[z] * P[v]), cyc))
            yield (x, y, z, u, v), "cyclic-form", res

    return _collect("ternary-twisted-jacobi-cyclic-form", gen(), fail_fast)


def verify_multiplicativity3(
    A: ThreeBiHomLieSuperalgebra, fail_fast: bool = False
) -> VerificationReport:
    """Twist commutation plus both ternary bracket-morphism conditions."""
    return _verify_multiplicativity(A, "ternary-multiplicativity", fail_fast)


def _require_commuting_twists(R: GradedMap, A) -> None:
    """Raise unless the operator R commutes with both structure maps of A."""
    for name, m in (("alpha", A.alpha), ("beta", A.beta)):
        if not R.commutes_with(m):
            raise PreconditionError(f"operator does not commute with {name}")


def _require_identity_twists(alpha: GradedMap, beta: GradedMap, what: str) -> None:
    if not (alpha.is_identity() and beta.is_identity()):
        raise TwistError(f"{what} expects an untwisted input (identity structure maps)")


def _twist(L, alpha, beta, what, input_name, axioms, reverify):
    """[x_1, ..., x_n]' = [alpha(x_1), ..., alpha(x_{n-1}), beta(x_n)] on a verified input.

    Preconditions: identity twists on an input passing ``axioms``, and
    commuting even bracket morphisms alpha, beta.  The result is checked
    against ``reverify``; a failing report is raised as a TwistError.
    """
    _require_identity_twists(L.alpha, L.beta, what)
    for rep in [verify(L) for verify in axioms]:
        if not rep.passed:
            raise TwistError(f"input is not {input_name}", details=rep)
    if alpha.parity != EVEN or beta.parity != EVEN:
        raise ParityError("twisting maps must be even")
    if not commute(alpha, beta):
        raise TwistError("twisting maps do not commute")
    for name, m in (("alpha", alpha), ("beta", beta)):
        if not _is_morphism(L.bracket, m):
            raise TwistError(f"{name} is not a morphism of the input bracket")
    twisted = type(L)(L.space, _twisted_tensor(L.bracket, alpha, beta), alpha, beta, multiplicative=True)
    for rep in [verify(twisted) for verify in reverify]:
        if not rep.passed:
            raise TwistError("twisted bracket failed verification", details=rep)
    return twisted


def make_twist_2(
    L: BiHomLieSuperalgebra, alpha: GradedMap, beta: GradedMap
) -> BiHomLieSuperalgebra:
    """Twist a Lie superalgebra into a BiHom one via [x, y]' = [alpha(x), beta(y)].

    The input must be an honest Lie superalgebra (identity twists, verified
    here), and alpha, beta must be commuting even bracket morphisms.  Because
    this binary construction is used as a fixture generator rather than a
    proved theorem, the result is re-verified and a TwistError carrying the
    failing report is raised if any binary axiom breaks.
    """
    return _twist(
        L, alpha, beta, "make_twist_2", "a Lie superalgebra",
        (verify_bihom_skewsymmetry, verify_bihom_jacobi),
        (verify_bihom_skewsymmetry, verify_bihom_jacobi, verify_multiplicativity2),
    )


def make_twist_3(
    L: ThreeBiHomLieSuperalgebra, alpha: GradedMap, beta: GradedMap
) -> ThreeBiHomLieSuperalgebra:
    """Twist a ternary Lie superalgebra via [x, y, z]' = [alpha(x), alpha(y), beta(z)].

    Preconditions (identity twists on the verified input; commuting even
    morphisms) are enforced with witnesses; the construction itself is sound,
    so the output is returned without re-running the quintuple identity.
    """
    return _twist(
        L, alpha, beta, "make_twist_3", "a ternary Lie superalgebra",
        (verify_3bihom_skewsymmetry, verify_3bihom_jacobi),
        (),
    )
