"""Binary and ternary twisted Lie superalgebras and their axiom verifiers.

A verifier walks every relevant tuple of basis elements, computes the residual
vector of one defining identity, and reports each nonzero residual together
with the tuple that produced it.  Multilinearity makes basis-tuple validity
equivalent to validity on all homogeneous elements, and exact arithmetic makes
"holds" a decidable predicate.  Verifiers never trust the ``multiplicative``
claim flag carried by an algebra; that claim has its own verifier.

Skew-symmetry and the morphism rules come from sparse contractions of the
bracket on all tuples at once, twist commutation from
:func:`bihomsuper.core.commutator`; :func:`_report` gives the report a walk
would, here and for every check of the other modules but the weighted
identity.  The binary Jacobi identity, the cyclic ternary form and the
deformation sums are tables of nested brackets [b^2(.), ..., [b(.), ...,
a(.)], ...] for one sparse join (:func:`_composition_sum`), which sums ints and
reports Fractions; of the verifiers here, only the direct ternary form walks.

Every module refuses through :func:`_require`, which puts the failing report
in ``details``, and cross-checks through :func:`_confirm` and :func:`_agree`;
an operator that does not commute with the twists is refused with its
``twist-commutation`` report, and twisting maps with their multiplicativity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .core import (
    EVEN,
    ZERO,
    DimensionError,
    GradedMap,
    ParityError,
    PreconditionError,
    StructureTensor,
    SuperSpace,
    TheoremContradictionError,
    Vector,
    add_image,
    basis_tuples,
    commutator,
    contraction_sum,
    dense,
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
        if self.bracket.arity != self._arity:
            raise DimensionError(f"{type(self).__name__} needs a bracket of arity {self._arity}, "
                                 f"got {self.bracket.arity}")
        for name, m in (("alpha", self.alpha), ("beta", self.beta)):
            if m.space != self.space:
                raise DimensionError(f"{name} is defined on a different space")
            if m.parity != EVEN:
                raise ParityError(f"{name} must be an even map")

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def _powers(self) -> dict[tuple[int, int, int], GradedMap]:
        return {}  # alpha^s beta^r and its signed form by (s, r, parity), built by derivations._twist

    @cached_property
    def _leibniz(self) -> dict[tuple[int, int, int], list]:
        return {}  # the contracted Leibniz terms by (s, r, parity), built by derivations._contractions


class BiHomLieSuperalgebra(_TwistedAlgebra):
    """A graded space with an even bilinear bracket (:class:`StructureTensor2`)
    and two even twisting maps; :func:`verify_multiplicativity2` checks the
    ``multiplicative`` claim."""

    _arity = 2


class ThreeBiHomLieSuperalgebra(_TwistedAlgebra):
    """Ternary analogue of :class:`BiHomLieSuperalgebra`, with a
    :class:`StructureTensor3` bracket."""

    _arity = 3


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


def _rules_block(length: int, rules, size: int) -> tuple:
    """A block of ``rules``, a list of (rule, {t: {k: c}}) pairs, checked in that order on
    every basis tuple of ``length``, with residual vectors of ``size``; see :func:`_walk_order`."""
    found = {
        (t, r): (dense(image, size), rule)
        for r, (rule, images) in enumerate(rules)
        for t, image in images.items()
        if any(image.values())
    }
    return length, len(rules), found


def _walk_order(block: tuple, dim: int, fail_fast: bool):
    """(violations, item count) that a walk over one block of rules would report.

    A block is (length, width, found): the walk visits the basis tuples of
    ``length`` in lexicographic order and checks ``width`` rules on each, in
    order; ``found`` maps (tuple, rule position) to (nonzero residual, rule).
    Without fail-fast that is every entry of ``found`` in walk order and
    dim ** length * width items; with it, the first entry and its rank plus 1.
    """
    length, width, found = block
    keys = sorted(found)
    if fail_fast and keys:
        t, r = keys[0]
        rank = sum(i * dim ** (length - 1 - q) for q, i in enumerate(t)) * width + r
        return [Violation(t, *found[t, r])], rank + 1
    return [Violation(t, *found[t, r]) for t, r in keys], dim ** length * width


def _report(identity: str, dim: int, blocks, fail_fast: bool, notes=()) -> VerificationReport:
    """The report of a walk over the chained ``blocks``, one after another.

    Under fail-fast the walk stops in the first block that fails, so later
    blocks (which may be a lazy iterable) are never built.
    """
    total, violations = 0, []
    for block in blocks:
        found, count = _walk_order(block, dim, fail_fast)
        violations += found
        total += count
        if fail_fast and found:
            break
    return VerificationReport(identity, total, tuple(violations), tuple(notes))


def _twisted_tensor(tensor: StructureTensor, first: GradedMap, last: GradedMap) -> StructureTensor:
    """The tensor [first(x_1), ..., first(x_{n-1}), last(x_n)], of the same kind as ``tensor``."""
    return type(tensor).from_values(tensor.space, tensor.contract([first] * (tensor.arity - 1) + [last]))


def _twisted_contractions(A, tensors, terms):
    """Each tensor w on twisted basis arguments, as the inner and the outer factor of a nested bracket.

    Per tensor, ``inner`` is {t: {s: c}} for w(b e_t1, ..., b e_t(n-1), a e_tn),
    and ``outer[slot]``, for each free slot that a row of ``terms`` names, is
    indexed by the basis index s in that slot: {s: [(u, {k: c})]} for w with
    e_s in the slot and b^2 e_u1, ..., b^2 e_u(n-1) in the others, in order.
    Each factor is (d, values), ints over d; coefficients that cancel are dropped.
    """
    n = A.bracket.arity
    beta2 = A.beta.compose(A.beta)
    ident = GradedMap.identity(A.space)

    def nonzero(w, maps):
        d, images = w._contract_int(maps)
        return d, {t: kept for t, image in images.items() if (kept := {k: c for k, c in image.items() if c})}

    factors = []
    for w in tensors:
        d, inner = nonzero(w, [A.beta] * (n - 1) + [A.alpha])
        outer = {}
        for slot in {slot for slot, _, _ in terms}:
            by_free = outer[slot] = {}
            d_out, images = nonzero(w, [ident if q == slot else beta2 for q in range(n)])
            for t, image in images.items():
                by_free.setdefault(t[slot], []).append((t[:slot] + t[slot + 1 :], image))
        factors.append(((d, inner), (d_out, outer)))
    return factors


def _composition_sum(A, pairs, terms) -> dict[tuple[int, ...], Vector]:
    """Nonzero values of the signed nested brackets of ``terms``, summed over (outer, inner) ``pairs``.

    A row of ``terms`` is (free slot, order, exponent): the outer factor's
    value with the inner factor's output in the free slot, at the basis tuple
    t of length 2n - 1 with t[q] = (inner indices + outer indices)[order[q]],
    signed by (-1) ** exponent(parities, *t).  Every tuple is covered at once:
    each row joins the inner entries with the outer entries whose free index
    is one of their output indices, in ints over the lcm of the pairs' denominators.
    """
    P, dim = A.space.parities, A.space.dim
    common = lcm(*(d_out * d_in for (d_out, _), (d_in, _) in pairs))
    acc: dict[tuple[int, ...], list] = {}
    for (d_out, outer), (d_in, inner) in pairs:
        scale = common // (d_out * d_in)
        for slot, order, exponent in terms:
            by_free = outer[slot]
            for xyz, image in inner.items():
                for s, c in image.items():
                    for uv, out in by_free.get(s, ()):
                        joined = xyz + uv
                        t = tuple(joined[q] for q in order)
                        coeff = ksign(exponent(P, *t)) * scale * c
                        res = acc.get(t)
                        if res is None:
                            res = acc[t] = [0] * dim
                        for k, v in out.items():
                            res[k] += coeff * v
    return {t: tuple(Fraction(v, common) for v in res) for t, res in acc.items() if any(res)}


def _composition_block(A, pairs, terms, rule: str) -> tuple:
    """The nested sum of ``terms`` over ``pairs`` as one rule on every basis tuple of length 2n - 1."""
    found = {(t, 0): (res, rule) for t, res in _composition_sum(A, pairs, terms).items()}
    return 2 * A.bracket.arity - 1, 1, found


def _skew_block(A, w: StructureTensor, suffix: str = "") -> tuple:
    """Twisted swaps of adjacent slots of ``w`` on every basis tuple.

    With T(x) = [beta(x_1), ..., beta(x_{n-1}), alpha(x_n)], the residual for
    the slots (p, p+1) is T(x) + (-1)^{|x_p||x_{p+1}|} T(x with x_p, x_{p+1}
    exchanged).  Rules are named ``twisted-swap`` for n = 2 and
    ``swap-12``, ``swap-23``, ... otherwise, followed by ``suffix``.
    """
    P, n = A.space.parities, w.arity
    T = w.contract([A.beta] * (n - 1) + [A.alpha])
    rules = []
    for p in range(n - 1):
        images: dict[tuple[int, ...], dict] = {}
        for t, image in T.items():
            add_image(images, t, image)
            add_image(images, t[:p] + (t[p + 1], t[p]) + t[p + 2 :], image, ksign(P[t[p]] * P[t[p + 1]]))
        rules.append((("twisted-swap" if n == 2 else f"swap-{p + 1}{p + 2}") + suffix, images))
    return _rules_block(n, rules, A.dim)


def _morphism_defect(w: StructureTensor, m: GradedMap, sign: int = 1):
    """sign * (m([x_1, ..., x_n]) - [m(x_1), ..., m(x_n)]) on every basis tuple."""
    ident = GradedMap.identity(w.space)
    return contraction_sum([(sign, w, [ident] * w.arity, m), (-sign, w, [m] * w.arity, None)])


def _morphism_block(A, w: StructureTensor, rule: str, sign: int = 1) -> tuple:
    """The defect of alpha, then of beta, as a morphism of ``w``; rules ``rule.format(name)``."""
    twists = (("alpha", A.alpha), ("beta", A.beta))
    return _rules_block(w.arity, [(rule.format(name), _morphism_defect(w, m, sign)) for name, m in twists], A.dim)


def _verify_multiplicativity(A, identity: str, fail_fast: bool) -> VerificationReport:
    def blocks():
        yield _rules_block(1, [("twists-commute", commutator(A.alpha, A.beta))], A.dim)
        yield _morphism_block(A, A.bracket, "{}-morphism")

    return _report(identity, A.dim, blocks(), fail_fast)


def verify_bihom_skewsymmetry(A: BiHomLieSuperalgebra, fail_fast: bool = False) -> VerificationReport:
    """Twisted skew-symmetry of the binary bracket.

    Residual per pair (i, j):
        [beta(e_i), alpha(e_j)] + (-1)^{|e_i||e_j|} [beta(e_j), alpha(e_i)].
    """
    return _report("binary-twisted-skewsymmetry", A.dim, [_skew_block(A, A.bracket)], fail_fast)


# sum_cyc (-1)^{|x||z|} [b^2(x), [b(y), a(z)]] at t = (x, y, z), rows read by _composition_sum
_BINARY_JACOBI_TERMS = (
    (1, (2, 0, 1), lambda P, x, y, z: P[x] * P[z]),  # [b^2(x), [b(y), a(z)]]
    (1, (1, 2, 0), lambda P, x, y, z: P[x] * P[y]),  # [b^2(y), [b(z), a(x)]]
    (1, (0, 1, 2), lambda P, x, y, z: P[y] * P[z]),  # [b^2(z), [b(x), a(y)]]
)


def verify_bihom_jacobi(A: BiHomLieSuperalgebra, fail_fast: bool = False) -> VerificationReport:
    """Twisted super-Jacobi identity of the binary bracket.

    Residual per triple (x, y, z), summing over cyclic shifts of the slots:
        sum_cyc (-1)^{|x||z|} [beta^2(x), [beta(y), alpha(z)]].
    """
    (inner, outer), = _twisted_contractions(A, [A.bracket], _BINARY_JACOBI_TERMS)
    block = _composition_block(A, [(outer, inner)], _BINARY_JACOBI_TERMS, "twisted-jacobi")
    return _report("binary-twisted-jacobi", A.dim, [block], fail_fast)


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
    return _report("ternary-twisted-skewsymmetry", A.dim, [_skew_block(A, A.bracket)], fail_fast, (_SWAP23_NOTE,))


class _TwistedTables:
    """The ternary bracket evaluated on twisted basis arguments, for the
    direct form of the five-argument Jacobi identity.

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


# The cyclic form at t = (x, y, z, u, v), rows read by _composition_sum
_CYCLIC_JACOBI_TERMS = (
    (2, (3, 4, 0, 1, 2), lambda P, x, y, z, u, v: 0),  # [b^2(x), b^2(y), [b(z), b(u), a(v)]]
    (2, (0, 1, 2, 3, 4),  # [b^2(u), b^2(v), [b(x), b(y), a(z)]]
     lambda P, x, y, z, u, v: 1 + P[z] * P[v] + (P[u] + P[v]) * (P[x] + P[y]) + P[z] * P[u]),
    (2, (0, 1, 4, 2, 3),  # [b^2(v), b^2(z), [b(x), b(y), a(u)]]
     lambda P, x, y, z, u, v: 1 + P[z] * P[v] + (P[v] + P[z]) * (P[x] + P[y]) + P[u] * P[v]),
    (2, (0, 1, 3, 4, 2),  # [b^2(z), b^2(u), [b(x), b(y), a(v)]]
     lambda P, x, y, z, u, v: 1 + (P[z] + P[u]) * (P[x] + P[y])),
)


def verify_3bihom_jacobi_cyclic(
    A: ThreeBiHomLieSuperalgebra, fail_fast: bool = False
) -> VerificationReport:
    """Cross-check form of the ternary Jacobi identity as a cyclic sum.

    Rewrites the right-hand side as (-1)^{|z||v|} times the cyclic sum over
    (u, v, z) of (-1)^{(|u|+|v|)(|x|+|y|) + |z||u|} [b^2(u), b^2(v), [...a(z)]].
    Equivalent to the direct form whenever first-two-slot skew-symmetry applies
    to the outer brackets, e.g. for plainly skew brackets or invertible alpha.
    Its own term table, so it still cross-checks the direct walk.
    """
    (inner, outer), = _twisted_contractions(A, [A.bracket], _CYCLIC_JACOBI_TERMS)
    block = _composition_block(A, [(outer, inner)], _CYCLIC_JACOBI_TERMS, "cyclic-form")
    return _report("ternary-twisted-jacobi-cyclic-form", A.dim, [block], fail_fast)


def verify_multiplicativity3(
    A: ThreeBiHomLieSuperalgebra, fail_fast: bool = False
) -> VerificationReport:
    """Twist commutation plus both ternary bracket-morphism conditions."""
    return _verify_multiplicativity(A, "ternary-multiplicativity", fail_fast)


def _require(report: VerificationReport, message: str, error: type = PreconditionError) -> None:
    """Refuse with ``error(message, details=report)`` unless ``report`` passed."""
    if not report.passed:
        raise error(message, details=report)


def _confirm(report: VerificationReport, message: str) -> None:
    """Raise a TheoremContradictionError naming ``report`` unless it passed: the cross-check of a
    conclusion that the hypotheses already guarantee."""
    if not report.passed:
        raise TheoremContradictionError(f"{message}: {report.summary()}")


def _agree(first: tuple[str, bool], second: tuple[str, bool]) -> bool:
    """The common value of two independently computed (label, value) sides of an equivalence;
    a TheoremContradictionError names both when they differ."""
    (label, value), (other_label, other) = first, second
    if value != other:
        raise TheoremContradictionError(f"{label} ({value}) disagrees with {other_label} ({other})")
    return value


def _commutation_blocks(A, X: GradedMap) -> list:
    """The columns of X m - m X for m = alpha, then beta, as two one-slot report blocks."""
    return [_rules_block(1, [(f"commutes-with-{name}", commutator(X, m))], A.space.dim)
            for name, m in (("alpha", A.alpha), ("beta", A.beta))]


def _require_commuting_twists(X: GradedMap, A, message: str = "operator does not commute with {}") -> None:
    """Refuse unless X commutes with both structure maps of A, with the ``twist-commutation`` report
    of the failing ``commutes-with-*`` columns; ``message`` is formatted with the first failing map."""
    rep = _report("twist-commutation", A.space.dim, _commutation_blocks(A, X), False)
    failing = rep.violations[0].rule.removeprefix("commutes-with-") if rep.violations else ""
    _require(rep, message.format(failing))


def _twist(L, alpha, beta, what, input_name, axioms, reverify):
    """[x_1, ..., x_n]' = [alpha(x_1), ..., alpha(x_{n-1}), beta(x_n)] on a verified input.

    Preconditions: identity twists on an input passing ``axioms``, and
    commuting even bracket morphisms alpha, beta, checked as the
    multiplicativity report of (bracket, alpha, beta).  The result is checked
    against ``reverify``.  Every refusal is a TwistError carrying its report.
    """
    if not (L.alpha.is_identity() and L.beta.is_identity()):
        raise TwistError(f"{what} expects an untwisted input (identity structure maps)")
    for verify in axioms:
        _require(verify(L), f"input is not {input_name}", TwistError)
    if alpha.parity != EVEN or beta.parity != EVEN:
        raise ParityError("twisting maps must be even")
    identity = "binary-multiplicativity" if L.bracket.arity == 2 else "ternary-multiplicativity"
    morphisms = _verify_multiplicativity(type(L)(L.space, L.bracket, alpha, beta), identity, False)
    failing = {v.rule for v in morphisms.violations}
    message = ("twisting maps do not commute" if "twists-commute" in failing else
               f"{'alpha' if 'alpha-morphism' in failing else 'beta'} is not a morphism of the input bracket")
    _require(morphisms, message, TwistError)
    twisted = type(L)(L.space, _twisted_tensor(L.bracket, alpha, beta), alpha, beta, multiplicative=True)
    for verify in reverify:
        _require(verify(twisted), "twisted bracket failed verification", TwistError)
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
