"""Rota-Baxter operators of weight lambda and the brackets they induce.

The binary defining identity is

    [R(x), R(y)] = R([R(x), y] + [x, R(y)] + lambda [x, y]),

and the ternary one inserts R into all proper subsets of the three slots with
weights lambda^{|untouched| - 1}.  The same subset sum defines a new ternary
bracket [.,.,.]_R out of any weight-lambda operator.

Note on the transfer criterion: under the defining identity above (with the
plus sign on the weight term), the exact expansion of the ternary identity on
an induced bracket produces the factor -(R + lambda Id) in front of the signed
cyclic sums, so membership in ker(R + lambda Id) is the criterion checked
here.  The two-sided cross-check against the direct ternary verification is
always performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    BiHomLieSuperalgebra,
    ThreeBiHomLieSuperalgebra,
    VerificationReport,
    _collect,
    _require_commuting_twists,
    verify_3bihom_jacobi,
    verify_3bihom_skewsymmetry,
)
from .core import (
    EVEN,
    GradedMap,
    LinearForm,
    ParityError,
    PreconditionError,
    TheoremContradictionError,
    Vector,
    as_scalar,
    basis_tuples,
    signed_slot_expansion,
    subset_insertions,
    vec_add,
    vec_scale,
    vec_sub,
)
from .derivations import is_derivation_3

__all__ = [
    "RotaBaxterOperator",
    "is_rb2",
    "is_rb3",
    "check_inverse_derivation_equivalence",
    "check_rb_transfer_criterion",
    "make_rb_bracket",
    "make_projection_twisted_algebra",
    "subset_deformations",
]


@dataclass(frozen=True)
class RotaBaxterOperator:
    """An even linear map together with its weight."""

    map: GradedMap
    weight: Fraction

    def __post_init__(self) -> None:
        if self.map.parity != EVEN:
            raise ParityError("a weighted Baxter operator must be even")
        object.__setattr__(self, "weight", as_scalar(self.weight))


def _subset_terms(A, R: RotaBaxterOperator, e, Rcol, indices):
    for subset, value in subset_insertions(A.bracket, e, Rcol, indices):
        yield subset, vec_scale(R.weight ** (len(subset) - 1), value)


def _subset_sum(A, R: RotaBaxterOperator, e, Rcol, indices) -> Vector:
    """[x_1, ..., x_n]_R at one basis tuple: the sum of all subset terms."""
    acc = None
    for _, term in _subset_terms(A, R, e, Rcol, indices):
        acc = term if acc is None else vec_add(acc, term)
    return acc


def _is_rb(A, R: RotaBaxterOperator, identity: str, fail_fast: bool) -> VerificationReport:
    """[R(x_1), ..., R(x_n)] = R([x_1, ..., x_n]_R) over all basis tuples."""
    _require_commuting_twists(R.map, A)
    e = A.space.basis()
    Rcol = [R.map.column(i) for i in A.space.indices()]

    def gen():
        for t in basis_tuples(A.space, A.bracket.arity):
            lhs = A.bracket.bracket(*(Rcol[i] for i in t))
            yield t, "weighted-identity", vec_sub(lhs, R.map.apply(_subset_sum(A, R, e, Rcol, t)))

    return _collect(identity, gen(), fail_fast)


def is_rb2(A: BiHomLieSuperalgebra, R: RotaBaxterOperator, fail_fast: bool = False) -> VerificationReport:
    """Check the binary weighted identity over all basis pairs."""
    return _is_rb(A, R, "binary-rota-baxter", fail_fast)


def is_rb3(
    A: ThreeBiHomLieSuperalgebra, R: RotaBaxterOperator, fail_fast: bool = False
) -> VerificationReport:
    """Check the ternary weighted identity over all basis triples."""
    return _is_rb(A, R, "ternary-rota-baxter", fail_fast)


def check_inverse_derivation_equivalence(
    A: ThreeBiHomLieSuperalgebra, R: GradedMap
) -> bool:
    """For invertible even R: weight-0 operator iff R^{-1} is an even derivation.

    Computes both predicates independently and raises
    :class:`TheoremContradictionError` if they ever disagree; otherwise
    returns their common value.
    """
    if R.parity != EVEN:
        raise ParityError("equivalence is stated for even maps")
    Rinv = R.inverse()  # raises PreconditionError when singular
    _require_commuting_twists(R, A)
    rb_side = is_rb3(A, RotaBaxterOperator(R, Fraction(0))).passed
    der_side = is_derivation_3(A, Rinv, 0, 0).passed
    if rb_side != der_side:
        raise TheoremContradictionError(
            f"weight-0 check ({rb_side}) disagrees with inverse-derivation check ({der_side})"
        )
    return rb_side


def check_rb_transfer_criterion(
    A: BiHomLieSuperalgebra, tau: LinearForm, R: RotaBaxterOperator
) -> tuple[bool, VerificationReport]:
    """Kernel criterion for a binary weight-lambda operator to transfer.

    For every basis triple the signed cyclic sum

        v = tau(x) [R(y), R(z)] - (-1)^{|x||y|} tau(y) [R(x), R(z)]
          + (-1)^{|z|(|x|+|y|)} tau(z) [R(x), R(y)]

    must lie in ker(R + lambda Id).  The verdict is cross-checked against
    running the ternary verification directly on the induced algebra; any
    disagreement raises :class:`TheoremContradictionError`.
    """
    from .tau import check_tau_conditions, induce_tau

    base = is_rb2(A, R)
    if not base.passed:
        raise PreconditionError("operator fails the binary weighted identity", details=base)
    witness = check_tau_conditions(A, tau)
    if not witness.satisfied:
        raise PreconditionError("form fails the induction conditions", details=witness)
    P = A.space.parities
    t = tau.coefficients
    Rcol = [R.map.column(i) for i in A.space.indices()]
    shifted = R.map.add(GradedMap.identity(A.space).scale(R.weight))

    def gen():
        for i, j, l in basis_tuples(A.space, 3):
            v = signed_slot_expansion(
                (t[i], t[j], t[l]),
                (
                    A.bracket.bracket(Rcol[j], Rcol[l]),
                    A.bracket.bracket(Rcol[i], Rcol[l]),
                    A.bracket.bracket(Rcol[i], Rcol[j]),
                ),
                (P[i], P[j], P[l]),
            )
            yield (i, j, l), "kernel-membership", shifted.apply(v)

    report = _collect(
        "rota-baxter-transfer-criterion",
        gen(),
        False,
        ("criterion sign fixed by the plus-lambda defining identity: ker(R + lambda Id)",),
    )
    induced = induce_tau(A, tau)
    direct = is_rb3(induced, R).passed
    if report.passed != direct:
        raise TheoremContradictionError(
            f"kernel criterion ({report.passed}) disagrees with the direct induced check ({direct})"
        )
    return report.passed, report


def subset_deformations(A, R: RotaBaxterOperator, *indices: int):
    """The subset-indexed terms of the induced bracket at one basis tuple.

    Yields (subset, vector) where the vector is the ambient bracket with R
    applied at every slot outside the subset, scaled by lambda^{|subset|-1}.
    """
    e = A.space.basis()
    Rcol = [R.map.column(t) for t in A.space.indices()]
    return _subset_terms(A, R, e, Rcol, indices)


def make_rb_bracket(
    A: ThreeBiHomLieSuperalgebra, R: RotaBaxterOperator
) -> ThreeBiHomLieSuperalgebra:
    """The induced ternary bracket [.,.,.]_R of a verified weight-lambda operator.

    Entry at (x1, x2, x3): sum over nonempty subsets I of the slots of
    lambda^{|I|-1} [args], where slots in I keep their argument and slots
    outside I receive R.  The structure maps are unchanged.
    """
    pre = is_rb3(A, R)
    if not pre.passed:
        raise PreconditionError("operator fails the ternary weighted identity", details=pre)
    e = A.space.basis()
    Rcol = [R.map.column(i) for i in A.space.indices()]
    tensor = type(A.bracket).from_images(A.space, A.bracket.arity, lambda t: _subset_sum(A, R, e, Rcol, t))
    return ThreeBiHomLieSuperalgebra(
        A.space, tensor, A.alpha, A.beta, multiplicative=A.multiplicative
    )


def make_projection_twisted_algebra(
    A: ThreeBiHomLieSuperalgebra, R: RotaBaxterOperator
) -> ThreeBiHomLieSuperalgebra:
    """For idempotent R: the induced bracket with structure maps alpha R, beta R.

    Requires R^2 = R exactly and the ternary weighted identity.  The result is
    validated against the nonmultiplicative axiom set (both twisted swaps and
    the five-argument identity); no morphism claim is made for the composed
    structure maps.
    """
    if R.map.compose(R.map) != R.map:
        raise PreconditionError("operator is not idempotent")
    induced = make_rb_bracket(A, R)
    result = ThreeBiHomLieSuperalgebra(
        A.space,
        induced.bracket,
        A.alpha.compose(R.map),
        A.beta.compose(R.map),
        multiplicative=False,
    )
    for rep in (verify_3bihom_skewsymmetry(result), verify_3bihom_jacobi(result)):
        if not rep.passed:
            raise TheoremContradictionError(
                f"projection-twisted algebra failed verification: {rep.summary()}"
            )
    return result
