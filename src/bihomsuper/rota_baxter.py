"""Rota-Baxter operators of weight lambda and the brackets they induce.

The binary defining identity is

    [R(x), R(y)] = R([R(x), y] + [x, R(y)] + lambda [x, y]),

and the ternary one inserts R into all proper subsets of the three slots with
weights lambda^{|untouched| - 1}.  The same subset sum defines a new ternary
bracket [.,.,.]_R out of any weight-lambda operator.

The subset sum is written once, as one (coefficient, slot maps) term per
subset (:func:`_weighted_terms`).  The induced bracket sums those terms as
contractions of the whole tensor, and the transfer criterion expands the
contraction [R., R.] against tau; the weighted identity still brackets every
basis tuple, term by term, in a walk (:func:`bihomsuper.algebras._walk_block`).
Each hypothesis is checked once: make_rb_bracket checks the weighted identity
and then builds (:func:`_rb_bracket`); callers that have just checked it build
directly.

Note on the transfer criterion: under the defining identity above (with the
plus sign on the weight term), the exact expansion of the ternary identity on
an induced bracket produces the factor -(R + lambda Id) in front of the signed
cyclic sums, so membership in ker(R + lambda Id) is the criterion checked
here.  The two-sided cross-check against the direct ternary verification is
always performed.
Each refusal carries its report: an operator's ``twist-commutation``, a
failing weighted identity's, or a failing form's :class:`TauWitness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    BiHomLieSuperalgebra,
    ThreeBiHomLieSuperalgebra,
    VerificationReport,
    _agree,
    _confirm,
    _report,
    _require,
    _require_commuting_twists,
    _rules_block,
    _walk_block,
    verify_3bihom_jacobi,
    verify_3bihom_skewsymmetry,
)
from .core import (
    EVEN,
    DimensionError,
    GradedMap,
    LinearForm,
    ParityError,
    PreconditionError,
    as_scalar,
    contraction_sum,
    slot_substitutions,
    vec_scale,
    vec_sub,
)
from .derivations import is_derivation_3
from .tau import _induced_algebra, _require_tau_conditions, _tau_expansion

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


def _weighted_terms(A, R: RotaBaxterOperator) -> list:
    """The terms of [x_1, ..., x_n]_R, one per nonempty slot subset I: (I, lambda^{|I|-1},
    slot maps keeping the argument in the slots of I and inserting R elsewhere)."""
    return [(I, R.weight ** (len(I) - 1), maps) for I, maps in slot_substitutions(A.bracket.arity, R.map)]


def _pointwise_terms(A, R: RotaBaxterOperator):
    """A function of one basis tuple t yielding (I, lambda^{|I|-1} [m_1 e_{t_1}, ..., m_n e_{t_n}])
    for each weighted term, one bracket per term."""
    idx = A.space.indices()
    terms = [(I, c, [[m.column(i) for i in idx] for m in maps]) for I, c, maps in _weighted_terms(A, R)]

    def at(t):
        for I, c, columns in terms:
            yield I, vec_scale(c, A.bracket.bracket(*(col[i] for col, i in zip(columns, t))))

    return at


def _is_rb(A, R: RotaBaxterOperator, identity: str, fail_fast: bool) -> VerificationReport:
    """[R(x_1), ..., R(x_n)] = R([x_1, ..., x_n]_R) over all basis tuples.

    Still a walk over every basis tuple, one bracket per weighted term, that stops
    at the first failing tuple under fail-fast.  The contraction form waits for
    ROADMAP open item 1: the benchmark keeps every report until the run ends, so
    its peak RSS grows with the faster form's throughput and rises past the 10%
    bound.
    """
    _require_commuting_twists(R.map, A)
    Rcol = [R.map.column(i) for i in A.space.indices()]
    terms = _pointwise_terms(A, R)

    def residual(*t):
        lhs = A.bracket.bracket(*(Rcol[i] for i in t))
        subset_sum = [sum(c) for c in zip(*(term for _, term in terms(t)))]
        return vec_sub(lhs, R.map.apply(subset_sum))

    block = _walk_block(A.bracket.arity, A.dim, residual, "weighted-identity", fail_fast)
    return _report(identity, A.dim, [block], fail_fast)


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

    Computes both predicates independently, the weighted identity first, which refuses an R
    not commuting with the twists; raises :class:`TheoremContradictionError` if they ever
    disagree, otherwise returns their common value.
    """
    if R.parity != EVEN:
        raise ParityError("equivalence is stated for even maps")
    Rinv = R.inverse()  # raises PreconditionError when singular
    return _agree(("weight-0 check", is_rb3(A, RotaBaxterOperator(R, Fraction(0))).passed),
                  ("inverse-derivation check", is_derivation_3(A, Rinv, 0, 0).passed))


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
    _require(is_rb2(A, R), "operator fails the binary weighted identity")
    _require_tau_conditions(A, tau)
    shifted = R.map.add(GradedMap.identity(A.space).scale(R.weight))
    pairs = contraction_sum([(1, A.bracket, [R.map, R.map], shifted)])
    block = _rules_block(3, [("kernel-membership", _tau_expansion(A.space, pairs, tau.coefficients))], A.dim)
    note = "criterion sign fixed by the plus-lambda defining identity: ker(R + lambda Id)"
    report = _report("rota-baxter-transfer-criterion", A.dim, [block], False, (note,))
    direct = is_rb3(_induced_algebra(A, tau), R).passed
    return _agree(("kernel criterion", report.passed), ("the direct induced check", direct)), report


def subset_deformations(A, R: RotaBaxterOperator, *indices: int):
    """The subset-indexed terms of the induced bracket at one basis tuple.

    Yields (subset, vector) where the vector is the ambient bracket with R
    applied at every slot outside the subset, scaled by lambda^{|subset|-1}.
    """
    if len(indices) != A.bracket.arity:
        raise DimensionError(f"expected {A.bracket.arity} basis indices, got {len(indices)}")
    A.bracket.bracket_basis(*indices)  # raises DimensionError on an index out of range
    return _pointwise_terms(A, R)(indices)


def make_rb_bracket(A: ThreeBiHomLieSuperalgebra, R: RotaBaxterOperator) -> ThreeBiHomLieSuperalgebra:
    """The induced ternary bracket [.,.,.]_R of a verified weight-lambda operator.

    Entry at (x1, x2, x3): sum over nonempty subsets I of the slots of
    lambda^{|I|-1} [args], where slots in I keep their argument and slots
    outside I receive R.  The structure maps are unchanged.
    """
    _require(is_rb3(A, R), "operator fails the ternary weighted identity")
    return _rb_bracket(A, R)


def _rb_bracket(A, R: RotaBaxterOperator) -> ThreeBiHomLieSuperalgebra:
    """:func:`make_rb_bracket` for an operator whose weighted identity the caller has just checked."""
    values = contraction_sum((c, A.bracket, maps, None) for _, c, maps in _weighted_terms(A, R))
    tensor = type(A.bracket).from_values(A.space, values)
    return ThreeBiHomLieSuperalgebra(A.space, tensor, A.alpha, A.beta, multiplicative=A.multiplicative)


def make_projection_twisted_algebra(A: ThreeBiHomLieSuperalgebra,
                                    R: RotaBaxterOperator) -> ThreeBiHomLieSuperalgebra:
    """For idempotent R: the induced bracket with structure maps alpha R, beta R.

    Requires R^2 = R exactly and the ternary weighted identity.  The result is
    validated against the nonmultiplicative axiom set (both twisted swaps and
    the five-argument identity); no morphism claim is made for the composed
    structure maps.
    """
    return _projection_twist(A, R)[0]


def _projection_twist(A, R: RotaBaxterOperator) -> tuple[ThreeBiHomLieSuperalgebra, list[VerificationReport]]:
    """:func:`make_projection_twisted_algebra`, with the skew and Jacobi reports confirming it."""
    if R.map.compose(R.map) != R.map:
        raise PreconditionError("operator is not idempotent")
    bracket = make_rb_bracket(A, R).bracket
    result = ThreeBiHomLieSuperalgebra(A.space, bracket, A.alpha.compose(R.map), A.beta.compose(R.map),
                                       multiplicative=False)
    reports = [verify(result) for verify in (verify_3bihom_skewsymmetry, verify_3bihom_jacobi)]
    for rep in reports:
        _confirm(rep, "projection-twisted algebra failed verification")
    return result, reports
