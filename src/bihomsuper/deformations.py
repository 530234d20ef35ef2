"""Second-order deformations, the wedge composition, and Nijenhuis operators.

A quadratic family b_t = b + t w1 + t^2 w2 of ternary brackets is a valid
deformation exactly when each coefficient tensor commutes with the cubes of
the structure maps and the degree-l composition sums

    sum_{i+j=l} w_i o w_j = 0        (l = 1, 2, 3, 4;  w_0 = ambient bracket)

vanish, where the composition of two trilinear maps is evaluated on a pair of
wedges and one extra argument:

    (w_i o w_j)(X, Y, z) = w_i(w_j(X, .) * Y, b^2(z))
                         - w_i(b~^2(X), w_j(b~(Y), a(z)))
                         + (-1)^{|X||Y|} w_i(b~^2(Y), w_j(b~(X), a(z)))

with b~ applying beta to each wedge factor and the starred insertion

    w_j(X, .) * Y = w_j(b~(X), a(y1)) ^ b^2(y2)
                  + (-1)^{|y1||X|} b^2(y1) ^ w_j(b~(X), a(y2)).

Every check here, the swap and twist pre-checks included, covers all basis
tuples at once by sparse contraction.  Degree-l sums are checked on all raw
index tuples rather than on a wedge basis; this is convention-free, and for
skew tensors it is equivalent.  For them, each tensor contracted against
(b, b, a) is joined, over its output index, with a tensor contracted against
b^2 in two slots and the identity in the free one, one join per term of the
composition (:data:`_COMPOSITION_TERMS`), by the nested-bracket kernel in
:mod:`bihomsuper.algebras`; the cost follows the nonzeros, not dim ** 5.
Reports list the failing tuples in lexicographic order with dense residuals
and count every tuple analytically, as a walk over all of them would;
:func:`omega_compose` evaluates one composition pointwise, the second path.

Nijenhuis operators are even maps N whose deformed brackets telescope:
[Nx, Ny, Nz] equals N applied to the second N-bracket, equivalently the
alternating subset sum of N-powers.  They generate trivial deformations
(w1, w2) = (first N-bracket, second N-bracket).  Both forms are separate
sums of contractions, so comparing them still cross-checks the encodings.
Each hypothesis is checked once: :func:`_n_brackets` checks N as it builds the
chain, and callers that have just checked N reuse that chain.
Each refusal carries its report: an operator's ``twist-commutation``, a
failing base check's, a failing form's :class:`TauWitness`, or the
``operator-commutation`` columns of N R - R N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    BiHomLieSuperalgebra,
    ThreeBiHomLieSuperalgebra,
    VerificationReport,
    _agree,
    _composition_block,
    _confirm,
    _morphism_block,
    _report,
    _require,
    _require_commuting_twists,
    _rules_block,
    _skew_block,
    _twisted_contractions,
)
from .core import (
    EVEN,
    DimensionError,
    GradedMap,
    LinearForm,
    ParityError,
    PreconditionError,
    StructureTensor,
    StructureTensor3,
    Vector,
    WedgePair,
    commutator,
    contraction_sum,
    dense,
    ksign,
    slot_substitutions,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .derivations import _twist, is_derivation_3
from .rota_baxter import RotaBaxterOperator, is_rb3, make_rb_bracket
from .tau import _induced_algebra, _require_tau_conditions

__all__ = [
    "DeformationPair",
    "omega_compose",
    "check_deformation",
    "check_2cocycle",
    "make_n_bracket_1",
    "make_n_bracket_2",
    "is_nijenhuis_2",
    "is_nijenhuis_3",
    "check_nijenhuis_transfer",
    "check_nijenhuis_rb_compatibility",
    "check_derivation_nijenhuis_rb_equivalence",
    "build_trivial_deformation",
]


@dataclass(frozen=True)
class DeformationPair:
    """Coefficient tensors (w1, w2) of a quadratic bracket family."""

    omega1: StructureTensor3
    omega2: StructureTensor3

    def __post_init__(self) -> None:
        if self.omega1.space != self.omega2.space:
            raise DimensionError("deformation tensors live on different spaces")


# ---------------------------------------------------------------------------
# wedge composition
# ---------------------------------------------------------------------------

def omega_compose(
    A: ThreeBiHomLieSuperalgebra,
    wi: StructureTensor3,
    wj: StructureTensor3,
    X: WedgePair,
    Y: WedgePair,
    z: int,
) -> Vector:
    """Evaluate (w_i o w_j)(X, Y, e_z) exactly.

    The structure maps are taken from ``A``; ``wi`` and ``wj`` may be any
    tensors on the same space (in particular the ambient bracket itself).
    """
    if X.space != A.space or Y.space != A.space:
        raise DimensionError("wedge arguments live on a different space")
    beta, beta2 = A.beta, _twist(A, 0, 2)
    az = A.alpha.column(z)
    bx1, bx2 = beta.apply(X.first), beta.apply(X.second)
    by1, by2 = beta.apply(Y.first), beta.apply(Y.second)
    b2x1, b2x2 = beta2.apply(X.first), beta2.apply(X.second)
    b2y1, b2y2 = beta2.apply(Y.first), beta2.apply(Y.second)
    pX = X.parity
    pY = Y.parity

    inner_y1 = wj.bracket(bx1, bx2, A.alpha.apply(Y.first))
    inner_y2 = wj.bracket(bx1, bx2, A.alpha.apply(Y.second))
    star1 = wi.bracket(inner_y1, b2y2, beta2.column(z))
    star2 = wi.bracket(b2y1, inner_y2, beta2.column(z))
    term1 = vec_add(star1, vec_scale(ksign(Y.parity_first * pX), star2))

    term2 = wi.bracket(b2x1, b2x2, wj.bracket(by1, by2, az))
    term3 = wi.bracket(b2y1, b2y2, wj.bracket(bx1, bx2, az))
    out = vec_sub(term1, term2)
    out = vec_add(out, vec_scale(ksign(pX * pY), term3))
    return out


# The four terms of (w_i o w_j)(e_a ^ e_b, e_c ^ e_d, e_m), one row each: the
# free slot of the outer w_i, the basis 5-tuple (a, b, c, d, m) read off the
# inner indices (x, y, z) followed by the outer ones (u, v), and the Koszul
# exponent at that tuple; ``algebras._composition_sum`` evaluates the table.
_COMPOSITION_TERMS = (
    # + w_i(w_j(b e_a, b e_b, a e_c), b^2 e_d, b^2 e_m)
    (0, (0, 1, 2, 3, 4), lambda P, a, b, c, d, m: 0),
    # + (-1)^{|c|(|a|+|b|)} w_i(b^2 e_c, w_j(b e_a, b e_b, a e_d), b^2 e_m)
    (1, (0, 1, 3, 2, 4), lambda P, a, b, c, d, m: P[c] * (P[a] + P[b])),
    # - w_i(b^2 e_a, b^2 e_b, w_j(b e_c, b e_d, a e_m))
    (2, (3, 4, 0, 1, 2), lambda P, a, b, c, d, m: 1),
    # + (-1)^{(|a|+|b|)(|c|+|d|)} w_i(b^2 e_c, b^2 e_d, w_j(b e_a, b e_b, a e_m))
    (2, (0, 1, 3, 4, 2), lambda P, a, b, c, d, m: (P[a] + P[b]) * (P[c] + P[d])),
)


def check_deformation(
    A: ThreeBiHomLieSuperalgebra, d: DeformationPair, fail_fast: bool = False
) -> VerificationReport:
    """Full validity check for a quadratic deformation pair.

    Sub-rules, in order: twisted skew-symmetry of each coefficient tensor
    (same convention as the ambient bracket), compatibility with the cubed
    structure maps, and the degree-l composition sums for l = 1..4 over all
    raw basis tuples.  Under fail-fast the count stops at the first failing
    tuple of the first failing sub-rule, as a walk in this order would.
    """
    if d.omega1.space != A.space:
        raise DimensionError("deformation pair lives on a different space")

    def blocks():
        yield _skew_block(A, d.omega1, "-omega1")
        yield _skew_block(A, d.omega2, "-omega2")
        yield _morphism_block(A, d.omega1, "{}-compat-omega1", -1)
        yield _morphism_block(A, d.omega2, "{}-compat-omega2", -1)
        factors = _twisted_contractions(A, (A.bracket, d.omega1, d.omega2), _COMPOSITION_TERMS)
        for l in (1, 2, 3, 4):
            pairs = [(factors[i][1], factors[l - i][0]) for i in range(3) if 0 <= l - i <= 2]
            yield _composition_block(A, pairs, _COMPOSITION_TERMS, f"series-degree-{l}")

    return _report("second-order-deformation", A.space.dim, blocks(), fail_fast)


def check_2cocycle(A: ThreeBiHomLieSuperalgebra, w1: StructureTensor3) -> VerificationReport:
    """The degree-1 composition sum alone: w0 o w1 + w1 o w0 = 0 on raw tuples."""
    if w1.space != A.space:
        raise DimensionError("cocycle candidate lives on a different space")
    (inner0, outer0), (inner1, outer1) = _twisted_contractions(A, (A.bracket, w1), _COMPOSITION_TERMS)
    block = _composition_block(A, [(outer0, inner1), (outer1, inner0)], _COMPOSITION_TERMS, "degree-1-sum")
    return _report("two-cocycle", A.space.dim, [block], False)


# ---------------------------------------------------------------------------
# N-brackets and Nijenhuis operators
# ---------------------------------------------------------------------------

def _n_brackets(A, N: GradedMap, count: int) -> list[StructureTensor]:
    """The first ``count`` N-brackets of an even N commuting with the twists, which is checked
    here: bracket k inserts N into k slots in every way, minus N of bracket k - 1."""
    if N.parity != EVEN:
        raise ParityError("operator must be even")
    _require_commuting_twists(N, A)
    n = A.bracket.arity
    brackets = [A.bracket]
    for inserted in range(1, count + 1):
        terms = [(-1, brackets[-1], [GradedMap.identity(A.space)] * n, N)]
        terms += [(1, A.bracket, maps, None) for _, maps in slot_substitutions(n, N, (n - inserted,))]
        brackets.append(type(A.bracket).from_values(A.space, contraction_sum(terms)))
    return brackets[1:]


def make_n_bracket_1(A: ThreeBiHomLieSuperalgebra, N: GradedMap) -> StructureTensor3:
    """First deformed bracket: insert N once in each slot, subtract N of the bracket."""
    return _n_brackets(A, N, 1)[0]


def make_n_bracket_2(A: ThreeBiHomLieSuperalgebra, N: GradedMap) -> StructureTensor3:
    """Second deformed bracket: pairwise N insertions minus N of the first bracket."""
    return _n_brackets(A, N, 2)[1]


def _is_nijenhuis(A, N: GradedMap, identity: str, fail_fast: bool, notes=()) -> tuple[VerificationReport, list]:
    """[N(x_1), ..., N(x_n)] = N(w) on every basis tuple, w the (n-1)-th N-bracket: the report,
    and the N-brackets built for it.

    The inductive form N(w) is compared with the alternating subset sum over
    nonempty slot subsets I of (-1)^{|I|-1} N^{|I|} [args], where slots in I
    keep their basis argument and the others receive N.  The two agree
    identically; a mismatch would indicate an implementation defect and is
    reported as a ``form-consistency`` violation.
    """
    n, dim = A.bracket.arity, A.space.dim
    brackets = _n_brackets(A, N, n - 1)
    ident = GradedMap.identity(A.space)
    powers = [ident]
    for _ in range(n):
        powers.append(powers[-1].compose(N))
    inductive = contraction_sum([(1, brackets[-1], [ident] * n, N)])
    subset_form = contraction_sum(
        (ksign(len(I) - 1), A.bracket, maps, powers[len(I)]) for I, maps in slot_substitutions(n, N)
    )
    lhs = contraction_sum([(1, A.bracket, [N] * n, None)])
    found = {}
    for t in inductive.keys() | subset_form.keys() | lhs.keys():
        value = dense(inductive.get(t, {}), dim)
        mismatch = vec_sub(value, dense(subset_form.get(t, {}), dim))
        if vec_is_zero(mismatch):
            residual, rule = vec_sub(dense(lhs.get(t, {}), dim), value), "nijenhuis"
        else:
            residual, rule = mismatch, "form-consistency"
        if not vec_is_zero(residual):
            found[t, 0] = (residual, rule)
    return _report(identity, dim, [(n, 1, found)], fail_fast, notes), brackets


_CROSS_CHECKED = ("inductive and subset forms are cross-checked on every triple",)


def is_nijenhuis_3(A: ThreeBiHomLieSuperalgebra, N: GradedMap) -> VerificationReport:
    """Ternary Nijenhuis check, with both displayed forms compared per triple.

    The inductive form N(second N-bracket) and the alternating subset form are
    computed independently; they agree identically, and a mismatch would
    indicate an implementation defect, reported as an internal-consistency
    violation.
    """
    return _is_nijenhuis(A, N, "ternary-nijenhuis", False, _CROSS_CHECKED)[0]


def is_nijenhuis_2(A: BiHomLieSuperalgebra, N: GradedMap, fail_fast: bool = False) -> VerificationReport:
    """Binary Nijenhuis check: [Nx, Ny] = N([Nx, y] + [x, Ny] - N[x, y]).

    The alternating subset form N[Nx, y] + N[x, Ny] - N^2[x, y] is compared
    with it on every pair, as in :func:`is_nijenhuis_3`.
    """
    return _is_nijenhuis(A, N, "binary-nijenhuis", fail_fast)[0]


def check_nijenhuis_transfer(
    A: BiHomLieSuperalgebra, tau: LinearForm, N: GradedMap
) -> bool:
    """A binary Nijenhuis operator stays Nijenhuis on the induced ternary algebra.

    Preconditions are verified; a failure of the conclusion would contradict
    the supporting theory and raises :class:`TheoremContradictionError`.
    """
    _require(is_nijenhuis_2(A, N), "operator is not binary Nijenhuis")
    _require_tau_conditions(A, tau)
    rep = is_nijenhuis_3(_induced_algebra(A, tau), N)
    _confirm(rep, "binary Nijenhuis operator failed on the induced algebra")
    return True


def check_nijenhuis_rb_compatibility(
    A: ThreeBiHomLieSuperalgebra, N: GradedMap, R
) -> bool:
    """A Nijenhuis operator commuting with a weighted Baxter operator survives
    the subset-induced bracket."""
    if not isinstance(R, RotaBaxterOperator):
        raise PreconditionError("expected a weighted operator")
    _require(is_nijenhuis_3(A, N), "operator is not ternary Nijenhuis")
    induced = make_rb_bracket(A, R)
    block = _rules_block(1, [("commutes-with-R", commutator(N, R.map))], A.space.dim)
    _require(_report("operator-commutation", A.space.dim, [block], False), "the two operators do not commute")
    _confirm(is_nijenhuis_3(induced, N), "Nijenhuis operator failed on the induced bracket")
    return True


def check_derivation_nijenhuis_rb_equivalence(
    A: ThreeBiHomLieSuperalgebra, N: GradedMap
) -> bool:
    """For an even derivation N: Nijenhuis iff weight-0 Baxter operator.

    Computes both predicates independently; disagreement raises
    :class:`TheoremContradictionError`, otherwise the common value is returned.
    """
    _require(is_derivation_3(A, N, 0, 0), "operator is not an even derivation")
    return _agree(("Nijenhuis check", is_nijenhuis_3(A, N).passed),
                  ("the weight-0 check", is_rb3(A, RotaBaxterOperator(N, Fraction(0))).passed))


def build_trivial_deformation(
    A: ThreeBiHomLieSuperalgebra, N: GradedMap
) -> DeformationPair:
    """The deformation pair absorbed by id + t N for a Nijenhuis operator N.

    Returns (first N-bracket, second N-bracket).  The telescoping condition
    N(w2) = [Nx, Ny, Nz] is exactly the ``nijenhuis`` rule that
    :func:`is_nijenhuis_3` requires on every triple first.
    """
    report, brackets = _is_nijenhuis(A, N, "ternary-nijenhuis", False, _CROSS_CHECKED)
    _require(report, "operator is not ternary Nijenhuis")
    return DeformationPair(*brackets)
