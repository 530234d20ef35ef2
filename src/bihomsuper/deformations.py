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

Degree-l sums are checked on all raw index tuples rather than on a wedge
basis; this is convention-free, and for skew tensors it is equivalent.

Nijenhuis operators are even maps N whose deformed brackets telescope:
[Nx, Ny, Nz] equals N applied to the second N-bracket, equivalently the
alternating subset sum of N-powers.  They generate trivial deformations
(w1, w2) = (first N-bracket, second N-bracket).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    BiHomLieSuperalgebra,
    ThreeBiHomLieSuperalgebra,
    VerificationReport,
    _collect,
    _morphism_images,
    _twisted_skew_residuals,
    _TwistedTables,
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
    TheoremContradictionError,
    Vector,
    WedgePair,
    basis_tuples,
    ksign,
    subset_insertions,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)

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


def _require_even_commuting(N: GradedMap, A) -> None:
    if N.parity != EVEN:
        raise ParityError("operator must be even")
    for name, m in (("alpha", A.alpha), ("beta", A.beta)):
        if not N.commutes_with(m):
            raise PreconditionError(f"operator does not commute with {name}")


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
    beta = A.beta
    beta2 = beta.compose(beta)
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


def _compose_at(tables: _TwistedTables, ni: int, nj: int, a: int, b: int, c: int, d: int, m: int) -> Vector:
    """(w_{ni} o w_{nj})(e_a ^ e_b, e_c ^ e_d, e_m) via the twisted tables."""
    P = tables.P
    pX = P[a] + P[b]
    pY = P[c] + P[d]
    inner_j = tables.inner[nj]
    outer = tables.outer_apply
    out = outer(ni, 0, d, m, inner_j[a][b][c])
    out = vec_add(out, vec_scale(ksign(P[c] * pX), outer(ni, 1, c, m, inner_j[a][b][d])))
    out = vec_sub(out, outer(ni, 2, a, b, inner_j[c][d][m]))
    out = vec_add(out, vec_scale(ksign(pX * pY), outer(ni, 2, c, d, inner_j[a][b][m])))
    return out


def _compat_violations(A, w: StructureTensor3, tag: str):
    twists = (("alpha", A.alpha), ("beta", A.beta))
    for t, name, image, bracket in _morphism_images(w, twists):
        yield t, f"{name}-compat-{tag}", vec_sub(bracket, image)


def check_deformation(
    A: ThreeBiHomLieSuperalgebra, d: DeformationPair, fail_fast: bool = False
) -> VerificationReport:
    """Full validity check for a quadratic deformation pair.

    Sub-rules, in order: twisted skew-symmetry of each coefficient tensor
    (same convention as the ambient bracket), compatibility with the cubed
    structure maps, and the degree-l composition sums for l = 1..4 over all
    raw basis tuples.
    """
    if d.omega1.space != A.space:
        raise DimensionError("deformation pair lives on a different space")

    def series():
        tables = _TwistedTables(A, {0: A.bracket, 1: d.omega1, 2: d.omega2})
        for l in (1, 2, 3, 4):
            pairs = [(i, l - i) for i in range(3) if 0 <= l - i <= 2]
            for t in basis_tuples(A.space, 5):
                acc = None
                for ni, nj in pairs:
                    term = _compose_at(tables, ni, nj, *t)
                    acc = term if acc is None else vec_add(acc, term)
                yield t, f"series-degree-{l}", acc

    checks = itertools.chain(
        _twisted_skew_residuals(A, d.omega1, "-omega1"),
        _twisted_skew_residuals(A, d.omega2, "-omega2"),
        _compat_violations(A, d.omega1, "omega1"),
        _compat_violations(A, d.omega2, "omega2"),
        series(),
    )
    return _collect("second-order-deformation", checks, fail_fast)


def check_2cocycle(A: ThreeBiHomLieSuperalgebra, w1: StructureTensor3) -> VerificationReport:
    """The degree-1 composition sum alone: w0 o w1 + w1 o w0 = 0 on raw tuples."""
    if w1.space != A.space:
        raise DimensionError("cocycle candidate lives on a different space")
    tables = _TwistedTables(A, {0: A.bracket, 1: w1})

    def gen():
        for t in basis_tuples(A.space, 5):
            yield t, "degree-1-sum", vec_add(_compose_at(tables, 0, 1, *t), _compose_at(tables, 1, 0, *t))

    return _collect("two-cocycle", gen(), False)


# ---------------------------------------------------------------------------
# N-brackets and Nijenhuis operators
# ---------------------------------------------------------------------------

def _n_bracket(A, N: GradedMap, inserted: int, previous: StructureTensor) -> StructureTensor:
    """Insert N into ``inserted`` slots in every way, minus N of the ``previous`` bracket."""
    _require_even_commuting(N, A)
    e = A.space.basis()
    Nc = [N.column(i) for i in A.space.indices()]
    plain = A.bracket.arity - inserted
    entries: dict[tuple[int, ...], Fraction] = {}
    for t in basis_tuples(A.space, A.bracket.arity):
        w = vec_scale(-1, N.apply(previous.bracket_basis(*t)))
        for _, value in subset_insertions(A.bracket, e, Nc, t, (plain,)):
            w = vec_add(w, value)
        for k, c in enumerate(w):
            if c != 0:
                entries[t + (k,)] = c
    return type(A.bracket).from_dict(A.space, entries)


def make_n_bracket_1(A: ThreeBiHomLieSuperalgebra, N: GradedMap) -> StructureTensor3:
    """First deformed bracket: insert N once in each slot, subtract N of the bracket."""
    return _n_bracket(A, N, 1, A.bracket)


def make_n_bracket_2(A: ThreeBiHomLieSuperalgebra, N: GradedMap) -> StructureTensor3:
    """Second deformed bracket: pairwise N insertions minus N of the first bracket."""
    return _n_bracket(A, N, 2, make_n_bracket_1(A, N))


def _is_nijenhuis(A, N: GradedMap, top_bracket, identity: str, fail_fast: bool, notes=()) -> VerificationReport:
    """[N(x_1), ..., N(x_n)] = N(w) on every basis tuple, w the (n-1)-th N-bracket.

    The inductive form N(w) is compared with the alternating subset sum over
    nonempty slot subsets I of (-1)^{|I|-1} N^{|I|} [args], where slots in I
    keep their basis argument and the others receive N.  The two agree
    identically; a mismatch would indicate an implementation defect and is
    reported as a ``form-consistency`` violation.
    """
    _require_even_commuting(N, A)
    top = top_bracket(A, N)
    e = A.space.basis()
    Nc = [N.column(t) for t in A.space.indices()]
    powers = [GradedMap.identity(A.space)]
    for _ in range(A.bracket.arity):
        powers.append(powers[-1].compose(N))

    def gen():
        for t in basis_tuples(A.space, A.bracket.arity):
            inductive = N.apply(top.bracket_basis(*t))
            subset_form = None
            for subset, value in subset_insertions(A.bracket, e, Nc, t):
                term = vec_scale(ksign(len(subset) - 1), powers[len(subset)].apply(value))
                subset_form = term if subset_form is None else vec_add(subset_form, term)
            mismatch = vec_sub(inductive, subset_form)
            if vec_is_zero(mismatch):
                yield t, "nijenhuis", vec_sub(A.bracket.bracket(*(Nc[i] for i in t)), inductive)
            else:
                yield t, "form-consistency", mismatch

    return _collect(identity, gen(), fail_fast, notes)


def is_nijenhuis_3(A: ThreeBiHomLieSuperalgebra, N: GradedMap) -> VerificationReport:
    """Ternary Nijenhuis check, with both displayed forms compared per triple.

    The inductive form N(second N-bracket) and the alternating subset form are
    computed independently; they agree identically, and a mismatch would
    indicate an implementation defect, reported as an internal-consistency
    violation.
    """
    return _is_nijenhuis(
        A, N, make_n_bracket_2, "ternary-nijenhuis", False,
        ("inductive and subset forms are cross-checked on every triple",),
    )


def is_nijenhuis_2(A: BiHomLieSuperalgebra, N: GradedMap, fail_fast: bool = False) -> VerificationReport:
    """Binary Nijenhuis check: [Nx, Ny] = N([Nx, y] + [x, Ny] - N[x, y]).

    The alternating subset form N[Nx, y] + N[x, Ny] - N^2[x, y] is compared
    with it on every pair, as in :func:`is_nijenhuis_3`.
    """
    return _is_nijenhuis(A, N, make_n_bracket_1, "binary-nijenhuis", fail_fast)


def check_nijenhuis_transfer(
    A: BiHomLieSuperalgebra, tau: LinearForm, N: GradedMap
) -> bool:
    """A binary Nijenhuis operator stays Nijenhuis on the induced ternary algebra.

    Preconditions are verified; a failure of the conclusion would contradict
    the supporting theory and raises :class:`TheoremContradictionError`.
    """
    from .tau import check_tau_conditions, induce_tau

    base = is_nijenhuis_2(A, N)
    if not base.passed:
        raise PreconditionError("operator is not binary Nijenhuis", details=base)
    witness = check_tau_conditions(A, tau)
    if not witness.satisfied:
        raise PreconditionError("form fails the induction conditions", details=witness)
    rep = is_nijenhuis_3(induce_tau(A, tau), N)
    if not rep.passed:
        raise TheoremContradictionError(
            f"binary Nijenhuis operator failed on the induced algebra: {rep.summary()}"
        )
    return True


def check_nijenhuis_rb_compatibility(
    A: ThreeBiHomLieSuperalgebra, N: GradedMap, R
) -> bool:
    """A Nijenhuis operator commuting with a weighted Baxter operator survives
    the subset-induced bracket."""
    from .core import commute
    from .rota_baxter import RotaBaxterOperator, is_rb3, make_rb_bracket

    if not isinstance(R, RotaBaxterOperator):
        raise PreconditionError("expected a weighted operator")
    base_n = is_nijenhuis_3(A, N)
    if not base_n.passed:
        raise PreconditionError("operator is not ternary Nijenhuis", details=base_n)
    base_r = is_rb3(A, R)
    if not base_r.passed:
        raise PreconditionError("operator fails the ternary weighted identity", details=base_r)
    if not commute(N, R.map):
        raise PreconditionError("the two operators do not commute")
    rep = is_nijenhuis_3(make_rb_bracket(A, R), N)
    if not rep.passed:
        raise TheoremContradictionError(
            f"Nijenhuis operator failed on the induced bracket: {rep.summary()}"
        )
    return True


def check_derivation_nijenhuis_rb_equivalence(
    A: ThreeBiHomLieSuperalgebra, N: GradedMap
) -> bool:
    """For an even derivation N: Nijenhuis iff weight-0 Baxter operator.

    Computes both predicates independently; disagreement raises
    :class:`TheoremContradictionError`, otherwise the common value is returned.
    """
    from .rota_baxter import RotaBaxterOperator, is_rb3
    from .derivations import is_derivation_3

    base = is_derivation_3(A, N, 0, 0)
    if not base.passed:
        raise PreconditionError("operator is not an even derivation", details=base)
    nij = is_nijenhuis_3(A, N).passed
    rb0 = is_rb3(A, RotaBaxterOperator(N, Fraction(0))).passed
    if nij != rb0:
        raise TheoremContradictionError(
            f"Nijenhuis check ({nij}) disagrees with the weight-0 check ({rb0})"
        )
    return nij


def build_trivial_deformation(
    A: ThreeBiHomLieSuperalgebra, N: GradedMap
) -> DeformationPair:
    """The deformation pair absorbed by id + t N for a Nijenhuis operator N.

    Returns (first N-bracket, second N-bracket) and verifies the telescoping
    condition N(w2) = [Nx, Ny, Nz] exactly; its failure would mean N was not
    Nijenhuis after all.
    """
    base = is_nijenhuis_3(A, N)
    if not base.passed:
        raise PreconditionError("operator is not ternary Nijenhuis", details=base)
    w1 = make_n_bracket_1(A, N)
    w2 = make_n_bracket_2(A, N)
    Nc = [N.column(t) for t in A.space.indices()]
    for i, j, l in basis_tuples(A.space, 3):
        lhs = N.apply(w2.bracket_basis(i, j, l))
        rhs = A.bracket.bracket(Nc[i], Nc[j], Nc[l])
        if not vec_is_zero(vec_sub(lhs, rhs)):
            raise PreconditionError(
                "telescoping condition failed; the operator is not Nijenhuis"
            )
    return DeformationPair(w1, w2)
