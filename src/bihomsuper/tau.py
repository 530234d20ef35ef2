"""Building a ternary bracket from a binary one and a linear form.

Given a binary algebra (g, [.,.], alpha, beta) and a linear form tau that
vanishes on the odd part, the induced ternary bracket is

    [x, y, z]_tau = tau(x) [y, z]
                  - (-1)^{|x||y|} tau(y) [x, z]
                  + (-1)^{|z|(|x|+|y|)} tau(z) [x, y].

The induced algebra satisfies the ternary twisted axioms whenever tau kills
all brackets, tau(x) tau(beta(y)) is symmetric in (x, y), and
tau(alpha(x)) beta(y) = tau(beta(x)) alpha(y) as vectors.  Checking those
three conditions, and constructing the tensor, both live here.
The tensor comes from one sparse expansion over the bracket entries and the
support of tau (:func:`_tau_expansion`), which the transfer criteria share.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    BiHomLieSuperalgebra,
    ThreeBiHomLieSuperalgebra,
    VerificationReport,
    Violation,
)
from .core import (
    GradedMap,
    LinearForm,
    PreconditionError,
    StructureTensor3,
    SuperSpace,
    add_image,
    basis_tuples,
    ksign,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .linalg import kernel_basis

__all__ = [
    "TauWitness",
    "check_tau_conditions",
    "induce_tau",
    "bracket_annihilating_forms",
]


@dataclass(frozen=True)
class TauWitness:
    """The three induction conditions for one candidate form, with reports."""

    tau: LinearForm
    bracket_annihilation: VerificationReport
    beta_symmetry: VerificationReport
    twist_proportionality: VerificationReport

    @property
    def satisfied(self) -> bool:
        return (
            self.bracket_annihilation.passed
            and self.beta_symmetry.passed
            and self.twist_proportionality.passed
        )

    def reports(self) -> tuple[VerificationReport, ...]:
        return (self.bracket_annihilation, self.beta_symmetry, self.twist_proportionality)


def check_tau_conditions(A: BiHomLieSuperalgebra, tau: LinearForm) -> TauWitness:
    """Exhaustively check the three induction conditions on basis pairs.

    All three conditions are bilinear in their arguments, so basis-pair
    validity is equivalent to validity on all of g.  The proportionality
    condition equates vectors and is checked componentwise.
    """
    if tau.space != A.space:
        raise PreconditionError("form and algebra live on different spaces")
    t = tau.coefficients
    alpha_cols, beta_cols = ([m.column(i) for i in A.space.indices()] for m in (A.alpha, A.beta))
    ta, tb = ([tau.apply(col) for col in cols] for cols in (alpha_cols, beta_cols))  # tau o alpha, tau o beta
    kill = []
    sym = []
    prop = []
    n_pairs = 0
    for i, j in basis_tuples(A.space, 2):
        n_pairs += 1
        k = tau.apply(A.bracket.bracket_basis(i, j))
        if k != 0:
            kill.append(Violation((i, j), (k,), "bracket-annihilation"))
        s = t[i] * tb[j] - t[j] * tb[i]
        if s != 0:
            sym.append(Violation((i, j), (s,), "beta-symmetry"))
        v = vec_sub(vec_scale(ta[i], beta_cols[j]), vec_scale(tb[i], alpha_cols[j]))
        if not vec_is_zero(v):
            prop.append(Violation((i, j), v, "twist-proportionality"))
    return TauWitness(
        tau,
        VerificationReport("tau-annihilates-brackets", n_pairs, tuple(kill)),
        VerificationReport("tau-beta-symmetry", n_pairs, tuple(sym)),
        VerificationReport("tau-twist-proportionality", n_pairs, tuple(prop)),
    )


def induce_tau(
    A: BiHomLieSuperalgebra, tau: LinearForm, override: bool = False
) -> ThreeBiHomLieSuperalgebra:
    """Construct the induced ternary algebra (g, [.,.,.]_tau, alpha, beta).

    Refuses to build when the induction conditions fail, unless ``override``
    is set, in which case the bracket formula is still applied but nothing is
    guaranteed about the result.  The induced algebra is returned with the
    ``multiplicative`` claim unset.
    """
    witness = check_tau_conditions(A, tau)
    if not witness.satisfied and not override:
        raise PreconditionError(
            "form does not satisfy the induction conditions (pass override=True to force)",
            details=witness,
        )
    ident = GradedMap.identity(A.space)
    values = _tau_expansion(A.space, A.bracket.contract([ident, ident]), tau.coefficients)
    # Parity additivity of the entries is rechecked by the tensor constructor;
    # it holds automatically because tau vanishes on the odd part.
    tensor = StructureTensor3.from_values(A.space, values)
    return ThreeBiHomLieSuperalgebra(A.space, tensor, A.alpha, A.beta, multiplicative=False)


def _tau_expansion(space: SuperSpace, pairs: dict, scalars) -> dict:
    """The Koszul-signed three-term sum behind the induced bracket, on every basis triple at once:

        s(x) B(y, z) - (-1)^{|x||y|} s(y) B(x, z) + (-1)^{|z|(|x|+|y|)} s(z) B(x, y)

    for scalars s (one per basis element) and a bilinear B given by its values
    ``pairs`` = {(a, b): {k: c}} on basis pairs, as
    :meth:`StructureTensor.contract` returns them.  Each value of B is placed
    in the three slot positions of every index in the support of s, so the
    cost follows the entries of B times that support.  The induced bracket and
    both transfer criteria are this sum.
    """
    P = space.parities
    support = [(s, c) for s, c in enumerate(scalars) if c]
    out: dict[tuple[int, ...], dict] = {}
    for (a, b), image in pairs.items():
        for s, c in support:
            add_image(out, (s, a, b), image, c)
            add_image(out, (a, s, b), image, -ksign(P[a] * P[s]) * c)
            add_image(out, (a, b, s), image, ksign(P[s] * (P[a] + P[b])) * c)
    return out


def bracket_annihilating_forms(A: BiHomLieSuperalgebra) -> list[LinearForm]:
    """Basis of the space of forms killing all brackets and the odd part.

    Convenience for fixture hunting: the annihilation condition is the only
    linear one among the induction conditions, so its solution space can be
    computed exactly.  The returned forms still need the other two conditions
    checked before inducing.  The rows are the bracket's nonzero images on
    basis pairs and one unit row per odd index.
    """
    ident = GradedMap.identity(A.space)
    rows = list(A.bracket.contract([ident, ident]).values())
    rows += ({i: 1} for i in A.space.indices() if A.space.parity(i) == 1)
    return [LinearForm(A.space, v) for v in kernel_basis(rows, A.space.dim)]
