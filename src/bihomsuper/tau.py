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
    LinearForm,
    PreconditionError,
    StructureTensor3,
    basis_tuples,
    signed_slot_expansion,
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
    kill = []
    sym = []
    prop = []
    n_pairs = 0
    for i, j in basis_tuples(A.space, 2):
        n_pairs += 1
        k = tau.apply(A.bracket.bracket_basis(i, j))
        if k != 0:
            kill.append(Violation((i, j), (k,), "bracket-annihilation"))
        s = t[i] * tau.apply(A.beta.column(j)) - t[j] * tau.apply(A.beta.column(i))
        if s != 0:
            sym.append(Violation((i, j), (s,), "beta-symmetry"))
        v = vec_sub(
            vec_scale(tau.apply(A.alpha.column(i)), A.beta.column(j)),
            vec_scale(tau.apply(A.beta.column(i)), A.alpha.column(j)),
        )
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
    t = tau.coefficients
    P = A.space.parities
    entries: dict[tuple[int, int, int, int], object] = {}
    for i, j, l in basis_tuples(A.space, 3):
        if t[i] == 0 and t[j] == 0 and t[l] == 0:
            continue
        w = signed_slot_expansion(
            (t[i], t[j], t[l]),
            (
                A.bracket.bracket_basis(j, l),
                A.bracket.bracket_basis(i, l),
                A.bracket.bracket_basis(i, j),
            ),
            (P[i], P[j], P[l]),
        )
        for k, c in enumerate(w):
            if c != 0:
                entries[(i, j, l, k)] = c
    # Parity additivity of the entries is rechecked by the tensor constructor;
    # it holds automatically because tau vanishes on the odd part.
    tensor = StructureTensor3.from_dict(A.space, entries)
    return ThreeBiHomLieSuperalgebra(A.space, tensor, A.alpha, A.beta, multiplicative=False)


def bracket_annihilating_forms(A: BiHomLieSuperalgebra) -> list[LinearForm]:
    """Basis of the space of forms killing all brackets and the odd part.

    Convenience for fixture hunting: the annihilation condition is the only
    linear one among the induction conditions, so its solution space can be
    computed exactly.  The returned forms still need the other two conditions
    checked before inducing.
    """
    dim = A.space.dim
    rows = []
    for i, j in basis_tuples(A.space, 2):
        rows.append(list(A.bracket.bracket_basis(i, j)))
    for i in A.space.indices():
        if A.space.parity(i) == 1:
            rows.append([1 if m == i else 0 for m in range(dim)])
    return [LinearForm(A.space, v) for v in kernel_basis(rows, dim)]
