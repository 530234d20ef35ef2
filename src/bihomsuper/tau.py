"""Building a ternary bracket from a binary one and a linear form.

Given a binary algebra (g, [.,.], alpha, beta) and a linear form tau that
vanishes on the odd part, the induced ternary bracket is

    [x, y, z]_tau = tau(x) [y, z]
                  - (-1)^{|x||y|} tau(y) [x, z]
                  + (-1)^{|z|(|x|+|y|)} tau(z) [x, y].

The induced algebra satisfies the ternary twisted axioms whenever tau kills
all brackets, tau(x) tau(beta(y)) is symmetric in (x, y), and
tau(alpha(x)) beta(y) = tau(beta(x)) alpha(y) as vectors.  Checking those
three conditions, and constructing the tensor, both live here, on sparse
data: annihilation is tau on the bracket's contraction, the other two come
from the supports of tau, tau o alpha and tau o beta and the twist columns.
The tensor comes from one sparse expansion over the bracket entries and the
support of tau (:func:`_tau_expansion`), which the transfer criteria share.
:func:`induce_tau` checks the conditions and then builds the tensor
(:func:`_induced_algebra`); a caller that has just checked them builds it
directly, so each check runs the conditions once, in
:func:`_require_tau_conditions`: a failing form is refused with its
:class:`TauWitness`, whose reports list every failing basis pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebras import (
    BiHomLieSuperalgebra,
    ThreeBiHomLieSuperalgebra,
    VerificationReport,
    _report,
    _rules_block,
)
from .core import (
    GradedMap,
    LinearForm,
    PreconditionError,
    StructureTensor3,
    SuperSpace,
    add_image,
    dense,
    ksign,
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
        return all(rep.passed for rep in self.reports())

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
    ident = GradedMap.identity(A.space)
    kill = {pair: {0: tau.apply(dense(image, A.dim))} for pair, image in A.bracket.contract([ident] * 2).items()}
    forms = (tau, tau.compose(A.alpha), tau.compose(A.beta))
    t, ta, tb = ([(i, c) for i, c in enumerate(f.coefficients) if c] for f in forms)  # their supports
    sym, prop = {}, {}
    for (i, a), (j, b) in itertools.product(t, tb):
        add_image(sym, (i, j), {0: a * b})
        add_image(sym, (j, i), {0: a * b}, -1)
    for form, m, sign in ((ta, A.beta, 1), (tb, A.alpha, -1)):
        for (i, c), (j, column) in itertools.product(form, enumerate(m._cols)):
            add_image(prop, (i, j), dict(column), sign * c / m._d)
    conditions = (("tau-annihilates-brackets", "bracket-annihilation", kill, 1),
                  ("tau-beta-symmetry", "beta-symmetry", sym, 1),
                  ("tau-twist-proportionality", "twist-proportionality", prop, A.dim))
    return TauWitness(tau, *(_report(identity, A.dim, [_rules_block(2, [(rule, images)], size)], False)
                             for identity, rule, images, size in conditions))


def induce_tau(
    A: BiHomLieSuperalgebra, tau: LinearForm, override: bool = False
) -> ThreeBiHomLieSuperalgebra:
    """Construct the induced ternary algebra (g, [.,.,.]_tau, alpha, beta).

    Refuses to build when the induction conditions fail, unless ``override``
    is set, in which case the bracket formula is still applied but nothing is
    guaranteed about the result.  The induced algebra is returned with the
    ``multiplicative`` claim unset.
    """
    message = "form does not satisfy the induction conditions (pass override=True to force)"
    _require_tau_conditions(A, tau, message, override)
    return _induced_algebra(A, tau)


def _require_tau_conditions(
    A: BiHomLieSuperalgebra, tau: LinearForm, message: str = "form fails the induction conditions",
    override: bool = False,
) -> None:
    """Check the three induction conditions once; unless they hold or ``override`` is set,
    refuse with a PreconditionError carrying the :class:`TauWitness` and its three reports."""
    witness = check_tau_conditions(A, tau)
    if not (witness.satisfied or override):
        raise PreconditionError(message, details=witness)


def _induced_algebra(A: BiHomLieSuperalgebra, tau: LinearForm) -> ThreeBiHomLieSuperalgebra:
    """The induced algebra of :func:`induce_tau`, built without checking the conditions.

    For callers that already hold a satisfied :class:`TauWitness` for ``tau``,
    or that build an unverified tensor on purpose.
    """
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

    Convenience for fixture hunting: the annihilation condition is linear in
    tau, so its solution space is computed exactly.  Twist-proportionality is
    linear in tau too but is not imposed here; it and beta-symmetry, which is
    not linear, must still be checked before inducing.  The rows are the
    bracket's nonzero images on basis pairs and one unit row per odd index.
    """
    ident = GradedMap.identity(A.space)
    rows = list(A.bracket.contract([ident, ident]).values())
    rows += ({i: 1} for i in A.space.indices() if A.space.parity(i) == 1)
    return [LinearForm(A.space, v) for v in kernel_basis(rows, A.space.dim)]
