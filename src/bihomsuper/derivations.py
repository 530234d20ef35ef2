"""Twisted derivations, quasiderivations, and their exact solution spaces.

A map D of parity |D| is an (s, r)-derivation of a ternary bracket when it
commutes with both structure maps and satisfies, with M = alpha^s beta^r,

    D([x, y, z]) = [D(x), M(y), M(z)]
                 + (-1)^{|x||D|} [M(x), D(y), M(z)]
                 + (-1)^{|D|(|x|+|y|)} [M(x), M(y), D(z)].

The two-slot analogue for binary brackets drops the last insertion.  All of
these conditions are linear in the entries of D.  The rule is linearised once
(:func:`_leibniz_rows`): per basis tuple and component it gives the row of
X |-> X([x_1, ..., x_n]) and the row of the signed insertions of X.  Their
difference, with the commutation rows, is the constraint matrix whose kernel is
the derivation space; for a quasiderivation D the first row is the system row
of the companion map and the second, applied to D, its right-hand side.

The verifiers evaluate the rule a second, independent way
(:func:`_leibniz_residuals`): the residual on every basis tuple at once, as D
after the bracket minus, per slot, the bracket contracted against
(M, ..., D, ..., M), the maps before D carrying its Koszul signs
(:func:`bihomsuper.core.contraction_sum`).  The cost
follows the nonzeros of the bracket and the maps rather than dim ** arity;
reports list the failing tuples in lexicographic order with dense residuals
and count every tuple, as a walk over all of them would.  Each solved basis
map and each companion witness is re-checked this way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    BiHomLieSuperalgebra,
    ThreeBiHomLieSuperalgebra,
    VerificationReport,
    Violation,
    _report,
    _rules_block,
    _walk_order,
)
from .core import (
    EVEN,
    ODD,
    ZERO,
    DimensionError,
    GradedMap,
    LinearForm,
    ParityError,
    PreconditionError,
    TheoremContradictionError,
    Vector,
    basis_tuples,
    contraction_sum,
    dense,
    ksign,
    vec_is_zero,
)
from .linalg import kernel_basis, solve_linear
from .tau import _tau_expansion

__all__ = [
    "DerivationQuery",
    "DerivationSpace",
    "twist_power",
    "is_derivation_2",
    "is_derivation_3",
    "solve_derivation_space",
    "solve_derivation_space_2",
    "supercommutator",
    "is_quasiderivation_2",
    "is_quasiderivation_3",
    "check_derivation_transfer",
    "check_quasiderivation_transfer",
]


@dataclass(frozen=True)
class DerivationQuery:
    """Which twisted derivation space to solve for: powers (s, r) and a parity."""

    s: int
    r: int
    parity: int = EVEN

    def __post_init__(self) -> None:
        if self.s < 0 or self.r < 0:
            raise ValueError("twist powers must be non-negative")
        if self.parity not in (EVEN, ODD):
            raise ParityError("query parity must be 0 or 1")


@dataclass(frozen=True)
class DerivationSpace:
    """An exact basis of one twisted derivation space."""

    query: DerivationQuery
    basis: tuple[GradedMap, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def twist_power(alpha: GradedMap, beta: GradedMap, s: int, r: int) -> GradedMap:
    """The composite alpha^s beta^r (an even map when alpha and beta are even)."""
    return alpha.power(s).compose(beta.power(r))


def _commutation_violations(D: GradedMap, maps: dict[str, GradedMap]):
    for name, m in maps.items():
        delta = D.compose(m).sub(m.compose(D))
        for i in m.space.indices():
            col = delta.column(i)
            if not vec_is_zero(col):
                yield Violation((i,), col, f"commutes-with-{name}")


def _insertion_sign(P, t: tuple[int, ...], p: int, q: int) -> int:
    """Sign of the insertion of D (parity ``q``) in slot ``p`` at the basis tuple ``t``.

    D moves past the arguments before p, so the sign is
    (-1)^{|D| (|x_1| + ... + |x_{p-1}|)}.
    """
    return ksign(q * sum(P[i] for i in t[:p]))


def _leibniz_residuals(A, X: GradedMap, D: GradedMap, M: GradedMap) -> dict[tuple[int, ...], Vector]:
    """Nonzero residuals X([x_1, ..., x_n]) - sum_p sign_p [M x_1, ..., D x_p, ..., M x_n].

    Evaluated for every basis tuple in one sparse pass: X after the bracket,
    minus, per slot p, the bracket contracted against (M', ..., M', D, M, ...,
    M) with D in slot p.  M' = M S^|D|, S the parity operator e_i |-> (-1)^{|e_i|} e_i,
    puts the Koszul sign (-1)^{|D| (|x_1| + ... + |x_{p-1}|)} into the
    arguments D moves past.  Tuples whose residual vanishes are left out.
    """
    n, dim = A.bracket.arity, A.space.dim
    signed = M.compose(GradedMap.diagonal(A.space, [ksign(q) for q in A.space.parities])) if D.parity else M
    terms = [(1, A.bracket, [GradedMap.identity(A.space)] * n, X)]
    terms += [(-1, A.bracket, [signed] * p + [D] + [M] * (n - 1 - p), None) for p in range(n)]
    return {t: dense(image, dim) for t, image in contraction_sum(terms).items() if any(image.values())}


def _is_derivation(A, D: GradedMap, s: int, r: int, identity: str, fail_fast: bool) -> VerificationReport:
    M = twist_power(A.alpha, A.beta, s, r)
    violations = list(_commutation_violations(D, {"alpha": A.alpha, "beta": A.beta}))
    dim = A.space.dim
    total = 2 * dim
    if not (fail_fast and violations):
        residuals = _leibniz_residuals(A, D, D, M)
        block = (A.bracket.arity, 1, {(t, 0): (res, "leibniz") for t, res in residuals.items()})
        found, count = _walk_order(block, dim, fail_fast)
        violations += found
        total += count
    return VerificationReport(identity, total, tuple(violations))


def is_derivation_2(
    A: BiHomLieSuperalgebra, D: GradedMap, s: int, r: int, fail_fast: bool = False
) -> VerificationReport:
    """Check the two-slot twisted Leibniz rule plus commutation with the twists."""
    return _is_derivation(A, D, s, r, "binary-twisted-derivation", fail_fast)


def is_derivation_3(
    A: ThreeBiHomLieSuperalgebra, D: GradedMap, s: int, r: int, fail_fast: bool = False
) -> VerificationReport:
    """Check the three-slot twisted Leibniz rule plus commutation with the twists."""
    return _is_derivation(A, D, s, r, "ternary-twisted-derivation", fail_fast)


def _slots_to_map(space, parity: int, slots: list[tuple[int, int]], values: Vector) -> GradedMap:
    rows = [[ZERO] * space.dim for _ in range(space.dim)]
    for (k, i), v in zip(slots, values):
        rows[k][i] = v
    return GradedMap(space, tuple(tuple(r) for r in rows), parity)


def _add_coeff(row: dict[int, object], pos: int | None, coeff) -> None:
    # Entries at forbidden-parity positions are identically zero for a
    # homogeneous unknown, so their coefficients drop out of the row.
    if pos is not None:
        row[pos] = row.get(pos, ZERO) + coeff


def _commuting_system(A, parity: int):
    """The unknowns of a homogeneous map X of the given parity commuting with the twists.

    Returns the parity-allowed matrix positions (k, i), their positions in the
    unknown vector, and one sparse row {position: coefficient} per entry of
    X m - m X for m = alpha, beta that involves any unknown.
    """
    space = A.space
    idx = space.indices()
    slots = [(k, i) for k in idx for i in idx if space.parity(k) == (space.parity(i) + parity) % 2]
    index_of = {slot: n for n, slot in enumerate(slots)}
    rows = []
    for m in (A.alpha, A.beta):
        for k in idx:
            for i in idx:
                row: dict[int, object] = {}
                for t in idx:
                    if m.matrix[t][i] != 0:
                        _add_coeff(row, index_of.get((k, t)), m.matrix[t][i])
                    if m.matrix[k][t] != 0:
                        _add_coeff(row, index_of.get((t, i)), -m.matrix[k][t])
                if row:
                    rows.append(row)
    return slots, index_of, rows


def _leibniz_rows(A, M, parity, index_of):
    """The twisted Leibniz rule linearised in the unknown map X.

    Yields, per (basis tuple, component k), two sparse rows over the unknowns:
    the row of X |-> X([x_1, ..., x_n])_k and the row of the signed insertions
    X |-> sum_p sign_p [M x_1, ..., X x_p, ..., M x_n]_k.  Each insertion is the
    column x_p of X pushed through the partial matrix with the M-images fixed
    around slot p.
    """
    idx = A.space.indices()
    Mcol = [M.column(i) for i in idx]
    for t in basis_tuples(A.space, A.bracket.arity):
        bval = A.bracket.bracket_basis(*t)
        terms = [
            (
                t[p],
                _insertion_sign(A.space.parities, t, p, parity),
                A.bracket.partial_matrix(p, *(Mcol[i] for n, i in enumerate(t) if n != p)),
            )
            for p in range(len(t))
        ]
        for k in idx:
            bracket_row: dict[int, object] = {}
            insertion_row: dict[int, object] = {}
            for m in idx:
                if bval[m] != 0:
                    _add_coeff(bracket_row, index_of.get((k, m)), bval[m])
                for column, sign, left in terms:
                    if left[k][m] != 0:
                        _add_coeff(insertion_row, index_of.get((m, column)), sign * left[k][m])
            yield bracket_row, insertion_row


def _dense(row: dict[int, object], ncols: int) -> list:
    out = [ZERO] * ncols
    for pos, coeff in row.items():
        out[pos] = coeff
    return out


def _solve_derivation_space(A, query: DerivationQuery, verify) -> DerivationSpace:
    """Kernel of the commutation and Leibniz rows; ``verify`` re-checks each basis map."""
    slots, index_of, rows = _commuting_system(A, query.parity)
    M = twist_power(A.alpha, A.beta, query.s, query.r)
    for bracket_row, insertion_row in _leibniz_rows(A, M, query.parity, index_of):
        if bracket_row or insertion_row:
            for pos, coeff in insertion_row.items():
                bracket_row[pos] = bracket_row.get(pos, ZERO) - coeff
            rows.append(bracket_row)
    basis_vectors = kernel_basis([_dense(row, len(slots)) for row in rows], len(slots))
    basis = tuple(_slots_to_map(A.space, query.parity, slots, v) for v in basis_vectors)
    for D in basis:
        rep = verify(A, D, query.s, query.r)
        if not rep.passed:
            raise TheoremContradictionError(
                f"solver produced a non-derivation: {rep.summary()}"
            )
    return DerivationSpace(query, basis)


def solve_derivation_space(
    A: ThreeBiHomLieSuperalgebra, query: DerivationQuery
) -> DerivationSpace:
    """Exact basis of the (s, r)-derivation space of the given parity.

    Assembles the commutation and Leibniz constraints as one linear system
    over the parity-allowed matrix entries and returns its kernel, reshaped to
    maps.  Every returned basis element is re-verified against
    :func:`is_derivation_3`.
    """
    return _solve_derivation_space(A, query, is_derivation_3)


def solve_derivation_space_2(
    A: BiHomLieSuperalgebra, query: DerivationQuery
) -> DerivationSpace:
    """Binary-bracket analogue of :func:`solve_derivation_space`."""
    return _solve_derivation_space(A, query, is_derivation_2)


def supercommutator(D: GradedMap, D2: GradedMap) -> GradedMap:
    """[D, D2] = D D2 - (-1)^{|D||D2|} D2 D; parity adds mod 2."""
    if D.space != D2.space:
        raise DimensionError("supercommutator of maps on different spaces")
    sign = ksign(D.parity * D2.parity)
    return D.compose(D2).sub(D2.compose(D).scale(sign))


def _is_quasiderivation(A, D: GradedMap, s: int, r: int) -> tuple[bool, GradedMap | None]:
    comm = list(_commutation_violations(D, {"alpha": A.alpha, "beta": A.beta}))
    if comm:
        raise PreconditionError(
            "candidate does not commute with the structure maps", details=comm
        )
    slots, index_of, rows = _commuting_system(A, D.parity)
    rhs = [ZERO] * len(rows)
    M = twist_power(A.alpha, A.beta, s, r)
    Dvec = [D.matrix[k][i] for k, i in slots]
    for bracket_row, insertion_row in _leibniz_rows(A, M, D.parity, index_of):
        target = sum((c * Dvec[pos] for pos, c in insertion_row.items()), ZERO)
        if bracket_row or target != 0:
            rows.append(bracket_row)
            rhs.append(target)
    solution = solve_linear([_dense(row, len(slots)) for row in rows], rhs, len(slots))
    if solution is None:
        return False, None
    witness = _slots_to_map(A.space, D.parity, slots, solution)
    # Cross-check by substitution against the contraction-based Leibniz residual.
    if _leibniz_residuals(A, witness, D, M):
        raise TheoremContradictionError("quasiderivation witness failed substitution")
    return True, witness


def is_quasiderivation_3(
    A: ThreeBiHomLieSuperalgebra, D: GradedMap, s: int, r: int
) -> tuple[bool, GradedMap | None]:
    """Decide whether D is an (s, r)-quasiderivation; return a companion map.

    D must commute with the structure maps.  The companion D' (also commuting
    with the structure maps, same parity as D) must satisfy

        D'([x, y, z]) = [D(x), M(y), M(z)] + signed insertions of D in the
                        remaining slots,

    which is an affine linear system in the entries of D'.  Returns
    (True, witness) with the deterministic minimal-support solution, or
    (False, None) when the system is inconsistent.  The witness is re-verified
    by substitution before being returned.
    """
    return _is_quasiderivation(A, D, s, r)


def is_quasiderivation_2(
    A: BiHomLieSuperalgebra, D: GradedMap, s: int, r: int
) -> tuple[bool, GradedMap | None]:
    """Two-slot analogue of :func:`is_quasiderivation_3`."""
    return _is_quasiderivation(A, D, s, r)


def _transfer_conditions(
    A: BiHomLieSuperalgebra, tau: LinearForm, D: GradedMap, s: int, r: int
) -> VerificationReport:
    """The two conditions under which a binary derivation survives induction.

    Per basis triple, the Koszul-signed three-term sum of tau(D(slot)) times
    the bracket of the remaining pair must vanish; additionally tau must be
    invariant under alpha^s beta^r.
    """
    M = twist_power(A.alpha, A.beta, s, r)
    ident = GradedMap.identity(A.space)
    invariance = {(i,): {0: tau.apply(M.column(i)) - tau.of_basis(i)} for i in A.space.indices()}
    tD = [tau.apply(D.column(i)) for i in A.space.indices()]
    cyclic = _tau_expansion(A.space, A.bracket.contract([ident, ident]), tD)
    blocks = [_rules_block(1, [("form-invariance", invariance)], 1),
              _rules_block(3, [("signed-cyclic-sum", cyclic)], A.space.dim)]
    return _report("derivation-transfer-conditions", A.space.dim, blocks, False)


def check_derivation_transfer(
    A: BiHomLieSuperalgebra, tau: LinearForm, D: GradedMap, s: int, r: int
) -> tuple[bool, VerificationReport]:
    """Transfer of a binary (s, r)-derivation to the induced ternary algebra.

    Preconditions: D is a binary (s, r)-derivation of A and tau satisfies the
    induction conditions.  When the two transfer conditions hold, D is
    asserted (by exhaustive re-verification) to be an (s, r)-derivation of the
    induced algebra; a failure there would contradict the supporting theory
    and raises :class:`TheoremContradictionError`.
    """
    from .tau import check_tau_conditions, induce_tau

    base = is_derivation_2(A, D, s, r)
    if not base.passed:
        raise PreconditionError("map is not a binary twisted derivation", details=base)
    witness = check_tau_conditions(A, tau)
    if not witness.satisfied:
        raise PreconditionError("form fails the induction conditions", details=witness)
    conditions = _transfer_conditions(A, tau, D, s, r)
    if not conditions.passed:
        return False, conditions
    induced = induce_tau(A, tau)
    rep = is_derivation_3(induced, D, s, r)
    if not rep.passed:
        raise TheoremContradictionError(
            f"transfer conditions held but induced check failed: {rep.summary()}"
        )
    return True, conditions


def check_quasiderivation_transfer(
    A: BiHomLieSuperalgebra, tau: LinearForm, D: GradedMap, s: int, r: int
) -> tuple[bool, VerificationReport]:
    """Quasiderivation analogue of :func:`check_derivation_transfer`.

    The conclusion (D is a quasiderivation of the induced algebra) is checked
    empirically by running the exact solver rather than assumed; the report
    notes record this.
    """
    from .tau import check_tau_conditions, induce_tau

    ok, _ = is_quasiderivation_2(A, D, s, r)
    if not ok:
        raise PreconditionError("map is not a binary twisted quasiderivation")
    witness = check_tau_conditions(A, tau)
    if not witness.satisfied:
        raise PreconditionError("form fails the induction conditions", details=witness)
    conditions = _transfer_conditions(A, tau, D, s, r)
    note = (
        "conclusion verified empirically by solving for a companion map on the "
        "induced algebra",
    )
    conditions = VerificationReport(
        conditions.identity, conditions.total, conditions.violations, note
    )
    if not conditions.passed:
        return False, conditions
    induced = induce_tau(A, tau)
    ok3, _ = is_quasiderivation_3(induced, D, s, r)
    if not ok3:
        raise TheoremContradictionError(
            "transfer conditions held but no companion map exists on the induced algebra"
        )
    return True, conditions
