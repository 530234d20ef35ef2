"""Twisted derivations, quasiderivations, and their exact solution spaces.

A map D of parity |D| is an (s, r)-derivation of a ternary bracket when it
commutes with both structure maps and satisfies, with M = alpha^s beta^r,

    D([x, y, z]) = [D(x), M(y), M(z)]
                 + (-1)^{|x||D|} [M(x), D(y), M(z)]
                 + (-1)^{|D|(|x|+|y|)} [M(x), M(y), D(z)].

The two-slot analogue for binary brackets drops the last insertion.  All of
these conditions are linear in the entries of D, so each derivation space is
the kernel of an exactly assembled constraint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    BiHomLieSuperalgebra,
    ThreeBiHomLieSuperalgebra,
    VerificationReport,
    Violation,
    _collect,
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
    ksign,
    signed_slot_expansion,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from .linalg import kernel_basis, solve_linear

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


def _require_homogeneous(D: GradedMap) -> None:
    # GradedMap is homogeneous by construction; this guards parity values only.
    if D.parity not in (EVEN, ODD):
        raise ParityError("derivation candidate must be homogeneous")


def _insertions(P, t: tuple[int, ...], q: int) -> list[tuple[int, int]]:
    """The signed-insertion terms of the Leibniz rule at the basis tuple ``t``.

    One (slot, sign) pair per slot p: D moves past the arguments before p,
    so the sign is (-1)^{|D| (|x_1| + ... + |x_{p-1}|)}.
    """
    return [(p, ksign(q * sum(P[i] for i in t[:p]))) for p in range(len(t))]


def _leibniz_sum(A, Dcol, Mcol, t, q) -> Vector:
    """sum over slots p of sign_p [M x_1, ..., D x_p, ..., M x_n] at the tuple ``t``."""
    acc = None
    for p, sign in _insertions(A.space.parities, t, q):
        term = A.bracket.bracket(*(Dcol[i] if n == p else Mcol[i] for n, i in enumerate(t)))
        if acc is None:
            acc = term  # slot 0: D passes no argument, the sign is +1
        else:
            acc = vec_add(acc, term) if sign > 0 else vec_sub(acc, term)
    return acc


def _is_derivation(A, D: GradedMap, s: int, r: int, identity: str, fail_fast: bool) -> VerificationReport:
    _require_homogeneous(D)
    M = twist_power(A.alpha, A.beta, s, r)
    violations = list(_commutation_violations(D, {"alpha": A.alpha, "beta": A.beta}))
    total = 2 * A.space.dim
    if not (fail_fast and violations):
        Dcol = [D.column(i) for i in A.space.indices()]
        Mcol = [M.column(i) for i in A.space.indices()]
        for t in basis_tuples(A.space, A.bracket.arity):
            total += 1
            res = vec_sub(D.apply(A.bracket.bracket_basis(*t)), _leibniz_sum(A, Dcol, Mcol, t, D.parity))
            if not vec_is_zero(res):
                violations.append(Violation(t, res, "leibniz"))
                if fail_fast:
                    break
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


def _allowed_slots(space, parity: int) -> list[tuple[int, int]]:
    """Matrix positions (k, i) a parity-homogeneous map may populate."""
    return [
        (k, i)
        for k in space.indices()
        for i in space.indices()
        if space.parity(k) == (space.parity(i) + parity) % 2
    ]


def _slots_to_map(space, parity: int, slots: list[tuple[int, int]], values: Vector) -> GradedMap:
    rows = [[ZERO] * space.dim for _ in range(space.dim)]
    for (k, i), v in zip(slots, values):
        rows[k][i] = v
    return GradedMap(space, tuple(tuple(r) for r in rows), parity)


def _commutation_rows(space, m: GradedMap, slots, index_of) -> list[list]:
    """Rows expressing (D m - m D)[k][i] = 0 over the unknown slots of D."""
    rows = []
    for k in space.indices():
        for i in space.indices():
            row = [ZERO] * len(slots)
            touched = False
            for t in space.indices():
                pos = index_of.get((k, t))
                if pos is not None and m.matrix[t][i] != 0:
                    row[pos] += m.matrix[t][i]
                    touched = True
                pos = index_of.get((t, i))
                if pos is not None and m.matrix[k][t] != 0:
                    row[pos] -= m.matrix[k][t]
                    touched = True
            if touched:
                rows.append(row)
    return rows


def _leibniz_rows(A, M, parity, slots, index_of) -> list[list]:
    """The Leibniz rule linearised in D: one row per (basis tuple, component).

    Each signed insertion [M x_1, ..., D x_p, ..., M x_n] is the column x_p of
    D pushed through the partial matrix with the M-images fixed around slot p.
    """
    idx = A.space.indices()
    Mcol = [M.column(i) for i in idx]
    rows = []
    for t in basis_tuples(A.space, A.bracket.arity):
        bval = A.bracket.bracket_basis(*t)
        terms = [
            (t[p], sign, A.bracket.partial_matrix(p, *(Mcol[i] for n, i in enumerate(t) if n != p)))
            for p, sign in _insertions(A.space.parities, t, parity)
        ]
        for k in idx:
            row = [ZERO] * len(slots)
            touched = False
            for m in idx:
                pos = index_of.get((k, m))
                if pos is not None and bval[m] != 0:
                    row[pos] += bval[m]
                    touched = True
                for column, sign, left in terms:
                    if left[k][m] != 0:
                        pos = index_of.get((m, column))
                        if pos is not None:
                            row[pos] -= sign * left[k][m]
                            touched = True
            if touched:
                rows.append(row)
    return rows


def _solve_derivation_space(A, query: DerivationQuery, verify) -> DerivationSpace:
    """Kernel of the commutation and Leibniz rows; ``verify`` re-checks each basis map."""
    slots = _allowed_slots(A.space, query.parity)
    index_of = {slot: n for n, slot in enumerate(slots)}
    M = twist_power(A.alpha, A.beta, query.s, query.r)
    rows = _commutation_rows(A.space, A.alpha, slots, index_of)
    rows += _commutation_rows(A.space, A.beta, slots, index_of)
    rows += _leibniz_rows(A, M, query.parity, slots, index_of)
    basis_vectors = kernel_basis(rows, len(slots))
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


def _quasiderivation_witness(space, parity, alpha, beta, rhs_rows, rhs_vals):
    slots = _allowed_slots(space, parity)
    index_of = {slot: n for n, slot in enumerate(slots)}
    rows = _commutation_rows(space, alpha, slots, index_of)
    rows += _commutation_rows(space, beta, slots, index_of)
    rhs = [ZERO] * len(rows)
    for lhs_coeffs, value in zip(rhs_rows, rhs_vals):
        row = [ZERO] * len(slots)
        for (k, m), coeff in lhs_coeffs.items():
            pos = index_of.get((k, m))
            # Entries at forbidden-parity positions are identically zero for a
            # homogeneous unknown, so their coefficients drop out of the row.
            if pos is not None:
                row[pos] += coeff
        rows.append(row)
        rhs.append(value)
    solution = solve_linear(rows, rhs, len(slots))
    if solution is None:
        return None
    return _slots_to_map(space, parity, slots, solution)


def _is_quasiderivation(A, D: GradedMap, s: int, r: int) -> tuple[bool, GradedMap | None]:
    comm = list(_commutation_violations(D, {"alpha": A.alpha, "beta": A.beta}))
    if comm:
        raise PreconditionError(
            "candidate does not commute with the structure maps", details=comm
        )
    M = twist_power(A.alpha, A.beta, s, r)
    Dcol = [D.column(i) for i in A.space.indices()]
    Mcol = [M.column(i) for i in A.space.indices()]
    rhs_rows = []
    rhs_vals = []
    targets = {}
    for t in basis_tuples(A.space, A.bracket.arity):
        target = _leibniz_sum(A, Dcol, Mcol, t, D.parity)
        targets[t] = target
        bval = A.bracket.bracket_basis(*t)
        for k in A.space.indices():
            coeffs = {(k, m): bval[m] for m in A.space.indices() if bval[m] != 0}
            rhs_rows.append(coeffs)
            rhs_vals.append(target[k])
    witness = _quasiderivation_witness(A.space, D.parity, A.alpha, A.beta, rhs_rows, rhs_vals)
    if witness is None:
        return False, None
    for t, target in targets.items():
        got = witness.apply(A.bracket.bracket_basis(*t))
        if not vec_is_zero(vec_sub(got, target)):
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
    P = A.space.parities
    tD = [tau.apply(D.column(i)) for i in A.space.indices()]

    def gen():
        for i in A.space.indices():
            yield (i,), "form-invariance", (tau.apply(M.column(i)) - tau.of_basis(i),)
        for i, j, l in basis_tuples(A.space, 3):
            w = signed_slot_expansion(
                (tD[i], tD[j], tD[l]),
                (
                    A.bracket.bracket_basis(j, l),
                    A.bracket.bracket_basis(i, l),
                    A.bracket.bracket_basis(i, j),
                ),
                (P[i], P[j], P[l]),
            )
            yield (i, j, l), "signed-cyclic-sum", w

    return _collect("derivation-transfer-conditions", gen(), False)


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
