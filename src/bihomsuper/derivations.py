"""Twisted derivations, quasiderivations, and their exact solution spaces.

A map D of parity |D| is an (s, r)-derivation of a ternary bracket when it
commutes with both structure maps and satisfies, with M = alpha^s beta^r,

    D([x, y, z]) = [D(x), M(y), M(z)]
                 + (-1)^{|x||D|} [M(x), D(y), M(z)]
                 + (-1)^{|D|(|x|+|y|)} [M(x), M(y), D(z)].

The two-slot analogue for binary brackets drops the last insertion.

The rule is written once, as contraction terms (:func:`_leibniz_terms`): D
after the bracket minus, per slot, the bracket contracted against (M, ..., D,
..., M), the maps before D carrying its Koszul signs.  Two evaluators read it.
:func:`bihomsuper.core.contraction_sum` evaluates it on every basis tuple at
once for the verifiers, at a cost that follows the nonzeros rather than
dim ** arity; reports list the failing tuples in lexicographic order and count
every tuple, as a walk over all of them would.  :func:`_linearise` reads the
same terms in ints, with the unknown map in place of D (derivation spaces) or
of the outer map (companions): the solvers' int rows, one denominator a system.
Commutation with the twists is read from :func:`bihomsuper.core.commutator_terms`
the same way: evaluated for the verifiers' ``commutes-with-*`` rules and
linearised into the solvers' first int rows.  Each solved basis map and each
companion witness is re-checked by evaluation.  Each refusal carries its
report: a candidate's ``twist-commutation``, a failing base derivation's, or
a failing form's :class:`TauWitness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebras import (
    BiHomLieSuperalgebra,
    ThreeBiHomLieSuperalgebra,
    VerificationReport,
    _commutation_blocks,
    _confirm,
    _report,
    _require,
    _require_commuting_twists,
    _rules_block,
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
    commutator_terms,
    contraction_sum,
    ksign,
)
from .linalg import kernel_basis, solve_linear
from .tau import _induced_algebra, _require_tau_conditions, _tau_expansion

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


def _twist(A, s: int, r: int, parity: int = EVEN) -> GradedMap:
    """alpha^s beta^r, times S when ``parity`` is odd (:func:`_leibniz_terms`); built once per algebra."""
    if (s, r, parity) not in A._powers:
        A._powers[s, r, parity] = (_twist(A, s, r).compose(GradedMap.diagonal(A.space, map(ksign, A.space.parities)))
                                   if parity else twist_power(A.alpha, A.beta, s, r))
    return A._powers[s, r, parity]


def _leibniz_terms(A, X, D, s: int, r: int, parity: int) -> list:
    """X([x_1, ..., x_n]) - sum_p sign_p [M x_1, ..., D x_p, ..., M x_n] as contraction terms.

    In slot p the bracket is contracted against (M', ..., M', D, M, ..., M):
    M = alpha^s beta^r, and M' = M S^parity, S the parity operator e_i |-> (-1)^{|e_i|} e_i,
    puts the Koszul sign (-1)^{|D| (|x_1| + ... + |x_{p-1}|)} into the arguments
    D moves past, so ``parity`` is |D|.  X or D may be :data:`_UNKNOWN`.
    """
    n = A.bracket.arity
    M, signed = _twist(A, s, r), _twist(A, s, r, parity)
    terms = [(1, A.bracket, [GradedMap.identity(A.space)] * n, X)]
    terms += [(-1, A.bracket, [signed] * p + [D] + [M] * (n - 1 - p), None) for p in range(n)]
    return terms


def _is_derivation(A, D: GradedMap, s: int, r: int, identity: str, fail_fast: bool) -> VerificationReport:
    """Commutation with the twists, then the Leibniz rule; under fail-fast a failing
    commutation is reported whole and ends the report."""
    blocks = _commutation_blocks(A, D)
    if fail_fast and any(found for _, _, found in blocks):
        return _report(identity, A.space.dim, blocks, False)
    leibniz = contraction_sum(_leibniz_terms(A, D, D, s, r, D.parity))
    blocks.append(_rules_block(A.bracket.arity, [("leibniz", leibniz)], A.space.dim))
    return _report(identity, A.space.dim, blocks, fail_fast)


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
    columns: list[list[tuple[int, Fraction]]] = [[] for _ in space.indices()]
    for (k, i), c in zip(slots, values):
        columns[i].append((k, c))
    return GradedMap._of(space, parity, columns)


def _commuting_system(A, parity: int):
    """The unknowns of a homogeneous map X of the given parity commuting with the twists.

    Returns the parity-allowed matrix positions (k, i), their positions in the
    unknown vector, and one sparse row {position: int} per entry of X m - m X
    for m = alpha, beta that involves any unknown, scaled by m's denominator.
    """
    idx = A.space.indices()
    slots = [(k, i) for k in idx for i in idx if A.space.parity(k) == (A.space.parity(i) + parity) % 2]
    index_of = {slot: n for n, slot in enumerate(slots)}
    rows = []
    for m in (A.alpha, A.beta):
        by_entry: dict[tuple[int, int], dict[int, int]] = {}
        for slot, pos in index_of.items():  # forbidden entries of X are zero
            for entry, a in commutator_terms(m, *slot):
                row = by_entry.setdefault(entry, {})
                row[pos] = row.get(pos, 0) + a
        rows += (by_entry[entry] for entry in sorted(by_entry))
    return slots, index_of, rows


_UNKNOWN = object()  # the unknown map in a term list read by _linearise


def _linearise(terms, index_of: dict[tuple[int, int], int]):
    """The terms' sum as int rows over the entries of the unknown map X, their denominator d, and the terms without X.

    ``index_of`` numbers the parity-allowed positions (k, i) of X; row (t, k)
    holds d times the coefficient of e_k on the basis tuple t, d the lcm of the
    denominators of coeff / d_term over the terms with X (d_term from ``_contract_int``).
    With X as outer map, image component m at t lands on the unknown (k, m).
    With X in slot p, the term is contracted once with the identity there; its
    image at t' lands on the unknown (t'_p, i) in the row of the tuple with i in slot p.
    """
    by_column: dict[int, list] = {}
    by_row: dict[int, list] = {}
    for (k, i), pos in index_of.items():
        by_column.setdefault(i, []).append((k, pos))
        by_row.setdefault(k, []).append((i, pos))
    linear, rest = [], []
    for coeff, tensor, maps, outer in terms:
        if outer is _UNKNOWN:
            d_term, images = tensor._contract_int(maps)
            found = [(t, k, pos, c) for t, image in images.items()
                     for m, c in image.items() for k, pos in by_column.get(m, ())]
        elif _UNKNOWN in maps:
            p = maps.index(_UNKNOWN)
            d_term, images = tensor._contract_int(maps[:p] + [GradedMap.identity(tensor.space)] + maps[p + 1:])
            found = [(t[:p] + (i,) + t[p + 1:], k, pos, c) for t, image in images.items()
                     for i, pos in by_row.get(t[p], ()) for k, c in image.items()]
        else:
            rest.append((coeff, tensor, maps, outer))
            continue
        linear.append((Fraction(coeff, d_term), found))
    d = lcm(*(f.denominator for f, _ in linear))
    rows: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}
    for f, found in linear:
        scale = f.numerator * (d // f.denominator)
        for t, k, pos, c in found:
            row = rows.setdefault((t, k), {})
            row[pos] = row.get(pos, 0) + scale * c
    return rows, d, rest


def _solve_derivation_space(A, query: DerivationQuery, verify) -> DerivationSpace:
    """Kernel of the commutation and Leibniz rows; ``verify`` re-checks each basis map."""
    slots, index_of, rows = _commuting_system(A, query.parity)
    leibniz, _, _ = _linearise(_leibniz_terms(A, _UNKNOWN, _UNKNOWN, query.s, query.r, query.parity), index_of)
    rows += (leibniz[key] for key in sorted(leibniz))
    basis_vectors = kernel_basis(rows, len(slots))
    basis = tuple(_slots_to_map(A.space, query.parity, slots, v) for v in basis_vectors)
    for D in basis:
        _confirm(verify(A, D, query.s, query.r), "solver produced a non-derivation")
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
    _require_commuting_twists(D, A, "candidate does not commute with the structure maps")
    slots, index_of, rows = _commuting_system(A, D.parity)
    rhs = [ZERO] * len(rows)
    leibniz, d, known = _linearise(_leibniz_terms(A, _UNKNOWN, D, s, r, D.parity), index_of)
    # The residual vanishes: the rows in the companion equal minus the terms in D, both times d.
    targets = contraction_sum(known)
    nonzero = {(t, k) for t, image in targets.items() for k, c in image.items() if c}
    for t, k in sorted(leibniz.keys() | nonzero):
        rows.append(leibniz.get((t, k), {}))
        rhs.append(-targets.get(t, {}).get(k, ZERO) * d)
    solution = solve_linear(rows, rhs, len(slots))
    if solution is None:
        return False, None
    witness = _slots_to_map(A.space, D.parity, slots, solution)
    # Cross-check by substitution against the contraction-based Leibniz residual.
    residuals = contraction_sum(_leibniz_terms(A, witness, D, s, r, D.parity))
    if any(any(image.values()) for image in residuals.values()):
        raise TheoremContradictionError("quasiderivation witness failed substitution")
    return True, witness


def is_quasiderivation_3(
    A: ThreeBiHomLieSuperalgebra, D: GradedMap, s: int, r: int
) -> tuple[bool, GradedMap | None]:
    """Decide whether D is an (s, r)-quasiderivation; return a companion map.

    D must commute with the structure maps, else :class:`PreconditionError`
    is raised with the failing ``commutes-with-*`` columns as a
    :class:`VerificationReport` in ``details``.  The companion D' (also
    commuting with the structure maps, same parity as D) must satisfy

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
    A: BiHomLieSuperalgebra, tau: LinearForm, D: GradedMap, s: int, r: int, notes=()
) -> VerificationReport:
    """The two conditions under which a binary derivation survives induction.

    Per basis triple, the Koszul-signed three-term sum of tau(D(slot)) times
    the bracket of the remaining pair must vanish; additionally tau must be
    invariant under alpha^s beta^r.
    """
    M = _twist(A, s, r)
    ident = GradedMap.identity(A.space)
    invariance = {(i,): {0: tau.apply(M.column(i)) - tau.of_basis(i)} for i in A.space.indices()}
    tD = [tau.apply(D.column(i)) for i in A.space.indices()]
    cyclic = _tau_expansion(A.space, A.bracket.contract([ident, ident]), tD)
    blocks = [_rules_block(1, [("form-invariance", invariance)], 1),
              _rules_block(3, [("signed-cyclic-sum", cyclic)], A.space.dim)]
    return _report("derivation-transfer-conditions", A.space.dim, blocks, False, notes)


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
    _require(is_derivation_2(A, D, s, r), "map is not a binary twisted derivation")
    _require_tau_conditions(A, tau)
    conditions = _transfer_conditions(A, tau, D, s, r)
    if not conditions.passed:
        return False, conditions
    induced = _induced_algebra(A, tau)
    _confirm(is_derivation_3(induced, D, s, r), "transfer conditions held but induced check failed")
    return True, conditions


def check_quasiderivation_transfer(
    A: BiHomLieSuperalgebra, tau: LinearForm, D: GradedMap, s: int, r: int
) -> tuple[bool, VerificationReport]:
    """Quasiderivation analogue of :func:`check_derivation_transfer`.

    The conclusion (D is a quasiderivation of the induced algebra) is checked
    empirically by running the exact solver rather than assumed; the report
    notes record this.
    """
    ok, _ = is_quasiderivation_2(A, D, s, r)
    if not ok:
        raise PreconditionError("map is not a binary twisted quasiderivation")
    _require_tau_conditions(A, tau)
    note = "conclusion verified empirically by solving for a companion map on the induced algebra"
    conditions = _transfer_conditions(A, tau, D, s, r, (note,))
    if not conditions.passed:
        return False, conditions
    induced = _induced_algebra(A, tau)
    ok3, _ = is_quasiderivation_3(induced, D, s, r)
    if not ok3:
        raise TheoremContradictionError(
            "transfer conditions held but no companion map exists on the induced algebra"
        )
    return True, conditions
