"""Twisted derivations, quasiderivations, and their exact solution spaces.

A map D of parity |D| is an (s, r)-derivation of a ternary bracket when it
commutes with both structure maps and satisfies, with M = alpha^s beta^r,

    D([x, y, z]) = [D(x), M(y), M(z)]
                 + (-1)^{|x||D|} [M(x), D(y), M(z)]
                 + (-1)^{|D|(|x|+|y|)} [M(x), M(y), D(z)].

The two-slot analogue for binary brackets drops the last insertion.

The rule is written once, as contraction terms (:func:`_leibniz_terms`): D
after the bracket minus, per slot, the bracket contracted against (M, ..., D,
..., M), the maps before D carrying its Koszul signs.  :func:`_contractions`
contracts them once per algebra and (s, r, parity), the identity in place of
D.  :func:`_residual` pushes known maps through them for the verifiers, on
every basis tuple at once at a cost that follows the nonzeros rather than
dim ** arity; reports list the failing tuples in lexicographic order and count
every tuple, as a walk over all of them would.  :func:`_linearise` reads them
with the unknown map in place of D (derivation spaces) or of the outer map
(companions): the solvers' int rows, one denominator a system.
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


_UNKNOWN = object()  # the varying map in the terms of _leibniz_terms


def _leibniz_terms(A, s: int, r: int, parity: int) -> list:
    """X([x_1, ..., x_n]) - sum_p sign_p [M x_1, ..., D x_p, ..., M x_n] as contraction terms.

    In slot p the bracket is contracted against (M', ..., M', D, M, ..., M):
    M = alpha^s beta^r, and M' = M S^parity, S the parity operator e_i |-> (-1)^{|e_i|} e_i,
    puts the Koszul sign (-1)^{|D| (|x_1| + ... + |x_{p-1}|)} into the arguments
    D moves past, so ``parity`` is |D|.  X and D are the varying map :data:`_UNKNOWN`.
    """
    n = A.bracket.arity
    M, signed = _twist(A, s, r), _twist(A, s, r, parity)
    terms = [(1, A.bracket, [GradedMap.identity(A.space)] * n, _UNKNOWN)]
    terms += [(-1, A.bracket, [signed] * p + [_UNKNOWN] + [M] * (n - 1 - p), None) for p in range(n)]
    return terms


def _is_derivation(A, D: GradedMap, s: int, r: int, identity: str, fail_fast: bool) -> VerificationReport:
    """Commutation with the twists, then the Leibniz rule, D pushed through :func:`_contractions` by
    :func:`_residual`; under fail-fast a failing commutation is reported whole and ends the report."""
    blocks = _commutation_blocks(A, D)
    if fail_fast and any(found for _, _, found in blocks):
        return _report(identity, A.space.dim, blocks, False)
    leibniz = _residual(A, D, D, s, r)
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


def _contractions(A, s: int, r: int, parity: int) -> list:
    """Per term of :func:`_leibniz_terms`, (coeff, p, *``_contract_int``) with the identity in place of
    the varying map, p its slot or None for the outer map; built once per algebra and (s, r, parity)."""
    key = s, r, parity
    if key not in A._leibniz:
        A._leibniz[key] = [(coeff, None if outer is _UNKNOWN else maps.index(_UNKNOWN),
                            *tensor._contract_int([GradedMap.identity(A.space) if m is _UNKNOWN else m for m in maps]))
                           for coeff, tensor, maps, outer in _leibniz_terms(A, s, r, parity)]
    return A._leibniz[key]


def _residual(A, X: GradedMap | None, D: GradedMap, s: int, r: int) -> dict:
    """The Leibniz terms with X outside (None leaves that term out) and D in the slots, as {t: {k: c}}:
    each map pushed through :func:`_contractions` on every basis tuple at once."""
    pushed = [(coeff, p, images, f, d_term * f._d) for coeff, p, d_term, images in _contractions(A, s, r, D.parity)
              for f in [X if p is None else D] if f is not None]
    common, acc = lcm(*(d for *_, d in pushed)), {}
    for coeff, p, images, f, d in pushed:
        scale = coeff * (common // d)
        for t, image in images.items():
            if p is None:  # image component m goes to X's column m
                moves = [(t, scale, [(k, c * n) for m, c in image.items() for k, n in f._cols[m]])]
            else:  # the image at t goes to each tuple with i in slot p, times D[t_p][i] from D's row t_p
                moves = [(t[:p] + (i,) + t[p + 1:], scale * n, image.items()) for i, n in f._rows[t[p]]]
            for u, x, moved in moves:
                row = acc.setdefault(u, {})
                for k, c in moved:
                    row[k] = row.get(k, 0) + x * c
    return {t: {k: Fraction(c, common) for k, c in row.items()} for t, row in acc.items()}


def _linearise(entries, index_of: dict[tuple[int, int], int]):
    """The sum of ``entries`` from :func:`_contractions` as int rows over the entries of the unknown map X,
    and their denominator d, the lcm of the denominators of coeff / d_term.

    ``index_of`` numbers the parity-allowed positions (k, i) of X; row (t, k) holds d times the
    coefficient of e_k on the basis tuple t.  With X as outer map, image component m at t lands on the
    unknown (k, m); with X in slot p, the image at t' lands on (t'_p, i) in the row of t' with i in slot p.
    """
    by_column: dict[int, list] = {}
    by_row: dict[int, list] = {}
    for (k, i), pos in index_of.items():
        by_column.setdefault(i, []).append((k, pos))
        by_row.setdefault(k, []).append((i, pos))
    d = lcm(*(Fraction(coeff, d_term).denominator for coeff, _, d_term, _ in entries))
    rows: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}
    for coeff, p, d_term, images in entries:
        f = Fraction(coeff, d_term)
        scale = f.numerator * (d // f.denominator)
        for t, image in images.items():
            found = ([(t, k, pos, c) for m, c in image.items() for k, pos in by_column.get(m, ())] if p is None
                     else [(t[:p] + (i,) + t[p + 1:], k, pos, c) for i, pos in by_row.get(t[p], ())
                           for k, c in image.items()])
            for u, k, pos, c in found:
                row = rows.setdefault((u, k), {})
                row[pos] = row.get(pos, 0) + scale * c
    return rows, d


def _solve_derivation_space(A, query: DerivationQuery, verify) -> DerivationSpace:
    """Kernel of the commutation and Leibniz rows; ``verify`` re-checks each basis map."""
    slots, index_of, rows = _commuting_system(A, query.parity)
    leibniz, _ = _linearise(_contractions(A, query.s, query.r, query.parity), index_of)
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
    maps.  Every returned basis element is re-verified on every basis tuple
    by :func:`is_derivation_3`, which pushes it through the Leibniz
    contractions that built the rows instead of contracting the bracket again.
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
    leibniz, d = _linearise(_contractions(A, s, r, D.parity)[:1], index_of)  # the outer term, X unknown
    # The residual vanishes: the rows in the companion equal minus the terms in D, both times d.
    targets = _residual(A, None, D, s, r)
    nonzero = {(t, k) for t, image in targets.items() for k, c in image.items() if c}
    for t, k in sorted(leibniz.keys() | nonzero):
        rows.append(leibniz.get((t, k), {}))
        rhs.append(-targets.get(t, {}).get(k, ZERO) * d)
    solution = solve_linear(rows, rhs, len(slots))
    if solution is None:
        return False, None
    witness = _slots_to_map(A.space, D.parity, slots, solution)
    # Cross-check by substitution: the Leibniz residual of the witness and D.
    residuals = _residual(A, witness, D, s, r)
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
