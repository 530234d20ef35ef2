"""Independent second-path implementations used as oracles.

Nothing here may call into the package's solvers or verifiers; these are
deliberately plain re-implementations (dense Fraction Gauss-Jordan, explicit
loop expansions of the defining identities) so that agreement between the two
paths is meaningful.  Every oracle walks every basis tuple, and each shared
piece of an identity is written once: the twist power M = alpha^s beta^r, the
bracket of vectors, the commutator X m - m X, the Leibniz insertion sum and
the stacking of a residual over the unit maps E_{k,i}.
"""

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows):
    """Reduced row echelon form over Fractions; returns (rref_rows, pivot_cols)."""
    m = [[Fraction(c) for c in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows, ncols):
    """Kernel basis from the RREF, free columns set to unit values."""
    filled = [list(row) for row in rows if any(c != 0 for c in row)]
    if not filled:
        return [tuple(ONE if i == f else ZERO for i in range(ncols)) for f in range(ncols)]
    m, pivots = rref(filled)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row_idx, pc in enumerate(pivots):
            v[pc] = -m[row_idx][f]
        basis.append(tuple(v))
    return basis


def nullity(rows, ncols):
    return len(nullspace(rows, ncols))


def rank(rows):
    return len(rref(rows)[1]) if rows else 0


def unit_vec(dim, i):
    return tuple(ONE if t == i else ZERO for t in range(dim))


def sign(exponent):
    return -1 if exponent % 2 else 1


def matvec(matrix, v):
    out = [ZERO] * len(matrix)
    for i, x in enumerate(v):
        if x:  # a zero factor adds nothing
            out = [y + row[i] * x for y, row in zip(out, matrix)]
    return tuple(out)


def _column(matrix, i):
    return [row[i] for row in matrix]


def _columns(matrix):
    """The images of the basis vectors under ``matrix``."""
    return [_column(matrix, i) for i in range(len(matrix))]


def _compose(mat1, mat2):
    dim = len(mat1)
    return [
        [sum((mat1[k][t] * mat2[t][i] for t in range(dim)), ZERO) for i in range(dim)]
        for k in range(dim)
    ]


def _twist_power(alpha, beta, s, r):
    """M = alpha^s beta^r, the twist of the Leibniz rule (``derivations.twist_power``)."""
    M = [list(unit_vec(len(alpha), k)) for k in range(len(alpha))]
    for m in [alpha] * s + [beta] * r:
        M = _compose(M, m)
    return M


def _combine(*terms):
    """The sum of c * v over the (c, v) ``terms``."""
    out = [ZERO] * len(terms[0][1])
    for c, v in terms:
        if any(v):
            out = [a + c * b for a, b in zip(out, v)]
    return out


def _bracket_of_vectors(entries, dim, vectors):
    """[v_1, ..., v_n] expanded multilinearly from a sparse entry dict."""
    out = [ZERO] * dim
    for key, coeff in entries.items():
        term = coeff
        for a, v in zip(key, vectors):
            if not v[a]:
                break  # a zero factor makes the term zero
            term *= v[a]
        else:
            out[key[-1]] += term
    return out


def bracket3_of_vectors(entries, dim, u, v, w):
    """Trilinear expansion straight from a sparse entry dict."""
    return tuple(_bracket_of_vectors(entries, dim, (u, v, w)))


def bracket2_of_vectors(entries, dim, u, v):
    return tuple(_bracket_of_vectors(entries, dim, (u, v)))


def _basis_bracket(entries, dim, t):
    """[e_t1, ..., e_tn]."""
    return _bracket_of_vectors(entries, dim, [unit_vec(dim, i) for i in t])


def _basis_images(entries, dim, arity):
    """(t, [e_t1, ..., e_tn]) for every basis tuple t in lexicographic order."""
    return ((t, _basis_bracket(entries, dim, t)) for t in itertools.product(range(dim), repeat=arity))


def _commutator(X, m):
    """X m - m X."""
    return [[a - b for a, b in zip(p, q)] for p, q in zip(_compose(X, m), _compose(m, X))]


def commutator_columns(X, m):
    """The columns of X m - m X from dense products, as ((i,), column) pairs in order."""
    return [((i,), column) for i, column in enumerate(zip(*_commutator(X, m)))]


def _commutation_block(X, alpha, beta):
    """The entries of X alpha - alpha X, then of X beta - beta X, row by row."""
    return [c for m in (alpha, beta) for row in _commutator(X, m) for c in row]


def _insertion_sum(P, entries, M_cols, D_cols, parity, t):
    """sum_p (-1)^{|D|(|e_t1| + ... + |e_t(p-1)|)} [M e_t1, ..., D e_tp, ..., M e_tn], from the columns of M and D."""
    return _combine(*[
        (sign(parity * sum(P[i] for i in t[:p])),
         _bracket_of_vectors(entries, len(P), [D_cols[i] if q == p else M_cols[i] for q, i in enumerate(t)]))
        for p in range(len(t))
    ])


def _leibniz_residuals(P, entries, images, M, D, parity):
    """(t, D[e_t1, ..., e_tn] - the insertion sum at t) for each (t, [e_t]) of ``images``."""
    M_cols, D_cols = _columns(M), _columns(D)
    for t, image in images:
        yield t, [a - b for a, b in zip(matvec(D, image), _insertion_sum(P, entries, M_cols, D_cols, parity, t))]


def _slots(P, parity):
    """The positions (k, i) that a map of the given parity may fill, in row-major order."""
    return [(k, i) for k in range(len(P)) for i in range(len(P)) if P[k] == (P[i] + parity) % 2]


def _unit_map_rows(dim, slots, stack):
    """The rows of the linear map X -> stack(X) on maps supported on ``slots``: column c is
    stack(E_{k,i}) for (k, i) = slots[c]."""
    columns = [stack([[ONE if (a, b) == slot else ZERO for b in range(dim)] for a in range(dim)]) for slot in slots]
    return [list(row) for row in zip(*columns)]


def _derivation_constraint_matrix(space_parities, alpha, beta, entries, arity, s, r, parity):
    """Dense constraint matrix for the twisted-derivation space of a bracket of any arity.

    Second assembly path: each column is the residual stack at a unit matrix
    E_{k,i}, using only local expansions: the entries of E alpha - alpha E and
    E beta - beta E, then on every basis tuple the Leibniz residual
    E[e_t1, ..., e_tn] - sum_p sign_p [M e_t1, ..., E e_tp, ..., M e_tn].
    Unknowns run over the parity-allowed positions in row-major order,
    matching the solver's layout.
    """
    P, ent, M = space_parities, dict(entries), _twist_power(alpha, beta, s, r)
    images = list(_basis_images(ent, len(P), arity))

    def stack(D):
        return _commutation_block(D, alpha, beta) + [
            c for _, res in _leibniz_residuals(P, ent, images, M, D, parity) for c in res]

    slots = _slots(P, parity)
    return _unit_map_rows(len(P), slots, stack), len(slots)


def derivation_constraint_matrix_3(space_parities, alpha, beta, entries, s, r, parity):
    """Dense constraint matrix for the ternary twisted-derivation space (see
    :func:`_derivation_constraint_matrix`)."""
    return _derivation_constraint_matrix(space_parities, alpha, beta, entries, 3, s, r, parity)


def derivation_constraint_matrix_2(space_parities, alpha, beta, entries, s, r, parity):
    """Dense constraint matrix for the binary twisted-derivation space, with the
    two-slot Leibniz rule D[x, y] = [Dx, My] + (-1)^{|x||D|} [Mx, Dy]."""
    return _derivation_constraint_matrix(space_parities, alpha, beta, entries, 2, s, r, parity)


def companion_system(space_parities, alpha, beta, entries, arity, parity):
    """Dense coefficient rows of the companion map X of a quasiderivation.

    Second assembly path for brackets of any arity.  Unknowns run over the
    parity-allowed positions of X in row-major order.  Each column is the
    residual stack at a unit map E_{k,i}: the entries of X alpha - alpha X and
    X beta - beta X, then X([e_t1, ..., e_tn]) for every basis tuple in
    lexicographic order.  Returns (rows, slots).
    """
    dim = len(space_parities)
    images = [image for _, image in _basis_images(dict(entries), dim, arity)]

    def stack(X):
        return _commutation_block(X, alpha, beta) + [c for image in images for c in matvec(X, image)]

    slots = _slots(space_parities, parity)
    # with no slot, X = 0 still owes every residual: one empty row each
    return _unit_map_rows(dim, slots, stack) or [[] for _ in range(2 * dim * dim + len(images) * dim)], slots


def companion_rhs(space_parities, alpha, beta, entries, arity, s, r, D, parity):
    """Right-hand side matching :func:`companion_system` for the candidate D.

    Zero on the commutation block; per basis tuple, the signed insertion sum
    sum_p (-1)^{|D|(|e_t1| + ... + |e_t(p-1)|)} [M e_t1, ..., D e_tp, ..., M e_tn]
    with M = alpha^s beta^r.
    """
    dim, ent = len(space_parities), dict(entries)
    M_cols, D_cols = _columns(_twist_power(alpha, beta, s, r)), _columns(D)
    rhs = [ZERO] * (2 * dim * dim)
    for t in itertools.product(range(dim), repeat=arity):
        rhs.extend(_insertion_sum(space_parities, ent, M_cols, D_cols, parity, t))
    return rhs


def derivation_report(space_parities, alpha, beta, entries, arity, s, r, D, parity, fail_fast=False):
    """Dense walk of the twisted Leibniz rule over every basis tuple.

    Second path for ``is_derivation_2``/``is_derivation_3``; returns their
    report fields (identity, total, [(where, residual, rule), ...]).  First
    the columns of D m - m D for m = alpha, beta, then, unless fail-fast has
    already failed, every basis tuple t in lexicographic order with the
    residual D[e_t1, ..., e_tn] - sum_p sign_p [M e_t1, ..., D e_tp, ..., M e_tn]
    and M = alpha^s beta^r.  Under fail-fast the walk stops at the first
    failing tuple.
    """
    dim, ent = len(space_parities), dict(entries)
    identity = {2: "binary-twisted-derivation", 3: "ternary-twisted-derivation"}[arity]
    violations = [(where, col, f"commutes-with-{name}") for name, m in (("alpha", alpha), ("beta", beta))
                  for where, col in commutator_columns(D, m) if any(col)]
    total = 2 * dim
    if fail_fast and violations:
        return identity, total, violations
    M = _twist_power(alpha, beta, s, r)
    for t, res in _leibniz_residuals(space_parities, ent, _basis_images(ent, dim, arity), M, D, parity):
        total += 1
        if any(res):
            violations.append((t, tuple(res), "leibniz"))
            if fail_fast:
                break
    return identity, total, violations


def _twisted_tables(space_parities, alpha, beta, entries):
    """Dense tables of one ternary tensor w on twisted basis arguments.

    inner[a][b][c] = w(beta e_a, beta e_b, alpha e_c); outer[slot][u][v] is the
    matrix of the map s -> w with e_s in ``slot`` and beta^2 e_u, beta^2 e_v in
    the other two slots, in order (column s is that bracket).
    """
    dim = len(space_parities)
    ent = dict(entries)
    units = [unit_vec(dim, i) for i in range(dim)]
    a1, b1, b2 = _columns(alpha), _columns(beta), _columns(_compose(beta, beta))
    inner = [[[_bracket_of_vectors(ent, dim, [b1[a], b1[b], a1[c]]) for c in range(dim)]
              for b in range(dim)] for a in range(dim)]

    def matrix(slot, u, v):
        columns = []
        for s in range(dim):
            args = [b2[u], b2[v]]
            args.insert(slot, units[s])
            columns.append(_bracket_of_vectors(ent, dim, args))
        return [list(row) for row in zip(*columns)]

    outer = [[[matrix(slot, u, v) for v in range(dim)] for u in range(dim)] for slot in range(3)]
    return inner, outer


def _wedge_compose(P, tables_i, tables_j, a, b, c, d, m):
    """(w_i o w_j)(e_a ^ e_b, e_c ^ e_d, e_m), written out term by term:

        w_i(w_j(b e_a, b e_b, a e_c), b^2 e_d, b^2 e_m)
      + (-1)^{|c|(|a|+|b|)} w_i(b^2 e_c, w_j(b e_a, b e_b, a e_d), b^2 e_m)
      - w_i(b^2 e_a, b^2 e_b, w_j(b e_c, b e_d, a e_m))
      + (-1)^{(|a|+|b|)(|c|+|d|)} w_i(b^2 e_c, b^2 e_d, w_j(b e_a, b e_b, a e_m)).
    """
    inner = tables_j[0]
    outer = tables_i[1]
    pX, pY = P[a] + P[b], P[c] + P[d]
    return _combine(
        (1, matvec(outer[0][d][m], inner[a][b][c])),
        (sign(P[c] * pX), matvec(outer[1][c][m], inner[a][b][d])),
        (-1, matvec(outer[2][a][b], inner[c][d][m])),
        (sign(pX * pY), matvec(outer[2][c][d], inner[a][b][m])),
    )


def binary_jacobi_reports(space_parities, alpha, beta, entries):
    """Dense walk of ``verify_bihom_jacobi``: on every basis triple (x, y, z),

        sum over the cyclic shifts (a, b, c) of (x, y, z) of
        (-1)^{|a||c|} [beta^2 e_a, [beta e_b, alpha e_c]],

    as (full report, fail-fast report)."""
    P, ent, dim = space_parities, dict(entries), len(space_parities)
    a1, b1, b2 = _columns(alpha), _columns(beta), _columns(_compose(beta, beta))
    inner = {(b, c): _bracket_of_vectors(ent, dim, [b1[b], a1[c]]) for b, c in itertools.product(range(dim), repeat=2)}
    # each triple's term is read by all three of its cyclic shifts, so it is computed once
    term = {(a, b, c): [sign(P[a] * P[c]) * v for v in _bracket_of_vectors(ent, dim, [b2[a], inner[b, c]])]
            for a, b, c in itertools.product(range(dim), repeat=3)}

    def checks():
        for x, y, z in itertools.product(range(dim), repeat=3):
            terms = [term[x, y, z], term[y, z, x], term[z, x, y]]
            yield (x, y, z), "twisted-jacobi", [sum(col, ZERO) for col in zip(*terms)]

    return _walk_reports("binary-twisted-jacobi", checks())


def _ternary_jacobi_walk(space_parities, alpha, beta, entries, rule, residual):
    """Yield (t, rule, residual(P, inner, outer, *t)) on every basis 5-tuple t, with
    inner[a][b][c] = [beta e_a, beta e_b, alpha e_c] and outer(u, v, w) = [beta^2 e_u, beta^2 e_v, w]."""
    P = space_parities
    inner, outer_tables = _twisted_tables(P, alpha, beta, entries)

    def outer(u, v, w):
        return matvec(outer_tables[2][u][v], w)

    for t in itertools.product(range(len(P)), repeat=5):
        yield t, rule, residual(P, inner, outer, *t)


def ternary_jacobi_reports(space_parities, alpha, beta, entries):
    """Dense walk of ``verify_3bihom_jacobi``: on every basis 5-tuple (x, y, z, u, v),

        [b^2 x, b^2 y, [b z, b u, a v]]
          - (-1)^{(|u|+|v|)(|x|+|y|+|z|)} [b^2 u, b^2 v, [b x, b y, a z]]
          + (-1)^{(|z|+|v|)(|x|+|y|) + |u||v|} [b^2 z, b^2 v, [b x, b y, a u]]
          - (-1)^{(|z|+|u|)(|x|+|y|)} [b^2 z, b^2 u, [b x, b y, a v]],

    as (full report, fail-fast report)."""
    def residual(P, inner, outer, x, y, z, u, v):
        return _combine(
            (1, outer(x, y, inner[z][u][v])),
            (-sign((P[u] + P[v]) * (P[x] + P[y] + P[z])), outer(u, v, inner[x][y][z])),
            (sign((P[z] + P[v]) * (P[x] + P[y]) + P[u] * P[v]), outer(z, v, inner[x][y][u])),
            (-sign((P[z] + P[u]) * (P[x] + P[y])), outer(z, u, inner[x][y][v])),
        )

    walk = _ternary_jacobi_walk(space_parities, alpha, beta, dict(entries), "twisted-jacobi", residual)
    return _walk_reports("ternary-twisted-jacobi", walk)


def cyclic_jacobi_reports(space_parities, alpha, beta, entries):
    """Dense walk of ``verify_3bihom_jacobi_cyclic``: on every basis 5-tuple (x, y, z, u, v),

        [b^2 x, b^2 y, [b z, b u, a v]] - (-1)^{|z||v|} sum over the cyclic shifts (p, q, r)
        of (z, u, v) of (-1)^{(|q|+|r|)(|x|+|y|) + |p||q|} [b^2 q, b^2 r, [b x, b y, a p]],

    as (full report, fail-fast report)."""
    def residual(P, inner, outer, x, y, z, u, v):
        shifts = [(z, u, v), (u, v, z), (v, z, u)]
        terms = [(-sign(P[z] * P[v] + (P[q] + P[r]) * (P[x] + P[y]) + P[p] * P[q]), outer(q, r, inner[x][y][p]))
                 for p, q, r in shifts]
        return _combine((1, outer(x, y, inner[z][u][v])), *terms)

    walk = _ternary_jacobi_walk(space_parities, alpha, beta, dict(entries), "cyclic-form", residual)
    return _walk_reports("ternary-twisted-jacobi-cyclic-form", walk)


def _degree_walk(P, tables, pairs):
    """Yield (t, sum of w_i o w_j over ``pairs`` at t) for every basis 5-tuple t in order."""
    for t in itertools.product(range(len(P)), repeat=5):
        yield t, _combine(*[(1, _wedge_compose(P, tables[i], tables[j], *t)) for i, j in pairs])


def _walk_reports(identity, checks):
    """(full report, fail-fast report) of one walk over ``checks``.

    ``checks`` yields (where, rule, residual) items in walk order.  The
    fail-fast report is the prefix of the walk up to and including the first
    failing item, which is what a walk that stops there reports.
    """
    total, violations, stop = 0, [], None
    for where, rule, residual in checks:
        total += 1
        if any(residual):
            violations.append((tuple(where), tuple(residual), rule))
            if stop is None:
                stop = total
    full = (identity, total, violations)
    return full, full if stop is None else (identity, stop, violations[:1])


def _skew_walk(P, alpha, beta, w, arity, suffix=""):
    """Twisted swaps of adjacent slots on every basis tuple, tuple by tuple.

    T(x) = w(beta x_1, ..., beta x_{n-1}, alpha x_n), tabulated once per tuple;
    the residual of the swap of slots p, p+1 is T(x) + (-1)^{|x_p||x_{p+1}|} T(x
    with them exchanged).  Rules: ``twisted-swap`` for n = 2, ``swap-12``,
    ``swap-23`` for n = 3, each followed by ``suffix``.
    """
    dim = len(P)
    a1, b1 = _columns(alpha), _columns(beta)
    tuples = list(itertools.product(range(dim), repeat=arity))
    T = {t: _bracket_of_vectors(w, dim, [b1[i] for i in t[:-1]] + [a1[t[-1]]]) for t in tuples}
    for t in tuples:
        for p in range(arity - 1):
            swapped = t[:p] + (t[p + 1], t[p]) + t[p + 2:]
            sgn = sign(P[t[p]] * P[t[p + 1]])
            rule = "twisted-swap" if arity == 2 else f"swap-{p + 1}{p + 2}"
            yield t, rule + suffix, [x + sgn * y for x, y in zip(T[t], T[swapped])]


def _morphism_walk(alpha, beta, w, arity, rule, flip=False):
    """m(w(e_t)) - w(m e_t) for m = alpha, then beta, on every basis tuple (negated when ``flip``)."""
    dim = len(alpha)
    twists = [(name, m, _columns(m)) for name, m in (("alpha", alpha), ("beta", beta))]
    for t, value in _basis_images(w, dim, arity):
        for name, m, cols in twists:
            moved = _bracket_of_vectors(w, dim, [cols[i] for i in t])
            res = [x - y for x, y in zip(matvec(m, value), moved)]
            yield t, rule.format(name), [-x for x in res] if flip else res


def skew_reports(space_parities, alpha, beta, entries, arity):
    """Dense walk of ``verify_bihom_skewsymmetry``/``verify_3bihom_skewsymmetry``:
    (full report, fail-fast report), each (identity, total, violations)."""
    identity = {2: "binary-twisted-skewsymmetry", 3: "ternary-twisted-skewsymmetry"}[arity]
    return _walk_reports(identity, _skew_walk(space_parities, alpha, beta, dict(entries), arity))


def multiplicativity_reports(alpha, beta, entries, arity):
    """Dense walk of ``verify_multiplicativity2/3``: the columns of alpha beta - beta alpha
    (``twists-commute``), then per basis tuple the alpha- and beta-morphism defects."""
    commute = ((where, "twists-commute", col) for where, col in commutator_columns(alpha, beta))
    checks = itertools.chain(commute, _morphism_walk(alpha, beta, dict(entries), arity, "{}-morphism"))
    return _walk_reports({2: "binary-multiplicativity", 3: "ternary-multiplicativity"}[arity], checks)


def _slot_masks(arity):
    """Every subset of the slots as a tuple of booleans."""
    return itertools.product((False, True), repeat=arity)


def _weighted_sum(entries, dim, R_cols, weight, t):
    """[e_t]_R: the sum over nonempty kept-slot sets I of weight^{|I|-1} [args], R outside I;
    ``R_cols`` are the columns of R."""
    return _combine(*[
        (weight ** (sum(kept) - 1),
         _bracket_of_vectors(entries, dim, [unit_vec(dim, i) if keep else R_cols[i] for keep, i in zip(kept, t)]))
        for kept in _slot_masks(len(t)) if any(kept)
    ])


def rb_reports(entries, arity, R, weight):
    """Dense walk of ``is_rb2``/``is_rb3``: [R e_t] - R([e_t]_R) on every basis tuple,
    as (full report, fail-fast report)."""
    ent, dim, R_cols = dict(entries), len(R), _columns(R)

    def checks():
        for t in itertools.product(range(dim), repeat=arity):
            lhs = _bracket_of_vectors(ent, dim, [R_cols[i] for i in t])
            rhs = matvec(R, _weighted_sum(ent, dim, R_cols, weight, t))
            yield t, "weighted-identity", [a - b for a, b in zip(lhs, rhs)]

    return _walk_reports({2: "binary-rota-baxter", 3: "ternary-rota-baxter"}[arity], checks())


def _entries_of(dim, arity, value):
    """The nonzero structure constants of the tensor with bracket value(t) on each basis tuple."""
    out = {}
    for t in itertools.product(range(dim), repeat=arity):
        for k, c in enumerate(value(t)):
            if c:
                out[t + (k,)] = c
    return out


def rb_bracket_entries(entries, arity, R, weight):
    """Structure constants of the induced bracket [.,...,.]_R."""
    ent, R_cols = dict(entries), _columns(R)
    return _entries_of(len(R), arity, lambda t: _weighted_sum(ent, len(R), R_cols, weight, t))


def _n_bracket_value(entries, N, N_cols, t, inserted):
    """The ``inserted``-th N-bracket at e_t: the bracket with N in ``inserted`` slots, summed
    over every choice, minus N of the previous N-bracket (the 0-th is the bracket);
    ``N_cols`` are the columns of N."""
    dim = len(N)
    if inserted == 0:
        return _basis_bracket(entries, dim, t)
    brackets = [(1, _bracket_of_vectors(entries, dim, [N_cols[i] if m else unit_vec(dim, i) for m, i in zip(mask, t)]))
                for mask in _slot_masks(len(t)) if sum(mask) == inserted]
    return _combine((-1, matvec(N, _n_bracket_value(entries, N, N_cols, t, inserted - 1))), *brackets)


def n_bracket_entries(entries, arity, N, inserted):
    """Structure constants of the first (``inserted`` = 1) or second N-bracket."""
    ent, N_cols = dict(entries), _columns(N)
    return _entries_of(len(N), arity, lambda t: _n_bracket_value(ent, N, N_cols, t, inserted))


def nijenhuis_reports(entries, arity, N):
    """Dense walk of ``is_nijenhuis_2``/``is_nijenhuis_3``: [N e_t] - N(w(e_t)) on every
    basis tuple, w the (arity - 1)-th N-bracket; (full report, fail-fast report)."""
    ent, dim, N_cols = dict(entries), len(N), _columns(N)

    def checks():
        for t in itertools.product(range(dim), repeat=arity):
            lhs = _bracket_of_vectors(ent, dim, [N_cols[i] for i in t])
            rhs = matvec(N, _n_bracket_value(ent, N, N_cols, t, arity - 1))
            yield t, "nijenhuis", [a - b for a, b in zip(lhs, rhs)]

    return _walk_reports({2: "binary-nijenhuis", 3: "ternary-nijenhuis"}[arity], checks())


def _form(tau, v):
    """tau(v) for the coefficient row ``tau``."""
    return sum((c * x for c, x in zip(tau, v)), ZERO)


def _tau_sum(P, scalars, pair_value, t):
    """s(x) B(y, z) - (-1)^{|x||y|} s(y) B(x, z) + (-1)^{|z|(|x|+|y|)} s(z) B(x, y) at t = (x, y, z)."""
    x, y, z = t
    return _combine((scalars[x], pair_value(y, z)), (-sign(P[x] * P[y]) * scalars[y], pair_value(x, z)),
                    (sign(P[z] * (P[x] + P[y])) * scalars[z], pair_value(x, y)))


def tau_induced_entries(space_parities, entries, tau):
    """Structure constants of the ternary bracket induced by the form ``tau``."""
    ent, dim = dict(entries), len(space_parities)

    def pair(a, b):
        return _basis_bracket(ent, dim, (a, b))

    return _entries_of(dim, 3, lambda t: _tau_sum(space_parities, tau, pair, t))


def tau_condition_reports(alpha, beta, entries, tau):
    """Dense walk of ``check_tau_conditions``: its three reports, each (identity, total,
    violations) over every basis pair (i, j) in order, with the residuals

        tau([e_i, e_j])                                         (bracket-annihilation)
        tau(e_i) tau(beta e_j) - tau(e_j) tau(beta e_i)         (beta-symmetry)
        tau(alpha e_i) beta(e_j) - tau(beta e_i) alpha(e_j)     (twist-proportionality)
    """
    ent, dim = dict(entries), len(tau)
    ta, tb = ([_form(tau, col) for col in _columns(m)] for m in (alpha, beta))
    checks = {"bracket-annihilation": [], "beta-symmetry": [], "twist-proportionality": []}
    for i, j in itertools.product(range(dim), repeat=2):
        residuals = {
            "bracket-annihilation": (_form(tau, _basis_bracket(ent, dim, (i, j))),),
            "beta-symmetry": (tau[i] * tb[j] - tau[j] * tb[i],),
            "twist-proportionality": tuple(ta[i] * b - tb[i] * a
                                           for a, b in zip(_column(alpha, j), _column(beta, j))),
        }
        for rule, res in residuals.items():
            if any(res):
                checks[rule].append(((i, j), res, rule))
    identities = ("tau-annihilates-brackets", "tau-beta-symmetry", "tau-twist-proportionality")
    return [(identity, dim * dim, found) for identity, found in zip(identities, checks.values())]


def rb_transfer_report(space_parities, entries, tau, R, weight):
    """Dense walk of the report of ``check_rb_transfer_criterion``: (R + weight Id) applied
    to the tau-sum of [R e_a, R e_b] on every basis triple."""
    ent, dim, R_cols = dict(entries), len(space_parities), _columns(R)

    def pair(a, b):
        return _bracket_of_vectors(ent, dim, [R_cols[a], R_cols[b]])

    def checks():
        for t in itertools.product(range(dim), repeat=3):
            v = _tau_sum(space_parities, tau, pair, t)
            yield t, "kernel-membership", [a + weight * b for a, b in zip(matvec(R, v), v)]

    return _walk_reports("rota-baxter-transfer-criterion", checks())[0]


def derivation_transfer_report(space_parities, alpha, beta, entries, tau, D, s, r):
    """Dense walk of the report of the derivation transfer conditions: tau(M e_i) - tau(e_i)
    per basis index (M = alpha^s beta^r), then the tau-sum with scalars tau(D e_i) of the
    bracket on every basis triple."""
    ent, dim = dict(entries), len(space_parities)
    tM = [_form(tau, col) for col in _columns(_twist_power(alpha, beta, s, r))]
    tD = [_form(tau, col) for col in _columns(D)]
    invariance = (((i,), "form-invariance", [tM[i] - tau[i]]) for i in range(dim))
    cyclic = ((t, "signed-cyclic-sum", _tau_sum(space_parities, tD, lambda a, b: _basis_bracket(ent, dim, (a, b)), t))
              for t in itertools.product(range(dim), repeat=3))
    return _walk_reports("derivation-transfer-conditions", itertools.chain(invariance, cyclic))[0]


def deformation_reports(space_parities, alpha, beta, entries, omega1, omega2):
    """Dense walk of the quadratic deformation check over every basis tuple.

    Second path for ``check_deformation``; returns its report fields
    (identity, total, [(where, residual, rule), ...]) without and with
    fail-fast.  The rules, in walk order: the twisted swaps of omega1 then
    omega2 on every triple (T(x) + (-1)^{|x_p||x_{p+1}|} T(x with slots p, p+1
    exchanged), T(x) = w(beta x_1, beta x_2, alpha x_3)), the compatibility
    w(m x_1, m x_2, m x_3) - m w(x_1, x_2, x_3) for m = alpha, beta of omega1
    then omega2, and the degree sums sum_{i+j=l} w_i o w_j for l = 1..4 on
    every basis 5-tuple, w_0 being the bracket.
    """
    P = space_parities
    ent = [dict(entries), dict(omega1), dict(omega2)]

    def series():
        tables = [_twisted_tables(P, alpha, beta, w) for w in ent]
        for l in (1, 2, 3, 4):
            pairs = [(i, l - i) for i in range(3) if 0 <= l - i <= 2]
            for t, acc in _degree_walk(P, tables, pairs):
                yield t, f"series-degree-{l}", acc

    checks = itertools.chain(
        _skew_walk(P, alpha, beta, ent[1], 3, "-omega1"), _skew_walk(P, alpha, beta, ent[2], 3, "-omega2"),
        _morphism_walk(alpha, beta, ent[1], 3, "{}-compat-omega1", flip=True),
        _morphism_walk(alpha, beta, ent[2], 3, "{}-compat-omega2", flip=True),
        series(),
    )
    return _walk_reports("second-order-deformation", checks)


def cocycle_report(space_parities, alpha, beta, entries, omega1):
    """Dense walk of the 2-cocycle check: w_0 o w_1 + w_1 o w_0 on every basis 5-tuple.

    Second path for ``check_2cocycle``; returns (identity, total, violations)
    like :func:`deformation_reports`.
    """
    P = space_parities
    tables = [_twisted_tables(P, alpha, beta, w) for w in (entries, omega1)]
    walk = ((t, "degree-1-sum", acc) for t, acc in _degree_walk(P, tables, [(0, 1), (1, 0)]))
    return _walk_reports("two-cocycle", walk)[0]
