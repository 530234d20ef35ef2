"""Independent second-path implementations used as oracles.

Nothing here may call into the package's solvers or verifiers; these are
deliberately plain re-implementations (dense Fraction Gauss-Jordan, explicit
loop expansions of the defining identities) so that agreement between the two
paths is meaningful.
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


def bracket3_of_vectors(entries, dim, u, v, w):
    """Trilinear expansion straight from a sparse entry dict."""
    out = [ZERO] * dim
    for (a, b, c, k), coeff in entries.items():
        term = coeff * u[a] * v[b] * w[c]
        if term != 0:
            out[k] += term
    return tuple(out)


def bracket2_of_vectors(entries, dim, u, v):
    out = [ZERO] * dim
    for (a, b, k), coeff in entries.items():
        term = coeff * u[a] * v[b]
        if term != 0:
            out[k] += term
    return tuple(out)


def matvec(matrix, v):
    return tuple(sum((row[i] * v[i] for i in range(len(v))), ZERO) for row in matrix)


def unit_vec(dim, i):
    return tuple(ONE if t == i else ZERO for t in range(dim))


def sign(exponent):
    return -1 if exponent % 2 else 1


def derivation_constraint_matrix_3(space_parities, alpha, beta, entries, s, r, parity):
    """Dense constraint matrix for the ternary twisted-derivation space.

    Second assembly path: each column is the full residual stack evaluated at
    a unit matrix E_{k,i}, using only local expansions.  Unknowns run over the
    parity-allowed positions in row-major order, matching the solver's layout.
    """
    dim = len(space_parities)
    ent = dict(entries)

    def compose(mat1, mat2):
        return [
            [sum((mat1[k][t] * mat2[t][i] for t in range(dim)), ZERO) for i in range(dim)]
            for k in range(dim)
        ]

    M = [[ONE if i == k else ZERO for i in range(dim)] for k in range(dim)]
    for _ in range(s):
        M = compose(alpha, M)
    for _ in range(r):
        M = compose(beta, M)

    slots = [
        (k, i)
        for k in range(dim)
        for i in range(dim)
        if space_parities[k] == (space_parities[i] + parity) % 2
    ]

    def residual_stack(D):
        out = []
        for other in (alpha, beta):
            dm = compose(D, other)
            md = compose(other, D)
            for k in range(dim):
                for i in range(dim):
                    out.append(dm[k][i] - md[k][i])
        for i in range(dim):
            for j in range(dim):
                for l in range(dim):
                    ei, ej, el = unit_vec(dim, i), unit_vec(dim, j), unit_vec(dim, l)
                    Dei = matvec(D, ei)
                    Dej = matvec(D, ej)
                    Del = matvec(D, el)
                    Mei = matvec(M, ei)
                    Mej = matvec(M, ej)
                    Mel = matvec(M, el)
                    res = list(matvec(D, bracket3_of_vectors(ent, dim, ei, ej, el)))
                    t1 = bracket3_of_vectors(ent, dim, Dei, Mej, Mel)
                    t2 = bracket3_of_vectors(ent, dim, Mei, Dej, Mel)
                    t3 = bracket3_of_vectors(ent, dim, Mei, Mej, Del)
                    s2 = sign(space_parities[i] * parity)
                    s3 = sign(parity * (space_parities[i] + space_parities[j]))
                    for k in range(dim):
                        res[k] -= t1[k] + s2 * t2[k] + s3 * t3[k]
                    out.extend(res)
        return out

    columns = []
    for (k, i) in slots:
        E = [[ONE if (a, b) == (k, i) else ZERO for b in range(dim)] for a in range(dim)]
        columns.append(residual_stack(E))
    # transpose columns into rows
    nrows = len(columns[0]) if columns else 0
    return [[columns[c][r_] for c in range(len(slots))] for r_ in range(nrows)], len(slots)


def derivation_constraint_matrix_2(space_parities, alpha, beta, entries, s, r, parity):
    """Dense constraint matrix for the binary twisted-derivation space.

    Same second assembly path as :func:`derivation_constraint_matrix_3`, with
    the two-slot Leibniz rule D[x, y] = [Dx, My] + (-1)^{|x||D|} [Mx, Dy].
    """
    dim = len(space_parities)
    ent = dict(entries)

    def compose(mat1, mat2):
        return [
            [sum((mat1[k][t] * mat2[t][i] for t in range(dim)), ZERO) for i in range(dim)]
            for k in range(dim)
        ]

    M = [[ONE if i == k else ZERO for i in range(dim)] for k in range(dim)]
    for _ in range(s):
        M = compose(alpha, M)
    for _ in range(r):
        M = compose(beta, M)

    slots = [
        (k, i)
        for k in range(dim)
        for i in range(dim)
        if space_parities[k] == (space_parities[i] + parity) % 2
    ]

    def residual_stack(D):
        out = []
        for other in (alpha, beta):
            dm = compose(D, other)
            md = compose(other, D)
            for k in range(dim):
                for i in range(dim):
                    out.append(dm[k][i] - md[k][i])
        for i in range(dim):
            for j in range(dim):
                ei, ej = unit_vec(dim, i), unit_vec(dim, j)
                Dei = matvec(D, ei)
                Dej = matvec(D, ej)
                Mei = matvec(M, ei)
                Mej = matvec(M, ej)
                res = list(matvec(D, bracket2_of_vectors(ent, dim, ei, ej)))
                t1 = bracket2_of_vectors(ent, dim, Dei, Mej)
                t2 = bracket2_of_vectors(ent, dim, Mei, Dej)
                s2 = sign(space_parities[i] * parity)
                for k in range(dim):
                    res[k] -= t1[k] + s2 * t2[k]
                out.extend(res)
        return out

    columns = []
    for (k, i) in slots:
        E = [[ONE if (a, b) == (k, i) else ZERO for b in range(dim)] for a in range(dim)]
        columns.append(residual_stack(E))
    nrows = len(columns[0]) if columns else 0
    return [[columns[c][r_] for c in range(len(slots))] for r_ in range(nrows)], len(slots)


def rank(rows):
    return len(rref(rows)[1]) if rows else 0


def _compose(mat1, mat2):
    dim = len(mat1)
    return [
        [sum((mat1[k][t] * mat2[t][i] for t in range(dim)), ZERO) for i in range(dim)]
        for k in range(dim)
    ]


def _bracket_of_vectors(entries, dim, vectors):
    out = [ZERO] * dim
    for key, coeff in entries.items():
        term = coeff
        for a, v in zip(key, vectors):
            term *= v[a]
        out[key[-1]] += term
    return out


def companion_system(space_parities, alpha, beta, entries, arity, parity):
    """Dense coefficient rows of the companion map X of a quasiderivation.

    Second assembly path for brackets of any arity.  Unknowns run over the
    parity-allowed positions of X in row-major order.  Each column is the
    residual stack at a unit map E_{k,i}: the entries of X alpha - alpha X and
    X beta - beta X, then X([e_t1, ..., e_tn]) for every basis tuple in
    lexicographic order.  Returns (rows, slots).
    """
    dim = len(space_parities)
    ent = dict(entries)
    images = [
        _bracket_of_vectors(ent, dim, [unit_vec(dim, i) for i in t])
        for t in itertools.product(range(dim), repeat=arity)
    ]
    slots = [
        (k, i)
        for k in range(dim)
        for i in range(dim)
        if space_parities[k] == (space_parities[i] + parity) % 2
    ]

    def residual_stack(X):
        out = []
        for other in (alpha, beta):
            xm = _compose(X, other)
            mx = _compose(other, X)
            out.extend(xm[k][i] - mx[k][i] for k in range(dim) for i in range(dim))
        for image in images:
            out.extend(matvec(X, image))
        return out

    columns = []
    for (k, i) in slots:
        E = [[ONE if (a, b) == (k, i) else ZERO for b in range(dim)] for a in range(dim)]
        columns.append(residual_stack(E))
    nrows = 2 * dim * dim + len(images) * dim
    return [[columns[c][r_] for c in range(len(slots))] for r_ in range(nrows)], slots


def companion_rhs(space_parities, alpha, beta, entries, arity, s, r, D, parity):
    """Right-hand side matching :func:`companion_system` for the candidate D.

    Zero on the commutation block; per basis tuple, the signed insertion sum
    sum_p (-1)^{|D|(|e_t1| + ... + |e_t(p-1)|)} [M e_t1, ..., D e_tp, ..., M e_tn]
    with M = alpha^s beta^r.
    """
    dim = len(space_parities)
    ent = dict(entries)
    M = [[ONE if i == k else ZERO for i in range(dim)] for k in range(dim)]
    for _ in range(s):
        M = _compose(alpha, M)
    for _ in range(r):
        M = _compose(beta, M)
    Dcol = [[D[k][i] for k in range(dim)] for i in range(dim)]
    Mcol = [[M[k][i] for k in range(dim)] for i in range(dim)]
    rhs = [ZERO] * (2 * dim * dim)
    for t in itertools.product(range(dim), repeat=arity):
        total = [ZERO] * dim
        for p in range(arity):
            args = [Dcol[i] if q == p else Mcol[i] for q, i in enumerate(t)]
            sgn = sign(parity * sum(space_parities[i] for i in t[:p]))
            total = [a + sgn * b for a, b in zip(total, _bracket_of_vectors(ent, dim, args))]
        rhs.extend(total)
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
    dim = len(space_parities)
    ent = dict(entries)
    identity = {2: "binary-twisted-derivation", 3: "ternary-twisted-derivation"}[arity]
    violations = []
    for name, other in (("alpha", alpha), ("beta", beta)):
        dm, md = _compose(D, other), _compose(other, D)
        for i in range(dim):
            col = tuple(dm[k][i] - md[k][i] for k in range(dim))
            if any(col):
                violations.append(((i,), col, f"commutes-with-{name}"))
    total = 2 * dim
    if fail_fast and violations:
        return identity, total, violations
    M = [list(unit_vec(dim, k)) for k in range(dim)]
    for _ in range(s):
        M = _compose(alpha, M)
    for _ in range(r):
        M = _compose(M, beta)
    for t in itertools.product(range(dim), repeat=arity):
        total += 1
        units = [unit_vec(dim, i) for i in t]
        res = list(matvec(D, _bracket_of_vectors(ent, dim, units)))
        for p in range(arity):
            args = [matvec(D, u) if q == p else matvec(M, u) for q, u in enumerate(units)]
            sgn = sign(parity * sum(space_parities[i] for i in t[:p]))
            res = [a - sgn * b for a, b in zip(res, _bracket_of_vectors(ent, dim, args))]
        if any(res):
            violations.append((t, tuple(res), "leibniz"))
            if fail_fast:
                break
    return identity, total, violations


def _column(matrix, i):
    return [row[i] for row in matrix]


def _twisted_tables(space_parities, alpha, beta, entries):
    """Dense tables of one ternary tensor w on twisted basis arguments.

    inner[a][b][c] = w(beta e_a, beta e_b, alpha e_c); outer[slot][u][v] is the
    matrix of the map s -> w with e_s in ``slot`` and beta^2 e_u, beta^2 e_v in
    the other two slots, in order (column s is that bracket).
    """
    dim = len(space_parities)
    ent = dict(entries)
    beta2 = _compose(beta, beta)
    units = [unit_vec(dim, i) for i in range(dim)]
    inner = [[[_bracket_of_vectors(ent, dim, [_column(beta, a), _column(beta, b), _column(alpha, c)])
               for c in range(dim)] for b in range(dim)] for a in range(dim)]
    outer = []
    for slot in range(3):
        tables = []
        for u in range(dim):
            row = []
            for v in range(dim):
                columns = []
                for s in range(dim):
                    args = [_column(beta2, u), _column(beta2, v)]
                    args.insert(slot, units[s])
                    columns.append(_bracket_of_vectors(ent, dim, args))
                row.append([[columns[s][k] for s in range(dim)] for k in range(dim)])
            tables.append(row)
        outer.append(tables)
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
    terms = [
        (1, outer[0][d][m], inner[a][b][c]),
        (sign(P[c] * pX), outer[1][c][m], inner[a][b][d]),
        (-1, outer[2][a][b], inner[c][d][m]),
        (sign(pX * pY), outer[2][c][d], inner[a][b][m]),
    ]
    out = [ZERO] * len(P)
    for sgn, matrix, vec in terms:
        for s, x in enumerate(vec):
            if x:
                out = [y + sgn * x * row[s] for y, row in zip(out, matrix)]
    return out


def _degree_walk(P, tables, pairs):
    """Yield (t, sum of w_i o w_j over ``pairs`` at t) for every basis 5-tuple t in order."""
    for t in itertools.product(range(len(P)), repeat=5):
        acc = [ZERO] * len(P)
        for i, j in pairs:
            acc = [x + y for x, y in zip(acc, _wedge_compose(P, tables[i], tables[j], *t))]
        yield t, acc


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

    T(x) = w(beta x_1, ..., beta x_{n-1}, alpha x_n); the residual of the
    swap of slots p, p+1 is T(x) + (-1)^{|x_p||x_{p+1}|} T(x with them
    exchanged).  Rules: ``twisted-swap`` for n = 2, ``swap-12``, ``swap-23``
    for n = 3, each followed by ``suffix``.
    """
    dim = len(P)

    def T(t):
        return _bracket_of_vectors(w, dim, [_column(beta, i) for i in t[:-1]] + [_column(alpha, t[-1])])

    for t in itertools.product(range(dim), repeat=arity):
        base = T(t)
        for p in range(arity - 1):
            s = list(t)
            s[p], s[p + 1] = s[p + 1], s[p]
            sgn = sign(P[t[p]] * P[t[p + 1]])
            rule = "twisted-swap" if arity == 2 else f"swap-{p + 1}{p + 2}"
            yield t, rule + suffix, [x + sgn * y for x, y in zip(base, T(s))]


def _morphism_walk(alpha, beta, w, arity, rule, flip=False):
    """m(w(e_t)) - w(m e_t) for m = alpha, then beta, on every basis tuple (negated when ``flip``)."""
    dim = len(alpha)
    for t in itertools.product(range(dim), repeat=arity):
        value = _bracket_of_vectors(w, dim, [unit_vec(dim, i) for i in t])
        for name, m in (("alpha", alpha), ("beta", beta)):
            moved = _bracket_of_vectors(w, dim, [_column(m, i) for i in t])
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
    dim = len(alpha)
    ab, ba = _compose(alpha, beta), _compose(beta, alpha)
    commute = (((i,), "twists-commute", [ab[k][i] - ba[k][i] for k in range(dim)]) for i in range(dim))
    checks = itertools.chain(commute, _morphism_walk(alpha, beta, dict(entries), arity, "{}-morphism"))
    return _walk_reports({2: "binary-multiplicativity", 3: "ternary-multiplicativity"}[arity], checks)


def _slot_masks(arity):
    """Every subset of the slots as a tuple of booleans."""
    return itertools.product((False, True), repeat=arity)


def _weighted_sum(entries, dim, R, weight, t):
    """[e_t]_R: the sum over nonempty kept-slot sets I of weight^{|I|-1} [args], R outside I."""
    acc = [ZERO] * dim
    for kept in _slot_masks(len(t)):
        if any(kept):
            args = [unit_vec(dim, i) if keep else _column(R, i) for keep, i in zip(kept, t)]
            c = weight ** (sum(kept) - 1)
            acc = [a + c * b for a, b in zip(acc, _bracket_of_vectors(entries, dim, args))]
    return acc


def rb_reports(entries, arity, R, weight):
    """Dense walk of ``is_rb2``/``is_rb3``: [R e_t] - R([e_t]_R) on every basis tuple,
    as (full report, fail-fast report)."""
    ent, dim = dict(entries), len(R)

    def checks():
        for t in itertools.product(range(dim), repeat=arity):
            lhs = _bracket_of_vectors(ent, dim, [_column(R, i) for i in t])
            rhs = matvec(R, _weighted_sum(ent, dim, R, weight, t))
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
    ent = dict(entries)
    return _entries_of(len(R), arity, lambda t: _weighted_sum(ent, len(R), R, weight, t))


def _n_bracket_value(entries, dim, N, t, inserted):
    """The ``inserted``-th N-bracket at e_t: the bracket with N in ``inserted`` slots, summed
    over every choice, minus N of the previous N-bracket (the 0-th is the bracket)."""
    units = [unit_vec(dim, i) for i in t]
    if inserted == 0:
        return _bracket_of_vectors(entries, dim, units)
    acc = [-x for x in matvec(N, _n_bracket_value(entries, dim, N, t, inserted - 1))]
    for mask in _slot_masks(len(t)):
        if sum(mask) == inserted:
            args = [matvec(N, u) if m else u for m, u in zip(mask, units)]
            acc = [a + b for a, b in zip(acc, _bracket_of_vectors(entries, dim, args))]
    return acc


def n_bracket_entries(entries, arity, N, inserted):
    """Structure constants of the first (``inserted`` = 1) or second N-bracket."""
    ent = dict(entries)
    return _entries_of(len(N), arity, lambda t: _n_bracket_value(ent, len(N), N, t, inserted))


def nijenhuis_reports(entries, arity, N):
    """Dense walk of ``is_nijenhuis_2``/``is_nijenhuis_3``: [N e_t] - N(w(e_t)) on every
    basis tuple, w the (arity - 1)-th N-bracket; (full report, fail-fast report)."""
    ent, dim = dict(entries), len(N)

    def checks():
        for t in itertools.product(range(dim), repeat=arity):
            lhs = _bracket_of_vectors(ent, dim, [_column(N, i) for i in t])
            rhs = matvec(N, _n_bracket_value(ent, dim, N, t, arity - 1))
            yield t, "nijenhuis", [a - b for a, b in zip(lhs, rhs)]

    return _walk_reports({2: "binary-nijenhuis", 3: "ternary-nijenhuis"}[arity], checks())


def _tau_sum(P, scalars, pair_value, t):
    """s(x) B(y, z) - (-1)^{|x||y|} s(y) B(x, z) + (-1)^{|z|(|x|+|y|)} s(z) B(x, y) at t = (x, y, z)."""
    x, y, z = t
    terms = [(scalars[x], pair_value(y, z)), (-sign(P[x] * P[y]) * scalars[y], pair_value(x, z)),
             (sign(P[z] * (P[x] + P[y])) * scalars[z], pair_value(x, y))]
    out = [ZERO] * len(P)
    for c, v in terms:
        out = [a + c * b for a, b in zip(out, v)]
    return out


def tau_induced_entries(space_parities, entries, tau):
    """Structure constants of the ternary bracket induced by the form ``tau``."""
    ent, dim = dict(entries), len(space_parities)

    def pair(a, b):
        return _bracket_of_vectors(ent, dim, [unit_vec(dim, a), unit_vec(dim, b)])

    return _entries_of(dim, 3, lambda t: _tau_sum(space_parities, tau, pair, t))


def rb_transfer_report(space_parities, entries, tau, R, weight):
    """Dense walk of the report of ``check_rb_transfer_criterion``: (R + weight Id) applied
    to the tau-sum of [R e_a, R e_b] on every basis triple."""
    ent, dim = dict(entries), len(space_parities)

    def pair(a, b):
        return _bracket_of_vectors(ent, dim, [_column(R, a), _column(R, b)])

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
    M = [list(unit_vec(dim, k)) for k in range(dim)]
    for _ in range(s):
        M = _compose(alpha, M)
    for _ in range(r):
        M = _compose(M, beta)

    def form(v):
        return sum((a * b for a, b in zip(tau, v)), ZERO)

    tD = [form(_column(D, i)) for i in range(dim)]

    def pair(a, b):
        return _bracket_of_vectors(ent, dim, [unit_vec(dim, a), unit_vec(dim, b)])

    invariance = (((i,), "form-invariance", [form(_column(M, i)) - tau[i]]) for i in range(dim))
    cyclic = ((t, "signed-cyclic-sum", _tau_sum(space_parities, tD, pair, t))
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
