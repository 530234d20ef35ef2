"""Independent second-path implementations used as oracles.

Nothing here may call into the package's solvers or verifiers; these are
deliberately plain re-implementations (dense Fraction Gauss-Jordan, explicit
loop expansions of the defining identities) so that agreement between the two
paths is meaningful.
"""

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
