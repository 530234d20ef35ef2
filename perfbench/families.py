"""Closed-form generators for the benchmark's inputs.

Nothing here imports the package under test: structure constants, twists,
perturbations and the verdicts they imply are all computed from formulas, so
neither the cost of generation nor the expected answers depend on the code
being measured.

The scaling family is the Heisenberg algebra h_{2m+1} (basis x_1, y_1, ...,
x_m, y_m, z with [x_i, y_i] = z), optionally extended by odd generators t with
[t, t] = z, and its ternary bracket induced by tau = e_1^* (Arnlind, Makhlouf
and Silvestrov, J. Math. Phys. 51 (2010)):

    [x, y, w] = tau(x)[y, w] - (-1)^{|x||y|} tau(y)[x, w]
              + (-1)^{|w|(|x|+|y|)} tau(w)[x, y].

Every induced bracket lands in the centre span(z), and z never enters a
nonzero bracket, so every double bracket vanishes. That single fact decides
the verdicts of the Jacobi, deformation and composition checks below.

Tensors are dicts {(i, j, l, k): Fraction} with 0-based indices; a diagonal
map is a list of its diagonal entries.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction as F

FORMAT = "bihom-algebra/1"


@dataclass(frozen=True)
class Family:
    """One member of the induced Heisenberg family.

    ``pairs`` is m, ``odd`` the number of odd generators t. Index layout:
    x_i = 2(i-1), y_i = 2(i-1)+1, z = 2m, t_a = 2m+1+a.
    """

    pairs: int
    odd: int

    @property
    def dim(self) -> int:
        return 2 * self.pairs + 1 + self.odd

    @property
    def parities(self) -> tuple[int, ...]:
        return (0,) * (2 * self.pairs + 1) + (1,) * self.odd

    def x(self, i: int) -> int:
        return 2 * (i - 1)

    def y(self, i: int) -> int:
        return 2 * (i - 1) + 1

    @property
    def z(self) -> int:
        return 2 * self.pairs

    def odd_indices(self) -> range:
        return range(2 * self.pairs + 1, self.dim)


def family_of_dim(dim: int) -> Family:
    """h_dim for odd dim; h_{dim-1} plus one odd generator for even dim."""
    if dim < 4:
        raise ValueError("the induced family starts at dimension 4")
    if dim % 2:
        return Family((dim - 1) // 2, 0)
    return Family((dim - 2) // 2, 1)


def binary_bracket(fam: Family) -> dict[tuple[int, int, int], F]:
    out = {}
    for i in range(1, fam.pairs + 1):
        out[(fam.x(i), fam.y(i), fam.z)] = F(1)
        out[(fam.y(i), fam.x(i), fam.z)] = F(-1)
    for t in fam.odd_indices():
        out[(t, t, fam.z)] = F(1)
    return out


def induced_tensor(parities, binary, tau) -> dict[tuple[int, int, int, int], F]:
    """The tau-induced ternary tensor of a sparse binary bracket."""
    n = len(parities)
    rows: dict[tuple[int, int], dict[int, F]] = {}
    for (i, j, k), c in binary.items():
        rows.setdefault((i, j), {})[k] = rows.get((i, j), {}).get(k, F(0)) + c
    out: dict[tuple[int, int, int, int], F] = {}
    P = parities
    for i, j, l in itertools.product(range(n), repeat=3):
        terms = (
            (tau[i], 1, (j, l)),
            (tau[j], -_sign(P[i] * P[j]), (i, l)),
            (tau[l], _sign(P[l] * (P[i] + P[j])), (i, j)),
        )
        for t, s, pair in terms:
            if t == 0:
                continue
            for k, c in rows.get(pair, {}).items():
                key = (i, j, l, k)
                out[key] = out.get(key, F(0)) + s * t * c
    return {k: c for k, c in out.items() if c != 0}


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def tau_row(fam: Family) -> list[F]:
    return [F(1) if i == fam.x(1) else F(0) for i in range(fam.dim)]


def ternary(fam: Family) -> dict[tuple[int, int, int, int], F]:
    """The untwisted induced ternary bracket of the family member."""
    return induced_tensor(fam.parities, binary_bracket(fam), tau_row(fam))


def twist(tensor, alpha, beta):
    """[x, y, w]' = [alpha x, alpha y, beta w] for diagonal alpha, beta."""
    return {
        (i, j, l, k): alpha[i] * alpha[j] * beta[l] * c
        for (i, j, l, k), c in tensor.items()
    }


def morphism_diagonal(fam: Family, values, free, odd_sign) -> list[F]:
    """A diagonal morphism of the induced bracket: x_1 -> 1, z -> 1,
    x_i -> a_i, y_i -> 1/a_i for i >= 2, y_1 -> ``free``, t -> +-1."""
    d = [F(1)] * fam.dim
    d[fam.y(1)] = F(free)
    for i, a in zip(range(2, fam.pairs + 1), values):
        d[fam.x(i)] = F(a)
        d[fam.y(i)] = 1 / F(a)
    for t in fam.odd_indices():
        d[t] = F(odd_sign)
    return d


def breaking_orbit(fam: Family, j: int):
    """(triple, target, witness) of a non-central orbit for pair j >= 2.

    Adding the signed orbit of [y_1, y_j, z] = c x_j keeps every twisted swap
    condition: a super-skew tensor stays skew under any commuting diagonal
    twist. It breaks the five-argument identity at the witness
    (x_1, y_j, y_1, y_j, z): the left side is c [x_1, y_j, x_j] = -c z (times
    twist scalars), while every right-side inner bracket [x_1, y_j, w] with w
    in the orbit vanishes. With one pair only, the orbit [y_1, z, t] = c t and
    the witness (x_1, t, y_1, z, t) play the same part. Used as w1 of a
    deformation pair, the same orbit breaks the degree-1 sum at the witness,
    through the term -w0(x_1, y_j, w1(y_1, y_j, z)).
    """
    if fam.pairs >= 2:
        return (fam.y(1), fam.y(j), fam.z), fam.x(j), (fam.x(1), fam.y(j), fam.y(1), fam.y(j), fam.z)
    t = fam.odd_indices()[0]
    return (fam.y(1), fam.z, t), t, (fam.x(1), t, fam.y(1), fam.z, t)


def perturb(tensor, triple, target, coeff):
    """Add coeff * sign(perm) at every permutation of ``triple`` -> e_target."""
    out = dict(tensor)
    for perm in itertools.permutations(range(3)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        key = tuple(triple[p] for p in perm) + (target,)
        out[key] = out.get(key, F(0)) + _sign(inversions) * coeff
    return {k: c for k, c in out.items() if c != 0}


def jacobi_residual_at(parities, tensor, alpha, beta, where) -> tuple[F, ...]:
    """Residual of the five-argument twisted Jacobi identity at one basis tuple,
    for diagonal twists, written out from its definition:

        [b2 x, b2 y, [b z, b u, a v]]
          - s1 [b2 u, b2 v, [b x, b y, a z]]
          + s2 [b2 z, b2 v, [b x, b y, a u]]
          - s3 [b2 z, b2 u, [b x, b y, a v]]
    """
    n = len(parities)
    P = parities
    by_args: dict[tuple[int, int, int], dict[int, F]] = {}
    for (i, j, l, k), c in tensor.items():
        by_args.setdefault((i, j, l), {})[k] = c

    def inner(a, b, c):
        scale = beta[a] * beta[b] * alpha[c]
        return {k: scale * v for k, v in by_args.get((a, b, c), {}).items()}

    def outer(a, b, w):
        out = [F(0)] * n
        scale = beta[a] ** 2 * beta[b] ** 2
        for m, wm in w.items():
            for k, c in by_args.get((a, b, m), {}).items():
                out[k] += scale * wm * c
        return out

    x, y, z, u, v = where
    s1 = _sign((P[u] + P[v]) * (P[x] + P[y] + P[z]))
    s2 = _sign((P[z] + P[v]) * (P[x] + P[y]) + P[u] * P[v])
    s3 = _sign((P[z] + P[u]) * (P[x] + P[y]))
    lhs = outer(x, y, inner(z, u, v))
    t1 = outer(u, v, inner(x, y, z))
    t2 = outer(z, v, inner(x, y, u))
    t3 = outer(z, u, inner(x, y, v))
    return tuple(lhs[k] - (s1 * t1[k] - s2 * t2[k] + s3 * t3[k]) for k in range(n))


def derivation_rows(parities, alpha, beta, tensor, s, r, parity):
    """Constraint rows of the (s, r)-derivation space for diagonal twists.

    The same linear system as ``derivation_constraint_matrix_3`` in the test
    oracles (unknowns are the parity-allowed entries of D in row-major order),
    assembled entry by entry from the sparse tensor instead of densely, so it
    stays cheap at the benchmark's dimensions. Returns (rows, ncols).
    """
    n = len(parities)
    P = parities
    q = parity
    slots = [(k, i) for k in range(n) for i in range(n) if P[k] == (P[i] + q) % 2]
    index_of = {slot: c for c, slot in enumerate(slots)}
    M = [alpha[i] ** s * beta[i] ** r for i in range(n)]
    rows: list[dict[int, F]] = []
    for (k, i) in slots:
        if alpha[k] != alpha[i] or beta[k] != beta[i]:
            rows.append({index_of[(k, i)]: F(1)})
    leibniz: dict[tuple[int, int, int, int], dict[int, F]] = {}

    def add(row_key, slot, coeff):
        col = index_of.get(slot)
        if col is not None:
            row = leibniz.setdefault(row_key, {})
            row[col] = row.get(col, F(0)) + coeff

    for (a, b, c, k), coef in tensor.items():
        for t in range(n):
            # D applied to the bracket value: entry (a, b, c) -> k, row component t
            add((a, b, c, t), (t, k), coef)
            # [D e_t, M e_b, M e_c] has component k from the entry (a, b, c)
            add((t, b, c, k), (a, t), -coef * M[b] * M[c])
            add((a, t, c, k), (b, t), -_sign(P[a] * q) * coef * M[a] * M[c])
            add((a, b, t, k), (c, t), -_sign(q * (P[a] + P[b])) * coef * M[a] * M[b])
    rows.extend(leibniz.values())
    dense = []
    for row in rows:
        line = [F(0)] * len(slots)
        for col, coeff in row.items():
            line[col] = coeff
        dense.append(line)
    return dense, len(slots)


# ---------------------------------------------------------------------------
# entrywise conditions for diagonal operators
# ---------------------------------------------------------------------------
#
# For diagonal maps every identity below separates over the tensor entries
# (i, j, l) -> k, so a verdict is one product test per entry.

def _e1(a, b, c):
    return a + b + c


def _e2(a, b, c):
    return a * b + a * c + b * c


def rb_entry_ok(r, weight, key) -> bool:
    """Weighted Baxter identity at one entry, for diagonal R."""
    i, j, l, k = key
    a, b, c = r[i], r[j], r[l]
    return a * b * c == r[k] * (_e2(a, b, c) + weight * _e1(a, b, c) + weight * weight)


def nijenhuis_entry_ok(n, key) -> bool:
    """Nijenhuis identity at one entry: (n_i - n_k)(n_j - n_k)(n_l - n_k) = 0."""
    i, j, l, k = key
    return (n[i] - n[k]) * (n[j] - n[k]) * (n[l] - n[k]) == 0


def rb_bracket_tensor(tensor, r, weight):
    """Subset-induced bracket of a diagonal weighted operator."""
    out = {}
    for (i, j, l, k), c in tensor.items():
        a, b, cc = r[i], r[j], r[l]
        v = c * (_e2(a, b, cc) + weight * _e1(a, b, cc) + weight * weight)
        if v:
            out[(i, j, l, k)] = v
    return out


def n_brackets(tensor, n):
    """First and second N-brackets of a diagonal N."""
    first, second = {}, {}
    for (i, j, l, k), c in tensor.items():
        a, b, cc = n[i], n[j], n[l]
        v1 = c * (_e1(a, b, cc) - n[k])
        v2 = c * (_e2(a, b, cc) - n[k] * _e1(a, b, cc) + n[k] * n[k])
        if v1:
            first[(i, j, l, k)] = v1
        if v2:
            second[(i, j, l, k)] = v2
    return first, second


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def _q(c) -> str:
    return str(F(c))


def diagonal_matrix(d) -> dict:
    n = len(d)
    return {
        "parity": 0,
        "matrix": [[_q(d[k]) if k == i else "0" for i in range(n)] for k in range(n)],
    }


def matrix_entry(rows) -> dict:
    """An even map given by its full matrix."""
    return {"parity": 0, "matrix": [[_q(c) for c in row] for row in rows]}


def document(parities, bracket2=None, bracket3=None, maps=None, rows=None,
             scalars=None, multiplicative=False, metadata="") -> dict:
    """A document tree in the package's input format (1-based indices)."""
    tree: dict = {
        "format": FORMAT,
        "space": {"dim": len(parities), "parities": list(parities)},
    }
    if bracket2 is not None:
        tree["bracket2"] = [[i + 1, j + 1, k + 1, _q(c)] for (i, j, k), c in sorted(bracket2.items())]
    if bracket3 is not None:
        tree["bracket3"] = [
            [i + 1, j + 1, l + 1, k + 1, _q(c)] for (i, j, l, k), c in sorted(bracket3.items())
        ]
    node = dict(maps or {})
    for name, row in (rows or {}).items():
        node[name] = {"row": [_q(c) for c in row]}
    if node:
        tree["maps"] = node
    if scalars:
        tree["scalars"] = {k: _q(v) for k, v in scalars.items()}
    if multiplicative:
        tree["multiplicative"] = True
    if metadata:
        tree["metadata"] = metadata
    return tree


def dump(tree: dict) -> str:
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def tensor_from_tree(node) -> dict[tuple[int, int, int, int], F]:
    """Read a serialized bracket3 list back into a 0-based tensor dict."""
    return {(i - 1, j - 1, l - 1, k - 1): F(c) for i, j, l, k, c in node.get("bracket3", [])}
