"""The shared fixture corpus: named algebras, forms, and operators.

Everything constructed here is verified at build time (construction asserts),
so downstream tests can rely on the advertised properties.  Fixtures cover
dimensions 2 through 4 with mixed parities, identity and non-identity
structure maps, and both zero and nonzero induced tensors.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction as F

from bihomsuper import (
    BiHomLieSuperalgebra,
    GradedMap,
    LinearForm,
    RotaBaxterOperator,
    StructureTensor2,
    StructureTensor3,
    SuperSpace,
    ThreeBiHomLieSuperalgebra,
    check_tau_conditions,
    induce_tau,
    make_twist_2,
    make_twist_3,
    is_rb2,
    is_rb3,
    verify_3bihom_jacobi,
    verify_3bihom_skewsymmetry,
    verify_bihom_jacobi,
    verify_bihom_skewsymmetry,
)
from bihomsuper.core import basis_tuples, ksign, vec_is_zero, vec_add, vec_scale


@dataclass(frozen=True)
class BinaryFixture:
    name: str
    algebra: BiHomLieSuperalgebra


@dataclass(frozen=True)
class TauFixture:
    name: str
    algebra: BiHomLieSuperalgebra
    tau: LinearForm


@dataclass(frozen=True)
class TernaryFixture:
    name: str
    algebra: ThreeBiHomLieSuperalgebra
    plainly_skew: bool


@dataclass(frozen=True)
class RBFixture:
    name: str
    algebra: ThreeBiHomLieSuperalgebra
    operator: RotaBaxterOperator


def _assert_binary_valid(A: BiHomLieSuperalgebra, name: str) -> None:
    assert verify_bihom_skewsymmetry(A).passed, name
    assert verify_bihom_jacobi(A).passed, name


def _assert_ternary_valid(A: ThreeBiHomLieSuperalgebra, name: str) -> None:
    assert verify_3bihom_skewsymmetry(A).passed, name
    assert verify_3bihom_jacobi(A).passed, name


def is_plainly_skew(T: StructureTensor3) -> bool:
    P = T.space.parities
    for i, j, l in basis_tuples(T.space, 3):
        base = T.bracket_basis(i, j, l)
        sw12 = vec_add(base, vec_scale(ksign(P[i] * P[j]), T.bracket_basis(j, i, l)))
        sw23 = vec_add(base, vec_scale(ksign(P[j] * P[l]), T.bracket_basis(i, l, j)))
        if not (vec_is_zero(sw12) and vec_is_zero(sw23)):
            return False
    return True


def skew_fill_3(space: SuperSpace, value_of: dict[tuple[int, int, int], list]) -> StructureTensor3:
    """Fill an all-even plainly skew tensor from values on increasing triples."""
    assert all(p == 0 for p in space.parities)
    entries: dict[tuple[int, int, int, int], F] = {}
    for (i, j, l), vec in value_of.items():
        assert i < j < l
        for perm in itertools.permutations((i, j, l)):
            inversions = sum(
                1 for a in range(3) for b in range(a + 1, 3)
                if (i, j, l).index(perm[a]) > (i, j, l).index(perm[b])
            )
            sgn = -1 if inversions % 2 else 1
            for k, c in enumerate(vec):
                if c:
                    entries[(perm[0], perm[1], perm[2], k)] = sgn * F(c)
    return StructureTensor3.from_dict(space, entries)


# ---------------------------------------------------------------------------
# binary algebras
# ---------------------------------------------------------------------------

def document_algebra(doc, arity: int):
    """The algebra of a document's binary (arity 2) or ternary tensor and its structure maps,
    as the command line builds it."""
    cls, bracket = (BiHomLieSuperalgebra, doc.bracket2) if arity == 2 else (ThreeBiHomLieSuperalgebra, doc.bracket3)
    return cls(doc.space, bracket, *doc.structure_maps(), doc.multiplicative)


def count_calls(monkeypatch, function) -> list:
    """Count calls of ``function``: rebind it in every ``bihomsuper`` module that holds it.

    Returns the list of each call's positional arguments, appended as the calls happen.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bihomsuper" or name.startswith("bihomsuper."):
            for key, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, key, counted)
    return calls


def _lie(space, entries, alpha=None, beta=None, multiplicative=True):
    ident = GradedMap.identity(space)
    return BiHomLieSuperalgebra(
        space,
        StructureTensor2.from_dict(space, entries),
        alpha if alpha is not None else ident,
        beta if beta is not None else ident,
        multiplicative,
    )


@lru_cache(maxsize=None)
def binary_fixtures() -> list[BinaryFixture]:
    out = []

    sp2e = SuperSpace((0, 0))
    sp2m = SuperSpace((0, 1))
    sp3e = SuperSpace((0, 0, 0))
    sp3m = SuperSpace((0, 1, 0))
    sp3s = SuperSpace((0, 1, 1))
    sp4g = SuperSpace((0, 0, 1, 1))
    sp4e = SuperSpace((0, 0, 0, 0))
    sp4m = SuperSpace((0, 0, 0, 1))

    out.append(BinaryFixture("abelian2-even", _lie(sp2e, {})))
    out.append(BinaryFixture("abelian2-mixed", _lie(sp2m, {})))
    # odd-odd bracket is symmetric: [e2, e2] = e1 with e2 odd
    out.append(BinaryFixture("heis-super2", _lie(sp2m, {(1, 1, 0): 1})))
    out.append(BinaryFixture("axb2", _lie(sp2e, {(0, 1, 1): 1, (1, 0, 1): -1})))
    out.append(
        BinaryFixture("axb3-trivline", _lie(sp3e, {(1, 2, 1): 1, (2, 1, 1): -1}))
    )
    # same bracket with the acted-on line odd
    out.append(
        BinaryFixture("axb3-oddline", _lie(sp3m, {(1, 2, 1): 1, (2, 1, 1): -1}))
    )
    out.append(BinaryFixture("heis3", _lie(sp3e, {(0, 1, 2): 1, (1, 0, 2): -1})))
    out.append(
        BinaryFixture("heis-super3", _lie(sp3s, {(1, 2, 0): 1, (2, 1, 0): 1}))
    )
    out.append(
        BinaryFixture(
            "sl2",
            _lie(
                sp3e,
                {
                    (0, 1, 1): 2, (1, 0, 1): -2,
                    (0, 2, 2): -2, (2, 0, 2): 2,
                    (1, 2, 0): 1, (2, 1, 0): -1,
                },
            ),
        )
    )
    out.append(
        BinaryFixture(
            "gl11",
            _lie(
                sp4g,
                {
                    (1, 2, 2): 2, (2, 1, 2): -2,
                    (1, 3, 3): -2, (3, 1, 3): 2,
                    (2, 3, 0): 1, (3, 2, 0): 1,
                },
            ),
        )
    )
    out.append(
        BinaryFixture("heis4", _lie(sp4e, {(1, 2, 3): 1, (2, 1, 3): -1}))
    )
    out.append(
        BinaryFixture(
            "axb3-odd-central", _lie(sp4m, {(1, 2, 1): 1, (2, 1, 1): -1})
        )
    )

    # twisted fixtures (construction verifies all binary axioms)
    base = {f.name: f.algebra for f in out}
    ax = base["axb3-trivline"]
    phi = GradedMap.diagonal(ax.space, [1, 2, 1])
    out.append(BinaryFixture("axb3-twist-phi", make_twist_2(
        BiHomLieSuperalgebra(ax.space, ax.bracket, GradedMap.identity(ax.space), GradedMap.identity(ax.space)),
        phi, phi)))
    g = base["gl11"]
    psi = GradedMap.diagonal(g.space, [1, 1, 2, F(1, 2)])
    out.append(BinaryFixture("gl11-twist-psi", make_twist_2(
        BiHomLieSuperalgebra(g.space, g.bracket, GradedMap.identity(g.space), GradedMap.identity(g.space)),
        psi, psi)))
    ab = base["axb2"]
    out.append(BinaryFixture("axb2-twist-aneb", make_twist_2(
        BiHomLieSuperalgebra(ab.space, ab.bracket, GradedMap.identity(ab.space), GradedMap.identity(ab.space)),
        GradedMap.diagonal(ab.space, [1, 2]), GradedMap.diagonal(ab.space, [1, 3]))))

    for f in out:
        _assert_binary_valid(f.algebra, f.name)
    return out


def _with_maps(A: BiHomLieSuperalgebra, alpha, beta) -> BiHomLieSuperalgebra:
    return BiHomLieSuperalgebra(A.space, A.bracket, alpha, beta, A.multiplicative)


@lru_cache(maxsize=None)
def tau_fixtures() -> list[TauFixture]:
    """At least twenty (algebra, form) pairs passing all induction conditions."""
    named = {f.name: f.algebra for f in binary_fixtures()}
    out: list[TauFixture] = []

    def add(name, A, coeffs):
        t = LinearForm(A.space, tuple(F(c) for c in coeffs))
        witness = check_tau_conditions(A, t)
        assert witness.satisfied, name
        out.append(TauFixture(name, A, t))

    ab2 = named["abelian2-even"]
    add("abelian2/t10", ab2, (1, 0))
    add("abelian2/t11", ab2, (1, 1))
    abm = named["abelian2-mixed"]
    add("abelian2-mixed/t10", abm, (1, 0))
    add(
        "abelian2-mixed/beta=2alpha",
        _with_maps(abm, GradedMap.diagonal(abm.space, [1, 2]), GradedMap.diagonal(abm.space, [2, 4])),
        (1, 0),
    )
    add("heis-super2/zero", named["heis-super2"], (0, 0))
    add("axb2/t10", named["axb2"], (1, 0))
    phi2 = GradedMap.diagonal(named["axb2"].space, [1, 2])
    add("axb2/diag", _with_maps(named["axb2"], phi2, phi2), (1, 0))
    ax = named["axb3-trivline"]
    add("axb3/id", ax, (1, 0, 0))
    add("axb3/id-scaled", ax, (2, 0, 0))
    d121 = GradedMap.diagonal(ax.space, [1, 2, 1])
    add("axb3/diag121", _with_maps(ax, d121, d121), (1, 0, 0))
    d351 = GradedMap.diagonal(ax.space, [3, 5, 1])
    add("axb3/diag351", _with_maps(ax, d351, d351), (1, 0, 0))
    axo = named["axb3-oddline"]
    add("axb3-odd/id", axo, (1, 0, 0))
    od = GradedMap.diagonal(axo.space, [1, 2, 1])
    add("axb3-odd/diag", _with_maps(axo, od, od), (1, 0, 0))
    g = named["gl11"]
    add("gl11/id", g, (0, 1, 0, 0))
    gd = GradedMap.diagonal(g.space, [1, 1, 3, F(1, 3)])
    add("gl11/diag3", _with_maps(g, gd, gd), (0, 1, 0, 0))
    gd2 = GradedMap.diagonal(g.space, [1, 1, 2, F(1, 2)])
    add("gl11/diag2-scaled", _with_maps(g, gd2, gd2), (0, 2, 0, 0))
    h4 = named["heis4"]
    add("heis4/id", h4, (1, 0, 0, 0))
    h4d = GradedMap.diagonal(h4.space, [1, 2, 3, 6])
    add("heis4/diag", _with_maps(h4, h4d, h4d), (1, 0, 0, 0))
    add("axb3-odd-central/id", named["axb3-odd-central"], (1, 0, 0, 0))
    add("heis3/t110", named["heis3"], (1, 1, 0))
    add("axb3-twist/t100", named["axb3-twist-phi"], (1, 0, 0))
    add("gl11-twist/tau-d", named["gl11-twist-psi"], (0, 1, 0, 0))
    # alpha != beta with tau = 0: conditions are vacuous
    sp3z = SuperSpace((0, 0, 1))
    zero3 = _lie(sp3z, {}, GradedMap.diagonal(sp3z, [1, 2, 1]), GradedMap.diagonal(sp3z, [1, 3, 1]))
    add("abelian3/alpha-ne-beta/zero", zero3, (0, 0, 0))
    add("axb2-twist-aneb/zero", named["axb2-twist-aneb"], (0, 0))

    assert len(out) >= 20
    return out


def _gl21(alpha_diagonal, beta_diagonal) -> tuple[BiHomLieSuperalgebra, LinearForm]:
    """gl(2|1) twisted by Ad(diag(alpha_diagonal)) and Ad(diag(beta_diagonal)), and its supertrace.

    Basis E_ij at index 3 i + j, |E_ij| = p(i) + p(j) with p = (0, 0, 1), and
    [E_ij, E_kl] = delta_jk E_il - (-1)^{|E_ij||E_kl|} delta_li E_kj; the
    twisted bracket is [Ad(D1) x, Ad(D2) y], and Ad(D) E_ij = (d_i / d_j) E_ij.
    The supertrace is tau(E_ii) = (-1)^{p(i)}.
    """
    p = (0, 0, 1)
    space = SuperSpace(tuple((p[i] + p[j]) % 2 for i in range(3) for j in range(3)))
    entries = {}
    for (i, j), (k, l) in itertools.product(itertools.product(range(3), repeat=2), repeat=2):
        x, y = 3 * i + j, 3 * k + l
        if j == k:
            entries[x, y, 3 * i + l] = entries.get((x, y, 3 * i + l), 0) + 1
        if l == i:
            entries[x, y, 3 * k + j] = entries.get((x, y, 3 * k + j), 0) - ksign(space.parity(x) * space.parity(y))
    alpha, beta = (GradedMap.diagonal(space, [F(d[i], d[j]) for i in range(3) for j in range(3)])
                   for d in (alpha_diagonal, beta_diagonal))
    supertrace = LinearForm(space, tuple(F(ksign(p[i])) if i == j else F(0) for i in range(3) for j in range(3)))
    return make_twist_2(_lie(space, entries), alpha, beta), supertrace


@lru_cache(maxsize=None)
def gl21_fixtures() -> list[TauFixture]:
    """gl(2|1) with its supertrace under Ad-twists, two BiHom-Lie superalgebras of dim 9.

    ``gl21/equal``: alpha = beta = Ad(diag(1, 2, 3)), whose entries have
    denominators 2 and 3; all three induction conditions hold.
    ``gl21/unequal``: alpha = Ad(diag(1, 2, 3)), beta = Ad(diag(1, 5, 7)); only
    tau-twist-proportionality fails, on 18 of the 81 pairs.  Kept out of
    :func:`tau_fixtures`, whose induced algebras every ternary dense walk runs on.
    """
    out = []
    for name, beta_diagonal in (("gl21/equal", (1, 2, 3)), ("gl21/unequal", (1, 5, 7))):
        A, supertrace = _gl21((1, 2, 3), beta_diagonal)
        out.append(TauFixture(name, A, supertrace))
    reports = [[(r.passed, r.total, len(r.violations)) for r in check_tau_conditions(f.algebra, f.tau).reports()]
               for f in out]
    assert reports == [[(True, 81, 0)] * 3, [(True, 81, 0), (True, 81, 0), (False, 81, 18)]], reports
    return out


# ---------------------------------------------------------------------------
# ternary algebras
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def ternary_fixtures() -> list[TernaryFixture]:
    out: list[TernaryFixture] = []

    def add(name, A):
        _assert_ternary_valid(A, name)
        out.append(TernaryFixture(name, A, is_plainly_skew(A.bracket)))

    sp2m = SuperSpace((0, 1))
    ident2 = GradedMap.identity(sp2m)
    add("zero3-dim2", ThreeBiHomLieSuperalgebra(sp2m, StructureTensor3.zero(sp2m), ident2, ident2, True))
    add(
        "zero3-dim2-diag",
        ThreeBiHomLieSuperalgebra(
            sp2m, StructureTensor3.zero(sp2m),
            GradedMap.diagonal(sp2m, [1, 2]), GradedMap.diagonal(sp2m, [1, 3]), True,
        ),
    )

    # zero bracket with a non-diagonal structure map (commutant is interesting)
    sp2e = SuperSpace((0, 0))
    shear = GradedMap(sp2e, ((F(1), F(1)), (F(0), F(1))), 0)
    add(
        "zero3-dim2-shear",
        ThreeBiHomLieSuperalgebra(
            sp2e, StructureTensor3.zero(sp2e), shear, GradedMap.identity(sp2e), True
        ),
    )

    sp3 = SuperSpace((0, 0, 0))
    t1 = skew_fill_3(sp3, {(0, 1, 2): [1, 0, 0]})
    i3 = GradedMap.identity(sp3)
    base1 = ThreeBiHomLieSuperalgebra(sp3, t1, i3, i3, True)
    add("t3-e1", base1)

    sp4 = SuperSpace((0, 0, 0, 0))
    t2 = skew_fill_3(sp4, {(0, 1, 2): [0, 0, 0, 1]})
    i4 = GradedMap.identity(sp4)
    add("t3-e4", ThreeBiHomLieSuperalgebra(sp4, t2, i4, i4, True))

    # equal twists keep the bracket plainly skew and multiplicative
    phi = GradedMap.diagonal(sp3, [2, 3, F(1, 3)])
    add("t3-e1-twist-equal", make_twist_3(base1, phi, phi))

    # different twists give a verified algebra that is NOT plainly skew
    beta = GradedMap.diagonal(sp3, [1, 2, F(1, 2)])
    add("t3-e1-twist-aneb", make_twist_3(base1, i3, beta))

    # tau-induced fixtures, nonzero tensors only
    for fx in tau_fixtures():
        induced = induce_tau(fx.algebra, fx.tau)
        if not induced.bracket.is_zero():
            add(f"induced/{fx.name}", induced)

    return out


@lru_cache(maxsize=None)
def plainly_skew_ternary_fixtures() -> list[TernaryFixture]:
    return [f for f in ternary_fixtures() if f.plainly_skew]


# ---------------------------------------------------------------------------
# weighted operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def rb_fixtures() -> list[RBFixture]:
    """Verified (algebra, operator) pairs covering weights 0, 1, -1, 1/2."""
    named = {f.name: f.algebra for f in ternary_fixtures()}
    out: list[RBFixture] = []

    def add(name, A, mat_diag_or_map, weight):
        if isinstance(mat_diag_or_map, GradedMap):
            m = mat_diag_or_map
        else:
            m = GradedMap.diagonal(A.space, mat_diag_or_map)
        op = RotaBaxterOperator(m, F(weight))
        rep = is_rb3(A, op)
        assert rep.passed, f"{name}: {rep.summary()}"
        out.append(RBFixture(name, A, op))

    z2 = named["zero3-dim2"]
    add("zero/diag-half", z2, [1, 2], F(1, 2))
    add("zero/diag-w1", z2, [3, 1], 1)
    add("zero/diag-w-1", z2, [1, 1], -1)
    add("zero/diag-w0", z2, [5, 7], 0)

    t1 = named["t3-e1"]
    add("t3-e1/zero-w0", t1, [0, 0, 0], 0)
    add("t3-e1/zero-w1", t1, [0, 0, 0], 1)
    add("t3-e1/id-w-1", t1, [1, 1, 1], -1)
    add("t3-e1/minus-id-w1", t1, [-1, -1, -1], 1)
    add("t3-e1/minus-half-w1", t1, [F(-1, 2), F(-1, 2), F(-1, 2)], 1)
    add("t3-e1/quarter-whalf", t1, [F(-1, 4), F(-1, 4), F(-1, 4)], F(1, 2))
    add("t3-e1/proj-w0", t1, [1, 0, 0], 0)
    add("t3-e1/proj-w-1", t1, [1, 0, 0], -1)
    add("t3-e1/split-w0", t1, [2, 1, -1], 0)

    t4 = named["t3-e4"]
    add("t3-e4/w0", t4, [2, 2, 2, F(2, 3)], 0)
    add("t3-e4/w1", t4, [2, 2, 2, F(8, 19)], 1)
    add("t3-e4/whalf", t4, [2, 2, 2, F(32, 61)], F(1, 2))

    assert len(out) >= 10
    weights = {f.operator.weight for f in out}
    assert {F(0), F(1), F(-1), F(1, 2)} <= weights
    return out


@lru_cache(maxsize=None)
def transfer_fixtures():
    """(name, binary algebra, tau, operator) tuples with a verified binary operator.

    Chosen so that both transfer verdicts occur; the expected verdict is not
    hardcoded, the acceptance test derives it from the two independent routes.
    """
    named = {f.name: f.algebra for f in binary_fixtures()}
    taus = {t.name: t for t in tau_fixtures()}
    out = []

    def add(name, A, tau, diag, weight):
        op = RotaBaxterOperator(GradedMap.diagonal(A.space, diag), F(weight))
        assert is_rb2(A, op).passed, name
        out.append((name, A, tau, op))

    h4 = taus["heis4/id"]
    add("heis4/zero-w0", h4.algebra, h4.tau, [0, 0, 0, 0], 0)
    add("heis4/id-w-1", h4.algebra, h4.tau, [1, 1, 1, 1], -1)
    add("heis4/eigen-w1", h4.algebra, h4.tau, [1, -1, 5, -1], 1)
    add("heis4/proj-w0", h4.algebra, h4.tau, [1, 0, 0, 0], 0)
    add("heis4/fail-w0", h4.algebra, h4.tau, [1, 2, 2, 1], 0)
    add("heis4/fail2-w0", h4.algebra, h4.tau, [1, 3, 6, 2], 0)
    add("heis4/fail-w1", h4.algebra, h4.tau, [1, 1, 1, F(1, 3)], 1)
    add("heis4/fail2-w1", h4.algebra, h4.tau, [1, 2, 3, 1], 1)
    ax = taus["axb3/id"]
    add("axb3/kernel-w-half", ax.algebra, ax.tau, [1, 0, 5], F(1, 2))
    add("axb3/eigen-w1", ax.algebra, ax.tau, [1, -1, 1], 1)
    assert len(out) >= 10
    return out


@lru_cache(maxsize=None)
def invertible_rb_candidates():
    """(name, ternary algebra, invertible even map) for the equivalence check."""
    named = {f.name: f.algebra for f in ternary_fixtures()}
    out = []

    def add(name, A, mat):
        m = mat if isinstance(mat, GradedMap) else GradedMap.diagonal(A.space, mat)
        m.inverse()  # must not raise
        out.append((name, A, m))

    z2 = named["zero3-dim2"]
    add("zero/id", z2, [1, 1])
    add("zero/diag", z2, [2, 3])
    sp = z2.space
    add("zero/shear", z2, GradedMap(sp, ((F(1), F(0)), (F(0), F(2))), 0))
    t1 = named["t3-e1"]
    add("t3-e1/id", t1, [1, 1, 1])
    add("t3-e1/split", t1, [1, 1, -1])
    add("t3-e1/split2", t1, [2, 1, -1])
    add("t3-e1/diag112", t1, [1, 1, 2])
    add("t3-e1/diag357", t1, [3, 5, 7])
    add("t3-e1/scalar", t1, [2, 2, 2])
    sp3 = t1.space
    shear = GradedMap(sp3, ((F(1), F(1), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))), 0)
    add("t3-e1/shear", t1, shear)
    t4 = named["t3-e4"]
    add("t3-e4/third", t4, [1, 1, 1, F(1, 3)])
    add("t3-e4/id", t4, [1, 1, 1, 1])
    assert len(out) >= 10
    return out


@lru_cache(maxsize=None)
def nijenhuis2_fixtures():
    """(name, binary algebra, even map) with the binary Nijenhuis identity verified."""
    from bihomsuper import is_nijenhuis_2

    named = {f.name: f.algebra for f in binary_fixtures()}
    out = []

    def add(name, A, mat):
        m = mat if isinstance(mat, GradedMap) else GradedMap.diagonal(A.space, mat)
        assert is_nijenhuis_2(A, m).passed, name
        out.append((name, A, m))

    ax = named["axb3-trivline"]
    add("axb3/id", ax, [1, 1, 1])
    add("axb3/zero", ax, [0, 0, 0])
    add("axb3/diag", ax, [2, 3, 5])
    g = named["gl11"]
    add("gl11/scalar", g, [4, 4, 4, 4])
    add("gl11/diag", g, [1, 2, 1, 5])
    add("gl11/diag2", g, [1, 3, 4, 1])
    ab = named["axb2"]
    nil = GradedMap(ab.space, ((F(0), F(1)), (F(0), F(0))), 0)
    add("axb2/nilpotent", ab, nil)
    h4 = named["heis4"]
    add("heis4/diag", h4, [1, 2, 3, 2])
    return out
