"""Operator identities and verifier reports against the dense walks in ``oracles``.

Each property draws corpus algebras, copies of them with one structure
constant perturbed, and operators, forms or twists that pass and fail, and
compares every report field for field (identity, total, where, residual,
rule), with and without fail-fast where the function has it, or every
structure constant of a constructed bracket.  Each asserts that both verdicts
occurred.  The docstrings name the seeded defects of ``src/`` each property
was checked to catch.
"""

from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomsuper import (
    GradedMap,
    LinearForm,
    PreconditionError,
    RotaBaxterOperator,
    check_rb_transfer_criterion,
    check_tau_conditions,
    commute,
    induce_tau,
    is_derivation_2,
    is_derivation_3,
    is_nijenhuis_2,
    is_nijenhuis_3,
    is_rb2,
    is_rb3,
    make_n_bracket_1,
    make_n_bracket_2,
    make_rb_bracket,
    verify_3bihom_jacobi,
    verify_3bihom_jacobi_cyclic,
    verify_3bihom_skewsymmetry,
    verify_bihom_jacobi,
    verify_bihom_skewsymmetry,
    verify_multiplicativity2,
    verify_multiplicativity3,
)
from bihomsuper.derivations import _transfer_conditions

import corpus
import oracles

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
SMALL = [0, 1, -1, 2, F(1, 2)]


def _fields(rep):
    return rep.identity, rep.total, [(v.where, v.residual, v.rule) for v in rep.violations]


def _matrix(m):
    return [list(row) for row in m.matrix]


def _perturbed(A, data):
    """A, or a copy of A with one structure constant added."""
    if not data.draw(st.booleans()):
        return A
    P, dim, arity = A.space.parities, A.space.dim, A.bracket.arity
    args = tuple(data.draw(st.integers(0, dim - 1)) for _ in range(arity))
    outputs = [k for k in range(dim) if P[k] == sum(P[a] for a in args) % 2]
    key = args + (data.draw(st.sampled_from(outputs)),)
    extra = type(A.bracket).from_dict(A.space, {key: data.draw(st.sampled_from([-1, 1, 2]))})
    return type(A)(A.space, A.bracket.add(extra), A.alpha, A.beta)


def _random_map(space, data, values=(0, 1, -1, 2, 3), parity=0):
    """A random homogeneous matrix with small entries, even unless ``parity`` is 1."""
    rows = [[F(data.draw(st.sampled_from(values))) if (space.parity(k) + space.parity(i)) % 2 == parity
             else F(0) for i in range(space.dim)] for k in range(space.dim)]
    return GradedMap(space, tuple(map(tuple, rows)), parity)


def _diagonal(space, data, values):
    return GradedMap.diagonal(space, [data.draw(st.sampled_from(values)) for _ in space.parities])


def _commuting_operator(A, data):
    """An even map commuting with both twists: a random diagonal, a random even
    matrix under identity twists, or else a multiple of the identity."""
    sp = A.space
    values = [F(data.draw(st.sampled_from([0, 1, -1, 2, 3]))) for _ in range(sp.dim)]
    N = GradedMap.diagonal(sp, values)
    if A.alpha.is_identity() and A.beta.is_identity() and data.draw(st.booleans()):
        N = _random_map(sp, data, (0, 0, 1, -1, 2))
    if not (N.commutes_with(A.alpha) and N.commutes_with(A.beta)):
        N = GradedMap.identity(sp).scale(values[0])
    return N


def test_weighted_identity_and_bracket_match_dense_walk(binary_corpus, ternary_corpus, rb_corpus):
    """``is_rb2``/``is_rb3`` reports and ``make_rb_bracket`` constants.

    Operators: the verified corpus operators at their weight, at a drawn
    weight, or rescaled, and random commuting maps, on perturbed copies too.
    Catches: a wrong lambda power, a dropped slot subset.
    """
    pairs = [(fx.algebra, fx.operator) for fx in rb_corpus]
    pairs += [(fx.algebra, None) for fx in binary_corpus + ternary_corpus]
    verdicts = {2: set(), 3: set()}
    built = set()

    @PROPERTY
    @given(st.data())
    def prop(data):
        A, op = data.draw(st.sampled_from(pairs))
        if op is None or data.draw(st.booleans()):
            weight = F(data.draw(st.sampled_from(SMALL))) if op is None else op.weight
            op = RotaBaxterOperator(_commuting_operator(A, data), weight)
        elif data.draw(st.booleans()):
            op = RotaBaxterOperator(op.map, F(data.draw(st.sampled_from(SMALL))))
        A = _perturbed(A, data)
        arity = A.bracket.arity
        check = is_rb3 if arity == 3 else is_rb2
        expected = oracles.rb_reports(A.bracket.as_dict(), arity, _matrix(op.map), op.weight)
        for fail_fast in (False, True):
            rep = check(A, op, fail_fast=fail_fast)
            assert _fields(rep) == expected[fail_fast], (A, op, fail_fast)
        verdicts[arity].add(rep.passed)
        if arity == 3 and rep.passed:
            induced = make_rb_bracket(A, op).bracket.as_dict()
            assert induced == oracles.rb_bracket_entries(A.bracket.as_dict(), 3, _matrix(op.map), op.weight)
            built.add(bool(induced))

    prop()
    assert verdicts == {2: {False, True}, 3: {False, True}}, verdicts
    assert built == {False, True}


def test_nijenhuis_reports_and_n_brackets_match_dense_walk(binary_corpus, ternary_corpus):
    """``is_nijenhuis_2``/``is_nijenhuis_3`` reports and both N-brackets.

    Operators: the verified binary Nijenhuis maps of the corpus and random
    commuting maps, on perturbed copies too.  The dense walk computes only
    the inductive form, so a ``form-consistency`` report would differ.
    Catches: a dropped slot subset, a wrong power of N in the subset form, a
    fail-fast rank without its +1.
    """
    pairs = [(A, N) for _, A, N in corpus.nijenhuis2_fixtures()]
    pairs += [(fx.algebra, None) for fx in binary_corpus + ternary_corpus]
    verdicts = {2: set(), 3: set()}

    @PROPERTY
    @given(st.data())
    def prop(data):
        A, N = data.draw(st.sampled_from(pairs))
        if N is None or data.draw(st.booleans()):
            N = _commuting_operator(A, data)
        A = _perturbed(A, data)
        arity, ent, mat = A.bracket.arity, A.bracket.as_dict(), _matrix(N)
        expected = oracles.nijenhuis_reports(ent, arity, mat)
        if arity == 2:
            for fail_fast in (False, True):
                rep = is_nijenhuis_2(A, N, fail_fast=fail_fast)
                assert _fields(rep) == expected[fail_fast], (A, N, fail_fast)
        else:
            rep = is_nijenhuis_3(A, N)
            assert _fields(rep) == expected[False], (A, N)
            assert make_n_bracket_2(A, N).as_dict() == oracles.n_bracket_entries(ent, 3, mat, 2)
        assert make_n_bracket_1(A, N).as_dict() == oracles.n_bracket_entries(ent, arity, mat, 1)
        verdicts[arity].add(rep.passed)

    prop()
    assert verdicts == {2: {False, True}, 3: {False, True}}, verdicts


def _even_form(space, data):
    return LinearForm(space, tuple(F(data.draw(st.sampled_from([0, 0, 1, -1, 2]))) if p == 0 else F(0)
                                   for p in space.parities))


def test_induced_bracket_matches_dense_expansion(binary_corpus, tau_corpus):
    """``induce_tau`` constants, for corpus forms and random forms forced through.

    Catches: a wrong Koszul sign or slot in any of the three terms.
    """
    pairs = [(fx.algebra, fx.tau) for fx in tau_corpus] + [(fx.algebra, None) for fx in binary_corpus]
    verdicts = set()

    @PROPERTY
    @given(st.data())
    def prop(data):
        A, tau = data.draw(st.sampled_from(pairs))
        if tau is None or data.draw(st.booleans()):
            tau = _even_form(A.space, data)
        A = _perturbed(A, data)
        induced = induce_tau(A, tau, override=True).bracket.as_dict()
        assert induced == oracles.tau_induced_entries(A.space.parities, A.bracket.as_dict(), tau.coefficients)
        verdicts.add(check_tau_conditions(A, tau).satisfied)

    prop()
    assert verdicts == {False, True}


def test_skew_and_multiplicativity_reports_match_dense_walk(binary_corpus, ternary_corpus):
    """Twisted skew-symmetry and multiplicativity reports, binary and ternary.

    Twists are kept, or replaced by random even maps (equal, a diagonal beta
    beside the corpus alpha, or two independent ones) that need not commute
    or be morphisms; the corpus includes both gl(2|1) fixtures.  Fail-fast
    must stop at the same tuple and rule as the walk, including the second
    rule of a tuple (``swap-23``, ``beta-morphism``).  Catches: a swapped rule order inside one tuple, a
    fail-fast rank without its +1, a dropped twists-commute block.
    """
    fixtures = [fx.algebra for fx in binary_corpus + ternary_corpus + corpus.gl21_fixtures()]
    verdicts = {"skew": set(), "mult": set()}
    stops = set()

    @PROPERTY
    @given(st.data())
    def prop(data):
        A = _perturbed(data.draw(st.sampled_from(fixtures)), data)
        twists = data.draw(st.sampled_from(["keep", "equal", "beta-diagonal", "both"]))
        if twists != "keep":
            beta = _random_map(A.space, data)
            if twists == "beta-diagonal":  # commutes with the corpus alpha when that is the identity
                beta = _diagonal(A.space, data, [2, 1, -1, 3])
            alpha = {"equal": beta, "beta-diagonal": A.alpha, "both": _random_map(A.space, data)}[twists]
            A = type(A)(A.space, A.bracket, alpha, beta)
        arity, ent = A.bracket.arity, A.bracket.as_dict()
        alpha, beta = _matrix(A.alpha), _matrix(A.beta)
        skew = verify_3bihom_skewsymmetry if arity == 3 else verify_bihom_skewsymmetry
        mult = verify_multiplicativity3 if arity == 3 else verify_multiplicativity2
        for name, verify, expected in (
            ("skew", skew, oracles.skew_reports(A.space.parities, alpha, beta, ent, arity)),
            ("mult", mult, oracles.multiplicativity_reports(alpha, beta, ent, arity)),
        ):
            for fail_fast in (False, True):
                rep = verify(A, fail_fast=fail_fast)
                assert _fields(rep) == expected[fail_fast], (name, A, fail_fast)
            verdicts[name].add(rep.passed)
            if rep.violations:
                stops.add(rep.violations[0].rule)

    prop()
    assert verdicts == {"skew": {False, True}, "mult": {False, True}}, verdicts
    assert {"swap-23", "twists-commute", "beta-morphism"} <= stops, stops


def test_jacobi_reports_match_dense_walk(binary_corpus, ternary_corpus):
    """``verify_bihom_jacobi``, ``verify_3bihom_jacobi`` and ``verify_3bihom_jacobi_cyclic``
    reports, with and without fail-fast.

    Draws the binary and ternary corpora (twisted and mixed-parity fixtures
    included, every ternary one of dim at most 4), both gl(2|1) fixtures, and
    copies with one structure constant perturbed.  Catches: a flipped sign in any row of the
    binary or cyclic term table, two swapped entries in one ``order``, a
    fail-fast total without its +1.
    """
    fixtures = [fx.algebra for fx in binary_corpus + ternary_corpus + corpus.gl21_fixtures()]
    assert max(A.space.dim for A in fixtures if A.bracket.arity == 3) <= 4
    verdicts = {"binary": set(), "ternary": set(), "cyclic": set()}

    @PROPERTY
    @given(st.data())
    def prop(data):
        A = _perturbed(data.draw(st.sampled_from(fixtures)), data)
        args = (A.space.parities, _matrix(A.alpha), _matrix(A.beta), A.bracket.as_dict())
        if A.bracket.arity == 2:
            checks = [("binary", verify_bihom_jacobi, oracles.binary_jacobi_reports(*args))]
        else:
            checks = [("ternary", verify_3bihom_jacobi, oracles.ternary_jacobi_reports(*args)),
                      ("cyclic", verify_3bihom_jacobi_cyclic, oracles.cyclic_jacobi_reports(*args))]
        for name, verify, expected in checks:
            for fail_fast in (False, True):
                rep = verify(A, fail_fast=fail_fast)
                assert _fields(rep) == expected[fail_fast], (name, A, fail_fast)
            verdicts[name].add(rep.passed)

    prop()
    assert verdicts == {"binary": {False, True}, "ternary": {False, True}, "cyclic": {False, True}}, verdicts


def test_transfer_criterion_reports_match_dense_walk(tau_corpus):
    """The reports of ``check_rb_transfer_criterion`` and of the derivation
    transfer conditions.

    The weighted criterion runs on the transfer fixtures and on drawn
    operators; draws that fail its preconditions are skipped.  The derivation
    conditions run on random maps of either parity, twist powers and, beside
    diagonal twists, forms they need not fix, so that both blocks fail in one
    report.  Catches: a wrong sign
    in the tau expansion, a missing R + lambda Id, the invariance block after
    the cyclic sums.
    """
    fixtures = list(corpus.transfer_fixtures())
    verdicts = {"rb": set(), "derivation": set()}
    rules = set()

    @PROPERTY
    @given(st.data())
    def prop(data):
        _, A, tau, op = data.draw(st.sampled_from(fixtures))
        if data.draw(st.booleans()):
            op = RotaBaxterOperator(_commuting_operator(A, data), F(data.draw(st.sampled_from(SMALL))))
        try:
            ok, rep = check_rb_transfer_criterion(A, tau, op)
        except PreconditionError:
            pass
        else:
            expected = oracles.rb_transfer_report(A.space.parities, A.bracket.as_dict(), tau.coefficients,
                                                  _matrix(op.map), op.weight)
            assert _fields(rep) == expected, (A, tau, op)
            verdicts["rb"].add(ok)
        fx = data.draw(st.sampled_from(tau_corpus))
        B, tau = _perturbed(fx.algebra, data), fx.tau
        if data.draw(st.booleans()):  # a form the twist powers need not fix
            alpha, beta = (_diagonal(B.space, data, [1, 2, -1]) for _ in range(2))
            B = type(B)(B.space, B.bracket, alpha, beta)
            tau = _even_form(B.space, data)
        D = _random_map(B.space, data, (0, 1, -1, 2), data.draw(st.sampled_from([0, 1])))
        s, r = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        rep = _transfer_conditions(B, tau, D, s, r)
        expected = oracles.derivation_transfer_report(B.space.parities, _matrix(B.alpha), _matrix(B.beta),
                                                      B.bracket.as_dict(), tau.coefficients, _matrix(D), s, r)
        assert _fields(rep) == expected, (B, tau, D, s, r)
        rules.add(tuple(dict.fromkeys(v.rule for v in rep.violations)))
        verdicts["derivation"].add(rep.passed)

    prop()
    assert verdicts == {"rb": {False, True}, "derivation": {False, True}}, verdicts
    assert ("form-invariance", "signed-cyclic-sum") in rules, rules


def test_tau_condition_reports_match_dense_walk(binary_corpus, tau_corpus):
    """The three reports of ``check_tau_conditions``.

    Draws the tau corpus with its forms, the binary corpus with random even
    forms, copies with one structure constant perturbed or with random even
    twists, and gl(2|1) with its supertrace under Ad-twists alpha = beta
    (passes) and alpha != beta (fails only twist-proportionality, on 18 of
    81 pairs).  Catches: a wrong sign in the symmetry or proportionality
    residual, tau o alpha and tau o beta exchanged, a pair written (j, i).
    """
    pairs = [(fx.algebra, fx.tau) for fx in tau_corpus] + [(fx.algebra, None) for fx in binary_corpus]
    pairs += [(fx.algebra, fx.tau) for fx in corpus.gl21_fixtures()]
    verdicts = {}

    @PROPERTY
    @given(st.data())
    def prop(data):
        A, tau = data.draw(st.sampled_from(pairs))
        if tau is None or data.draw(st.booleans()):
            tau = _even_form(A.space, data)
        A = _perturbed(A, data)
        if data.draw(st.booleans()):
            A = type(A)(A.space, A.bracket, _random_map(A.space, data), _random_map(A.space, data))
        reports = check_tau_conditions(A, tau).reports()
        expected = oracles.tau_condition_reports(_matrix(A.alpha), _matrix(A.beta), A.bracket.as_dict(),
                                                 tau.coefficients)
        assert [_fields(rep) for rep in reports] == expected, (A, tau)
        for rep in reports:
            verdicts.setdefault(rep.identity, set()).add(rep.passed)

    prop()
    assert list(verdicts.values()) == [{False, True}] * 3, verdicts


def test_commutation_matches_dense_products(binary_corpus, ternary_corpus):
    """``commute``, the ``twists-commute`` residuals of multiplicativity and the
    ``commutes-with-*`` residuals of the derivation verifiers, with and without
    fail-fast, against dense matrix products.

    Maps: random even and odd candidates, or ones commuting with the twists,
    beside the corpus twists or random even twists that need not commute.
    Under fail-fast a failing commutation is reported whole, over 2 dim
    columns, and ends the report.  Catches: the minus sign of X m - m X
    dropped, the entry fed in X m written (i, r), the rows and columns of m
    exchanged.
    """
    fixtures = [fx.algebra for fx in binary_corpus + ternary_corpus]
    verdicts = {"twists": set(), "derivation": set()}

    @PROPERTY
    @given(st.data())
    def prop(data):
        A = _perturbed(data.draw(st.sampled_from(fixtures)), data)
        if data.draw(st.booleans()):
            A = type(A)(A.space, A.bracket, _random_map(A.space, data), _random_map(A.space, data))
        if data.draw(st.booleans()):
            D = _commuting_operator(A, data)
        else:
            D = _random_map(A.space, data, (0, 1, -1, 2), data.draw(st.sampled_from([0, 1])))
        alpha, beta = _matrix(A.alpha), _matrix(A.beta)

        def failing(rule, X, m):
            return [(where, col, rule) for where, col in oracles.commutator_columns(X, m) if any(col)]

        twists = failing("twists-commute", alpha, beta)
        assert commute(A.alpha, A.beta) == (not twists)
        mult = verify_multiplicativity3 if A.bracket.arity == 3 else verify_multiplicativity2
        assert [f for f in _fields(mult(A))[2] if f[2] == "twists-commute"] == twists
        expected = [f for name, m in (("alpha", alpha), ("beta", beta))
                    for f in failing(f"commutes-with-{name}", _matrix(D), m)]
        assert (D.commutes_with(A.alpha) and D.commutes_with(A.beta)) == (not expected)
        is_derivation = is_derivation_3 if A.bracket.arity == 3 else is_derivation_2
        for fail_fast in (False, True):
            identity, total, found = _fields(is_derivation(A, D, 0, 0, fail_fast=fail_fast))
            assert [f for f in found if f[2].startswith("commutes-with-")] == expected
            if fail_fast and expected:
                assert (total, found) == (2 * A.dim, expected)
        verdicts["twists"].add(not twists)
        verdicts["derivation"].add(not expected)

    prop()
    assert verdicts == {"twists": {False, True}, "derivation": {False, True}}, verdicts
