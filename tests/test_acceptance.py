"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (zero tolerance); fixtures are desk scale (dim 2 to 4).
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines even on success.
"""

import itertools
import time
from fractions import Fraction as F
from pathlib import Path

from bihomsuper import (
    AlgebraDocument,
    DerivationQuery,
    GradedMap,
    RotaBaxterOperator,
    WedgePair,
    build_trivial_deformation,
    check_deformation,
    check_derivation_nijenhuis_rb_equivalence,
    check_inverse_derivation_equivalence,
    check_nijenhuis_rb_compatibility,
    check_nijenhuis_transfer,
    check_rb_transfer_criterion,
    induce_tau,
    is_derivation_3,
    is_nijenhuis_2,
    is_nijenhuis_3,
    is_rb2,
    is_rb3,
    load_document,
    make_n_bracket_1,
    make_n_bracket_2,
    make_rb_bracket,
    omega_compose,
    parse_document,
    serialize_document,
    solve_derivation_space,
    supercommutator,
    verify_3bihom_jacobi,
    verify_3bihom_skewsymmetry,
    verify_bihom_jacobi,
    verify_bihom_skewsymmetry,
)
from bihomsuper.cli import main as cli_main

import corpus
from oracles import derivation_constraint_matrix_3, nullity

DATA = Path(__file__).parent / "data"


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_induction_suite(tau_corpus):
    start = time.monotonic()
    assert len(tau_corpus) >= 20
    dims = {fx.algebra.space.dim for fx in tau_corpus}
    assert dims == {2, 3, 4}
    assert any(1 in fx.algebra.space.parities for fx in tau_corpus)  # mixed parities
    ok = True
    for fx in tau_corpus:
        induced = induce_tau(fx.algebra, fx.tau)
        skew = verify_3bihom_skewsymmetry(induced)
        jac = verify_3bihom_jacobi(induced)
        if skew.violations or jac.violations:
            ok = False
    elapsed = time.monotonic() - start
    _report(
        "1 induced algebras satisfy the ternary axioms",
        ok and elapsed < 5.0,
        f"{len(tau_corpus)} fixtures in {elapsed:.2f}s",
    )


def test_criterion_2_induced_bracket_suite(rb_corpus):
    assert len(rb_corpus) >= 10
    weights = {fx.operator.weight for fx in rb_corpus}
    assert {F(0), F(1), F(-1), F(1, 2)} <= weights
    ok = True
    for fx in rb_corpus:
        out = make_rb_bracket(fx.algebra, fx.operator)
        if not (
            verify_3bihom_skewsymmetry(out).passed
            and verify_3bihom_jacobi(out).passed
            and is_rb3(out, fx.operator).passed
        ):
            ok = False
    _report(
        "2 subset-induced brackets keep all axioms and the operator",
        ok,
        f"{len(rb_corpus)} fixtures, weights {sorted(str(w) for w in weights)}",
    )


def test_criterion_3_inverse_derivation_equivalence():
    candidates = corpus.invertible_rb_candidates()
    assert len(candidates) >= 10
    has_zero = any(A.bracket.is_zero() for _, A, _ in candidates)
    has_nonzero = any(not A.bracket.is_zero() for _, A, _ in candidates)
    ok = has_zero and has_nonzero
    for name, A, R in candidates:
        try:
            check_inverse_derivation_equivalence(A, R)  # raises on disagreement
        except Exception:  # pragma: no cover - would be a defect
            ok = False
    _report("3 weight-0 iff inverse-derivation equivalence", ok, f"{len(candidates)} invertible maps")


def test_criterion_4_transfer_criterion_two_sided():
    fixtures = corpus.transfer_fixtures()
    assert len(fixtures) >= 10
    verdicts = set()
    ok = True
    for name, A, tau, op in fixtures:
        try:
            criterion, _ = check_rb_transfer_criterion(A, tau, op)
        except Exception:  # pragma: no cover - cross-check mismatch
            ok = False
            continue
        direct = is_rb3(induce_tau(A, tau), op).passed
        if criterion != direct:
            ok = False
        verdicts.add(criterion)
    _report(
        "4 kernel criterion matches the direct induced verification",
        ok and verdicts == {True, False},
        f"{len(fixtures)} fixtures, verdicts {sorted(verdicts)}",
    )


def test_criterion_5_derivation_solver_vs_oracle(ternary_corpus):
    dim2 = [fx for fx in ternary_corpus if fx.algebra.space.dim == 2]
    assert dim2
    ok = True
    checked = 0
    for fx in dim2:
        A = fx.algebra
        for s, r in itertools.product((0, 1), repeat=2):
            for parity in (0, 1):
                ours = solve_derivation_space(A, DerivationQuery(s, r, parity)).dimension
                rows, ncols = derivation_constraint_matrix_3(
                    A.space.parities,
                    [list(row) for row in A.alpha.matrix],
                    [list(row) for row in A.beta.matrix],
                    A.bracket.as_dict(),
                    s, r, parity,
                )
                if ours != nullity(rows, ncols):
                    ok = False
                checked += 1
    # supercommutator closure on all solved basis pairs
    closure_checked = 0
    for fx in dim2:
        A = fx.algebra
        solved = {
            (s, r, p): solve_derivation_space(A, DerivationQuery(s, r, p)).basis
            for s, r in itertools.product((0, 1), repeat=2)
            for p in (0, 1)
        }
        for (s1, r1, _p1), b1 in solved.items():
            for (s2, r2, _p2), b2 in solved.items():
                for D1 in b1:
                    for D2 in b2:
                        rep = is_derivation_3(A, supercommutator(D1, D2), s1 + s2, r1 + r2)
                        if not rep.passed:
                            ok = False
                        closure_checked += 1
    _report(
        "5 solver dimension equals dense-oracle nullity; commutators stay closed",
        ok,
        f"{checked} solver/oracle comparisons, {closure_checked} commutator checks",
    )


def test_criterion_6_nijenhuis_suites(ternary_corpus, rb_corpus):
    # (a) the two displayed forms agree for arbitrary even maps
    import random

    rng = random.Random(2024)
    agree = 0
    ok = True
    sources = [
        fx for fx in ternary_corpus
        if fx.algebra.alpha.is_identity() and fx.algebra.beta.is_identity()
    ]
    while agree < 10:
        fx = sources[agree % len(sources)]
        sp = fx.algebra.space
        rows = [[F(0)] * sp.dim for _ in range(sp.dim)]
        for k in range(sp.dim):
            for i in range(sp.dim):
                if sp.parity(k) == sp.parity(i):
                    rows[k][i] = F(rng.randint(-4, 4), rng.choice([1, 1, 2]))
        N = GradedMap(sp, tuple(tuple(r) for r in rows), 0)
        rep = is_nijenhuis_3(fx.algebra, N)
        if any(v.rule == "form-consistency" for v in rep.violations):
            ok = False
        agree += 1

    # (b) transfer and equivalence statements on every eligible fixture;
    # the library raises a contradiction diagnostic if any of them break
    transfers = 0
    for name, A, N in corpus.nijenhuis2_fixtures():
        for fx in corpus.tau_fixtures():
            if fx.algebra == A:
                try:
                    check_nijenhuis_transfer(A, fx.tau, N)
                except Exception:
                    ok = False
                transfers += 1
    compat = 0
    for fx in rb_corpus:
        ident = GradedMap.identity(fx.algebra.space)
        try:
            check_nijenhuis_rb_compatibility(fx.algebra, ident, fx.operator)
        except Exception:
            ok = False
        compat += 1
        for diag in ([2, 3, 5], [1, 1, 2], [7, 2, 2]):
            if fx.algebra.space.dim != 3:
                continue
            N = GradedMap.diagonal(fx.algebra.space, diag)
            if not (
                is_nijenhuis_3(fx.algebra, N).passed
                and N.commutes_with(fx.operator.map)
            ):
                continue
            try:
                check_nijenhuis_rb_compatibility(fx.algebra, N, fx.operator)
            except Exception:
                ok = False
            compat += 1
    equivalences = 0
    for fx in ternary_corpus:
        if fx.algebra.space.dim > 3:
            continue
        for D in solve_derivation_space(fx.algebra, DerivationQuery(0, 0, 0)).basis:
            try:
                check_derivation_nijenhuis_rb_equivalence(fx.algebra, D)
            except Exception:
                ok = False
            equivalences += 1

    # (c) trivial deformations of every verified Nijenhuis operator validate
    deformations = 0
    for fx in ternary_corpus:
        if not (fx.plainly_skew and fx.algebra.multiplicative):
            continue
        if fx.algebra.space.dim > 3:
            continue
        sp = fx.algebra.space
        candidates = [GradedMap.identity(sp), GradedMap.zero(sp), GradedMap.identity(sp).scale(F(3, 2))]
        if all(p == 0 for p in sp.parities):
            candidates.append(GradedMap.diagonal(sp, list(range(2, 2 + sp.dim))))
        for N in candidates:
            if not (N.commutes_with(fx.algebra.alpha) and N.commutes_with(fx.algebra.beta)):
                continue
            if not is_nijenhuis_3(fx.algebra, N).passed:
                continue
            pair = build_trivial_deformation(fx.algebra, N)
            if not check_deformation(fx.algebra, pair).passed:
                ok = False
            deformations += 1
    _report(
        "6 Nijenhuis form agreement, transfer statements, trivial deformations",
        ok and agree >= 10 and transfers >= 5 and compat >= 10 and equivalences >= 10 and deformations >= 6,
        f"{agree} form checks, {transfers} transfers, {compat} induced-bracket checks, "
        f"{equivalences} equivalences, {deformations} deformations",
    )


def test_criterion_7_composition_sanity(ternary_corpus):
    skew_fixtures = [fx for fx in ternary_corpus if fx.plainly_skew]
    assert len(skew_fixtures) >= 15
    failing = []
    for fx in skew_fixtures:
        A = fx.algebra
        sp = A.space
        wedges = {(a, b): WedgePair.from_basis(sp, a, b) for a, b in itertools.product(range(sp.dim), repeat=2)}
        if any(any(omega_compose(A, A.bracket, A.bracket, wedges[a, b], wedges[c, d], m))
               for a, b, c, d, m in itertools.product(range(sp.dim), repeat=5)):
            failing.append(fx.name)
    _report(
        "7 self-composition of the bracket vanishes on all raw tuples",
        not failing,
        f"{len(skew_fixtures)} plainly skew verified fixtures" + (f", nonzero on {failing}" if failing else ""),
    )


def test_criterion_8_io_roundtrip_and_cli(binary_corpus, tau_corpus, ternary_corpus, capsys, tmp_path):
    docs = []
    for fx in binary_corpus:
        A = fx.algebra
        docs.append(AlgebraDocument(space=A.space, bracket2=A.bracket,
                                    maps={"alpha": A.alpha, "beta": A.beta},
                                    multiplicative=A.multiplicative))
    for fx in tau_corpus:
        A = fx.algebra
        docs.append(AlgebraDocument(space=A.space, bracket2=A.bracket,
                                    maps={"alpha": A.alpha, "beta": A.beta},
                                    forms={"tau": fx.tau}))
    for fx in ternary_corpus:
        A = fx.algebra
        docs.append(AlgebraDocument(space=A.space, bracket3=A.bracket,
                                    maps={"alpha": A.alpha, "beta": A.beta},
                                    multiplicative=A.multiplicative))
    for p in sorted(DATA.glob("*.json")):
        if p.name != "bad_parity.json":
            docs.append(load_document(str(p)))
    ok = True
    for doc in docs:
        text = serialize_document(doc)
        if serialize_document(parse_document(text)) != text:
            ok = False

    # five scripted pipelines: exit codes must equal the library verdicts
    from bihomsuper import check_tau_conditions

    doc1 = load_document(str(DATA / "line_action.json"))
    A1 = corpus.document_algebra(doc1, 2)
    pipelines = []
    pipelines.append((
        ["verify", str(DATA / "line_action.json")],
        verify_bihom_skewsymmetry(A1).passed and verify_bihom_jacobi(A1).passed,
    ))
    pipelines.append((
        ["induce-tau", str(DATA / "line_action.json")],
        check_tau_conditions(A1, doc1.forms["tau"]).satisfied,
    ))
    pipelines.append((
        ["check-rb", str(DATA / "line_action.json")],
        is_rb2(A1, RotaBaxterOperator(doc1.maps["R"], doc1.scalars["lambda"])).passed,
    ))
    doc2 = load_document(str(DATA / "central_pair.json"))
    A2 = corpus.document_algebra(doc2, 2)
    crit, _ = check_rb_transfer_criterion(
        A2, doc2.forms["tau"], RotaBaxterOperator(doc2.maps["R"], doc2.scalars["lambda"])
    )
    pipelines.append((["rb-transfer", str(DATA / "central_pair.json")], crit))
    doc3 = load_document(str(DATA / "ternary_basic.json"))
    A3 = corpus.document_algebra(doc3, 3)
    pipelines.append((
        ["check-nijenhuis", str(DATA / "ternary_basic.json")],
        is_nijenhuis_3(A3, doc3.maps["N"]).passed,
    ))
    for args, expect in pipelines:
        code = cli_main(args)
        if (code == 0) is not expect or code not in (0, 1):
            ok = False
    capsys.readouterr()
    _report("8 canonical round trips and CLI/library agreement", ok,
            f"{len(docs)} documents, {len(pipelines)} pipelines")


def test_criterion_9_scalar_identity_battery(ternary_corpus, binary_corpus):
    ok = True
    A = next(fx for fx in ternary_corpus if fx.name == "t3-e1").algebra
    B = next(fx for fx in binary_corpus if fx.name == "axb2").algebra
    ident3 = GradedMap.identity(A.space)
    zero3 = GradedMap.zero(A.space)
    # zero operator holds for every weight, both arities
    for lam in (0, 1, -1, F(1, 2)):
        ok &= is_rb3(A, RotaBaxterOperator(zero3, F(lam))).passed
        ok &= is_rb2(B, RotaBaxterOperator(GradedMap.zero(B.space), F(lam))).passed
    # identity at weight -1 holds; at weight 0 it fails on a nonzero bracket
    ok &= is_rb3(A, RotaBaxterOperator(ident3, F(-1))).passed
    ok &= is_rb2(B, RotaBaxterOperator(GradedMap.identity(B.space), F(-1))).passed
    ok &= not is_rb3(A, RotaBaxterOperator(ident3, F(0))).passed
    ok &= not is_rb2(B, RotaBaxterOperator(GradedMap.identity(B.space), F(0))).passed
    # Nijenhuis battery: 0, Id, c Id all pass; deformed brackets scale as stated
    for N, w1_expect, w2_expect in (
        (zero3, A.bracket.scale(0), A.bracket.scale(0)),
        (ident3, A.bracket.scale(2), A.bracket.scale(1)),
        (ident3.scale(F(5, 3)), A.bracket.scale(F(10, 3)), A.bracket.scale(F(25, 9))),
    ):
        ok &= is_nijenhuis_3(A, N).passed
        ok &= make_n_bracket_1(A, N) == w1_expect
        ok &= make_n_bracket_2(A, N) == w2_expect
    ok &= is_nijenhuis_2(B, GradedMap.zero(B.space)).passed
    ok &= is_nijenhuis_2(B, GradedMap.identity(B.space)).passed
    ok &= is_nijenhuis_2(B, GradedMap.identity(B.space).scale(7)).passed
    _report("9 scalar-identity battery", bool(ok))
