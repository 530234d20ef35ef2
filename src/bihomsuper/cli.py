"""Command-line pipeline driver.

Every command parses one or more documents, dispatches to the corresponding
library call, and emits a run report.  Exit codes: 0 when every mandatory
check passed, 1 when some mathematical check failed, 2 on input errors
(unparseable documents, missing names, mismatched spaces, bad flags).

Commands and the library operations they wrap:

    verify                   axiom verifiers for whatever tensors are present
    twist3                   ternary twist construction from a ternary Lie superalgebra
    induce-tau               induction conditions + induced ternary bracket
    derivations              exact twisted-derivation space of a ternary algebra
    quasiderivation          companion-map solvability for one candidate map
    check-rb                 binary/ternary weighted Baxter identity
    rb-bracket               subset-induced ternary bracket of a weighted operator
    rb-inverse-derivation    weight-0 operator iff inverse is a derivation (both sides)
    rb-transfer              kernel criterion for transferring a binary operator
    rb-projection-twist      idempotent operator: induced bracket with composed twists
    check-nijenhuis          binary/ternary Nijenhuis identity
    n-brackets               the two deformed brackets of an even operator
    deformation-check        degree-wise validity of a quadratic deformation pair
    trivial-deformation      deformation pair generated by a Nijenhuis operator
    nijenhuis-transfer       binary Nijenhuis operator on the induced ternary algebra
    nijenhuis-rb-compat      Nijenhuis operator on a subset-induced bracket
    derivation-nijenhuis-rb  for even derivations: Nijenhuis iff weight 0 (both sides)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import algebras, deformations, derivations, documents, rota_baxter, tau
from .algebras import VerificationReport
from .core import (
    DimensionError,
    GradedMap,
    ParityError,
    PreconditionError,
    TheoremContradictionError,
    as_scalar,
)
from .documents import AlgebraDocument, DocumentError

__all__ = ["RunReport", "CheckResult", "run_pipeline", "main", "console_main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    total: int
    violations: tuple
    notes: tuple[str, ...] = ()
    mandatory: bool = True

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_tree(self) -> dict:
        return {
            "name": self.name,
            "total": self.total,
            "passed": self.passed,
            "mandatory": self.mandatory,
            "notes": list(self.notes),
            "violations": [
                {
                    "where": [i + 1 for i in v.where],
                    "rule": v.rule,
                    "residual": [str(c) for c in v.residual],
                }
                for v in self.violations
            ],
        }


@dataclass
class RunReport:
    command: str
    inputs: dict[str, str] = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    derived: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "pass" if all(c.passed for c in self.checks if c.mandatory) else "fail"

    def to_tree(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [c.to_tree() for c in self.checks],
            "derived": self.derived,
            "notes": self.notes,
            "status": self.status,
        }

    def machine_text(self) -> str:
        return json.dumps(self.to_tree(), indent=2, sort_keys=True) + "\n"

    def human_text(self) -> str:
        lines = [f"command: {self.command}"]
        for name, digest in self.inputs.items():
            lines.append(f"input {name}: sha256 {digest[:16]}...")
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            extra = "" if c.mandatory else " (informational)"
            lines.append(f"[{tag}] {c.name}: {len(c.violations)} violation(s) / {c.total} tuple(s){extra}")
            for v in c.violations[:3]:
                where = tuple(i + 1 for i in v.where)
                lines.append(f"    at {where} [{v.rule}] residual {[str(x) for x in v.residual]}")
            if len(c.violations) > 3:
                lines.append(f"    ... {len(c.violations) - 3} more")
            for note in c.notes:
                lines.append(f"    note: {note}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for key in self.derived:
            lines.append(f"derived: {key}")
        lines.append(f"status: {self.status}")
        return "\n".join(lines) + "\n"


def _from_report(rep: VerificationReport, mandatory: bool = True) -> CheckResult:
    return CheckResult(rep.identity, rep.total, rep.violations, rep.notes, mandatory)


def _bool_check(name: str, ok: bool, note: str = "") -> CheckResult:
    from .algebras import Violation

    violations = () if ok else (Violation((), (), "failed"),)
    notes = (note,) if note else ()
    return CheckResult(name, 1, violations, notes)


def _doc_tree(doc: AlgebraDocument) -> dict:
    return json.loads(documents.serialize_document(doc))


def _binary_algebra(doc: AlgebraDocument) -> algebras.BiHomLieSuperalgebra:
    if doc.bracket2 is None:
        raise DocumentError("command needs a binary tensor", "bracket2")
    alpha, beta = doc.structure_maps()
    return algebras.BiHomLieSuperalgebra(
        doc.space, doc.bracket2, alpha, beta, doc.multiplicative
    )


def _ternary_algebra(doc: AlgebraDocument) -> algebras.ThreeBiHomLieSuperalgebra:
    if doc.bracket3 is None:
        raise DocumentError("command needs a ternary tensor", "bracket3")
    alpha, beta = doc.structure_maps()
    return algebras.ThreeBiHomLieSuperalgebra(
        doc.space, doc.bracket3, alpha, beta, doc.multiplicative
    )


def _weight(doc: AlgebraDocument, options: dict) -> Fraction:
    if options.get("weight") is not None:
        return as_scalar(options["weight"])
    return doc.scalars.get("lambda", Fraction(0))


def _matrix_tree(m: GradedMap) -> dict:
    return {"parity": m.parity, "matrix": [[str(c) for c in row] for row in m.matrix]}


def _tensor3_doc(space, tensor) -> dict:
    return _doc_tree(AlgebraDocument(space=space, bracket3=tensor))


def _algebra3_doc(A: algebras.ThreeBiHomLieSuperalgebra, metadata: str = "") -> dict:
    return _doc_tree(
        AlgebraDocument(
            space=A.space,
            bracket3=A.bracket,
            maps={"alpha": A.alpha, "beta": A.beta},
            metadata=metadata,
            multiplicative=A.multiplicative,
        )
    )


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_verify(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    fail_fast = options.get("fail_fast", False)
    if doc.bracket2 is not None:
        A = _binary_algebra(doc)
        report.checks.append(_from_report(algebras.verify_bihom_skewsymmetry(A, fail_fast)))
        report.checks.append(_from_report(algebras.verify_bihom_jacobi(A, fail_fast)))
        report.checks.append(
            _from_report(
                algebras.verify_multiplicativity2(A, fail_fast), mandatory=doc.multiplicative
            )
        )
    if doc.bracket3 is not None:
        A3 = _ternary_algebra(doc)
        report.checks.append(_from_report(algebras.verify_3bihom_skewsymmetry(A3, fail_fast)))
        report.checks.append(_from_report(algebras.verify_3bihom_jacobi(A3, fail_fast)))
        report.checks.append(
            _from_report(
                algebras.verify_multiplicativity3(A3, fail_fast), mandatory=doc.multiplicative
            )
        )
    if doc.bracket2 is None and doc.bracket3 is None:
        report.notes.append("document carries no tensors; nothing to verify")


def _cmd_twist3(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    if doc.bracket3 is None:
        raise DocumentError("command needs a ternary tensor", "bracket3")
    ident = GradedMap.identity(doc.space)
    seed = algebras.ThreeBiHomLieSuperalgebra(doc.space, doc.bracket3, ident, ident)
    alpha = doc.map_named(options.get("alpha_name", "alpha"))
    beta = doc.map_named(options.get("beta_name", "beta"))
    twisted = algebras.make_twist_3(seed, alpha, beta)
    report.checks.append(_bool_check("twist-preconditions", True))
    report.derived["twisted"] = _algebra3_doc(twisted, metadata="twisted ternary algebra")


def _cmd_induce_tau(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A = _binary_algebra(doc)
    form = doc.form_named(options.get("tau_name", "tau"))
    override = options.get("override_tau", False)
    witness = tau.check_tau_conditions(A, form)
    for rep in witness.reports():
        report.checks.append(_from_report(rep, mandatory=not override))
    if witness.satisfied or override:
        induced = tau.induce_tau(A, form, override=override)
        report.derived["induced"] = _algebra3_doc(induced, metadata="tau-induced ternary algebra")
        if override and not witness.satisfied:
            report.notes.append("conditions overridden; the induced tensor is unverified")


def _cmd_derivations(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A3 = _ternary_algebra(doc)
    parity = 1 if options.get("parity", "even") == "odd" else 0
    query = derivations.DerivationQuery(options.get("s", 0), options.get("r", 0), parity)
    space = derivations.solve_derivation_space(A3, query)
    report.checks.append(_bool_check("derivation-space-solved", True))
    report.derived["dimension"] = space.dimension
    report.derived["basis"] = [_matrix_tree(m) for m in space.basis]


def _cmd_quasiderivation(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A3 = _ternary_algebra(doc)
    D = doc.map_named(options.get("map_name", "D"))
    ok, witness = derivations.is_quasiderivation_3(A3, D, options.get("s", 0), options.get("r", 0))
    report.checks.append(_bool_check("quasiderivation-solvable", ok))
    report.derived["is_quasiderivation"] = ok
    if witness is not None:
        report.derived["companion"] = _matrix_tree(witness)


def _cmd_check_rb(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    R_map = doc.map_named(options.get("map_name", "R"))
    op = rota_baxter.RotaBaxterOperator(R_map, _weight(doc, options))
    fail_fast = options.get("fail_fast", False)
    ran = False
    if doc.bracket2 is not None:
        ran = True
        report.checks.append(_from_report(rota_baxter.is_rb2(_binary_algebra(doc), op, fail_fast)))
    if doc.bracket3 is not None:
        ran = True
        report.checks.append(_from_report(rota_baxter.is_rb3(_ternary_algebra(doc), op, fail_fast)))
    if not ran:
        raise DocumentError("command needs a binary or ternary tensor", "bracket2")


def _cmd_rb_bracket(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A3 = _ternary_algebra(doc)
    op = rota_baxter.RotaBaxterOperator(doc.map_named(options.get("map_name", "R")), _weight(doc, options))
    rep = rota_baxter.is_rb3(A3, op)
    report.checks.append(_from_report(rep))
    if rep.passed:
        induced = rota_baxter.make_rb_bracket(A3, op)
        report.derived["induced"] = _algebra3_doc(induced, metadata="subset-induced ternary bracket")


def _cmd_rb_inverse_derivation(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A3 = _ternary_algebra(doc)
    R_map = doc.map_named(options.get("map_name", "R"))
    value = rota_baxter.check_inverse_derivation_equivalence(A3, R_map)
    report.checks.append(
        _bool_check(
            "inverse-derivation-equivalence",
            True,
            "both sides computed independently and agreed",
        )
    )
    report.derived["weight0_operator_and_inverse_derivation"] = value


def _cmd_rb_transfer(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A = _binary_algebra(doc)
    form = doc.form_named(options.get("tau_name", "tau"))
    op = rota_baxter.RotaBaxterOperator(doc.map_named(options.get("map_name", "R")), _weight(doc, options))
    ok, rep = rota_baxter.check_rb_transfer_criterion(A, form, op)
    report.checks.append(_from_report(rep))
    report.derived["criterion"] = ok
    report.notes.append("verdict cross-checked against the direct induced verification")


def _cmd_rb_projection_twist(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A3 = _ternary_algebra(doc)
    op = rota_baxter.RotaBaxterOperator(doc.map_named(options.get("map_name", "R")), _weight(doc, options))
    result = rota_baxter.make_projection_twisted_algebra(A3, op)
    report.checks.append(_from_report(algebras.verify_3bihom_skewsymmetry(result)))
    report.checks.append(_from_report(algebras.verify_3bihom_jacobi(result)))
    report.notes.append(
        "result validated against the nonmultiplicative axiom set; no morphism "
        "claim is made for the composed structure maps"
    )
    report.derived["twisted"] = _algebra3_doc(result, metadata="projection-twisted algebra")


def _cmd_check_nijenhuis(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    N = doc.map_named(options.get("map_name", "N"))
    ran = False
    if doc.bracket2 is not None:
        ran = True
        report.checks.append(_from_report(deformations.is_nijenhuis_2(_binary_algebra(doc), N)))
    if doc.bracket3 is not None:
        ran = True
        report.checks.append(_from_report(deformations.is_nijenhuis_3(_ternary_algebra(doc), N)))
    if not ran:
        raise DocumentError("command needs a binary or ternary tensor", "bracket2")


def _cmd_n_brackets(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A3 = _ternary_algebra(doc)
    N = doc.map_named(options.get("map_name", "N"))
    nb1 = deformations.make_n_bracket_1(A3, N)
    nb2 = deformations.make_n_bracket_2(A3, N)
    report.checks.append(_bool_check("n-brackets-built", True))
    report.derived["first"] = _tensor3_doc(A3.space, nb1)
    report.derived["second"] = _tensor3_doc(A3.space, nb2)


def _cmd_deformation_check(
    doc: AlgebraDocument, options: dict, report: RunReport, aux: dict[str, AlgebraDocument]
) -> None:
    A3 = _ternary_algebra(doc)
    pair_docs = []
    for key in ("omega1", "omega2"):
        aux_doc = aux.get(key)
        if aux_doc is None:
            raise DocumentError(f"command needs --{key} FILE", key)
        if aux_doc.bracket3 is None:
            raise DocumentError("tensor document carries no ternary tensor", f"{key}.bracket3")
        if aux_doc.space != doc.space:
            raise DocumentError("tensor document is on a different space", f"{key}.space")
        pair_docs.append(aux_doc.bracket3)
    pair = deformations.DeformationPair(pair_docs[0], pair_docs[1])
    report.checks.append(
        _from_report(deformations.check_deformation(A3, pair, options.get("fail_fast", False)))
    )


def _cmd_trivial_deformation(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A3 = _ternary_algebra(doc)
    N = doc.map_named(options.get("map_name", "N"))
    pair = deformations.build_trivial_deformation(A3, N)
    report.checks.append(_bool_check("nijenhuis-precondition", True))
    report.derived["omega1"] = _tensor3_doc(A3.space, pair.omega1)
    report.derived["omega2"] = _tensor3_doc(A3.space, pair.omega2)


def _cmd_nijenhuis_transfer(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A = _binary_algebra(doc)
    form = doc.form_named(options.get("tau_name", "tau"))
    N = doc.map_named(options.get("map_name", "N"))
    ok = deformations.check_nijenhuis_transfer(A, form, N)
    report.checks.append(_bool_check("nijenhuis-transfer", ok))


def _cmd_nijenhuis_rb_compat(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A3 = _ternary_algebra(doc)
    N = doc.map_named(options.get("map_name", "N"))
    op = rota_baxter.RotaBaxterOperator(doc.map_named(options.get("rb_name", "R")), _weight(doc, options))
    ok = deformations.check_nijenhuis_rb_compatibility(A3, N, op)
    report.checks.append(_bool_check("nijenhuis-survives-induced-bracket", ok))


def _cmd_derivation_nijenhuis_rb(doc: AlgebraDocument, options: dict, report: RunReport) -> None:
    A3 = _ternary_algebra(doc)
    N = doc.map_named(options.get("map_name", "N"))
    value = deformations.check_derivation_nijenhuis_rb_equivalence(A3, N)
    report.checks.append(
        _bool_check(
            "nijenhuis-weight0-equivalence",
            True,
            "both sides computed independently and agreed",
        )
    )
    report.derived["nijenhuis_and_weight0"] = value


_HANDLERS = {
    "verify": _cmd_verify,
    "twist3": _cmd_twist3,
    "induce-tau": _cmd_induce_tau,
    "derivations": _cmd_derivations,
    "quasiderivation": _cmd_quasiderivation,
    "check-rb": _cmd_check_rb,
    "rb-bracket": _cmd_rb_bracket,
    "rb-inverse-derivation": _cmd_rb_inverse_derivation,
    "rb-transfer": _cmd_rb_transfer,
    "rb-projection-twist": _cmd_rb_projection_twist,
    "check-nijenhuis": _cmd_check_nijenhuis,
    "n-brackets": _cmd_n_brackets,
    "deformation-check": _cmd_deformation_check,
    "trivial-deformation": _cmd_trivial_deformation,
    "nijenhuis-transfer": _cmd_nijenhuis_transfer,
    "nijenhuis-rb-compat": _cmd_nijenhuis_rb_compat,
    "derivation-nijenhuis-rb": _cmd_derivation_nijenhuis_rb,
}


def run_pipeline(
    command: str,
    doc: AlgebraDocument,
    options: dict | None = None,
    aux: dict[str, AlgebraDocument] | None = None,
) -> RunReport:
    """Dispatch one command against parsed documents and return the report.

    Raises DocumentError (and friends) for structural problems; mathematical
    failures are encoded in the report status, with theorem-contradiction
    diagnostics converted into failing checks.
    """
    if command not in _HANDLERS:
        raise DocumentError(f"unknown command {command!r}")
    options = dict(options or {})
    aux = dict(aux or {})
    report = RunReport(command=command)
    report.inputs["document"] = documents.document_digest(doc)
    for name, aux_doc in aux.items():
        report.inputs[name] = documents.document_digest(aux_doc)
    handler = _HANDLERS[command]
    try:
        if command == "deformation-check":
            handler(doc, options, report, aux)
        else:
            handler(doc, options, report)
    except PreconditionError as exc:
        report.checks.append(_bool_check("preconditions", False, str(exc)))
        details = getattr(exc, "details", None)
        if isinstance(details, VerificationReport):
            report.checks.append(_from_report(details))
    except TheoremContradictionError as exc:
        report.checks.append(_bool_check("internal-consistency", False, str(exc)))
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihomsuper",
        description="Exact checks and constructions for twisted graded Lie brackets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("document", help="algebra-description file")
        p.add_argument("--weight", help="rational weight, e.g. -1 or 1/2")
        p.add_argument("--s", type=int, default=0, help="power of the first structure map")
        p.add_argument("--r", type=int, default=0, help="power of the second structure map")
        p.add_argument("--parity", choices=["even", "odd"], default="even")
        p.add_argument("--fail-fast", action="store_true", help="stop at the first violation")
        p.add_argument("--output", help="write the machine report to this file")
        p.add_argument("--format", choices=["human", "machine"], default="human")
        p.add_argument("--override-tau-conditions", action="store_true",
                       help="build the induced tensor even when the conditions fail")
        p.add_argument("--map", default=None, help="name of the operator map in the document")
        p.add_argument("--tau", default="tau", help="name of the linear form in the document")
        p.add_argument("--alpha", default="alpha", help="name of the first twist map")
        p.add_argument("--beta", default="beta", help="name of the second twist map")
        p.add_argument("--rb", default="R", help="name of the weighted operator map")
        p.add_argument("--omega1", help="document holding the first coefficient tensor")
        p.add_argument("--omega2", help="document holding the second coefficient tensor")
    return parser


_DEFAULT_MAP = {
    "quasiderivation": "D",
    "check-rb": "R",
    "rb-bracket": "R",
    "rb-inverse-derivation": "R",
    "rb-transfer": "R",
    "rb-projection-twist": "R",
    "check-nijenhuis": "N",
    "n-brackets": "N",
    "trivial-deformation": "N",
    "nijenhuis-transfer": "N",
    "nijenhuis-rb-compat": "N",
    "derivation-nijenhuis-rb": "N",
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = documents.load_document(args.document)
        aux: dict[str, AlgebraDocument] = {}
        if args.command == "deformation-check":
            for key, path in (("omega1", args.omega1), ("omega2", args.omega2)):
                if path is not None:
                    aux[key] = documents.load_document(path)
        options = {
            "weight": args.weight,
            "s": args.s,
            "r": args.r,
            "parity": args.parity,
            "fail_fast": args.fail_fast,
            "override_tau": args.override_tau_conditions,
            "map_name": args.map or _DEFAULT_MAP.get(args.command, "R"),
            "tau_name": args.tau,
            "alpha_name": args.alpha,
            "beta_name": args.beta,
            "rb_name": args.rb,
        }
        report = run_pipeline(args.command, doc, options, aux)
    except (DocumentError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DimensionError, ParityError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report.machine_text())
        except OSError as exc:
            print(f"input error: cannot write --output: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if args.format == "machine":
        sys.stdout.write(report.machine_text())
    else:
        sys.stdout.write(report.human_text())
    return EXIT_PASS if report.status == "pass" else EXIT_FAIL


def console_main() -> None:
    raise SystemExit(main())
