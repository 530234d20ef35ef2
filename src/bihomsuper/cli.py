"""Command-line pipeline driver.

Every command parses one or more documents, dispatches to the corresponding
library call, and emits a run report.  Exit codes: 0 when every mandatory
check passed, 1 when some mathematical check failed, 2 on input errors
(unparseable documents, missing names, mismatched spaces, bad flags).

The commands, their help lines, default operator maps, the options each one
reads (it takes no other) and auxiliary documents are listed once, in :data:`COMMANDS`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from typing import Callable
from fractions import Fraction
from math import factorial, gcd, log10

from . import algebras, deformations, derivations, documents, rota_baxter, tau
from .algebras import VerificationReport
from .core import (
    DimensionError,
    GradedMap,
    ParityError,
    PreconditionError,
    TheoremContradictionError,
    as_scalar,
    int_digit_limit,
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
        return documents._canonical_json(self.to_tree())

    def human_text(self) -> str:
        lines = [f"command: {self.command}"] + [f"input {name}: sha256 {d[:16]}..." for name, d in self.inputs.items()]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            extra = "" if c.mandatory else " (informational)"
            lines.append(f"[{tag}] {c.name}: {len(c.violations)} violation(s) / {c.total} tuple(s){extra}")
            for v in c.violations[:3]:
                where = tuple(i + 1 for i in v.where)
                lines.append(f"    at {where} [{v.rule}] residual {[str(x) for x in v.residual]}")
            if len(c.violations) > 3:
                lines.append(f"    ... {len(c.violations) - 3} more")
            lines += [f"    note: {note}" for note in c.notes]
        lines += [f"note: {note}" for note in self.notes] + [f"derived: {key}" for key in self.derived]
        lines.append(f"status: {self.status}")
        return "\n".join(lines) + "\n"


def _doc_tree(**fields) -> dict:
    """The canonical JSON tree of the document with these fields."""
    return documents._document_tree(AlgebraDocument(**fields))


# Only the powers --s/--r make entries that long, so the refusal names them.
_UNPRINTABLE_POWERS = "--s/--r: {} has entries of more than {} digits, beyond the integer string conversion limit"


def _require_printable(what: str, maps) -> None:
    """Refuse maps with an entry of more digits than ``int`` to ``str`` conversion allows.

    The entry n / d prints reduced by g = gcd(n, d).  With a, b the bit lengths of |n| and d,
    |n| / g >= |n| / d > 2^(a - b - 1) and d / g > 2^(b - a - 1), so a gap |a - b| past the bit
    length of 10^limit refuses before any gcd; below 8^limit is below 10^limit.
    """
    limit = int_digit_limit()
    if not limit:
        return
    entries, gap = [(n, m._d) for m in maps for column in m._cols for _, n in column], (10 ** limit).bit_length()
    if any(abs(abs(n).bit_length() - d.bit_length()) > gap for n, d in entries) or any(
            (x := max(abs(n), d)).bit_length() > 3 * limit and x // gcd(n, d) >= 10 ** limit for n, d in entries):
        raise ValueError(_UNPRINTABLE_POWERS.format(what, limit))


def _abs_det(m: GradedMap) -> Fraction:
    """|det m| = |det N| / d^n for m = N / d, by fraction-free (Bareiss) elimination of the int matrix N:
    after step c the entries below and right of the pivots are minors of N, so each division is exact."""
    rows, previous = m._int_rows(), 1
    for c in range(len(rows)):
        p = next((p for p in range(c, len(rows)) if rows[p][c]), None)
        if p is None:
            return Fraction(0)
        rows[c], rows[p] = rows[p], rows[c]
        for row in rows[c + 1:]:
            row[c + 1:] = [(rows[c][c] * x - row[c] * y) // previous for x, y in zip(row[c + 1:], rows[c][c + 1:])]
        previous = rows[c][c]
    return Fraction(abs(previous), m._d ** len(rows))


def _algebra3_doc(A: algebras.ThreeBiHomLieSuperalgebra, metadata: str) -> dict:
    return _doc_tree(space=A.space, bracket3=A.bracket, maps={"alpha": A.alpha, "beta": A.beta},
                     metadata=metadata, multiplicative=A.multiplicative)


# ---------------------------------------------------------------------------
# command bodies and the command table
# ---------------------------------------------------------------------------

@dataclass
class _Context:
    """What a command body works on.  Bodies call library functions through
    their modules at call time, so a rebound module attribute reaches them."""

    row: "Command"
    doc: AlgebraDocument
    options: dict
    aux: dict[str, AlgebraDocument]
    report: RunReport
    weight: tuple[str, Fraction] | None = None  # (source, value) once the operator's weight is read

    @property
    def fail_fast(self) -> bool:
        return self.options.get("fail_fast", False)

    def algebra(self, arity: int):
        """The binary (arity 2) or ternary (arity 3) algebra on the document's tensor of that arity."""
        doc, bracket = self.doc, getattr(self.doc, f"bracket{arity}")
        if bracket is None:
            raise DocumentError(f"command needs a {('binary', 'ternary')[arity - 2]} tensor", f"bracket{arity}")
        cls = algebras.BiHomLieSuperalgebra if arity == 2 else algebras.ThreeBiHomLieSuperalgebra
        return cls(doc.space, bracket, *doc.structure_maps(), doc.multiplicative)

    def each_algebra(self, required: bool = True):
        """Yield the binary, then the ternary algebra, for each tensor the document carries."""
        if required and self.doc.bracket2 is None and self.doc.bracket3 is None:
            raise DocumentError("command needs a binary or ternary tensor", "bracket2")
        for arity in (2, 3):
            if getattr(self.doc, f"bracket{arity}") is not None:
                yield self.algebra(arity)

    def map(self) -> GradedMap:
        """The operator map: ``--map``, else the command's default."""
        return self.doc.map_named(self.options.get("map_name") or self.row.default_map)

    def form(self):
        return self.doc.form_named(self.options.get("tau_name", "tau"))

    def operator(self, R_map: GradedMap | None = None) -> rota_baxter.RotaBaxterOperator:
        """The operator on ``R_map`` (default: the operator map) at ``--weight``, else ``lambda``, else 0."""
        R_map = self.map() if R_map is None else R_map
        weight = self.options.get("weight")
        try:
            weight = self.doc.scalars.get("lambda", Fraction(0)) if weight is None else as_scalar(weight)
        except ValueError as exc:
            raise ValueError(f"--weight: {exc}") from None
        self.weight = ("scalars.lambda" if self.options.get("weight") is None else "--weight", weight)
        return rota_baxter.RotaBaxterOperator(R_map, weight)

    def unprintable(self) -> str:
        """The input error for a report holding a number too long to print, naming its source:
        the weight (``--weight`` or ``scalars.lambda``) if it has over half the limit's digits,
        since the weighted sums multiply it with itself, else the document."""
        limit, (source, weight) = int_digit_limit(), self.weight or ("document", 0)
        if max(abs(weight.numerator), weight.denominator) < 10 ** (limit // 2):
            source = "document"
        return (f"{source}: the report holds a number of more than {limit} digits, "
                "beyond the integer string conversion limit")

    def twist_powers(self, A) -> tuple[int, int]:
        """``--s`` and ``--r``, refused before solving when negative or alpha^s beta^r is too long to print.

        Solved maps are built from the entries of alpha^s beta^r; when one of those has more
        digits than ``int`` to ``str`` conversion allows, the report could not be written after
        all the work was done.  With n x n entries of numerators and denominators below 10^L, a
        determinant is below n! 10^(n(n+1)L) and, unless 0, above 10^(-n^2 L); so
        det(alpha)^s det(beta)^r, compared with a margin beyond any rounding of its logarithm,
        refuses most such powers unbuilt.
        """
        s, r = self.options.get("s", 0), self.options.get("r", 0)
        for option, power in (("--s", s), ("--r", r)):
            if power < 0:
                raise ValueError(f"{option}: twist powers must be non-negative, got {power}")
        what, limit, n = f"alpha^{s} beta^{r}", int_digit_limit(), A.dim
        dets = [(power, _abs_det(m)) for power, m in ((s, A.alpha), (r, A.beta)) if power]
        if limit and all(d for _, d in dets):  # a singular twist decides nothing
            exact = Fraction if max(s, r) >> 1000 else float  # a float times a power past 2^1000 overflows
            logs = [(p * exact(log10(d.numerator)), p * exact(log10(d.denominator))) for p, d in dets]
            log_det, margin = sum(a - b for a, b in logs), 1 + sum(a + b for a, b in logs) / 2 ** 40
            if log_det + margin <= -n * n * limit or log_det - margin >= n * (n + 1) * limit + log10(factorial(n)):
                raise ValueError(_UNPRINTABLE_POWERS.format(what, limit))
        _require_printable(what, [derivations._twist(A, s, r)])
        return s, r

    def check(self, rep: VerificationReport, mandatory: bool = True) -> None:
        self.report.checks.append(CheckResult(rep.identity, rep.total, rep.violations, rep.notes, mandatory))

    def flag(self, name: str, ok: bool, note: str = "") -> None:
        violations = () if ok else (algebras.Violation((), (), "failed"),)
        self.report.checks.append(CheckResult(name, 1, violations, (note,) if note else ()))


def _verify(ctx: _Context) -> None:
    for A in ctx.each_algebra(required=False):
        if A.bracket.arity == 2:
            skew, jacobi, mult = (algebras.verify_bihom_skewsymmetry, algebras.verify_bihom_jacobi,
                                  algebras.verify_multiplicativity2)
        else:
            skew, jacobi, mult = (algebras.verify_3bihom_skewsymmetry, algebras.verify_3bihom_jacobi,
                                  algebras.verify_multiplicativity3)
        ctx.check(skew(A, ctx.fail_fast))
        ctx.check(jacobi(A, ctx.fail_fast))
        ctx.check(mult(A, ctx.fail_fast), mandatory=ctx.doc.multiplicative)
    if ctx.doc.bracket2 is None and ctx.doc.bracket3 is None:
        ctx.report.notes.append("document carries no tensors; nothing to verify")


def _twist3(ctx: _Context) -> None:
    doc = ctx.doc
    if doc.bracket3 is None:
        raise DocumentError("command needs a ternary tensor", "bracket3")
    ident = GradedMap.identity(doc.space)
    seed = algebras.ThreeBiHomLieSuperalgebra(doc.space, doc.bracket3, ident, ident)
    alpha = doc.map_named(ctx.options.get("alpha_name", "alpha"))
    twisted = algebras.make_twist_3(seed, alpha, doc.map_named(ctx.options.get("beta_name", "beta")))
    ctx.flag("twist-preconditions", True)
    ctx.report.derived["twisted"] = _algebra3_doc(twisted, metadata="twisted ternary algebra")


def _induce_tau(ctx: _Context) -> None:
    A, form = ctx.algebra(2), ctx.form()
    override = ctx.options.get("override_tau", False)
    witness = tau.check_tau_conditions(A, form)
    for rep in witness.reports():
        ctx.check(rep, mandatory=not override)
    if witness.satisfied or override:
        induced = tau._induced_algebra(A, form)
        ctx.report.derived["induced"] = _algebra3_doc(induced, metadata="tau-induced ternary algebra")
        if override and not witness.satisfied:
            ctx.report.notes.append("conditions overridden; the induced tensor is unverified")


def _derivations(ctx: _Context) -> None:
    A3 = ctx.algebra(3)
    parity = 1 if ctx.options.get("parity", "even") == "odd" else 0
    query = derivations.DerivationQuery(*ctx.twist_powers(A3), parity)
    space = derivations.solve_derivation_space(A3, query)
    _require_printable("the derivation basis", space.basis)
    ctx.flag("derivation-space-solved", True)
    ctx.report.derived.update(dimension=space.dimension, basis=[documents._map_tree(m) for m in space.basis])


def _quasiderivation(ctx: _Context) -> None:
    A3 = ctx.algebra(3)
    ok, witness = derivations.is_quasiderivation_3(A3, ctx.map(), *ctx.twist_powers(A3))
    ctx.flag("quasiderivation-solvable", ok)
    ctx.report.derived["is_quasiderivation"] = ok
    if witness is not None:
        _require_printable("the companion map", [witness])
        ctx.report.derived["companion"] = documents._map_tree(witness)


def _check_rb(ctx: _Context) -> None:
    op = ctx.operator()
    for A in ctx.each_algebra():
        is_rb = rota_baxter.is_rb2 if A.bracket.arity == 2 else rota_baxter.is_rb3
        ctx.check(is_rb(A, op, ctx.fail_fast))


def _rb_bracket(ctx: _Context) -> None:
    A3, op = ctx.algebra(3), ctx.operator()
    rep = rota_baxter.is_rb3(A3, op)
    ctx.check(rep)
    if rep.passed:
        induced = rota_baxter._rb_bracket(A3, op)
        ctx.report.derived["induced"] = _algebra3_doc(induced, metadata="subset-induced ternary bracket")


def _rb_inverse_derivation(ctx: _Context) -> None:
    value = rota_baxter.check_inverse_derivation_equivalence(ctx.algebra(3), ctx.map())
    ctx.flag("inverse-derivation-equivalence", True, "both sides computed independently and agreed")
    ctx.report.derived["weight0_operator_and_inverse_derivation"] = value


def _rb_transfer(ctx: _Context) -> None:
    ok, rep = rota_baxter.check_rb_transfer_criterion(ctx.algebra(2), ctx.form(), ctx.operator())
    ctx.check(rep)
    ctx.report.derived["criterion"] = ok
    ctx.report.notes.append("verdict cross-checked against the direct induced verification")


def _rb_projection_twist(ctx: _Context) -> None:
    result, reports = rota_baxter._projection_twist(ctx.algebra(3), ctx.operator())
    for rep in reports:
        ctx.check(rep)
    ctx.report.notes.append(
        "result validated against the nonmultiplicative axiom set; no morphism "
        "claim is made for the composed structure maps"
    )
    ctx.report.derived["twisted"] = _algebra3_doc(result, metadata="projection-twisted algebra")


def _check_nijenhuis(ctx: _Context) -> None:
    N = ctx.map()
    for A in ctx.each_algebra():
        is_nijenhuis = deformations.is_nijenhuis_2 if A.bracket.arity == 2 else deformations.is_nijenhuis_3
        ctx.check(is_nijenhuis(A, N))


def _n_brackets(ctx: _Context) -> None:
    A3, N = ctx.algebra(3), ctx.map()
    nb1, nb2 = deformations._n_brackets(A3, N, 2)
    ctx.flag("n-brackets-built", True)
    ctx.report.derived.update(first=_doc_tree(space=A3.space, bracket3=nb1),
                              second=_doc_tree(space=A3.space, bracket3=nb2))


def _deformation_check(ctx: _Context) -> None:
    A3 = ctx.algebra(3)
    omegas = []
    for key in ctx.row.aux:
        aux_doc = ctx.aux.get(key)
        if aux_doc is None:
            raise DocumentError(f"command needs --{key} FILE", key)
        if aux_doc.bracket3 is None:
            raise DocumentError("tensor document carries no ternary tensor", f"{key}.bracket3")
        if aux_doc.space != ctx.doc.space:
            raise DocumentError("tensor document is on a different space", f"{key}.space")
        omegas.append(aux_doc.bracket3)
    ctx.check(deformations.check_deformation(A3, deformations.DeformationPair(*omegas), ctx.fail_fast))


def _trivial_deformation(ctx: _Context) -> None:
    A3, N = ctx.algebra(3), ctx.map()
    pair = deformations.build_trivial_deformation(A3, N)
    ctx.flag("nijenhuis-precondition", True)
    ctx.report.derived.update(omega1=_doc_tree(space=A3.space, bracket3=pair.omega1),
                              omega2=_doc_tree(space=A3.space, bracket3=pair.omega2))


def _nijenhuis_transfer(ctx: _Context) -> None:
    ok = deformations.check_nijenhuis_transfer(ctx.algebra(2), ctx.form(), ctx.map())
    ctx.flag("nijenhuis-transfer", ok)


def _nijenhuis_rb_compat(ctx: _Context) -> None:
    A3, N = ctx.algebra(3), ctx.map()
    op = ctx.operator(ctx.doc.map_named(ctx.options.get("rb_name", "R")))
    ctx.flag("nijenhuis-survives-induced-bracket", deformations.check_nijenhuis_rb_compatibility(A3, N, op))


def _derivation_nijenhuis_rb(ctx: _Context) -> None:
    value = deformations.check_derivation_nijenhuis_rb_equivalence(ctx.algebra(3), ctx.map())
    ctx.flag("nijenhuis-weight0-equivalence", True, "both sides computed independently and agreed")
    ctx.report.derived["nijenhuis_and_weight0"] = value


@dataclass(frozen=True)
class Command:
    """One CLI command: help line, body, default ``--map`` name, the :data:`_OPTIONS` keys its body reads
    and its auxiliary document options; it takes these, its document, ``--format`` and ``--output`` only."""

    help: str
    body: Callable[[_Context], None]
    default_map: str | None = None
    options: tuple[str, ...] = ()
    aux: tuple[str, ...] = ()


# The options a command may read, by ``run_pipeline`` key: flag and argparse keywords, but no default;
# the ``_Context`` getter that reads an option applies its default.
_OPTIONS = {
    "weight": ("--weight", {"help": "rational weight, e.g. -1 or 1/2"}),
    "s": ("--s", {"type": int, "help": "power of the first structure map"}),
    "r": ("--r", {"type": int, "help": "power of the second structure map"}),
    "parity": ("--parity", {"choices": ["even", "odd"]}),
    "fail_fast": ("--fail-fast", {"action": "store_true", "help": "stop at the first violation"}),
    "override_tau": ("--override-tau-conditions", {
        "action": "store_true", "help": "build the induced tensor even when the conditions fail"}),
    "map_name": ("--map", {"help": "name of the operator map in the document"}),
    "tau_name": ("--tau", {"help": "name of the linear form"}),
    "alpha_name": ("--alpha", {"help": "name of the first twist map"}),
    "beta_name": ("--beta", {"help": "name of the second twist map"}),
    "rb_name": ("--rb", {"help": "name of the weighted operator map"}),
}

COMMANDS: dict[str, Command] = {
    "verify": Command("axiom verifiers for whatever tensors are present", _verify, None, ("fail_fast",)),
    "twist3": Command("ternary twist construction from a ternary Lie superalgebra", _twist3, None,
                      ("alpha_name", "beta_name")),
    "induce-tau": Command("induction conditions + induced ternary bracket", _induce_tau, None,
                          ("tau_name", "override_tau")),
    "derivations": Command("exact twisted-derivation space of a ternary algebra", _derivations, None,
                           ("s", "r", "parity")),
    "quasiderivation": Command("companion-map solvability for one candidate map", _quasiderivation, "D",
                               ("map_name", "s", "r")),
    "check-rb": Command("binary/ternary weighted Baxter identity", _check_rb, "R", ("map_name", "weight", "fail_fast")),
    "rb-bracket": Command("subset-induced ternary bracket of a weighted operator", _rb_bracket, "R",
                          ("map_name", "weight")),
    "rb-inverse-derivation": Command("weight-0 operator iff inverse is a derivation (both sides)",
                                     _rb_inverse_derivation, "R", ("map_name",)),
    "rb-transfer": Command("kernel criterion for transferring a binary operator", _rb_transfer, "R",
                           ("map_name", "weight", "tau_name")),
    "rb-projection-twist": Command("idempotent operator: induced bracket with composed twists",
                                   _rb_projection_twist, "R", ("map_name", "weight")),
    "check-nijenhuis": Command("binary/ternary Nijenhuis identity", _check_nijenhuis, "N", ("map_name",)),
    "n-brackets": Command("the two deformed brackets of an even operator", _n_brackets, "N", ("map_name",)),
    "deformation-check": Command("degree-wise validity of a quadratic deformation pair", _deformation_check,
                                 None, ("fail_fast",), ("omega1", "omega2")),
    "trivial-deformation": Command("deformation pair generated by a Nijenhuis operator", _trivial_deformation,
                                   "N", ("map_name",)),
    "nijenhuis-transfer": Command("binary Nijenhuis operator on the induced ternary algebra",
                                  _nijenhuis_transfer, "N", ("map_name", "tau_name")),
    "nijenhuis-rb-compat": Command("Nijenhuis operator on a subset-induced bracket", _nijenhuis_rb_compat, "N",
                                   ("map_name", "weight", "rb_name")),
    "derivation-nijenhuis-rb": Command("for even derivations: Nijenhuis iff weight 0 (both sides)",
                                       _derivation_nijenhuis_rb, "N", ("map_name",)),
}


def run_pipeline(command: str, doc: AlgebraDocument, options: dict | None = None,
                 aux: dict[str, AlgebraDocument] | None = None) -> RunReport:
    """Dispatch one command against parsed documents and return the report.

    Raises DocumentError (and friends) for structural problems; mathematical
    failures are encoded in the report status, with theorem-contradiction
    diagnostics converted into failing checks.
    """
    return _run(command, doc, options, aux).report


def _run(command: str, doc: AlgebraDocument, options: dict | None,
         aux: dict[str, AlgebraDocument] | None) -> _Context:
    """:func:`run_pipeline`, returning the context the command ran in."""
    row = COMMANDS.get(command)
    if row is None:
        raise DocumentError(f"unknown command {command!r}")
    options, aux = dict(options or {}), dict(aux or {})
    if unread := [key for key in options if key not in row.options]:
        raise DocumentError(f"not an option of {command}", unread[0])
    report = RunReport(command, {name: documents.document_digest(d) for name, d in {"document": doc, **aux}.items()})
    ctx = _Context(row, doc, options, aux, report)
    try:
        row.body(ctx)
    except PreconditionError as exc:
        ctx.flag("preconditions", False, str(exc))
        for rep in exc.details.reports() if isinstance(exc.details, tau.TauWitness) else [exc.details]:
            if isinstance(rep, VerificationReport):
                ctx.check(rep)
    except TheoremContradictionError as exc:
        ctx.flag("internal-consistency", False, str(exc))
    return ctx


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # A command takes its row's options, spelled out in full; one left out is absent from the
    # namespace, so the getter that reads it applies its default.  ``dest`` is the ``run_pipeline``
    # key.  The tree is built on the first ``main`` call and reused: ``parse_args`` fills a fresh
    # namespace each time, so calls do not see each other's options.
    parser = argparse.ArgumentParser(
        prog="bihomsuper", description="Exact checks and constructions for twisted graded Lie brackets."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        subparser = sub.add_parser(name, help=row.help, description=row.help, allow_abbrev=False)
        subparser.add_argument("document", help="algebra-description file")
        for key in row.options:
            flag, keywords = _OPTIONS[key]
            subparser.add_argument(flag, dest=key, default=argparse.SUPPRESS, **keywords)
        for key in row.aux:
            subparser.add_argument(f"--{key}", default=argparse.SUPPRESS, help=f"document holding the {key} tensor")
        subparser.add_argument("--format", choices=["human", "machine"], default="human")
        subparser.add_argument("--output", help="write the machine report to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command, row = args["command"], COMMANDS[args["command"]]
    try:
        doc = documents.load_document(args["document"])
        aux = {key: documents.load_document(args[key]) for key in row.aux if key in args}
        ctx = _run(command, doc, {key: args[key] for key in row.options if key in args}, aux)
        report = ctx.report
        # Rendering prints every rational in full, so a number with more
        # digits than int-to-str conversion allows is refused here as well.
        try:
            machine = report.machine_text() if args["output"] or args["format"] == "machine" else None
            text = machine if args["format"] == "machine" else report.human_text()
        except ValueError:
            raise ValueError(ctx.unprintable()) from None
    except (DocumentError, DimensionError, ParityError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args["output"]:
        try:
            with open(args["output"], "w", encoding="utf-8") as fh:
                fh.write(machine)
        except OSError as exc:
            print(f"input error: cannot write --output: {exc}", file=sys.stderr)
            return EXIT_INPUT
    sys.stdout.write(text)
    return EXIT_PASS if report.status == "pass" else EXIT_FAIL


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    # ``python -m bihomsuper.cli`` would run this file a second time, beside
    # the copy the package has already imported; the entry point is the package.
    print("bihomsuper.cli is not runnable; use `python -m bihomsuper ...`", file=sys.stderr)
    raise SystemExit(EXIT_INPUT)
