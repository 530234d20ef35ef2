"""Each refusal and each cross-check of a verdict is written once, in its helper.

A standard-library ``ast`` pass, in the style of ``test_source_imports``.  An
``if`` whose test reads a report's ``.passed`` or a witness's ``.satisfied``
and whose body raises :class:`PreconditionError`, :class:`TwistError` or
:class:`TheoremContradictionError` is a hand-written refusal or cross-check.
Only the helpers that own those decisions may hold one: ``algebras._require``
(refuse with the report in ``details``), ``algebras._confirm`` and
``algebras._agree`` (the cross-checks) and ``tau._require_tau_conditions``
(refuse with the :class:`TauWitness`).  Everywhere else a refusal goes through
them, so its report reaches ``details`` and the command-line report.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bihomsuper"
SOURCES = sorted(PACKAGE.glob("*.py"))

HELPERS = {"_require", "_confirm", "_agree", "_require_tau_conditions"}
ERRORS = {"PreconditionError", "TwistError", "TheoremContradictionError"}
VERDICTS = {"passed", "satisfied"}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _hand_written_refusals(source: str) -> list[str]:
    """``line N: raise E`` for each guarded raise of a refusal error outside :data:`HELPERS`."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.If) and function not in HELPERS:
            reads_verdict = any(isinstance(n, ast.Attribute) and n.attr in VERDICTS for n in ast.walk(node.test))
            if reads_verdict:
                for stmt in node.body:
                    for n in ast.walk(stmt):
                        if isinstance(n, ast.Raise) and _raised_name(n) in ERRORS:
                            found.append(f"line {n.lineno}: raise {_raised_name(n)}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_refusals_go_through_their_helpers(path):
    assert _hand_written_refusals(path.read_text(encoding="utf-8")) == []


def test_a_hand_written_refusal_is_found():
    source = (
        "def _require(report, message, error=PreconditionError):\n"
        "    if not report.passed:\n"
        "        raise error(message, details=report)\n"
        "def check(A, rep, witness, override):\n"
        "    if not rep.passed:\n"
        "        raise PreconditionError('map fails', details=rep)\n"
        "    if not witness.satisfied and not override:\n"
        "        raise PreconditionError('form fails', details=witness)\n"
        "    if rep.passed != witness.satisfied:\n"
        "        raise TheoremContradictionError\n"
        "    for r in A:\n"
        "        if not r.passed:\n"
        "            raise TwistError('input fails', details=r)\n"
        "    if not rep.passed:\n"
        "        raise ValueError('not a refusal')\n"
        "    if A:\n"
        "        raise PreconditionError('no verdict read')\n"
        "    _require(rep, 'map fails')\n"
    )
    assert _hand_written_refusals(source) == [
        "line 6: raise PreconditionError",
        "line 8: raise PreconditionError",
        "line 10: raise TheoremContradictionError",
        "line 13: raise TwistError",
    ]
