"""Every top-level import of a ``bihomsuper`` module is used by that module.

A standard-library ``ast`` pass, so it needs no linter.  A name bound by a
module-level ``import`` or ``from ... import`` counts as used when the module
reads it anywhere (as a name, the base of an attribute, or inside a quoted
annotation) or lists it in ``__all__``; ``from __future__`` imports are exempt.
``__init__.py`` imports only to re-export: its names are the public API,
which ``test_public_api`` pins.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bihomsuper"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} of the module-level imports."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _names(tree: ast.AST) -> set[str]:
    """The names read in ``tree``, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return used


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in _imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .core import ZERO, ONE as one, Vector\n"
        "__all__ = ['ZERO']\n"
        "def f(x: 'Vector') -> int:\n"
        "    return 1\n"
    )
    assert _unused_imports(source) == ["line 2: os", "line 3: one"]
