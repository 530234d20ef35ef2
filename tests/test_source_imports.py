"""Every import of a ``bihomsuper`` module is used, and a function imports locally only when it must.

A standard-library ``ast`` pass, so it needs no linter.  A name bound by a
module-level ``import`` or ``from ... import`` counts as used when the module
reads it anywhere (as a name, the base of an attribute, or inside a quoted
annotation) or lists it in ``__all__``; ``from __future__`` imports are exempt.
``__init__.py`` imports only to re-export: its names are the public API,
which ``test_public_api`` pins.

A function-local ``from .x import`` must be read by its function, and is
there only to break an import cycle: ``.x`` must import the module back,
directly or through other top-level imports.  Any other belongs at the top.
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


def _top_level_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports at its top level."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def _needless_local_imports(source: str, importers: set[str]) -> list[str]:
    """Function-local relative imports of a module outside ``importers`` (the modules
    importing this one at top level, directly or not), or with a name the function never reads."""
    tree = ast.parse(source)
    owner = {}  # local import -> innermost function holding it
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level:
                    owner[node] = func
    found = []
    for node, func in sorted(owner.items(), key=lambda item: item[0].lineno):
        if node.module not in importers:
            found.append(f"line {node.lineno}: .{node.module} closes no import cycle")
        used = _names(func)
        names = [alias.asname or alias.name for alias in node.names]
        found += [f"line {node.lineno}: {name}" for name in names if name not in used]
    return found


SOURCES = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})


def _importers(name: str) -> set[str]:
    """The modules of the package that import ``name`` through a chain of top-level imports."""
    graph = {path.stem: _top_level_modules(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES}
    found, grown = set(), True
    while grown:
        more = {m for m, imports in graph.items() if imports & (found | {name})}
        found, grown = found | more, not more <= found
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_function_local_import_is_needed(path):
    assert _needless_local_imports(path.read_text(encoding="utf-8"), _importers(path.stem)) == []


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


def test_a_needless_local_import_is_found():
    source = (
        "from .core import ZERO\n"
        "def f():\n"
        "    from .core import ONE\n"
        "    from .linalg import kernel_basis, solve_linear as solve\n"
        "    return ZERO, ONE, kernel_basis\n"
    )
    assert _needless_local_imports(source, {"linalg"}) == ["line 3: .core closes no import cycle", "line 4: solve"]
    assert _importers("core") >= {"linalg", "algebras", "deformations", "cli"}
    assert "core" not in _importers("deformations")
