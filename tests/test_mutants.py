"""The registry of ``tests/mutants.py`` still fits the source and the tests.

Running the mutants takes minutes and is not part of tier-1
(``python tests/mutants.py``); this checks in tier-1 that every registered
snippet occurs exactly once in its file and that every named test exists, so a
refactor that moves a snippet or renames a test updates the registry with it.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_registered_snippet_occurs_exactly_once(mutant):
    source = (ROOT / "src" / "bihomsuper" / mutant.file).read_text()
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_registered_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *parts = node.split("::")
        tree = ast.parse((ROOT / path).read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert parts[-1].partition("[")[0] in defined, node
