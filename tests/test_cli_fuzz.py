"""Malformed documents and option values end in an exit code, never a traceback.

Each example takes a document from ``tests/data``, mutates its JSON tree
(types, list shapes, indices, parities, scalars) and runs one command with
drawn option values through ``cli.main``.  The exit code must be 0, 1 or 2
and nothing may escape as an exception; argparse refusals exit 2 as well.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomsuper.cli import COMMANDS, main

DATA = Path(__file__).parent / "data"
TREES = {path.name: json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))}

SCALARS = ["0", "1", "-1", "1/2", "-3/4", "2", "1/0", "x", "1.5.2", "", "1e5000", "0x10", " 3 "]
ODD_VALUES = [None, True, False, 0, -1, 7, 2.5, "1", [], [1], {}, {"a": 1}]
MAP_NAMES = ["R", "N", "D", "P", "alpha", "beta", "tau", "Q", "nope"]


def _paths(node, path=()):
    """Every position in a JSON tree, as a path of keys and indices."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for n, child in enumerate(node):
            yield from _paths(child, path + (n,))


def _mutate(tree, data):
    """Apply one drawn mutation to a copy of ``tree``."""
    tree = json.loads(json.dumps(tree))
    path = data.draw(st.sampled_from(list(_paths(tree))))
    parent, key = None, None
    node = tree
    for step in path:
        parent, key, node = node, step, node[step]
    kind = data.draw(st.sampled_from(["type", "shape", "number", "scalar", "delete"]))
    if kind == "type":
        new = data.draw(st.sampled_from(ODD_VALUES))
    elif kind == "shape" and isinstance(node, list):
        new = node[:-1] if node and data.draw(st.booleans()) else node + node[:1]
    elif kind == "number" and isinstance(node, int) and not isinstance(node, bool):
        new = node + data.draw(st.sampled_from([-2, -1, 1, 2, 10]))
    elif kind == "scalar":
        new = data.draw(st.sampled_from(SCALARS))
    elif kind == "delete" and parent is not None:
        del parent[key]
        return tree
    else:
        new = data.draw(st.sampled_from(ODD_VALUES + SCALARS))
    if parent is None:
        return new
    parent[key] = new
    return tree


def _option(data, flag, values):
    """``flag`` with a drawn value, one time in six."""
    return [flag, data.draw(st.sampled_from(values))] if not data.draw(st.integers(0, 5)) else []


def test_mutated_documents_and_options_never_raise():
    codes = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def prop(data):
        command = data.draw(st.sampled_from(sorted(COMMANDS)))
        with tempfile.TemporaryDirectory() as tmp:
            def document(name):
                tree = TREES[data.draw(st.sampled_from(sorted(TREES)))]
                if not data.draw(st.integers(0, 2)):
                    tree = _mutate(tree, data)
                path = Path(tmp) / name
                path.write_text(json.dumps(tree))
                return str(path)

            argv = [command, document("doc.json")]
            for key in COMMANDS[command].aux:
                argv += [f"--{key}", document(f"{key}.json")]
            argv += _option(data, "--weight", SCALARS)
            argv += _option(data, "--s", ["0", "1", "2", "-1", "x"])
            argv += _option(data, "--r", ["0", "1", "3"])
            argv += _option(data, "--map", MAP_NAMES)
            argv += _option(data, "--tau", MAP_NAMES)
            argv += _option(data, "--rb", MAP_NAMES)
            argv += _option(data, "--parity", ["even", "odd"])
            argv += _option(data, "--format", ["human", "machine"])
            argv += _option(data, "--output", [str(Path(tmp) / "report.json"), tmp])
            for flag in ("--fail-fast", "--override-tau-conditions"):
                if not data.draw(st.integers(0, 3)):
                    argv.append(flag)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses an option value
                    code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        codes.add(code)

    prop()
    assert codes == {0, 1, 2}, codes
