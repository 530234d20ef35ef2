"""Outside-in tracer: wraps the package's public functions from the benchmark.

Nothing under ``src/`` changes. Entering a ``Tracer`` rebinds each traced function in
every ``bihomsuper`` module that holds it, so names imported by value
(``derivations.kernel_basis``, ``rota_baxter.is_derivation_3``, the package
re-exports) are covered too; function-local ``from .tau import ...`` lookups
go through the module attribute and see the wrapper. ``cli._HANDLERS`` holds
the handlers directly, so timing sits at ``cli.main`` and at the library
calls, never at the handlers.

Each wrapped call records one span (name, start, end, parent span, job id),
kept in memory. The hot ``core`` methods run 10^4-10^6 times per job; for
those only a call count and total time are kept.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

MODULES = (
    "bihomsuper", "bihomsuper.core", "bihomsuper.linalg", "bihomsuper.algebras",
    "bihomsuper.tau", "bihomsuper.derivations", "bihomsuper.rota_baxter",
    "bihomsuper.deformations", "bihomsuper.documents", "bihomsuper.cli",
)

# span name -> (module, function)
SPANS = {
    "cli.main": ("bihomsuper.cli", "main"),
    "documents.load": ("bihomsuper.documents", "load_document"),
    "documents.parse": ("bihomsuper.documents", "parse_document"),
    "documents.serialize": ("bihomsuper.documents", "serialize_document"),
    "documents.digest": ("bihomsuper.documents", "document_digest"),
    "linalg.kernel_basis": ("bihomsuper.linalg", "kernel_basis"),
    "linalg.solve_linear": ("bihomsuper.linalg", "solve_linear"),
    "linalg.invert_matrix": ("bihomsuper.linalg", "invert_matrix"),
    "algebras.jacobi3": ("bihomsuper.algebras", "verify_3bihom_jacobi"),
    "algebras.skew3": ("bihomsuper.algebras", "verify_3bihom_skewsymmetry"),
    "algebras.mult3": ("bihomsuper.algebras", "verify_multiplicativity3"),
    "algebras.skew2": ("bihomsuper.algebras", "verify_bihom_skewsymmetry"),
    "algebras.jacobi2": ("bihomsuper.algebras", "verify_bihom_jacobi"),
    "algebras.mult2": ("bihomsuper.algebras", "verify_multiplicativity2"),
    "tau.conditions": ("bihomsuper.tau", "check_tau_conditions"),
    "tau.induce": ("bihomsuper.tau", "induce_tau"),
    "derivations.solve": ("bihomsuper.derivations", "solve_derivation_space"),
    "derivations.is_derivation_3": ("bihomsuper.derivations", "is_derivation_3"),
    "derivations.quasi": ("bihomsuper.derivations", "is_quasiderivation_3"),
    "rota_baxter.rb2": ("bihomsuper.rota_baxter", "is_rb2"),
    "rota_baxter.rb3": ("bihomsuper.rota_baxter", "is_rb3"),
    "rota_baxter.rb_bracket": ("bihomsuper.rota_baxter", "make_rb_bracket"),
    "deformations.check_deformation": ("bihomsuper.deformations", "check_deformation"),
    "deformations.nijenhuis3": ("bihomsuper.deformations", "is_nijenhuis_3"),
    "deformations.nijenhuis2": ("bihomsuper.deformations", "is_nijenhuis_2"),
    "deformations.n_bracket_1": ("bihomsuper.deformations", "make_n_bracket_1"),
    "deformations.n_bracket_2": ("bihomsuper.deformations", "make_n_bracket_2"),
}

# counter name -> (module, class, method, count nonzero results)
COUNTERS = {
    "core.bracket2": ("bihomsuper.core", "StructureTensor2", "bracket", True),
    "core.bracket3": ("bihomsuper.core", "StructureTensor3", "bracket", True),
    "core.partial_matrix": ("bihomsuper.core", "StructureTensor3", "partial_matrix", False),
    "core.map_apply": ("bihomsuper.core", "GradedMap", "apply", False),
    "core.compose": ("bihomsuper.core", "GradedMap", "compose", False),
}

# Verifiers whose reports feed the tuple and violation counts, by layer.
REPORTING = {
    "algebras": ("algebras.jacobi3", "algebras.skew3", "algebras.mult3",
                 "algebras.skew2", "algebras.jacobi2", "algebras.mult2"),
    "rota_baxter": ("rota_baxter.rb2", "rota_baxter.rb3"),
    "deformations": ("deformations.check_deformation", "deformations.nijenhuis3",
                     "deformations.nijenhuis2"),
}
_LAYER_OF = {span: layer for layer, spans in REPORTING.items() for span in spans}


class Tracer:
    """Records spans and counters while installed; restores everything on exit."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.job: int | None = None
        self.counters = {name: [0, 0.0, 0] for name in COUNTERS}  # calls, seconds, nonzero
        self.totals: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (mod_name, attr) in SPANS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, (mod_name, cls_name, attr, nonzero) in COUNTERS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._counted(self.counters[name], original, nonzero))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _span(self, name, fn):
        spans, stack, totals = self.spans, self.stack, self.totals
        layer = _LAYER_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if layer is not None:
                totals[f"{layer}.tuples"] += result.total
                totals[f"{layer}.violations"] += len(result.violations)
            elif name == "linalg.kernel_basis":
                totals["linalg.system_rows"] += len(args[0])
                totals["linalg.system_cols"] += args[1]
                totals["linalg.kernel_dim"] += len(result)
            return result

        return wrapper

    @staticmethod
    def _counted(stat, fn, nonzero):
        if nonzero:
            def wrapper(*args):
                t0 = perf_counter()
                result = fn(*args)
                stat[1] += perf_counter() - t0
                stat[0] += 1
                if any(result):
                    stat[2] += 1
                return result
        else:
            def wrapper(*args):
                t0 = perf_counter()
                result = fn(*args)
                stat[1] += perf_counter() - t0
                stat[0] += 1
                return result
        return functools.wraps(fn)(wrapper)


# ---------------------------------------------------------------------------
# turning spans into layer metrics
# ---------------------------------------------------------------------------

class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for idx, span in enumerate(spans):
            self.children[span[3]].append(idx)

    def duration(self, idx) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def _ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent != -1:
            yield parent
            parent = self.spans[parent][3]

    def outermost(self, names, within=None) -> list[int]:
        """Spans named in ``names`` with no ancestor also in ``names``; when
        ``within`` is given, only those with an ancestor named in ``within``."""
        out = []
        for idx, span in enumerate(self.spans):
            if span[0] not in names:
                continue
            ancestry = [self.spans[a][0] for a in self._ancestors(idx)]
            if any(a in names for a in ancestry):
                continue
            if within is not None and not any(a in within for a in ancestry):
                continue
            out.append(idx)
        return out

    def time(self, names, exclude=(), within=None) -> float:
        """Time in ``names`` (outermost spans), minus nested ``exclude`` spans."""
        total = 0.0
        for idx in self.outermost(names, within):
            total += self.duration(idx)
            total -= sum(self.duration(d) for d in self._outermost_below(idx, exclude))
        return total

    def _outermost_below(self, idx, names):
        found, todo = [], list(self.children.get(idx, ()))
        while todo:
            child = todo.pop()
            if self.spans[child][0] in names:
                found.append(child)
            else:
                todo.extend(self.children.get(child, ()))
        return found

    def self_time(self, name) -> float:
        return sum(
            self.duration(idx) - sum(self.duration(c) for c in self.children.get(idx, ()))
            for idx, span in enumerate(self.spans) if span[0] == name
        )

    def count(self, name) -> int:
        return sum(1 for span in self.spans if span[0] == name)


N_BRACKETS = {"deformations.n_bracket_1", "deformations.n_bracket_2"}
DOCUMENTS = {"documents.load", "documents.parse", "documents.serialize", "documents.digest"}

# The layer each workload's Why names as the one doing most of its work.
NAMED_LAYER = {
    "verify-scale": "algebras",
    "derive-scale": "derivations.reverify",
    "operator-scale": "deformations",
    "small-corpus": "cli.self + documents",
}

S, N, R = "s/job", "count/job", "ratio"


def layer_metrics(tracer: Tracer, jobs: int, report_bytes: int, workload: str) -> dict:
    """Per-job means of every layer metric, plus the named layer's share."""
    tree = SpanTree(tracer.spans)
    c = tracer.counters
    t = tracer.totals
    solve = {"derivations.solve"}
    kernel_in_solve = tree.time({"linalg.kernel_basis"}, within=solve)
    reverify = tree.time({"derivations.is_derivation_3"}, within=solve)
    solve_s = tree.time(solve)
    brackets = c["core.bracket2"][0] + c["core.bracket3"][0]
    nonzero = c["core.bracket2"][2] + c["core.bracket3"][2]
    raw = {
        "cli.self_s": (tree.self_time("cli.main"), S),
        "documents.parse_s": (tree.time({"documents.load", "documents.parse"}), S),
        "documents.parse_calls": (tree.count("documents.parse"), N),
        "documents.serialize_s": (tree.time({"documents.serialize", "documents.digest"}), S),
        "documents.serialize_calls": (tree.count("documents.serialize"), N),
        "documents.report_bytes": (report_bytes, N),
        "core.bracket_calls": (brackets, N),
        "core.bracket_s": (c["core.bracket2"][1] + c["core.bracket3"][1], S),
        "core.partial_matrix_calls": (c["core.partial_matrix"][0], N),
        "core.map_apply_calls": (c["core.map_apply"][0], N),
        "core.compose_calls": (c["core.compose"][0], N),
        "core.compose_s": (c["core.compose"][1], S),
        "linalg.kernel_basis_s": (tree.time({"linalg.kernel_basis"}), S),
        "linalg.kernel_basis_calls": (tree.count("linalg.kernel_basis"), N),
        "linalg.system_rows": (t["linalg.system_rows"], N),
        "linalg.system_cols": (t["linalg.system_cols"], N),
        "linalg.kernel_dim": (t["linalg.kernel_dim"], N),
        "linalg.solve_linear_s": (tree.time({"linalg.solve_linear"}), S),
        "linalg.invert_matrix_s": (tree.time({"linalg.invert_matrix"}), S),
        "algebras.jacobi3_s": (tree.time({"algebras.jacobi3"}), S),
        "algebras.skew3_s": (tree.time({"algebras.skew3"}), S),
        "algebras.mult3_s": (tree.time({"algebras.mult3"}), S),
        "algebras.binary_s": (tree.time({"algebras.skew2", "algebras.jacobi2", "algebras.mult2"}), S),
        "algebras.tuples": (t["algebras.tuples"], N),
        "algebras.violations": (t["algebras.violations"], N),
        "tau.conditions_s": (tree.time({"tau.conditions"}), S),
        "tau.induce_s": (tree.time({"tau.induce"}, exclude={"tau.conditions"}), S),
        "derivations.solve_s": (solve_s, S),
        "derivations.reverify_s": (reverify, S),
        "derivations.assemble_s": (solve_s - kernel_in_solve - reverify, S),
        "derivations.quasi_s": (tree.time({"derivations.quasi"}), S),
        "rota_baxter.rb3_s": (tree.time({"rota_baxter.rb3"}), S),
        "rota_baxter.rb_bracket_s": (tree.time({"rota_baxter.rb_bracket"}, exclude={"rota_baxter.rb3"}), S),
        "rota_baxter.tuples": (t["rota_baxter.tuples"], N),
        "deformations.check_deformation_s": (tree.time({"deformations.check_deformation"}), S),
        "deformations.nijenhuis3_s": (tree.time({"deformations.nijenhuis3"}, exclude=N_BRACKETS), S),
        "deformations.n_bracket_s": (tree.time(N_BRACKETS), S),
        "deformations.tuples": (t["deformations.tuples"], N),
        "deformations.violations": (t["deformations.violations"], N),
    }
    metrics = {name: (value / jobs, unit) for name, (value, unit) in raw.items()}
    metrics["core.bracket_nonzero_ratio"] = (nonzero / brackets if brackets else 0.0, R)
    named = {
        "algebras": lambda: tree.time(set(REPORTING["algebras"])),
        "derivations.reverify": lambda: reverify,
        "deformations": lambda: tree.time(set(REPORTING["deformations"]) | N_BRACKETS),
        "cli.self + documents": lambda: tree.self_time("cli.main") + tree.time(DOCUMENTS),
    }[NAMED_LAYER[workload]]()
    total = tree.time({"cli.main"})
    metrics["trace.named_layer_share"] = (named / total if total else 0.0, R)
    return metrics, NAMED_LAYER[workload]


def span_records(tracer: Tracer) -> list:
    """Spans as plain lists, start and end relative to the first span."""
    if not tracer.spans:
        return []
    t0 = tracer.spans[0][1]
    return [[name, round(a - t0, 7), round(b - t0, 7), parent, job]
            for name, a, b, parent, job in tracer.spans]
