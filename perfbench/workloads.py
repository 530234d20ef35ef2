"""The four benchmark workloads: generated documents, CLI jobs, known answers.

A job is one ``bihomsuper.cli.main`` call. Every job carries the exit code it
must return and a check of its machine report against an answer fixed before
the program runs: by construction for the generated families (see
``families``), by the entrywise formulas for diagonal operators, by the dense
second-path oracles in ``tests/oracles.py``, and by the properties the test
corpus asserts when it builds its fixtures.

The seed picks the twist values, the perturbed orbit and the job order; the
program only ever sees the documents written here. ``run`` puts ``src/`` and
``tests/`` (for ``oracles`` and ``corpus``) on the import path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import families as fm

ROOT = Path(__file__).resolve().parent.parent

# Why each workload exists; the names are fixed for later comparisons.
WHY = {
    "verify-scale": "verify on the twisted induced Heisenberg family: the n^5 Jacobi walk in algebras does nearly all the work, on passing, failing and fail-fast inputs",
    "derive-scale": "derivation spaces and a quasiderivation on the twisted family: row assembly, Bareiss kernel and dense re-verification; the Jacobi walk never runs",
    "operator-scale": "Nijenhuis, weighted Baxter and deformation checks on the untwisted family: deformations and rota_baxter do the work; neither Jacobi nor linalg runs",
    "small-corpus": "all 17 commands on tests/data and the dim 2-4 corpus: parsing, digests, argparse and report JSON are a large share of each 5-165 ms job",
}

# Dimensions per workload, full run and smoke run.
DIMS = {
    "verify-scale": ((4, 5), (4,)),
    "derive-scale": ((5, 6), (4,)),
    "operator-scale": ((4, 5), (4,)),
    "small-corpus": ((2, 3, 4), (2,)),
}

Check = Callable[[dict], "str | None"]


@dataclass
class Job:
    name: str
    argv: list[str]
    exit_code: int
    checks: list[Check] = field(default_factory=list)

    def problem(self, code: int, out: str) -> str | None:
        """Why this job's result is wrong, or None when it matches its answer."""
        if code != self.exit_code:
            return f"exit code {code}, expected {self.exit_code}"
        if self.exit_code == 2:
            return None if out == "" else "input error printed a report"
        try:
            tree = json.loads(out)
        except json.JSONDecodeError:
            return "machine report is not JSON"
        for check in self.checks:
            msg = check(tree)
            if msg:
                return msg
        return None


@dataclass
class Workload:
    name: str
    why: str
    dims: tuple[int, ...]
    jobs: list[Job]


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def _check_named(tree, name):
    for c in tree["checks"]:
        if c["name"] == name:
            return c
    return None


def all_passed(tree):
    bad = [c["name"] for c in tree["checks"] if c["mandatory"] and not c["passed"]]
    return f"mandatory checks failed: {bad}" if bad else None


def check_is(name, passed=None, violations=None, total=None, witness=None, rule=None):
    def check(tree):
        c = _check_named(tree, name)
        if c is None:
            return f"no check named {name}"
        if passed is not None and c["passed"] != passed:
            return f"{name} passed={c['passed']}, expected {passed}"
        if violations is not None and len(c["violations"]) != violations:
            return f"{name} has {len(c['violations'])} violations, expected {violations}"
        if total is not None and c["total"] != total:
            return f"{name} covered {c['total']} tuples, expected {total}"
        if witness is not None:
            where = [i + 1 for i in witness]
            if not any(v["where"] == where and (rule is None or v["rule"] == rule)
                       for v in c["violations"]):
                return f"{name} does not report the witness {where}"
        elif rule is not None and any(v["rule"] != rule for v in c["violations"]):
            return f"{name} reports a violation of another rule than {rule}"
        return None
    return check


def derived_is(key, value):
    """``value`` may be a callable, evaluated once when the first report is checked."""
    known = []

    def check(tree):
        if not known:
            known.append(value() if callable(value) else value)
        got = tree["derived"].get(key)
        return None if got == known[0] else f"derived {key} = {got!r}, expected {known[0]!r}"
    return check


def derived_tensor(key, tensor):
    def check(tree):
        node = tree["derived"].get(key)
        if node is None:
            return f"no derived {key}"
        return None if fm.tensor_from_tree(node) == tensor else f"derived {key} differs from the closed form"
    return check


def basis_matches_dimension(tree):
    d = tree["derived"]
    return None if len(d["basis"]) == d["dimension"] else "basis length differs from dimension"


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

class Writer:
    """Writes documents under one work directory and hands back their paths."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def __call__(self, name: str, tree: dict) -> str:
        path = self.workdir / (name.replace("/", "_") + ".json")
        path.write_text(fm.dump(tree), encoding="utf-8")
        return str(path)


def machine(*args) -> list[str]:
    return [str(a) for a in args] + ["--format", "machine"]


def _pick(rng, pool, k):
    return [F(v) for v in rng.sample(pool, k)]


# Distinct primes: no product of twist values can coincide with another, so
# the joint eigenvalue pattern of alpha, beta and alpha^s beta^r (and with it
# the shape of every derivation system) is the same for every seed. With two
# pairs the seed permutes all four, so the size of the numbers is fixed too.
_TWIST_POOL = [2, 3, 5, 7]


def _twists(rng, fam):
    """Seeded commuting diagonal morphisms alpha != beta of the induced bracket."""
    values = _pick(rng, _TWIST_POOL, 2 * fam.pairs)
    alpha = fm.morphism_diagonal(fam, values[: fam.pairs - 1], values[-1], 1)
    beta = fm.morphism_diagonal(fam, values[fam.pairs - 1: 2 * fam.pairs - 2], values[-2], -1)
    return alpha, beta


def _diag_maps(alpha, beta):
    return {"alpha": fm.diagonal_matrix(alpha), "beta": fm.diagonal_matrix(beta)}


def expected_dimension(parities, alpha, beta, tensor, s, r, parity) -> int:
    """Derivation-space dimension from the oracle's nullity of the sparse system."""
    import oracles

    rows, ncols = fm.derivation_rows(parities, alpha, beta, tensor, s, r, parity)
    return oracles.nullity(rows, ncols)


# ---------------------------------------------------------------------------
# verify-scale
# ---------------------------------------------------------------------------

def verify_scale(rng, write, dims) -> list[Job]:
    # The smallest dimension gets a second pair of twists, so its passing jobs
    # hold the median well inside their group rather than at its edge.
    jobs = []
    for dim in dims:
        fam = fm.family_of_dim(dim)
        n = fam.dim
        base = fm.ternary(fam)
        jacobi_total = n ** 5
        path = write(f"verify-d{dim}-untwisted", fm.document(fam.parities, bracket3=base, multiplicative=True))
        jobs.append(Job(f"verify/d{dim}/untwisted", machine("verify", path), 0,
                        [all_passed, check_is("ternary-twisted-jacobi", True, 0, jacobi_total)]))
        for variant in ("twisted", "twisted-2")[: 2 if dim == dims[0] else 1]:
            alpha, beta = _twists(rng, fam)
            twisted = fm.twist(base, alpha, beta)
            path = write(f"verify-d{dim}-{variant}", fm.document(
                fam.parities, bracket3=twisted, maps=_diag_maps(alpha, beta), multiplicative=True))
            jobs.append(Job(f"verify/d{dim}/{variant}", machine("verify", path), 0,
                            [all_passed, check_is("ternary-twisted-jacobi", True, 0, jacobi_total),
                             check_is("ternary-multiplicativity", True)]))
        triple, target, witness = fm.breaking_orbit(fam, rng.randint(2, max(2, fam.pairs)))
        coeff = F(rng.choice((1, -1, 2, -2)))
        broken = fm.twist(fm.perturb(base, triple, target, coeff), alpha, beta)
        if not any(fm.jacobi_residual_at(fam.parities, broken, alpha, beta, witness)):
            raise AssertionError(f"orbit {triple} -> {target} does not break the identity at dim {dim}")
        path = write(f"verify-d{dim}-perturbed", fm.document(
            fam.parities, bracket3=broken, maps=_diag_maps(alpha, beta)))
        skew_ok = check_is("ternary-twisted-skewsymmetry", True, 0)
        jobs.append(Job(f"verify/d{dim}/perturbed", machine("verify", path), 1,
                        [skew_ok, check_is("ternary-twisted-jacobi", False, None, jacobi_total,
                                           witness, "twisted-jacobi")]))
        jobs.append(Job(f"verify/d{dim}/perturbed-fail-fast", machine("verify", path, "--fail-fast"), 1,
                        [skew_ok, check_is("ternary-twisted-jacobi", False, 1)]))
    return jobs


# ---------------------------------------------------------------------------
# derive-scale
# ---------------------------------------------------------------------------

# Per dimension. Five even solves per dimension make the smaller dimension's
# hold the median and the larger's the tail percentile, each well inside
# its group of jobs rather than at its edge.
_QUERIES = ((0, 0, "even"), (1, 1, "even"), (1, 0, "even"), (0, 1, "even"), (0, 0, "odd"))


def _quasi_map(rng, fam):
    """A diagonal D whose insertions sum to one constant on every entry, so a
    companion map exists: d(x_1) + d(x_i) + d(y_i) = d(x_1) + 2 d(t)."""
    const = F(rng.choice((2, 3, 4)))
    d = [F(rng.randint(1, 5)) for _ in range(fam.dim)]
    for i in range(2, fam.pairs + 1):
        d[fam.y(i)] = const - d[fam.x(i)]
    for t in fam.odd_indices():
        d[t] = const / 2
    return d


def derive_scale(rng, write, dims) -> list[Job]:
    jobs = []
    for dim in dims:
        fam = fm.family_of_dim(dim)
        alpha, beta = _twists(rng, fam)
        tensor = fm.twist(fm.ternary(fam), alpha, beta)
        maps = _diag_maps(alpha, beta)
        maps["D"] = fm.diagonal_matrix(_quasi_map(rng, fam))
        path = write(f"derive-d{dim}", fm.document(fam.parities, bracket3=tensor, maps=maps, multiplicative=True))
        for s, r, parity in _QUERIES:
            dimension = expected_dimension(fam.parities, alpha, beta, tensor, s, r, int(parity == "odd"))
            jobs.append(Job(
                f"derivations/d{dim}/s{s}r{r}{parity}",
                machine("derivations", path, "--s", s, "--r", r, "--parity", parity), 0,
                [derived_is("dimension", dimension), basis_matches_dimension]))
        jobs.append(Job(f"quasiderivation/d{dim}", machine("quasiderivation", path, "--map", "D"), 0,
                        [derived_is("is_quasiderivation", True)]))
    return jobs


# ---------------------------------------------------------------------------
# operator-scale
# ---------------------------------------------------------------------------

def _distinct_values(rng, n):
    return [F(v) for v in rng.sample(range(-6, 8), n)]


def operator_scale(rng, write, dims) -> list[Job]:
    # The n^5 deformation walk and the Nijenhuis forms run on the smallest
    # dimension only, to keep a round near four seconds.
    jobs = []
    nijenhuis_dims = dims[:1]
    deform_full = dims[:1]
    deform_fast = dims[:2]
    for dim in dims:
        fam = fm.family_of_dim(dim)
        n = fam.dim
        T = fm.ternary(fam)
        # Nijenhuis: passing iff every entry has a slot with n_slot = n_z; x_1 sits in all.
        n_pass = _distinct_values(rng, n)
        n_pass[fam.x(1)] = n_pass[fam.z]
        n_fail = _distinct_values(rng, n)
        weight = F(rng.choice((1, -1, 2, -2)))
        r_pass = [F(rng.randint(1, 5)) for _ in range(n)]
        r_pass[fam.x(1)] = r_pass[fam.z] = F(0)
        rb_bad = 0
        while not rb_bad:
            r_fail = [F(rng.randint(-3, 4)) for _ in range(n)]
            rb_bad = len({k[:3] for k in T if not fm.rb_entry_ok(r_fail, weight, k)})
        nij_bad = len({k[:3] for k in T if not fm.nijenhuis_entry_ok(n_fail, k)})
        first, second = fm.n_brackets(T, n_pass)
        maps = {
            "Npass": fm.diagonal_matrix(n_pass), "Nfail": fm.diagonal_matrix(n_fail),
            "Rpass": fm.diagonal_matrix(r_pass), "Rfail": fm.diagonal_matrix(r_fail),
        }
        path = write(f"operator-d{dim}", fm.document(fam.parities, bracket3=T, maps=maps))
        w = str(weight)
        if dim in nijenhuis_dims:
            jobs.append(Job(f"check-nijenhuis/d{dim}/pass", machine("check-nijenhuis", path, "--map", "Npass"), 0,
                            [check_is("ternary-nijenhuis", True, 0, n ** 3)]))
            jobs.append(Job(f"check-nijenhuis/d{dim}/fail", machine("check-nijenhuis", path, "--map", "Nfail"), 1,
                            [check_is("ternary-nijenhuis", False, nij_bad, n ** 3)]))
            jobs.append(Job(f"trivial-deformation/d{dim}/pass", machine("trivial-deformation", path, "--map", "Npass"), 0,
                            [derived_tensor("omega1", first), derived_tensor("omega2", second)]))
            jobs.append(Job(f"trivial-deformation/d{dim}/fail", machine("trivial-deformation", path, "--map", "Nfail"), 1,
                            [check_is("preconditions", False)]))
        jobs.append(Job(f"check-rb/d{dim}/pass", machine("check-rb", path, "--map", "Rpass", "--weight", w), 0,
                        [check_is("ternary-rota-baxter", True, 0, n ** 3)]))
        jobs.append(Job(f"check-rb/d{dim}/fail", machine("check-rb", path, "--map", "Rfail", "--weight", w), 1,
                        [check_is("ternary-rota-baxter", False, rb_bad, n ** 3)]))
        jobs.append(Job(f"check-rb/d{dim}/fail-fast", machine("check-rb", path, "--map", "Rfail", "--weight", w, "--fail-fast"), 1,
                        [check_is("ternary-rota-baxter", False, 1)]))
        jobs.append(Job(f"rb-bracket/d{dim}/pass", machine("rb-bracket", path, "--map", "Rpass", "--weight", w), 0,
                        [derived_tensor("induced", fm.rb_bracket_tensor(T, r_pass, weight))]))
        jobs.append(Job(f"rb-bracket/d{dim}/fail", machine("rb-bracket", path, "--map", "Rfail", "--weight", w), 1,
                        [check_is("ternary-rota-baxter", False, rb_bad)]))
        if dim in deform_full or dim in deform_fast:
            # Passing pair: the N-brackets of a Nijenhuis N land in the centre, so
            # every composition vanishes. Failing pair: a non-central orbit as w1.
            triple, target, witness = fm.breaking_orbit(fam, rng.randint(2, max(2, fam.pairs)))
            bad = fm.perturb({}, triple, target, F(rng.choice((1, -1, 2, -2))))
            p1 = write(f"operator-d{dim}-w1", fm.document(fam.parities, bracket3=first))
            p2 = write(f"operator-d{dim}-w2", fm.document(fam.parities, bracket3=second))
            pb = write(f"operator-d{dim}-wbad", fm.document(fam.parities, bracket3=bad))
            pz = write(f"operator-d{dim}-wzero", fm.document(fam.parities, bracket3={}))
            name = "second-order-deformation"
            if dim in deform_full:
                jobs.append(Job(f"deformation-check/d{dim}/pass",
                                machine("deformation-check", path, "--omega1", p1, "--omega2", p2), 0,
                                [check_is(name, True, 0, 8 * n ** 3 + 4 * n ** 5)]))
                jobs.append(Job(f"deformation-check/d{dim}/fail",
                                machine("deformation-check", path, "--omega1", pb, "--omega2", pz), 1,
                                [check_is(name, False, None, 8 * n ** 3 + 4 * n ** 5, witness, "series-degree-1")]))
            jobs.append(Job(f"deformation-check/d{dim}/fail-fast",
                            machine("deformation-check", path, "--omega1", pb, "--omega2", pz, "--fail-fast"), 1,
                            [check_is(name, False, 1, rule="series-degree-1")]))
    return jobs


# ---------------------------------------------------------------------------
# small-corpus
# ---------------------------------------------------------------------------

def _matrix(m):
    return [list(row) for row in m.matrix]


def _diagonal_of(m):
    rows = m.matrix
    n = len(rows)
    if any(rows[k][i] != 0 for k in range(n) for i in range(n) if k != i):
        return None
    return [rows[i][i] for i in range(n)]


def _is_identity(m):
    d = _diagonal_of(m)
    return d is not None and all(v == 1 for v in d)


def _tensor3(A):
    return dict(A.bracket.entries)


def _algebra_maps(A):
    maps = {}
    for name, m in (("alpha", A.alpha), ("beta", A.beta)):
        if not _is_identity(m):
            maps[name] = fm.matrix_entry(_matrix(m))
    return maps


def _data_jobs(write) -> list[Job]:
    """tests/data documents, with the answers the CLI tests assert."""
    data = ROOT / "tests" / "data"
    tb, la, cp = data / "ternary_basic.json", data / "line_action.json", data / "central_pair.json"
    w1, w2 = data / "ternary_basic_w1.json", data / "ternary_basic_w2.json"
    tree = json.loads(tb.read_text())
    tree["maps"]["alpha"] = fm.diagonal_matrix([F(2), F(3), F(1, 3)])
    tree["maps"]["beta"] = fm.diagonal_matrix([F(5), F(7), F(1, 7)])
    twistable = write("data-ternary-basic-twistable", tree)
    twisted = fm.twist(fm.tensor_from_tree(tree), [F(2), F(3), F(1, 3)], [F(5), F(7), F(1, 7)])
    transfers = _central_pair_transfers(cp)
    return [
        Job("data/verify/abelian", machine("verify", data / "abelian.json"), 0, [all_passed]),
        Job("data/verify/ternary-basic", machine("verify", tb), 0, [all_passed]),
        Job("data/verify/bad-parity", machine("verify", data / "bad_parity.json"), 2),
        Job("data/derivations/bad-parity", machine("derivations", data / "bad_parity.json"), 2),
        Job("data/derivations/binary-only", machine("derivations", la), 2),
        Job("data/induce-tau/line-action", machine("induce-tau", la), 0, [all_passed]),
        Job("data/check-rb/line-action", machine("check-rb", la), 0, [all_passed]),
        Job("data/check-rb/line-action-N-w2", machine("check-rb", la, "--map", "N", "--weight", "2"), 1),
        Job("data/check-rb/ternary-N-w0", machine("check-rb", tb, "--map", "N", "--weight", "0"), 1),
        Job("data/check-rb/ternary-N-w0-fail-fast",
            machine("check-rb", tb, "--map", "N", "--weight", "0", "--fail-fast"), 1,
            [check_is("ternary-rota-baxter", False, 1)]),
        Job("data/derivations/ternary-basic",
            machine("derivations", tb, "--s", 0, "--r", 0, "--parity", "even"), 0,
            [derived_is("dimension", 6), basis_matches_dimension]),
        Job("data/quasiderivation/ternary-basic", machine("quasiderivation", tb, "--map", "D"), 0,
            [derived_is("is_quasiderivation", True)]),
        Job("data/rb-bracket/ternary-basic", machine("rb-bracket", tb, "--map", "R", "--weight", 0), 0,
            [all_passed]),
        Job("data/rb-projection-twist/ternary-basic",
            machine("rb-projection-twist", tb, "--map", "P", "--weight", 0), 0, [all_passed]),
        Job("data/rb-inverse-derivation/ternary-basic",
            machine("rb-inverse-derivation", tb, "--map", "R"), 0,
            [derived_is("weight0_operator_and_inverse_derivation", True)]),
        Job("data/n-brackets/ternary-basic", machine("n-brackets", tb, "--map", "N"), 0, [all_passed]),
        Job("data/trivial-deformation/ternary-basic", machine("trivial-deformation", tb, "--map", "N"), 0,
            [all_passed]),
        Job("data/deformation-check/ternary-basic",
            machine("deformation-check", tb, "--omega1", w1, "--omega2", w2), 0, [all_passed]),
        Job("data/deformation-check/missing-omega2",
            machine("deformation-check", tb, "--omega1", w1), 2),
        Job("data/nijenhuis-transfer/line-action", machine("nijenhuis-transfer", la, "--map", "N"), 0,
            [all_passed]),
        Job("data/nijenhuis-rb-compat/ternary-basic",
            machine("nijenhuis-rb-compat", tb, "--map", "N", "--rb", "R", "--weight", 0), 0, [all_passed]),
        Job("data/derivation-nijenhuis-rb/ternary-basic",
            machine("derivation-nijenhuis-rb", tb, "--map", "D"), 0, [all_passed]),
        Job("data/twist3/ternary-basic", machine("twist3", twistable), 0,
            [derived_tensor("twisted", twisted)]),
        Job("data/rb-transfer/central-pair", machine("rb-transfer", cp), 0 if transfers else 1,
            [check_is("rota-baxter-transfer-criterion", transfers)]),
    ]


def _central_pair_transfers(path) -> bool:
    """Entrywise weighted identity of R on the tau-induced tensor of the document."""
    tree = json.loads(Path(path).read_text())
    parities = tree["space"]["parities"]
    binary = {(i - 1, j - 1, k - 1): F(c) for i, j, k, c in tree["bracket2"]}
    tau = [F(c) for c in tree["maps"]["tau"]["row"]]
    m = tree["maps"]["R"]["matrix"]
    if any(F(m[k][i]) for k in range(len(m)) for i in range(len(m)) if k != i):
        raise ValueError(f"{path}: the entrywise answer needs a diagonal R")
    r = [F(m[i][i]) for i in range(len(m))]
    weight = F(tree["scalars"]["lambda"])
    induced = fm.induced_tensor(parities, binary, tau)
    return all(fm.rb_entry_ok(r, weight, key) for key in induced)


def _ternary_fixture_jobs(write, corpus, dims) -> list[Job]:
    import oracles

    jobs = []
    for fx in corpus.ternary_fixtures():
        A = fx.algebra
        n = A.dim
        if n not in dims:
            continue
        P = A.space.parities
        T = _tensor3(A)
        tag = fx.name.replace("/", "-")
        diagonal = _diagonal_of(A.alpha) is not None and _diagonal_of(A.beta) is not None
        # Operators must commute with the twists: diagonal ones do when the
        # twists are diagonal, scalar ones always do.
        n_op = [F(k + 2) for k in range(n)] if diagonal else [F(2)] * n
        r_op = [F((-1) ** k * (k + 1)) for k in range(n)] if diagonal else [F(-1)] * n
        maps = _algebra_maps(A)
        maps.update({
            "Id": fm.diagonal_matrix([F(1)] * n),
            "N": fm.diagonal_matrix(n_op),
            "R": fm.diagonal_matrix(r_op),
        })
        path = write(f"corpus-{tag}", fm.document(P, bracket3=T, maps=maps,
                                                  multiplicative=A.multiplicative))
        jobs.append(Job(f"corpus/verify/{tag}", machine("verify", path), 0, [all_passed]))
        alpha = [list(r) for r in A.alpha.matrix]
        beta = [list(r) for r in A.beta.matrix]
        parities = (0, 1) if 1 in P else (0,)
        for parity in parities:
            def dimension(P=P, alpha=alpha, beta=beta, T=T, parity=parity):
                rows, ncols = oracles.derivation_constraint_matrix_3(P, alpha, beta, T, 0, 0, parity)
                return oracles.nullity(rows, ncols)

            label = "even" if parity == 0 else "odd"
            jobs.append(Job(f"corpus/derivations/{tag}/{label}",
                            machine("derivations", path, "--parity", label), 0,
                            [derived_is("dimension", dimension), basis_matches_dimension]))
        # D = Id always has the companion 3 Id when (s, r) = (0, 0).
        jobs.append(Job(f"corpus/quasiderivation/{tag}", machine("quasiderivation", path, "--map", "Id"), 0,
                        [derived_is("is_quasiderivation", True)]))
        first, second = fm.n_brackets(T, n_op)
        jobs.append(Job(f"corpus/n-brackets/{tag}", machine("n-brackets", path, "--map", "N"), 0,
                        [derived_tensor("first", first), derived_tensor("second", second)]))
        nij_bad = len({k[:3] for k in T if not fm.nijenhuis_entry_ok(n_op, k)})
        jobs.append(Job(f"corpus/check-nijenhuis/{tag}", machine("check-nijenhuis", path, "--map", "N"),
                        1 if nij_bad else 0, [check_is("ternary-nijenhuis", not nij_bad, nij_bad)]))
        if nij_bad:
            jobs.append(Job(f"corpus/trivial-deformation/{tag}",
                            machine("trivial-deformation", path, "--map", "N"), 1,
                            [check_is("preconditions", False)]))
        else:
            jobs.append(Job(f"corpus/trivial-deformation/{tag}",
                            machine("trivial-deformation", path, "--map", "N"), 0,
                            [derived_tensor("omega1", first), derived_tensor("omega2", second)]))
        for weight in (F(0), F(1)):
            bad = len({k[:3] for k in T if not fm.rb_entry_ok(r_op, weight, k)})
            jobs.append(Job(f"corpus/check-rb/{tag}/w{weight}",
                            machine("check-rb", path, "--map", "R", "--weight", weight),
                            1 if bad else 0, [check_is("ternary-rota-baxter", not bad, bad)]))
        if n <= 3:
            zero = write(f"corpus-{tag}-zero", fm.document(P, bracket3={}))
            jobs.append(Job(f"corpus/deformation-check/{tag}/zero",
                            machine("deformation-check", path, "--omega1", zero, "--omega2", zero), 0,
                            [check_is("second-order-deformation", True, 0)]))
    return jobs


def _binary_doc(A, rows=None, maps=None, scalars=None):
    node = _algebra_maps(A)
    node.update(maps or {})
    return fm.document(A.space.parities, bracket2=dict(A.bracket.entries), maps=node,
                       rows=rows, scalars=scalars, multiplicative=A.multiplicative)


def _binary_fixture_jobs(write, corpus, dims) -> list[Job]:
    jobs = []
    for fx in corpus.binary_fixtures():
        if fx.algebra.dim in dims:
            tag = fx.name.replace("/", "-")
            path = write(f"binary-{tag}", _binary_doc(fx.algebra))
            jobs.append(Job(f"binary/verify/{tag}", machine("verify", path), 0, [all_passed]))
    for fx in corpus.tau_fixtures():
        A = fx.algebra
        if A.dim not in dims:
            continue
        tag = fx.name.replace("/", "-")
        tau = list(fx.tau.coefficients)
        path = write(f"tau-{tag}", _binary_doc(A, rows={"tau": tau}))
        induced = fm.induced_tensor(A.space.parities, dict(A.bracket.entries), tau)
        jobs.append(Job(f"binary/induce-tau/{tag}", machine("induce-tau", path), 0,
                        [all_passed, derived_tensor("induced", induced)]))
    for name, A, tau, op in corpus.transfer_fixtures():
        if A.dim not in dims:
            continue
        tag = name.replace("/", "-")
        r = _diagonal_of(op.map)
        path = write(f"transfer-{tag}", _binary_doc(
            A, rows={"tau": list(tau.coefficients)}, maps={"R": fm.diagonal_matrix(r)},
            scalars={"lambda": op.weight}))
        induced = fm.induced_tensor(A.space.parities, dict(A.bracket.entries), list(tau.coefficients))
        ok = all(fm.rb_entry_ok(r, op.weight, key) for key in induced)
        jobs.append(Job(f"binary/check-rb/{tag}", machine("check-rb", path), 0, [all_passed]))
        jobs.append(Job(f"binary/rb-transfer/{tag}", machine("rb-transfer", path), 0 if ok else 1,
                        [check_is("rota-baxter-transfer-criterion", ok)]))
    taus = {t.name: t for t in corpus.tau_fixtures()}
    form_for = {"axb3": "axb3/id", "gl11": "gl11/id", "heis4": "heis4/id"}
    for name, A, N in corpus.nijenhuis2_fixtures():
        if A.dim not in dims:
            continue
        tag = name.replace("/", "-")
        maps = {"N": fm.matrix_entry(_matrix(N))}
        tau_fx = taus.get(form_for.get(name.split("/")[0], ""))
        rows = {"tau": list(tau_fx.tau.coefficients)} if tau_fx and tau_fx.algebra == A else None
        path = write(f"nijenhuis2-{tag}", _binary_doc(A, rows=rows, maps=maps))
        jobs.append(Job(f"binary/check-nijenhuis/{tag}", machine("check-nijenhuis", path), 0,
                        [check_is("binary-nijenhuis", True, 0)]))
        if rows:
            jobs.append(Job(f"binary/nijenhuis-transfer/{tag}", machine("nijenhuis-transfer", path), 0,
                            [all_passed]))
    return jobs


def _operator_fixture_jobs(write, corpus, dims) -> list[Job]:
    jobs = []
    for fx in corpus.rb_fixtures():
        A = fx.algebra
        if A.dim not in dims:
            continue
        tag = fx.name.replace("/", "-")
        T = _tensor3(A)
        n = A.dim
        r = _diagonal_of(fx.operator.map)
        weight = fx.operator.weight
        maps = _algebra_maps(A)
        maps.update({"R": fm.diagonal_matrix(r), "N": fm.diagonal_matrix([F(2)] * n),
                     "Z": fm.diagonal_matrix([F(0)] * n)})
        path = write(f"rb-{tag}", fm.document(A.space.parities, bracket3=T, maps=maps,
                                              scalars={"lambda": weight}))
        jobs.append(Job(f"rb/rb-bracket/{tag}", machine("rb-bracket", path), 0,
                        [derived_tensor("induced", fm.rb_bracket_tensor(T, r, weight))]))
        if all(v in (0, 1) for v in r):
            jobs.append(Job(f"rb/rb-projection-twist/{tag}", machine("rb-projection-twist", path), 0,
                            [all_passed]))
        # 2 Id is Nijenhuis and commutes with every diagonal operator.
        jobs.append(Job(f"rb/nijenhuis-rb-compat/{tag}",
                        machine("nijenhuis-rb-compat", path, "--map", "N", "--rb", "R"), 0, [all_passed]))
        # The zero map is an even derivation; it is Nijenhuis, so the value is true.
        jobs.append(Job(f"rb/derivation-nijenhuis-rb/{tag}",
                        machine("derivation-nijenhuis-rb", path, "--map", "Z"), 0,
                        [derived_is("nijenhuis_and_weight0", True)]))
    for name, A, m in corpus.invertible_rb_candidates():
        d = _diagonal_of(m)
        if A.dim not in dims or d is None:
            continue
        tag = name.replace("/", "-")
        T = _tensor3(A)
        maps = _algebra_maps(A)
        maps["R"] = fm.diagonal_matrix(d)
        path = write(f"inverse-{tag}", fm.document(A.space.parities, bracket3=T, maps=maps))
        value = all(fm.rb_entry_ok(d, F(0), key) for key in T)
        jobs.append(Job(f"rb/rb-inverse-derivation/{tag}", machine("rb-inverse-derivation", path), 0,
                        [derived_is("weight0_operator_and_inverse_derivation", value)]))
    for fx in corpus.ternary_fixtures():
        A = fx.algebra
        if A.dim not in dims or not (_is_identity(A.alpha) and _is_identity(A.beta)) or not fx.plainly_skew:
            continue
        # twist3 with commuting diagonal morphisms: phi_k = phi_i phi_j phi_l per entry.
        T = _tensor3(A)
        n = A.dim
        for label, phi in (("scalar", [F(1)] * n), ("sign", [F(-1)] * n)):
            if not all(phi[k] == phi[i] * phi[j] * phi[l] for (i, j, l, k) in T):
                continue
            maps = {"alpha": fm.diagonal_matrix(phi), "beta": fm.diagonal_matrix([F(1)] * n)}
            tag = fx.name.replace("/", "-")
            path = write(f"twist-{tag}-{label}", fm.document(A.space.parities, bracket3=T, maps=maps))
            jobs.append(Job(f"rb/twist3/{tag}/{label}", machine("twist3", path), 0,
                            [derived_tensor("twisted", fm.twist(T, phi, [F(1)] * n))]))
    return jobs


# Corpus jobs kept per (source, command), spread over the fixture list, so a
# round of the 17 commands stays near five seconds.
PER_COMMAND = 3


def _spread(jobs: list[Job], k: int) -> list[Job]:
    groups: dict[str, list[Job]] = {}
    for job in jobs:
        groups.setdefault("/".join(job.name.split("/")[:2]), []).append(job)
    kept = []
    for group in groups.values():
        picks = sorted({int((j + 0.5) * len(group) / k) for j in range(min(k, len(group)))})
        kept.extend(group[p] for p in picks)
    return kept


def small_corpus(write, dims) -> list[Job]:
    import corpus

    generated = (_ternary_fixture_jobs(write, corpus, dims) + _binary_fixture_jobs(write, corpus, dims)
                 + _operator_fixture_jobs(write, corpus, dims))
    return _data_jobs(write) + _spread(generated, PER_COMMAND)


# ---------------------------------------------------------------------------

def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """Generate the documents of one workload and its jobs in seeded order."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
    rng = random.Random(f"{name}:{seed}")
    dims = DIMS[name][1 if smoke else 0]
    write = Writer(workdir)
    if name == "verify-scale":
        jobs = verify_scale(rng, write, dims)
    elif name == "derive-scale":
        jobs = derive_scale(rng, write, dims)
    elif name == "operator-scale":
        jobs = operator_scale(rng, write, dims)
    else:
        jobs = small_corpus(write, dims)
    rng.shuffle(jobs)
    return Workload(name, WHY[name], dims, jobs)
