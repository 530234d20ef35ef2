#!/usr/bin/env python3
"""Benchmark for the ``bihomsuper`` command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One process, one closed-loop client: each job is one ``bihomsuper.cli.main``
call (parse documents, run checks, write the machine report), sent only
after the previous one returned. Whole rounds of the workload's job list run
until ``--seconds`` have passed. Every job's report is then checked against an
answer known before the run (see ``workloads``); a later round must repeat the
first round's output byte for byte.

``--trace 0`` prints the end-to-end metrics. Job times are scaled by a speed
probe (``speed``), and set-up time by a reference import (``measure_setup``),
to a nominal machine speed, so the host's drift does not read as a change of
the program; the raw wall times are printed and recorded beside them. ``--trace 1`` first times one
untraced round, then wraps each layer's public functions (``tracer``) and
prints per-layer means per job, the tracing overhead and the share of time in
the layer the workload is meant to stress. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. A fuller record,
with provenance, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
for _path in (str(SRC), str(HERE), str(ROOT / "tests")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

# A run covers at least this many jobs, so the tail percentile has at least
# ten jobs beyond it (p80 or higher); the percentile is fixed per workload from
# this minimum, so it does not move when a faster program fits more rounds.
MIN_JOBS = 54
TAIL_BEYOND = 10
SETUP_REPEATS = 12


# Set-up is timed in alternation with a fresh interpreter importing a fixed
# set of standard-library modules the package does not use: the same kind of
# work (start-up, reading and running compiled modules), which the host's
# drift slows alike, so it cancels in their ratio. The ratio is reported in
# seconds of a machine where the reference takes SETUP_NOMINAL_S (close to
# its time on the 2-vCPU x86_64 VM, CPython 3.11, this was tuned on).
SETUP_REFERENCE = "import email.message, http.client, logging, unittest, xml.dom.minidom"
SETUP_NOMINAL_S = 0.135


def _fresh_import(statement: str, env) -> float:
    """Seconds from starting an interpreter to the end of ``statement``."""
    code = f"{statement}\nimport time\nprint(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return float(out) - start


def measure_setup() -> tuple[float, float]:
    """Median time from starting a fresh interpreter to finishing
    ``import bihomsuper.cli``: scaled by the reference import, and raw.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, scaled = [], []
    for n in range(SETUP_REPEATS + 1):
        if n % 2:  # alternate which of the pair runs first
            wall = _fresh_import("import bihomsuper.cli", env)
            ref = _fresh_import(SETUP_REFERENCE, env)
        else:
            ref = _fresh_import(SETUP_REFERENCE, env)
            wall = _fresh_import("import bihomsuper.cli", env)
        if n:  # the first pair writes the bytecode caches
            walls.append(wall)
            scaled.append(wall / ref * SETUP_NOMINAL_S)
    return statistics.median(scaled), statistics.median(walls)


def run_job(cli, job) -> tuple[int | None, str, float]:
    """One closed-loop request: returns exit code, machine report, seconds."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejects options this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        code = None
        out = io.StringIO(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), time.perf_counter() - t0


def run_rounds(cli, jobs, seconds, min_rounds, on_job=None):
    """Whole rounds of ``jobs`` until ``seconds`` pass.

    Returns the results (job index, exit code, report, wall seconds, scaled
    seconds; see ``speed``) and the wall time of each round.
    """
    probe = speed.Probe()
    timed = []
    walls: list[float] = []
    t0 = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        for n, job in enumerate(jobs):
            before = probe.due()  # outside the job's own timing
            if on_job is not None:
                on_job(len(timed))
            timed.append((n, *run_job(cli, job), before))
        walls.append(time.perf_counter() - start)
    probe.sample()
    results = [(n, code, out, wall, wall * probe.scale(before, before + 1))
               for n, code, out, wall, before in timed]
    return results, walls


def check_results(jobs, results):
    """Failures against the known answers, one per failed execution.

    A later round must repeat the first round's output byte for byte, and
    then shares its verdict.
    """
    first: dict[int, tuple] = {}
    verdict: dict[int, str | None] = {}
    failures = []
    for n, code, out, *_ in results:
        job = jobs[n]
        if n not in first:
            first[n] = (code, out)
            verdict[n] = job.problem(code, out) if code is not None else out
            problem = verdict[n]
        elif (code, out) != first[n]:
            problem = "output differs from the first round"
        else:
            problem = verdict[n]
        if problem:
            failures.append({"job": job.name, "problem": problem})
    return failures, first


def report_digest(jobs, first) -> str:
    """sha256 over the first round's reports, in job-name order."""
    h = hashlib.sha256()
    for n in sorted(first, key=lambda i: jobs[i].name):
        h.update(first[n][1].encode("utf-8"))
    return h.hexdigest()


def tail_quantile(jobs_per_round: int) -> tuple[float, int]:
    min_rounds = max(1, math.ceil(MIN_JOBS / jobs_per_round))
    n_min = min_rounds * jobs_per_round
    return (n_min - 1 - TAIL_BEYOND) / (n_min - 1), min_rounds


def at_quantile(sorted_values, q):
    return sorted_values[round(q * (len(sorted_values) - 1))]


def provenance(workload, seed, rounds, results, failures, first) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "dims": list(workload.dims),
        "jobs_per_round": len(workload.jobs),
        "rounds": rounds,
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:20],  # the first few; "failed" has the count
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "reports_sha256": report_digest(workload.jobs, first),
    }


def measure(workload_name, seed, seconds, trace, smoke=False, workdir=None):
    """Build, run and check one workload; returns (result line, full record)."""
    import workloads

    setup = (None, None) if trace or smoke else measure_setup()
    workdir = workdir or OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.build(workload_name, seed, workdir, smoke)
        from bihomsuper import cli

        jobs = workload.jobs
        q, min_rounds = tail_quantile(len(jobs))
        if smoke:
            min_rounds = 1
        if trace:
            return _traced(cli, workload, seed, seconds)
        run_job(cli, min(jobs, key=lambda j: len(j.argv)))  # warm imports and argparse
        results, walls = run_rounds(cli, jobs, seconds, min_rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures, first = check_results(jobs, results)
    times = sorted(r[4] for r in results)
    wall_times = sorted(r[3] for r in results)
    metrics = {
        "jobs_per_s": (len(results) / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1000, "ms"),
        "job_tail_ms": (at_quantile(times, q) * 1000, "ms"),
        "setup_s": (setup[0] if setup[0] is not None else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = provenance(workload, seed, len(walls), results, failures, first)
    record.update({
        "trace": 0,
        "wall": {
            "jobs_per_s": len(results) / sum(wall_times),
            "job_p50_ms": statistics.median(wall_times) * 1000,
            "job_tail_ms": at_quantile(wall_times, q) * 1000,
            "setup_s": setup[1],
        },
        "tail_percentile": round(100 * q, 2),
        "tail_samples": len(results),
        "failed_ratio": len(failures) / len(results),
    })
    return _result(results, failures, metrics), record


def _traced(cli, workload, seed, seconds):
    import tracer as tr

    jobs = workload.jobs
    untraced, _ = run_rounds(cli, jobs, 0, 1)
    with tr.Tracer() as tracer:
        def mark(n):
            tracer.job = n
        results, walls = run_rounds(cli, jobs, seconds, 1, on_job=mark)
    failures, first = check_results(jobs, untraced + results)
    report_bytes = sum(len(r[2].encode("utf-8")) for r in results)
    metrics, layer = tr.layer_metrics(tracer, len(results), report_bytes, workload.name)
    untraced_rate = len(untraced) / sum(r[4] for r in untraced)
    traced_rate = len(results) / sum(r[4] for r in results)
    metrics["trace.jobs_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.jobs_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    record = provenance(workload, seed, len(walls), results, failures, first)
    share = metrics["trace.named_layer_share"][0]
    record.update({
        "trace": 1,
        "named_layer": layer,
        "named_layer_share": share,
        "named_layer_has_most_time": share > 0.5,
        "spans": tr.span_records(tracer),
    })
    return _result(untraced + results, failures, metrics), record


def _result(results, failures, metrics) -> dict:
    return {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def smoke(seed: int = 0, workdir: Path | None = None) -> dict:
    """All four workloads on their smallest dimensions, untraced and traced."""
    import workloads

    out = {}
    for name in workloads.WHY:
        for trace in (0, 1):
            line, _ = measure(name, seed, 0, trace, smoke=True,
                              workdir=(workdir / f"{name}-{trace}") if workdir else None)
            out[(name, trace)] = line
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="verify-scale, derive-scale, operator-scale or small-corpus")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on its smallest dimensions, untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "bihomsuper" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        lines = smoke(args.seed)
        bad = [key for key, line in lines.items() if not line["correct"]]
        for (name, trace), line in lines.items():
            print(f"{name} trace={trace}: {line['attempted']} jobs, {line['failed']} failed")
        return 1 if bad else 0
    if not args.workload:
        parser.error("--workload is required unless --smoke is given")
    line, record = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    spans = record.pop("spans", None)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record["metrics"] = line["metrics"]
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    for name, m in line["metrics"].items():
        print(f"{name:34} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print("wall, unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in record["wall"].items()))
        print(f"tail percentile p{record['tail_percentile']} over {record['tail_samples']} jobs;"
              f" failed_ratio {record['failed_ratio']}")
    else:
        print(f"named layer {record['named_layer']}: share {record['named_layer_share']:.3f}")
    print(f"reports sha256 {record['reports_sha256']}; python {record['python']}, nproc {record['nproc']}")
    for failure in record["failures"]:
        print(f"FAILED {failure['job']}: {failure['problem']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
