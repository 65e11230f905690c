"""Run one workload of the wickjet benchmark and print its metrics.

    python3 bench/run.py --workload curved-symbols --seed 1 --seconds 30 --trace 0

A run replays the workload's committed fixture jobs through
``wickjet.cli.main`` in this process, one job after another (closed loop,
one client, CLI defaults), pass after pass until ``--seconds`` is used up.
``--seed`` orders the jobs of each pass; the jobs themselves come from the
fixture, so every report can be checked against its committed sha256.

Times are reported at a fixed reference speed of the machine, measured by a
stdlib reference chunk run between jobs (see ``reference.py``), so a drift
in the speed of a shared host cancels.  The record keeps the raw times too.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead.  A human-readable table
and the run record go to stderr (and to ``--record FILE``); the last line
of stdout is the JSON result.  The exit code is 1 when any job's exit code
or report digest differs from the fixture, and 2 when the checkout has no
wickjet sources or no fixture.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import harness
import reference
import tracer as tracing
import workloads

SETUP_REPEATS = 11
TAIL_BEYOND = 10
# ru_maxrss is in KiB on Linux.
KIB_PER_MIB = 1024


class Pass(NamedTuple):
    wall: float       # raw seconds of the pass's jobs, reference chunks out
    job_times: list   # per job, at the reference speed
    raw_times: list   # per job, raw seconds
    reference: float  # median reference chunk time of the pass
    failures: list
    layers: tuple  # Tracer.summary() of a traced pass, else None


def run_pass(cli, paths, expected, order, tracer=None) -> Pass:
    """One pass over the jobs in ``order``; traced when a tracer is given.

    A reference chunk runs before the first job and after every job, so
    each job's time is normalised by the chunks around it.  The job lists
    are indexed by job, whatever the order.
    """
    order = list(order)
    raw = [0.0] * len(paths)
    chunks = [reference.chunk_time()]
    failures = []
    if tracer is not None:
        tracer.reset()
    with tracer or contextlib.nullcontext():
        for i in order:
            if tracer is not None:
                tracer.begin_job()
            t0 = perf_counter()
            code, report = harness.run_job(cli, paths[i])
            raw[i] = perf_counter() - t0
            chunks.append(reference.chunk_time())
            if [code, harness.digest(report)] != expected[i]:
                failures.append((i, code))
    layers = tracer.summary() if tracer is not None else None
    times = [0.0] * len(paths)
    for position, i in enumerate(order):
        times[i] = reference.normalise(raw[i],
                                       reference.around(chunks, position))
    return Pass(sum(raw), times, raw, statistics.median(chunks), failures,
                layers)


def measure(seconds: float, one_round) -> list:
    """Repeat ``one_round`` while a typical round still fits in ``seconds``.

    The first round always runs; after it, a round starts only if the
    median round so far would end within the budget.
    """
    rounds = []
    durations = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(one_round())
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return rounds


def setup_times() -> list:
    """Fresh interpreters that only ``import wickjet.cli``, each timed at
    the reference speed from the chunks on either side of it."""
    env = dict(os.environ, PYTHONPATH=str(harness.SRC))
    times = []
    chunks = [reference.chunk_time()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import wickjet.cli"],
                       cwd=harness.ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        chunks.append(reference.chunk_time())
    return [reference.normalise(elapsed, reference.around(chunks, position))
            for position, elapsed in enumerate(times)]


def end_to_end(passes: list, setup: list) -> dict:
    """End-to-end metrics from each job's median time across the passes.

    Taking the median per job first keeps a burst of machine noise during
    one pass out of every metric, once a run has three passes or more.
    """
    per_job = sorted(statistics.median(times)
                     for times in zip(*(p.job_times for p in passes)))
    raw_wall = sum(statistics.median(times)
                   for times in zip(*(p.raw_times for p in passes)))
    jobs = len(per_job)
    beyond = min(TAIL_BEYOND, jobs - 1)
    percentile = 100.0 * (jobs - beyond) / jobs
    runs = f"{jobs} jobs, median of {len(passes)} passes each"
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (sum(per_job), "s", f"sum over {runs}"),
        "job_p50_ms": (1e3 * statistics.median(per_job), "ms",
                       f"median over {runs}"),
        "job_tail_ms": (1e3 * per_job[jobs - 1 - beyond], "ms",
                        f"p{percentile:.1f} ({beyond} jobs beyond) over "
                        f"{runs}"),
        "peak_rss_mb": (peak_kib / KIB_PER_MIB, "MiB",
                        "process peak over the whole run"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh imports"),
        "raw_wall_s": (raw_wall, "s", f"sum over {runs}, not normalised"),
        "reference_chunk_ms": (
            1e3 * statistics.median(p.reference for p in passes), "ms",
            f"median over {len(passes)} passes; "
            f"{1e3 * reference.REFERENCE_S:g} at the reference speed"),
    }


UNITS = {"report_bytes": "B"}
# The report size belongs to the CLI as a whole, not to one function.
RENAMED = {"cli.run.report_bytes": "cli.report_bytes"}


def per_layer(untraced: list, traced: list) -> tuple:
    """Per-layer metrics and whether the counters repeated on every pass."""
    counters = [p.layers[1] for p in traced]
    repeat = all(c == counters[0] for c in counters[1:])
    metrics = {}
    for name, counts in counters[0].items():
        self_s = statistics.median(
            p.layers[0][name] * reference.REFERENCE_S / p.reference
            for p in traced)
        metrics[f"{name}.self_s"] = (
            self_s, "s", f"median of {len(traced)} traced passes, at the "
                         f"reference speed of each pass")
        for metric, value in counts.items():
            label = f"{name}.{metric}"
            metrics[RENAMED.get(label, label)] = (
                value, UNITS.get(metric, "count"), "exact, per pass")
        calls = counts["calls"]
        if "distinct" in counts:
            metrics[f"{name}.distinct_frac"] = (
                counts["distinct"] / calls if calls else 0.0, "ratio",
                "distinct inputs within a job / calls")
        if "cells" in counts:
            metrics[f"{name}.nonzero_frac"] = (
                counts["nonzero"] / counts["cells"] if calls else 0.0,
                "ratio", "nonzero cells / cells")
    overhead = (statistics.median(sum(p.job_times) for p in traced)
                / statistics.median(sum(p.job_times) for p in untraced))
    metrics["bench.trace.spans"] = (traced[0].layers[2], "count",
                                    "spans recorded in one traced pass")
    metrics["bench.trace.overhead"] = (
        overhead, "ratio", f"traced / untraced wall_s, {len(traced)} + "
                           f"{len(untraced)} passes")
    return metrics, repeat


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = harness.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((harness.SRC / "wickjet").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the jobs of every pass")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture-seed", type=int,
                        default=workloads.FIXTURE_SEEDS[0],
                        help="which committed fixture to replay")
    parser.add_argument("--record", type=Path,
                        help="also write the run record to this JSON file")
    args = parser.parse_args(argv)

    try:
        cli = harness.import_cli()
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        header, entries = harness.load_fixture(args.workload,
                                               args.fixture_seed)
    except (harness.MissingProgram, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    jobs = [entry["job"] for entry in entries]
    expected = [[entry["exit"], entry["sha256"]] for entry in entries]
    paths = harness.materialise(args.workload, args.fixture_seed, jobs)

    rng = random.Random(args.seed)

    def order() -> list:
        indices = list(range(len(jobs)))
        rng.shuffle(indices)
        return indices

    if args.trace:
        tracer = tracing.Tracer()
        rounds = measure(args.seconds, lambda: (
            run_pass(cli, paths, expected, order()),
            run_pass(cli, paths, expected, order(), tracer)))
        untraced = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        passes = untraced + traced
        metrics, repeat = per_layer(untraced, traced)
        wanted = spec["per_layer"]
    else:
        # Set-up time counts against the run's budget.
        start = perf_counter()
        setup = setup_times()
        passes = measure(args.seconds - (perf_counter() - start),
                         lambda: run_pass(cli, paths, expected, order()))
        metrics, repeat = end_to_end(passes, setup), True
        wanted = spec["end_to_end"]

    attempted = sum(len(p.job_times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    if not repeat:
        print("bench: exact counters differ between traced passes",
              file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed,
        "fixture_seed": args.fixture_seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(),
        "src_lines": source_lines(), "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "weight_reuse_share": header["weight_reuse_share"],
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failed_jobs": sorted({f"job {i} exit {code}" for i, code in failures}),
        "counters_repeat": repeat,
        "metrics": {name: {"value": value, "unit": unit, "samples": samples}
                    for name, (value, unit, samples) in metrics.items()},
    }
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:44s} {value:>14.6g} {unit:6s} {samples}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")

    result = {
        "correct": not failures and repeat,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
