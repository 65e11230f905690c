"""The benchmark's own checks: determinism, tracer hygiene, digest gate.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.FIXTURE_SEEDS[0]


@pytest.fixture(scope="module")
def cli():
    return harness.import_cli()


def _flat(cli, limit=None):
    header, entries = harness.load_fixture("flat-algebra", SEED)
    entries = entries[:limit]
    jobs = [e["job"] for e in entries]
    paths = harness.materialise("flat-algebra", SEED, jobs)
    return paths, [[e["exit"], e["sha256"]] for e in entries]


def _run(tmp_path, name, *args, cwd=harness.ROOT):
    record = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flat-algebra",
         "--seconds", "1", "--record", str(record), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, record


def test_fixture_jobs_come_from_the_seed():
    for workload in workloads.WORKLOADS:
        for seed in workloads.FIXTURE_SEEDS:
            header, entries = harness.load_fixture(workload, seed)
            assert [e["job"] for e in entries] == \
                workloads.make_jobs(workload, seed)
            assert header["jobs"] == len(entries)
            assert all(e["exit"] == 0 for e in entries)


def test_generator_rewrites_identical_fixture(cli):
    for seed in workloads.FIXTURE_SEEDS:
        text, problems = gen.build_fixture(cli, "flat-algebra", seed)
        assert problems == []
        assert text == harness.fixture_path("flat-algebra", seed).read_text(
            encoding="utf-8")


def test_two_traced_runs_agree(tmp_path):
    records = []
    for name in ("first", "second"):
        proc, path = _run(tmp_path, name, "--seed", "7", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
        records.append(json.loads(path.read_text()))
    exact = [{k: m["value"] for k, m in r["metrics"].items()
              if m["samples"] == "exact, per pass"} for r in records]
    assert exact[0] == exact[1]
    assert exact[0]["wick.wick_star.pairs"] > 0
    assert exact[0]["wick.wick_star.contractions"] > 0
    assert all(r["counters_repeat"] and r["failed"] == 0 for r in records)


def test_tracer_patches_every_binding(cli):
    tracer = tracing.Tracer()
    with tracer:
        found = set(tracing.wrapped_bindings())
    assert {"wickjet.wick.wick_star", "wickjet.integrals.wick_star",
            "wickjet.btrep.wick_star", "wickjet.suites.wick_star",
            "wickjet.cli.run", "wickjet.series.WickSeries.__add__",
            "wickjet.series.WickSeries.__radd__",
            "wickjet.btrep.BTContext.from_potential"} <= found
    assert tracing.wrapped_bindings() == []


def test_untraced_run_installs_no_wrapper(cli, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    seen = []
    original = harness.run_job

    def checked(cli, path):
        seen.append(tracing.wrapped_bindings())
        return original(cli, path)

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    monkeypatch.setattr(harness, "run_job", checked)
    paths, expected = _flat(cli, limit=40)
    result = run.run_pass(cli, paths, expected, range(len(paths)))
    assert result.failures == [] and result.layers is None
    assert len(seen) == 40 and not any(seen)


def test_job_times_follow_the_reference_chunks(cli, monkeypatch):
    paths, expected = _flat(cli, limit=6)
    chunks = iter([0.004] * 4 + [0.008] * 3)
    monkeypatch.setattr(reference, "chunk_time", lambda: next(chunks))
    result = run.run_pass(cli, paths, expected, range(6))
    around = [0.004, 0.004, 0.004, 0.006, 0.008, 0.008]
    assert result.job_times == pytest.approx(
        [t * reference.REFERENCE_S / c
         for t, c in zip(result.raw_times, around)])
    assert result.wall == pytest.approx(sum(result.raw_times))


def test_digest_check_fails_on_altered_digest(cli, monkeypatch, capsys):
    paths, expected = _flat(cli, limit=20)
    expected[3] = [expected[3][0], "0" * 64]
    result = run.run_pass(cli, paths, expected, range(len(paths)))
    assert [i for i, _ in result.failures] == [3]

    header, entries = harness.load_fixture("flat-algebra", SEED)
    entries[5]["sha256"] = "f" * 64
    monkeypatch.setattr(harness, "load_fixture", lambda w, s: (header, entries))
    monkeypatch.setattr(run, "setup_times", lambda: [0.25])
    code = run.main(["--workload", "flat-algebra", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_run_without_sources_fails_cleanly(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc, _ = _run(tmp_path, "bare", "--seed", "1", "--trace", "0",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no wickjet sources" in proc.stderr
