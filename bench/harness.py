"""Shared plumbing: where things live, fixture files, and one CLI job run.

A job runs the way a user's ``wickjet --job FILE`` does, through
``wickjet.cli.main``, but inside this process: the report is captured from
stdout and summarised by its sha256, and stderr is captured and dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = BENCH / "fixtures"
# Materialised job files; listed in .gitignore.
WORK = ROOT / ".bench_work"

# Exit code recorded for a job that ended in an uncaught exception; the CLI
# itself documents only 0, 2, 3 and 4.
CRASH_EXIT = 1


class MissingProgram(RuntimeError):
    """The checkout has no wickjet sources to benchmark."""


def import_cli():
    """Import ``wickjet.cli`` from this checkout's ``src`` and nowhere else."""
    package = SRC / "wickjet"
    if not (package / "cli.py").is_file():
        raise MissingProgram(f"no wickjet sources under {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wickjet.cli

    if Path(wickjet.cli.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"wickjet was imported from {wickjet.cli.__file__}"
                             f", not from {package}")
    return wickjet.cli


def fixture_path(workload: str, seed: int) -> Path:
    return FIXTURES / f"{workload}-{seed}.jsonl"


def job_text(job: dict) -> str:
    return json.dumps(job, sort_keys=True) + "\n"


def materialise(workload: str, seed: int, jobs: list) -> list:
    """Write each job to its own file, as the CLI reads it; return the paths."""
    directory = WORK / f"{workload}-{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = directory / f"{i:04d}.json"
        text = job_text(job)
        if not path.is_file() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def run_job(cli, path: Path) -> tuple:
    """Run one job file through the CLI; return (exit code, report bytes)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--job", str(path)])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed job, not a failed run
            traceback.print_exc()
            code = CRASH_EXIT
    return code, out.getvalue().encode("utf-8")


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def fixture_text(header: dict, entries: list) -> str:
    """JSON lines: the header, then one {"job", "exit", "sha256"} per job."""
    lines = [header] + entries
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def load_fixture(workload: str, seed: int) -> tuple:
    """(header, entries) of a committed fixture."""
    path = fixture_path(workload, seed)
    if not path.is_file():
        raise FileNotFoundError(f"no fixture {path.relative_to(ROOT)}; make it "
                                f"with: python3 bench/gen.py --workload "
                                f"{workload} --seed {seed}")
    header, *entries = (json.loads(line) for line in
                        path.read_text(encoding="utf-8").splitlines())
    return header, entries
