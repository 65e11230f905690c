"""Generate the committed fixture of a workload: jobs plus expected results.

    python3 bench/gen.py                       # every workload, both seeds
    python3 bench/gen.py --workload flat-algebra --seed 7
    python3 bench/gen.py --check               # compare with committed files

Each fixture holds the workload's jobs and, per job, the exit code and the
report sha256 that this commit's ``wickjet`` produces for it.  Generation
refuses to write a fixture in which a job does not exit 0 with
``status: ok``, so a committed fixture is also an acceptance record.
Rerunning with the same seed rewrites byte-identical files.
"""

from __future__ import annotations

import argparse
import sys

import harness
import workloads


def build_fixture(cli, workload: str, seed: int) -> tuple:
    """Return (fixture text, problems): problems name jobs that did not pass."""
    jobs = workloads.make_jobs(workload, seed)
    paths = harness.materialise(workload, seed, jobs)
    entries = []
    problems = []
    for i, (job, path) in enumerate(zip(jobs, paths)):
        code, report = harness.run_job(cli, path)
        if code != 0 or not report.endswith(b"status: ok\n"):
            problems.append(f"{workload}-{seed} job {i} ({job['mode']}): "
                            f"exit {code}")
        entries.append({"job": job, "exit": code,
                        "sha256": harness.digest(report)})
    header = {"workload": workload, "seed": seed, "jobs": len(entries),
              "weight_reuse_share": workloads.weight_reuse_share(jobs)}
    return harness.fixture_text(header, entries), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="workload to generate (repeatable; default all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="fixture seed (repeatable; default "
                             f"{' and '.join(map(str, workloads.FIXTURE_SEEDS))})")
    parser.add_argument("--check", action="store_true",
                        help="regenerate in memory and compare with the "
                             "committed fixtures instead of writing")
    args = parser.parse_args(argv)
    try:
        cli = harness.import_cli()
    except harness.MissingProgram as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return 2

    status = 0
    for workload in args.workload or list(workloads.WORKLOADS):
        for seed in args.seed or workloads.FIXTURE_SEEDS:
            text, problems = build_fixture(cli, workload, seed)
            path = harness.fixture_path(workload, seed)
            for problem in problems:
                print(f"gen: {problem}", file=sys.stderr)
            if problems:
                status = 1
            elif args.check:
                same = path.is_file() and path.read_text(encoding="utf-8") == text
                print(f"{path.relative_to(harness.ROOT)}: "
                      f"{'identical' if same else 'DIFFERS'}")
                status = status or (0 if same else 1)
            else:
                harness.FIXTURES.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
                print(f"wrote {path.relative_to(harness.ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
