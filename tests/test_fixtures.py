"""Every committed benchmark fixture replays to the same text.

A fixture records each job's exit code and report sha256, so a changed
report in any mode shows up here as a differing fixture.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", workloads.FIXTURE_SEEDS)
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_fixture_replays_identically(workload, seed):
    text, problems = gen.build_fixture(harness.import_cli(), workload, seed)
    assert problems == []
    assert text == harness.fixture_path(workload, seed).read_text(
        encoding="utf-8")
