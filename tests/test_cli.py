"""Batch front-end: job parsing, wire formats, reports, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wickjet
from wickjet import cli
from wickjet.cli import ACCEPT_EXIT, COMPUTE_EXIT, PARSE_EXIT, JobError, load_job, main
from wickjet.coefficients import ComplexRational
from wickjet.jets import FunctionJets, jets_from_records, jets_to_records
from wickjet.series import WickSeries


def write_job(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


Y_RECORD = {"k2": 0, "I": [1], "J": [0], "re": "1", "im": "0"}
YB_RECORD = {"k2": 0, "I": [0], "J": [1], "re": "1", "im": "0"}


# ---------------------------------------------------------------------------
# shared literal formats


def test_series_records_round_trip():
    series = WickSeries(2, 6, {
        (0, (1, 0), (0, 1)): ComplexRational(Fraction(2, 3), Fraction(-1, 7)),
        (2, (0, 0), (0, 0)): ComplexRational(Fraction(-5)),
        (3, (1, 0), (0, 0)): ComplexRational(0, Fraction(1, 2)),
    })
    records = series.to_records()
    assert records == [
        {"k2": 0, "I": [1, 0], "J": [0, 1], "re": "2/3", "im": "-1/7"},
        {"k2": 2, "I": [0, 0], "J": [0, 0], "re": "-5", "im": "0"},
        {"k2": 3, "I": [1, 0], "J": [0, 0], "re": "0", "im": "1/2"},
    ]
    assert WickSeries.from_records(2, 6, records) == series
    # canonical JSON text survives a dump/load cycle unchanged
    assert json.loads(json.dumps(records)) == records


def test_jet_records_round_trip():
    jets = {((2,), (1,)): ComplexRational(Fraction(1, 3), Fraction(4))}
    records = jets_to_records(jets)
    assert records == [{"I": [2], "J": [1], "re": "1/3", "im": "4"}]
    assert jets_from_records(records, 1, 6) == jets
    f = FunctionJets.from_records(1, 6, [Y_RECORD])
    assert f.to_records() == [Y_RECORD]


def test_duplicate_records_accumulate():
    doubled = WickSeries.from_records(1, 4, [Y_RECORD, Y_RECORD])
    assert doubled.coefficient(0, (1,), (0,)) == 2


# ---------------------------------------------------------------------------
# job validation


def test_load_job_rejects_bad_inputs(tmp_path):
    with pytest.raises(JobError, match="empty job"):
        load_job(write_job(tmp_path, {}), 16)
    with pytest.raises(JobError, match="unknown mode"):
        load_job(write_job(tmp_path, {"mode": "frobnicate"}), 16)
    with pytest.raises(JobError, match="missing required field"):
        load_job(write_job(tmp_path, {"mode": "wick-star"}), 16)
    with pytest.raises(JobError, match="above the ceiling"):
        load_job(write_job(tmp_path, {
            "mode": "wick-star", "dim": 1, "trunc": 12,
            "lhs": [], "rhs": []}), 8)
    with pytest.raises(JobError, match="expected an integer"):
        load_job(write_job(tmp_path, {
            "mode": "wick-star", "dim": "one", "trunc": 4,
            "lhs": [], "rhs": []}), 16)
    with pytest.raises(JobError, match="bad series record"):
        load_job(write_job(tmp_path, {
            "mode": "wick-star", "dim": 1, "trunc": 4,
            "lhs": [{"k2": 0}], "rhs": []}), 16)
    with pytest.raises(JobError, match="index length"):
        load_job(write_job(tmp_path, {
            "mode": "wick-star", "dim": 2, "trunc": 4,
            "lhs": [Y_RECORD], "rhs": []}), 16)
    with pytest.raises(JobError, match="line 1"):
        path = tmp_path / "broken.json"
        path.write_text("{\"mode\": ")
        load_job(str(path), 16)
    with pytest.raises(JobError, match="inside the output directory"):
        load_job(write_job(tmp_path, {
            "mode": "cp1-verify", "out": {"report": "../escape.txt"}}), 16)


def test_load_job_parses_wick_star(tmp_path):
    job = load_job(write_job(tmp_path, {
        "mode": "wick-star", "dim": 1, "trunc": 6,
        "lhs": [Y_RECORD], "rhs": [YB_RECORD]}), 16)
    assert job.mode == "wick-star"
    assert job.inputs["lhs"] == WickSeries(1, 6, {(0, (1,), (0,)): 1})


# ---------------------------------------------------------------------------
# mode runs through the entry point


def test_main_requires_a_job(capsys):
    code, out, err = run_main(capsys)
    assert code == PARSE_EXIT
    assert not out
    assert "usage:" in err and "--job" in err


def test_main_wick_star_fixture(tmp_path, capsys):
    path = write_job(tmp_path, {
        "mode": "wick-star", "dim": 1, "trunc": 6,
        "lhs": [Y_RECORD], "rhs": [YB_RECORD]})
    code, out, err = run_main(capsys, "--job", path)
    assert code == 0
    assert "product: y yb - h" in out
    assert '{"k2": 2, "I": [0], "J": [0], "re": "-1", "im": "0"}' in out
    assert out.endswith("status: ok\n")


def test_main_reports_are_byte_identical(tmp_path, capsys):
    path = write_job(tmp_path, {
        "mode": "wick-star", "dim": 2, "trunc": 5,
        "lhs": [{"k2": 1, "I": [1, 0], "J": [0, 1], "re": "2/3", "im": "-1"}],
        "rhs": [{"k2": 0, "I": [0, 1], "J": [1, 0], "re": "1/2", "im": "0"}]})
    first = run_main(capsys, "--job", path)
    second = run_main(capsys, "--job", path)
    assert first == second and first[0] == 0


def test_main_bt_eval_flat_star(tmp_path, capsys):
    path = write_job(tmp_path, {
        "mode": "bt-eval", "dim": 1, "trunc": 6,
        "potential": {"generator": "flat"},
        "lhs": [Y_RECORD], "rhs": [YB_RECORD]})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0
    assert "value: -h\n" in out


def test_main_bt_eval_normalizes_raw_potentials(tmp_path, capsys):
    path = write_job(tmp_path, {
        "mode": "bt-eval", "dim": 1, "trunc": 4,
        "potential": {"order": 4, "jets": [
            {"I": [1], "J": [1], "re": "1", "im": "0"},
            {"I": [1], "J": [0], "re": "1/2", "im": "0"},
            {"I": [0], "J": [1], "re": "1/2", "im": "0"},
        ]},
        "lhs": [Y_RECORD], "rhs": [YB_RECORD]})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0
    assert "potential: normalized on entry" in out
    assert "value: -h\n" in out


def test_main_rep_act_lowering(tmp_path, capsys):
    path = write_job(tmp_path, {
        "mode": "rep-act", "dim": 1, "trunc": 6,
        "potential": {"generator": "fubini-study"},
        "function": [YB_RECORD],
        "element": [Y_RECORD]})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0
    # the standard curved weight lowers y to exactly h
    assert "result: h\n" in out


def test_main_k_normalize_removes_linear_terms(tmp_path, capsys):
    path = write_job(tmp_path, {
        "mode": "k-normalize", "dim": 1,
        "potential": {"order": 4, "jets": [
            {"I": [1], "J": [1], "re": "1", "im": "0"},
            {"I": [1], "J": [0], "re": "1", "im": "0"},
            {"I": [0], "J": [1], "re": "1", "im": "0"},
        ]}})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0
    assert 'normalized potential (order 4):' in out
    assert '{"I": [1], "J": [1], "re": "1", "im": "0"}' in out
    assert "round-trip: ok" in out


def test_main_cp1_verify_reports_exact_matches(tmp_path, capsys):
    path = write_job(tmp_path, {"mode": "cp1-verify",
                                "max_p": 3, "max_order": 4})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0
    assert out.count("EXACT MATCH") == 4
    assert "p=0: engine 1 - h + h^2 - h^3 + h^4" in out
    assert "p=1: engine h - h^2 + h^3 - h^4" in out


def test_main_cp1_verify_writes_composition_csv(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    path = write_job(tmp_path, {
        "mode": "cp1-verify", "max_p": 0, "max_order": 1,
        "composition": {"orders": [0], "ms": [8, 16, 32],
                        "elements": [[0, 0]]}})
    code, out, _ = run_main(capsys, "--job", path, "--out", str(out_dir))
    assert code == 0
    assert "composition decay:" in out
    report = (out_dir / "report.txt").read_text()
    assert report == out
    csv_text = (out_dir / "composition-order0.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == ("m,p,q,exact_value,predicted_partial_sum,"
                        "residual_float,fitted_order")
    assert len(lines) == 4
    assert lines[1].startswith("8,0,0,1/100,0,0.01,")


def test_main_suite_mode_passes(tmp_path, capsys):
    path = write_job(tmp_path, {"mode": "suite",
                                "names": ["cp1-peak-section"]})
    code, out, _ = run_main(capsys, "--job", path, "--seed", "7")
    assert code == 0
    assert "seed: 7" in out
    assert "suite cp1-peak-section: PASS (20 checks)" in out


def test_main_suite_seed_in_job_wins(tmp_path, capsys):
    path = write_job(tmp_path, {"mode": "suite", "seed": 3,
                                "names": ["flat-reduction"]})
    code, out, _ = run_main(capsys, "--job", path, "--seed", "99")
    assert code == 0
    assert "seed: 3" in out


def test_main_exit_codes_for_bad_jobs(tmp_path, capsys):
    code, _, err = run_main(capsys, "--job", str(tmp_path / "missing.json"))
    assert code == PARSE_EXIT and "cannot read job" in err

    path = tmp_path / "broken.json"
    path.write_text("{\"mode\": \"wick-star\",")
    code, _, err = run_main(capsys, "--job", str(path))
    assert code == PARSE_EXIT and "line 1" in err

    path = write_job(tmp_path, {"mode": "suite", "names": ["bogus"]})
    code, _, err = run_main(capsys, "--job", str(path))
    assert code == PARSE_EXIT and "unknown suites" in err


def test_main_computation_error_exit(tmp_path, capsys):
    path = write_job(tmp_path, {
        "mode": "bt-eval", "dim": 1, "trunc": 6,
        "potential": {"generator": "flat"},
        "lhs": {"order": 3, "records": [Y_RECORD]},
        "rhs": [YB_RECORD]})
    code, out, err = run_main(capsys, "--job", path)
    assert code == COMPUTE_EXIT
    assert not out
    assert "computation error" in err and "order 3" in err


def test_main_acceptance_failure_exit(tmp_path, capsys, monkeypatch):
    real_rows = cli.peak_section_rows

    def broken_rows(max_p, max_order):
        rows = real_rows(max_p, max_order)
        p, engine, closed, _ = rows[0]
        return [(p, engine, closed, False)] + rows[1:]

    monkeypatch.setattr(cli, "peak_section_rows", broken_rows)
    path = write_job(tmp_path, {"mode": "cp1-verify",
                                "max_p": 1, "max_order": 1})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == ACCEPT_EXIT
    assert "MISMATCH" in out
    assert out.endswith("status: acceptance-failure\n")


def test_main_rejects_removed_threads_flag(tmp_path):
    path = write_job(tmp_path, {"mode": "cp1-verify", "max_p": 0,
                                "max_order": 1})
    with pytest.raises(SystemExit) as exc:
        main(["--job", path, "--threads", "2"])
    assert exc.value.code == PARSE_EXIT


def _potential_job(jet):
    return {"mode": "k-normalize", "dim": 1,
            "potential": {"order": 4, "jets": [
                jet, {"I": [1], "J": [1], "re": "1", "im": "0"}]}}


@pytest.mark.parametrize("payload", [
    {"mode": "wick-star", "dim": 1, "trunc": 6, "rhs": [YB_RECORD],
     "lhs": [dict(Y_RECORD, re="1/0")]},
    _potential_job({"I": [2], "J": [2], "re": 1, "im": "0"}),
    {"mode": "wick-star", "dim": 1, "trunc": 6, "rhs": [YB_RECORD],
     "lhs": [dict(Y_RECORD, I=[1.7])]},
    {"mode": "wick-star", "dim": 1, "trunc": 6, "rhs": [YB_RECORD],
     "lhs": [dict(Y_RECORD, k2=True)]},
    {"mode": "wick-star", "dim": 1, "trunc": 6, "rhs": [YB_RECORD],
     "lhs": [dict(Y_RECORD, re="1e999999")]},
], ids=["zero-denominator", "numeric-jet-re", "float-index", "bool-k2",
        "huge-exponent"])
def test_main_malformed_records_exit_cleanly(tmp_path, payload):
    _assert_rejected_in_subprocess(tmp_path, payload)


def _assert_rejected_in_subprocess(tmp_path, payload):
    path = write_job(tmp_path, payload)
    src = Path(wickjet.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "wickjet.cli", "--job", path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == PARSE_EXIT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("wickjet: bad job:")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("composition", [
    {"elements": [[6, 6]]},
    {"elements": [[-1, -1]]},
    {"elements": [[3, 3]], "ms": [2, 4]},
    {"elements": [[1]]},
    {"orders": [-1]},
    {"orders": [10 ** 30]},
    {"ms": [True, 64]},
    {"ms": [32.9, 64]},
    {"ms": []},
    {"ms": [32, cli.MS_CEILING + 1]},
], ids=["element-beyond-engine", "negative-element", "element-beyond-m",
        "element-not-a-pair", "negative-order", "huge-order", "bool-m",
        "float-m", "no-m", "m-above-ceiling"])
def test_main_cp1_composition_fields_are_strict(tmp_path, composition):
    _assert_rejected_in_subprocess(tmp_path, {
        "mode": "cp1-verify", "max_p": 1, "max_order": 1,
        "composition": composition})
