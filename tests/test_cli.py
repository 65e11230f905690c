"""Batch front-end: job parsing, wire formats, reports, exit codes."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wickjet
from wickjet import cli
from wickjet.cli import ACCEPT_EXIT, COMPUTE_EXIT, PARSE_EXIT, JobError, load_job, main
from wickjet.coefficients import ComplexRational
from wickjet.jets import PotentialJets
from wickjet.series import WickSeries

from support import iter_multi_indices


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
    c = ComplexRational(Fraction(1, 3), Fraction(4))
    varphi = WickSeries(1, 6, {(0, (2,), (1,)): c, (0, (1,), (2,)): c.conjugate()})
    records = cli._jet_records(varphi)
    assert records == [{"I": [1], "J": [2], "re": "1/3", "im": "-4"},
                       {"I": [2], "J": [1], "re": "1/3", "im": "4"}]
    assert PotentialJets.from_records(1, 6, records).varphi == varphi
    holomorphic = WickSeries(1, 6, {(0, (2,), (0,)): c})
    assert cli._jet_records(holomorphic, "J") == [
        {"I": [2], "re": "1/3", "im": "4"}]
    f = WickSeries.from_records(1, 6, [Y_RECORD])
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


def _constant(re, im="0"):
    return {"k2": 0, "I": [0], "J": [0], "re": re, "im": im}


@pytest.mark.parametrize("lhs, rhs, printed", [
    ([_constant("-1/2"), Y_RECORD], [_constant("1"), YB_RECORD],
     ["lhs: -1/2 + y", "rhs: 1 + yb", "value: (-1/2) - h + 2 h^2",
      "value records:",
      '  {"k2": 0, "re": "-1/2", "im": "0"}',
      '  {"k2": 2, "re": "-1", "im": "0"}',
      '  {"k2": 4, "re": "2", "im": "0"}']),
    ([_constant("-1/2", "1/3"), Y_RECORD],
     [_constant("1"), dict(YB_RECORD, re="0", im="2")],
     ["lhs: (-1/2+1/3i) + y", "rhs: 1 + (2i) yb",
      "value: (-1/2+1/3i) + (-2i) h + (4i) h^2",
      "value records:",
      '  {"k2": 0, "re": "-1/2", "im": "1/3"}',
      '  {"k2": 2, "re": "0", "im": "-2"}',
      '  {"k2": 4, "re": "0", "im": "4"}']),
], ids=["negative-constant", "complex-constant"])
def test_main_bt_eval_prints_h_series_constants(tmp_path, capsys, lhs, rhs, printed):
    """A value at the point brackets a negative or complex constant, and its
    records carry no I/J; a function's negative constant stays bare."""
    path = write_job(tmp_path, {
        "mode": "bt-eval", "dim": 1, "trunc": 4,
        "potential": {"generator": "fubini-study"}, "lhs": lhs, "rhs": rhs})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0
    assert out == "\n".join(["wickjet report", "mode: bt-eval", "dim: 1",
                             "trunc: 4", *printed, "status: ok", ""])


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
    _potential_job({"I": [3], "J": [2], "re": "1", "im": "0"}),
    _potential_job({"I": [2], "J": [0], "re": "1", "im": "0"}),
    _potential_job({"I": [0], "J": [0], "re": "1", "im": "1"}),
    _potential_job({"I": [1, 0], "J": [1], "re": "1", "im": "0"}),
    _potential_job({"I": [-1], "J": [2], "re": "1", "im": "0"}),
    _potential_job({"k2": 2, "I": [2], "J": [2], "re": "1"}),
    {"mode": "wick-star", "dim": 1, "trunc": 6, "rhs": [YB_RECORD],
     "lhs": [dict(Y_RECORD, k2=-2)]},
    {"mode": "bt-eval", "dim": 1, "trunc": 6, "potential": {"generator": "flat"},
     "lhs": [dict(Y_RECORD, k2=-2)], "rhs": [YB_RECORD]},
    {"mode": "rep-act", "dim": 1, "trunc": 6,
     "potential": {"generator": "fubini-study"}, "function": [YB_RECORD],
     "element": [dict(Y_RECORD, k2=-2)]},
], ids=["zero-denominator", "numeric-jet-re", "float-index", "bool-k2",
        "huge-exponent", "jet-above-order", "jet-without-conjugate",
        "complex-constant", "index-wrong-length", "negative-index",
        "potential-k2", "negative-degree-term", "negative-degree-jet",
        "negative-degree-element"])
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


def test_cli_import_leaves_numpy_out():
    src = Path(wickjet.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, wickjet.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    {"ms": [cli.MS_CEILING, cli.MS_CEILING - 1, 2]},
], ids=["element-beyond-engine", "negative-element", "element-beyond-m",
        "element-not-a-pair", "negative-order", "huge-order", "bool-m",
        "float-m", "no-m", "m-above-ceiling", "m-sum-above-ceiling"])
def test_main_cp1_composition_fields_are_strict(tmp_path, composition):
    _assert_rejected_in_subprocess(tmp_path, {
        "mode": "cp1-verify", "max_p": 1, "max_order": 1,
        "composition": composition})


def test_composition_ms_bound_admits_the_largest_powers(tmp_path):
    ms = [cli.MS_CEILING // 4, cli.MS_CEILING // 2, cli.MS_CEILING, 4096]
    job = load_job(write_job(tmp_path, {
        "mode": "cp1-verify", "composition": {"ms": ms}}), 16)
    assert job.inputs["composition"]["ms"] == tuple(ms)


@pytest.mark.parametrize("payload, message", [
    ({"mode": "wick-star", "dim": cli.DIM_CEILING + 1, "trunc": 4,
      "lhs": [], "rhs": []}, "dim 9 is above the ceiling 8"),
    ({"mode": "k-normalize", "dim": 10 ** 6,
      "potential": {"generator": "fubini-study"}}, "above the ceiling"),
    ({"mode": "cp1-verify", "max_p": cli.MAX_P_CEILING + 1},
     "max_p 65 is above the ceiling 64"),
    ({"mode": "bt-eval", "dim": 1, "trunc": 4,
      "potential": {"generator": "fubini-study", "order": 10 ** 9},
      "lhs": [Y_RECORD], "rhs": [YB_RECORD]},
     "potential order 1000000000 is above the ceiling 16"),
    ({"mode": "suite", "names": [["flat-reduction"]]}, "unknown suites"),
    ({"mode": "suite", "names": ["cp1-peak-section"] * 3 + ["k-jet"]},
     "repeated suites cp1-peak-section$"),
    ({"mode": "bt-eval", "dim": 1, "trunc": 4, "potential": "flat",
      "lhs": [Y_RECORD], "rhs": None}, "expected dict, got 'flat'"),
    ({"mode": "bt-eval", "dim": 1, "trunc": 4,
      "potential": {"generator": "flat"},
      "lhs": [Y_RECORD], "rhs": None}, "expected dict or list, got None"),
], ids=["dim", "huge-dim", "max-p", "potential-order", "unhashable-suite",
        "repeated-suite", "potential-not-a-table", "jets-not-a-table"])
def test_ceilings_and_field_types_are_checked_before_computation(
        tmp_path, payload, message):
    with pytest.raises(JobError, match=message):
        load_job(write_job(tmp_path, payload), 16)


def _curved_job(mode, dim, trunc, generator="fubini-study"):
    zero = [0] * dim
    y = {"k2": 0, "I": [1] + zero[1:], "J": zero, "re": "1", "im": "0"}
    yb = {"k2": 0, "I": zero, "J": [1] + zero[1:], "re": "1", "im": "0"}
    job = {"mode": mode, "dim": dim, "trunc": trunc,
           "potential": {"generator": generator, "seed": 3}}
    if mode == "bt-eval":
        job.update(lhs={"order": trunc, "records": [y]},
                   rhs={"order": trunc, "records": [yb]})
    else:
        job.update(function={"order": trunc, "records": [yb]}, element=[y])
    return job


def test_dense_terms_counts_every_plain_monomial():
    for dim in (1, 2, 3):
        for trunc in range(7):
            count = sum(1 for I in iter_multi_indices(2 * dim, trunc)
                        for k in range((trunc - sum(I)) // 2 + 1))
            assert cli.dense_terms(dim, trunc) == count
    assert cli.dense_terms(2, 10) == cli.TERMS_CEILING


@pytest.mark.parametrize("mode, dim, trunc", [
    ("bt-eval", 8, 16), ("rep-act", 8, 16), ("bt-eval", 4, 10),
    ("rep-act", 3, 7), ("bt-eval", 2, 11), ("bt-eval", 4, 6),
])
def test_joint_dim_trunc_ceiling_rejects_before_computation(
        tmp_path, monkeypatch, mode, dim, trunc):
    def refuse(*args):
        raise AssertionError("a potential was generated")
    monkeypatch.setattr(cli, "fubini_study_potential", refuse)
    message = (f"dim {dim} with trunc {trunc} allows "
               f"{cli.dense_terms(dim, trunc)} series terms, above the "
               f"ceiling {cli.TERMS_CEILING}")
    with pytest.raises(JobError, match=message):
        load_job(write_job(tmp_path, _curved_job(mode, dim, trunc)), 16)


@pytest.mark.parametrize("mode, dim, trunc", [
    ("bt-eval", 1, 16), ("rep-act", 1, 16), ("bt-eval", 2, 10),
    ("rep-act", 2, 10), ("bt-eval", 3, 6), ("rep-act", 4, 5),
    ("bt-eval", 8, 3),
])
def test_joint_ceiling_admits_windows_up_to_dim_2_trunc_10(tmp_path, mode,
                                                            dim, trunc):
    job = load_job(write_job(tmp_path, _curved_job(mode, dim, trunc)), 16)
    assert (job.dim, job.trunc) == (dim, trunc)


@pytest.mark.parametrize("mode", ["bt-eval", "rep-act"])
def test_function_jets_may_leave_out_k2(tmp_path, capsys, mode):
    with_k2 = _curved_job(mode, 2, 6)
    without_k2 = json.loads(json.dumps(with_k2))
    for name in ("lhs", "rhs", "function"):
        for rec in without_k2.get(name, {"records": []})["records"]:
            del rec["k2"]
    first, second = (run_main(capsys, "--job", write_job(tmp_path, job))
                     for job in (with_k2, without_k2))
    assert first[0] == 0, first[2]
    assert first == second


def test_largest_fixture_window_runs(tmp_path, capsys):
    code, out, err = run_main(capsys, "--job", write_job(
        tmp_path, _curved_job("bt-eval", 2, 10)))
    assert code == 0, err
    assert "status: ok" in out
    code, _, err = run_main(capsys, "--job", write_job(
        tmp_path, _curved_job("rep-act", 2, 11)))
    assert code == PARSE_EXIT
    assert err.count("\n") == 1 and "above the ceiling 1792" in err


def test_wick_star_jobs_have_no_joint_ceiling(tmp_path):
    job = load_job(write_job(tmp_path, {
        "mode": "wick-star", "dim": 8, "trunc": 16, "lhs": [], "rhs": []}), 16)
    assert (job.dim, job.trunc) == (8, 16)


def test_max_p_ceiling_runs(tmp_path, capsys):
    path = write_job(tmp_path, {"mode": "cp1-verify", "max_order": 0,
                                "max_p": cli.MAX_P_CEILING})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0
    assert out.count("EXACT MATCH") == cli.MAX_P_CEILING + 1


def test_single_tensor_power_fit_is_an_acceptance_failure(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    path = write_job(tmp_path, {
        "mode": "cp1-verify", "max_p": 0, "max_order": 1,
        "composition": {"orders": [1], "ms": [32], "elements": [[1, 1]]}})
    code, out, _ = run_main(capsys, "--job", path, "--out", str(out_dir))
    assert code == ACCEPT_EXIT
    assert "order 1, element (1, 1): slope undetermined vs bound -1.7 " \
        "FAILED" in out
    rows = (out_dir / "composition-order1.csv").read_text().splitlines()
    assert rows[1].endswith(",None")


# ---------------------------------------------------------------------------
# mutation fuzz of the job contract

FUZZ_BASE_JOBS = [
    {"mode": "wick-star", "dim": 2, "trunc": 6,
     "lhs": [{"k2": 0, "I": [1, 0], "J": [0, 1], "re": "2/3", "im": "-1"}],
     "rhs": [{"k2": 2, "I": [0, 1], "J": [0, 0], "re": "1/2", "im": "0"}]},
    {"mode": "bt-eval", "dim": 1, "trunc": 4,
     "potential": {"generator": "fubini-study", "order": 4},
     "lhs": {"order": 4, "records": [Y_RECORD]}, "rhs": [YB_RECORD]},
    {"mode": "rep-act", "dim": 1, "trunc": 4,
     "potential": {"generator": "random-real-analytic", "seed": 3},
     "function": [YB_RECORD], "element": [Y_RECORD]},
    {"mode": "k-normalize", "dim": 2,
     "potential": {"order": 4, "jets": [
         {"I": [1, 0], "J": [1, 0], "re": "1", "im": "0"},
         {"I": [0, 1], "J": [0, 1], "re": "1", "im": "0"},
         {"I": [1, 0], "J": [0, 0], "re": "1/2", "im": "1"},
         {"I": [0, 0], "J": [1, 0], "re": "1/2", "im": "-1"}]}},
    {"mode": "cp1-verify", "max_p": 2, "max_order": 1,
     "composition": {"orders": [0, 1], "ms": [32, 64],
                     "elements": [[0, 0], [1, 1]]},
     "out": {"report": "r.txt"}},
    {"mode": "suite", "names": ["cp1-peak-section"], "seed": 1},
]

SWAPPED_VALUES = [True, 1.5, "x", [], None, {}, [1.7], [[1]]]
HUGE_INTEGERS = [10 ** 9, 10 ** 30, -1, -10 ** 9, 0]
BAD_RATIONALS = ["1/0", "abc", "1e999999", "", "1/", "--1", "nan", "inf",
                 "1_0", "0x10", "9" * 101, 7, None, ["1"]]


def _paths(value, prefix=()):
    """Every (path, value) below a JSON value, parents before children."""
    yield prefix, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


def _replace(job, path, value=None, drop=False):
    out = json.loads(json.dumps(job))
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _mutants(rng, job, count):
    spots = [(path, value) for path, value in _paths(job) if path]
    out = []
    while len(out) < count:
        path, value = rng.choice(spots)
        kind = rng.randrange(4)
        if kind == 0:
            # dropping the suite names would run all eight suites
            if path == ("names",):
                continue
            out.append(_replace(job, path, drop=True))
        elif kind == 1:
            out.append(_replace(job, path, rng.choice(SWAPPED_VALUES)))
        elif kind == 2 and isinstance(value, int):
            out.append(_replace(job, path, rng.choice(HUGE_INTEGERS)))
        elif kind == 3 and path[-1] in ("re", "im"):
            out.append(_replace(job, path, rng.choice(BAD_RATIONALS)))
    return out


@pytest.mark.parametrize("base", FUZZ_BASE_JOBS,
                         ids=[job["mode"] for job in FUZZ_BASE_JOBS])
def test_mutated_jobs_keep_the_exit_contract(tmp_path, capsys, base):
    rng = random.Random(20260818)
    code, _, err = run_main(capsys, "--job", write_job(tmp_path, base),
                            "--out", str(tmp_path / "out"))
    assert code == 0, err
    for mutant in _mutants(rng, base, 40):
        path = write_job(tmp_path, mutant)
        code, _, err = run_main(capsys, "--job", path,
                                "--out", str(tmp_path / "out"))
        assert code in (0, PARSE_EXIT, COMPUTE_EXIT, ACCEPT_EXIT), mutant
        assert "Traceback" not in err, mutant
        if code in (PARSE_EXIT, COMPUTE_EXIT):
            assert err.count("\n") == 1, (mutant, err)
