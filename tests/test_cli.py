"""Batch front-end: job parsing, wire formats, reports, exit codes."""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import wickjet
from wickjet import cli, integrals, jets
from wickjet.cli import ACCEPT_EXIT, COMPUTE_EXIT, PARSE_EXIT, JobError, load_job, main
from wickjet.coefficients import ComplexRational
from wickjet.jets import PotentialJets
from wickjet.series import WickSeries
from wickjet.wick import wick_star

from support import count_calls, iter_multi_indices, written_records


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
    records = written_records(series)
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
    records = written_records(varphi, "k2")
    assert records == [{"I": [1], "J": [2], "re": "1/3", "im": "-4"},
                       {"I": [2], "J": [1], "re": "1/3", "im": "4"}]
    assert PotentialJets.from_records(1, 6, records).varphi == varphi
    holomorphic = WickSeries(1, 6, {(0, (2,), (0,)): c})
    assert written_records(holomorphic, "k2", "J") == [
        {"I": [2], "re": "1/3", "im": "4"}]
    f = WickSeries.from_records(1, 6, [Y_RECORD])
    assert written_records(f) == [Y_RECORD]


def test_duplicate_records_accumulate():
    doubled = WickSeries.from_records(1, 4, [Y_RECORD, Y_RECORD])
    assert doubled.coefficient(0, (1,), (0,)) == 2


# ---------------------------------------------------------------------------
# job validation


def test_load_job_rejects_bad_inputs(tmp_path):
    with pytest.raises(JobError, match="empty job"):
        load_job(write_job(tmp_path, {}))
    with pytest.raises(JobError, match="unknown mode"):
        load_job(write_job(tmp_path, {"mode": "frobnicate"}))
    with pytest.raises(JobError, match="missing required field"):
        load_job(write_job(tmp_path, {"mode": "wick-star"}))
    with pytest.raises(JobError, match="above the ceiling"):
        load_job(write_job(tmp_path, {
            "mode": "wick-star", "dim": 1, "trunc": cli.TRUNC_CEILING + 1,
            "lhs": [], "rhs": []}))
    with pytest.raises(JobError, match="expected an integer"):
        load_job(write_job(tmp_path, {
            "mode": "wick-star", "dim": "one", "trunc": 4,
            "lhs": [], "rhs": []}))
    with pytest.raises(JobError, match="bad series record"):
        load_job(write_job(tmp_path, {
            "mode": "wick-star", "dim": 1, "trunc": 4,
            "lhs": [{"k2": 0}], "rhs": []}))
    with pytest.raises(JobError, match="index length"):
        load_job(write_job(tmp_path, {
            "mode": "wick-star", "dim": 2, "trunc": 4,
            "lhs": [Y_RECORD], "rhs": []}))
    with pytest.raises(JobError, match="line 1"):
        path = tmp_path / "broken.json"
        path.write_text("{\"mode\": ")
        load_job(str(path))
    with pytest.raises(JobError, match="inside the output directory"):
        load_job(write_job(tmp_path, {
            "mode": "cp1-verify", "out": {"report": "../escape.txt"}}))


def test_load_job_parses_wick_star(tmp_path):
    job = load_job(write_job(tmp_path, {
        "mode": "wick-star", "dim": 1, "trunc": 6,
        "lhs": [Y_RECORD], "rhs": [YB_RECORD]}))
    assert job.mode == "wick-star"
    assert job.inputs["lhs"] == WickSeries(1, 6, {(0, (1,), (0,)): 1})


# ---------------------------------------------------------------------------
# mode runs through the entry point


def test_main_requires_a_job(capsys):
    code, out, err = run_main(capsys)
    assert code == PARSE_EXIT
    assert not out
    assert "usage:" in err and "--job" in err


def test_main_builds_no_argument_parser(tmp_path, capsys, monkeypatch):
    # the parser is built once, at import; a job only parses its arguments
    built = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    path = write_job(tmp_path, {"mode": "wick-star", "dim": 1, "trunc": 6,
                                "lhs": [Y_RECORD], "rhs": [YB_RECORD]})
    reports = [run_main(capsys, "--job", path) for _ in range(2)]
    assert reports[0] == reports[1] and reports[0][0] == 0
    for _ in range(2):
        code, out, err = run_main(capsys)
        assert code == PARSE_EXIT and not out
        assert err.startswith("usage: wickjet") and "no job given" in err
    assert built == []


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


WICK_STAR_JOB = {"mode": "wick-star", "dim": 1, "trunc": 2,
                 "lhs": [Y_RECORD], "rhs": [YB_RECORD]}


def test_main_writes_the_report_into_a_subdirectory(tmp_path, capsys):
    path = write_job(tmp_path, {**WICK_STAR_JOB, "out": {"report": "a/b.txt"}})
    code, out, err = run_main(capsys, "--job", path, "--out", str(tmp_path / "o"))
    assert code == 0 and not err
    assert (tmp_path / "o" / "a" / "b.txt").read_text() == out


@pytest.mark.parametrize("name", [".", "./", "a/", "a/."])
def test_main_rejects_an_out_path_that_names_no_file(tmp_path, capsys, name):
    path = write_job(tmp_path, {**WICK_STAR_JOB, "out": {"report": name}})
    code, out, err = run_main(capsys, "--job", path, "--out", str(tmp_path / "o"))
    assert code == PARSE_EXIT and not out
    assert err.count("\n") == 1 and 'field "out": path for "report" must name a file' in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("orders, names, clash", [
    ([0], {"report": "composition-order0.csv"}, "composition-order0.csv"),
    ([0], {"report": "./composition-order0.csv"}, "composition-order0.csv"),
    ([0], {"composition-order0.csv": "report.txt"}, "report.txt"),
    ([0, 1], {"composition-order0.csv": "a/x.csv",
              "composition-order1.csv": "a//./x.csv"}, "a/x.csv"),
    ([0, 1], {"composition-order0.csv": "composition-order1.csv"},
     "composition-order1.csv"),
])
def test_main_rejects_two_outputs_on_one_path(tmp_path, capsys, monkeypatch,
                                              orders, names, clash):
    ran = count_calls(monkeypatch, cli, "run")
    path = write_job(tmp_path, {
        "mode": "cp1-verify", "max_p": 0, "max_order": 1, "out": names,
        "composition": {"orders": orders, "ms": [8, 16], "elements": [[0, 0]]}})
    code, out, err = run_main(capsys, "--job", path, "--out", str(tmp_path / "o"))
    assert code == PARSE_EXIT and not out and not ran
    assert err.count("\n") == 1 and 'field "out": ' in err
    assert f"both write {clash!r}" in err
    assert not (tmp_path / "o").exists()


def test_main_reports_an_unwritable_out_directory(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    path = write_job(tmp_path, WICK_STAR_JOB)
    code, out, err = run_main(capsys, "--job", path, "--out", str(taken))
    assert code == PARSE_EXIT and out.endswith("status: ok\n")
    assert err.count("\n") == 1 and err.startswith("wickjet: cannot write output: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("element", [[YB_RECORD], [Y_RECORD, YB_RECORD]])
def test_main_rejects_a_non_holomorphic_element(tmp_path, capsys, monkeypatch, element):
    acted = count_calls(monkeypatch, cli, "rep_act")
    path = write_job(tmp_path, {
        "mode": "rep-act", "dim": 1, "trunc": 4,
        "potential": {"generator": "fubini-study"},
        "function": [YB_RECORD], "element": element})
    code, out, err = run_main(capsys, "--job", path)
    assert code == PARSE_EXIT and not out and not acted
    assert err.count("\n") == 1 and 'field "element"' in err


def test_csv_values_keep_a_zero_real_part():
    for c, text in [(ComplexRational(Fraction(-3, 4)), "-3/4"),
                    (ComplexRational(0), "0"),
                    (ComplexRational(2, Fraction(-1, 3)), "2-1/3i"),
                    (ComplexRational(Fraction(1, 2), 5), "1/2+5i"),
                    (ComplexRational(0, Fraction(7, 2)), "0+7/2i"),
                    (ComplexRational(0, -1), "0-1i")]:
        assert cli._csv_value(c) == text


def test_main_suite_mode_passes(tmp_path, capsys):
    # a suite job without "seed" runs at seed 0
    path = write_job(tmp_path, {"mode": "suite",
                                "names": ["cp1-peak-section"]})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0
    assert "seed: 0" in out
    assert "suite cp1-peak-section: PASS (20 checks)" in out


def test_main_suite_prints_the_job_seed(tmp_path, capsys):
    path = write_job(tmp_path, {"mode": "suite", "seed": 3,
                                "names": ["flat-reduction"]})
    code, out, _ = run_main(capsys, "--job", path)
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
        "mode": "k-normalize", "dim": 1,
        "potential": {"order": 4, "jets": [
            {"I": [1], "J": [1], "re": "-1", "im": "0"}]}})
    code, out, err = run_main(capsys, "--job", path)
    assert code == COMPUTE_EXIT
    assert not out
    assert "computation error" in err and "not positive definite" in err


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


def test_main_rejects_removed_seed_flag(tmp_path):
    # the job file alone sets a suite's seed
    path = write_job(tmp_path, {"mode": "suite", "names": ["flat-reduction"]})
    with pytest.raises(SystemExit) as exc:
        main(["--job", path, "--seed", "7"])
    assert exc.value.code == PARSE_EXIT


@pytest.mark.parametrize("dim, potential", [
    (3, {"generator": "fubini-study", "order": 6}),
    (2, {"generator": "random-real-analytic", "seed": 3, "order": 6}),
])
def test_k_normalize_job_computes_volume_log_jets_once(
        tmp_path, capsys, monkeypatch, dim, potential):
    calls = count_calls(monkeypatch, jets, "volume_log_jets")
    path = write_job(tmp_path, {"mode": "k-normalize", "dim": dim,
                                "potential": potential})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0 and "volume-log jets:" in out and "round-trip: ok" in out
    assert len(calls) == 1


@pytest.mark.parametrize("dim, potential, substitutes", [
    (3, {"generator": "fubini-study", "order": 6}, False),
    (2, {"generator": "random-real-analytic", "seed": 3, "order": 6}, True),
])
def test_round_trip_substitutes_only_through_a_real_coordinate_change(
        tmp_path, capsys, monkeypatch, dim, potential, substitutes):
    powers = count_calls(monkeypatch, jets, "_power")
    replayed = []

    def counted_replay(*args):
        before = len(powers)
        result = jets.apply_normalization(*args)
        replayed.append(len(powers) - before)
        return result
    monkeypatch.setattr(cli, "apply_normalization", counted_replay)
    path = write_job(tmp_path, {"mode": "k-normalize", "dim": dim,
                                "potential": potential})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0 and "round-trip: ok" in out
    assert len(replayed) == 1 and (replayed[0] > 0) == substitutes



def test_series_report_sorts_each_series_once(tmp_path, capsys, monkeypatch):
    sorts = count_calls(monkeypatch, WickSeries, "_exponent_items")
    path = write_job(tmp_path, {"mode": "wick-star", "dim": 1, "trunc": 6,
                                "lhs": [Y_RECORD], "rhs": [YB_RECORD]})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0 and "product: y yb - h" in out and '"k2": 2' in out
    # lhs and rhs as text, then the product as text and records
    assert len(sorts) == 3

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
    {"mode": "wick-star", "dim": 1, "trunc": 6, "rhs": [YB_RECORD],
     "lhs": [dict(Y_RECORD, re="1.5e-1")]},
    {"mode": "wick-star", "dim": 1, "trunc": 6, "rhs": [YB_RECORD],
     "lhs": [dict(Y_RECORD, re="+2")]},
], ids=["zero-denominator", "numeric-jet-re", "float-index", "bool-k2",
        "huge-exponent", "jet-above-order", "jet-without-conjugate",
        "complex-constant", "index-wrong-length", "negative-index",
        "potential-k2", "negative-degree-term", "negative-degree-jet",
        "negative-degree-element", "decimal-literal", "plus-sign"])
def test_main_malformed_records_exit_cleanly(tmp_path, payload):
    _assert_rejected_in_subprocess(tmp_path, payload)


def _messages(series: str, jet: str | None = None) -> dict:
    """A class's message read as a series record, a jet record and a potential jet."""
    jet = jet or series
    return {"series": series, "jet": jet, "potential": jet}


# Malformed-record classes and the messages the reports have always printed
# for them, after 'field "<name>": '.
NOT_AN_INTEGER = "expected an integer index, got "
TOO_LARGE = "rational literal too large (at most 100 digits): "
MALFORMED_RECORDS = {
    "bool-index": (dict(Y_RECORD, I=[True]), _messages(NOT_AN_INTEGER + "True")),
    "float-index": (dict(Y_RECORD, I=[1.0]), _messages(NOT_AN_INTEGER + "1.0")),
    "wrong-length": (dict(Y_RECORD, I=[1, 0]), _messages(
        "multi-index length != dim=1 in term (0, (1, 0), (0,))")),
    "negative-entry": (dict(Y_RECORD, I=[-1]), _messages(
        "negative multi-index entry in term (0, (-1,), (0,))")),
    "non-string-re": (dict(Y_RECORD, re=1),
                      _messages("\"re\" must be a rational string, got 1")),
    "zero-denominator": (dict(Y_RECORD, re="1/0"),
                         _messages("zero denominator in '1/0'")),
    "101-digits": (dict(Y_RECORD, re="9" * 101),
                   _messages(TOO_LARGE + repr("9" * 24))),
    "3-digit-exponent": (dict(Y_RECORD, re="1e100"), _messages(
        "expected a rational literal \"p\" or \"p/q\", got '1e100'")),
    "missing-I": ({"k2": 0, "J": [0], "re": "1"}, _messages("'I'")),
    "not-an-object": ([1, 0], _messages(
        "list indices must be integers or slices, not str",
        jet="'list' object is not a mapping")),
    "potential-k2": ({"k2": 2, "I": [2], "J": [2], "re": "1"}, {
        "potential": "potential jet ((2,), (2,)) has k2=2; potentials carry no h"}),
}


# Where a mode takes the malformed record: (field, read as, the other inputs).
MALFORMED_SLOTS = {
    "wick-star": ("lhs", "series", {"rhs": [YB_RECORD]}),
    "bt-eval": ("rhs", "jet", {"lhs": [Y_RECORD]}),
    "rep-act": ("element", "series", {"function": [YB_RECORD]}),
    "k-normalize": ("potential", "potential", {}),
}


def _malformed_job(mode: str, name: str) -> tuple:
    """A job with the class's record in one input: (job, field, read as).

    A potential-k2 record goes into the potential, the one input that
    refuses a k2, so a wick-star job (no potential) does not take it.
    """
    record = MALFORMED_RECORDS[name][0]
    field, kind, inputs = MALFORMED_SLOTS[mode]
    job = {"mode": mode, "dim": 1, "trunc": 6, **inputs}
    jets = [{"I": [1], "J": [1], "re": "1"}]
    if name == "potential-k2":
        field, kind = "potential", "potential"
    if kind == "potential":
        jets.append(record)
    else:
        job[field] = [record]
    if mode != "wick-star":
        job["potential"] = {"order": 4, "jets": jets}
    return job, field, kind


@pytest.mark.parametrize("name, mode", [
    (name, mode) for name in MALFORMED_RECORDS for mode in MALFORMED_SLOTS
    if not (name == "potential-k2" and mode == "wick-star")])
def test_malformed_record_messages_are_pinned(tmp_path, capsys, name, mode):
    job, field, kind = _malformed_job(mode, name)
    path = write_job(tmp_path, job)
    code, out, err = run_main(capsys, "--job", path)
    message = MALFORMED_RECORDS[name][1][kind]
    detail = message if kind == "potential" else f"bad {kind} record: {message}"
    assert (code, out) == (PARSE_EXIT, "")
    assert err == f"wickjet: bad job: {path}: field \"{field}\": {detail}\n"


@pytest.mark.parametrize("content", [
    b'{"mode": "wick-star", "dim": ' + b"1" * 5000 + b"}",
    b'{"mode": "wick-star\xff"}',
    b"[" * 100000 + b"]" * 100000,
], ids=["integer-past-digit-limit", "not-utf-8", "nested-too-deep"])
def test_unreadable_job_files_exit_cleanly(tmp_path, content):
    path = tmp_path / "job.json"
    path.write_bytes(content)
    _assert_rejected_in_subprocess(tmp_path, path=path)


def _wickjet_job(path):
    """Run ``wickjet --job path`` in a fresh interpreter."""
    src = Path(wickjet.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "wickjet.cli", "--job", path],
                          capture_output=True, text=True, env=env, timeout=120)


def _assert_rejected_in_subprocess(tmp_path, payload=None, path=None,
                                  code=PARSE_EXIT, prefix="wickjet: bad job:"):
    proc = _wickjet_job(path or write_job(tmp_path, payload))
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(prefix)
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("pivots, message", [
    ((2, -1), "the (1,1) part is not positive definite"),
    ((4, 2), "quadratic pivot 2 is not a perfect rational square; "
             "the (1,1) part cannot be diagonalized exactly"),
], ids=["not-positive", "not-square"])
def test_diagonalization_errors_exit_with_one_line(tmp_path, pivots, message):
    records = [{"I": index, "J": index, "re": str(c), "im": "0"}
               for index, c in zip(([1, 0], [0, 1]), pivots)]
    _assert_rejected_in_subprocess(
        tmp_path, {"mode": "k-normalize", "dim": 2,
                   "potential": {"order": 4, "jets": records}},
        code=COMPUTE_EXIT,
        prefix=f"wickjet: computation error (k-normalize): {message}\n")


def test_report_past_the_digit_limit_exits_cleanly(tmp_path):
    # every literal has 52 characters, but the product's coefficients carry
    # more digits than the interpreter will print
    records = [{"k2": 0, "I": [a], "J": [b],
                "re": f"1/{10 ** 49 + 9 * a + b}",
                "im": f"1/{10 ** 49 + 100 + 9 * a + b}"}
               for a in range(9) for b in range(9)]
    _assert_rejected_in_subprocess(
        tmp_path, {"mode": "wick-star", "dim": 1, "trunc": 16,
                   "lhs": records, "rhs": records},
        code=COMPUTE_EXIT, prefix="wickjet: computation error (wick-star): ")


@pytest.mark.parametrize("digits, unreadable", [(95, [2, 3]), (45, [])])
def test_a_report_names_the_records_a_job_cannot_read_back(tmp_path, digits,
                                                          unreadable):
    # each input literal is read; (a y) * (b yb + 1) = a y + ab y yb - ab h,
    # and at 95 digits the literals of ab pass the 100-digit limit
    a, b = "9" * digits, "7" * digits
    proc = _wickjet_job(write_job(tmp_path, {
        "mode": "wick-star", "dim": 1, "trunc": 4,
        "lhs": [dict(Y_RECORD, re=a)],
        "rhs": [dict(YB_RECORD, re=b), {"k2": 0, "I": [0], "J": [0], "re": "1"}]}))
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    start = lines.index("product records:") + 1
    records = [json.loads(line) for line in lines[start:start + 3]]
    assert [rec["re"] for rec in records] == \
        [a, str(int(a) * int(b)), str(-int(a) * int(b))]
    note = ("  (records 2, 3 have a literal of more than 100 digits: "
            "a job cannot read them back)")
    assert (note in lines) == bool(unreadable)
    assert lines[start + 3] == (note if unreadable else "status: ok")
    # the note names exactly the records that the reader refuses
    refused = []
    for number, rec in enumerate(records, 1):
        try:
            WickSeries.from_records(1, 4, [rec])
        except ValueError as exc:
            assert "rational literal too large" in str(exc)
            refused.append(number)
    assert refused == unreadable


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
    {"elements": []},
    {"orders": []},
    {"orders": [1, 1], "elements": [[0, 0], [0, 0]]},
    {"elements": [[0, 0], [1, 1], [0, 0]]},
    {"ms": [64, 32, 64]},
], ids=["element-beyond-engine", "negative-element", "element-beyond-m",
        "element-not-a-pair", "negative-order", "huge-order", "bool-m",
        "float-m", "no-m", "m-above-ceiling", "m-sum-above-ceiling",
        "no-element", "no-order", "repeated-order", "repeated-element",
        "repeated-m"])
def test_main_cp1_composition_fields_are_strict(tmp_path, composition):
    _assert_rejected_in_subprocess(tmp_path, {
        "mode": "cp1-verify", "max_p": 1, "max_order": 1,
        "composition": composition})


def test_a_suite_job_that_names_no_suite_is_rejected(tmp_path):
    # an empty list would run nothing and still report "status: ok"
    _assert_rejected_in_subprocess(tmp_path, {"mode": "suite", "names": []})


def _assert_one_line_rejection(tmp_path, payload, message):
    """``wickjet --job`` exits 2 with exactly this message after the path."""
    path = write_job(tmp_path, payload)
    _assert_rejected_in_subprocess(
        tmp_path, path=path, prefix=f"wickjet: bad job: {path}: {message}\n")


@pytest.mark.parametrize("mode, field", [
    ("bt-eval", "lhs"), ("bt-eval", "rhs"), ("rep-act", "function"),
    ("bt-eval", "potential"), ("rep-act", "potential")])
def test_inputs_below_the_job_trunc_are_malformed(tmp_path, mode, field):
    job = {"mode": mode, "dim": 1, "trunc": 6,
           "potential": {"generator": "fubini-study"}}
    if mode == "bt-eval":
        job.update(lhs=[Y_RECORD], rhs=[YB_RECORD])
    else:
        job.update(function=[YB_RECORD], element=[Y_RECORD])
    if field == "potential":
        job["potential"]["order"] = 4
    else:
        job[field] = {"order": 4, "records": job[field]}
    _assert_one_line_rejection(tmp_path, job,
                               f"field \"{field}\": order 4 is below trunc 6")
    # an order at or above trunc is accepted
    job[field]["order"] = 7
    assert load_job(write_job(tmp_path, job)).trunc == 6


def test_the_truncation_ceiling_is_no_flag(tmp_path):
    job = {"mode": "wick-star", "dim": 1, "trunc": cli.TRUNC_CEILING + 1,
           "lhs": [], "rhs": []}
    # the job file alone decides whether a job runs
    _assert_one_line_rejection(tmp_path, job, "trunc 17 is above the ceiling 16")
    src = Path(wickjet.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "wickjet.cli",
                           "--job", write_job(tmp_path, job),
                           "--trunc-ceiling", "20"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == PARSE_EXIT and proc.stdout == ""
    assert "unrecognized arguments: --trunc-ceiling 20" in proc.stderr


def test_a_suite_job_without_names_runs_every_suite(tmp_path):
    job = load_job(write_job(tmp_path, {"mode": "suite"}))
    assert job.inputs["names"] == list(cli.SUITES)


def test_composition_ms_bound_admits_the_largest_powers(tmp_path):
    ms = [cli.MS_CEILING, cli.MS_CEILING - 1, 1]
    job = load_job(write_job(tmp_path, {
        "mode": "cp1-verify", "composition": {"ms": ms}}))
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
    ({"mode": "cp1-verify", "composition": {"orders": [1, 1]}},
     "repeated orders 1$"),
    ({"mode": "cp1-verify",
      "composition": {"elements": [[0, 0], [1, 1], [0, 0]]}},
     "repeated elements \\(0, 0\\)$"),
    ({"mode": "cp1-verify", "composition": {"ms": [64, 32, 64, 32]}},
     "repeated tensor powers 32, 64$"),
    ({"mode": "bt-eval", "dim": 1, "trunc": 4, "potential": "flat",
      "lhs": [Y_RECORD], "rhs": None}, "expected dict, got 'flat'"),
    ({"mode": "bt-eval", "dim": 1, "trunc": 4,
      "potential": {"generator": "flat"},
      "lhs": [Y_RECORD], "rhs": None}, "expected dict or list, got None"),
], ids=["dim", "huge-dim", "max-p", "potential-order", "unhashable-suite",
        "repeated-suite", "repeated-order", "repeated-element", "repeated-m",
        "potential-not-a-table", "jets-not-a-table"])
def test_ceilings_and_field_types_are_checked_before_computation(
        tmp_path, payload, message):
    with pytest.raises(JobError, match=message):
        load_job(write_job(tmp_path, payload))


def test_a_long_repeated_list_is_rejected_in_linear_time(tmp_path):
    # the repeat check counts each value once; counting it once per entry
    # took about 9 s on this list on a 2-vCPU machine
    path = write_job(tmp_path, {"mode": "cp1-verify",
                                "composition": {"elements": [[0, 0]] * 20000}})
    start = time.perf_counter()
    with pytest.raises(JobError, match="repeated elements \\(0, 0\\)$"):
        load_job(path)
    assert time.perf_counter() - start < 2


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


def _dense_jets(rng, dim, trunc):
    """Random jet records of degree <= trunc, with h-powers and both kinds of variable."""
    records = []
    for _ in range(6):
        exponents = [rng.randint(0, 2) for _ in range(2 * dim)]
        k2 = 2 * rng.randint(0, 1)
        if k2 + sum(exponents) <= trunc:
            records.append({"k2": k2, "I": exponents[:dim], "J": exponents[dim:],
                            "re": str(Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
                            "im": str(rng.randint(-3, 3))})
    return {"order": trunc, "records": records}


def test_bt_eval_jobs_solve_no_full_symbol(tmp_path, capsys, monkeypatch):
    """A value at the point reads hol(S_f) in closed form and solves only
    anti(S_g): with a full solve refused, bt-eval jobs still run."""
    solve = integrals._solve_symbol
    probe = WickSeries.monomial(1, 1, 1, 0, (1,), (0,))  # y: only a full solve keeps it
    projected = []

    def projected_only(f, exp_pos, project):
        if project(probe):
            raise AssertionError("a full Toeplitz symbol was solved")
        projected.append(f)
        return solve(f, exp_pos, project)
    monkeypatch.setattr(integrals, "_solve_symbol", projected_only)
    rng = random.Random(73)
    for generator, dim, trunc in (("fubini-study", 1, 12), ("fubini-study", 2, 8),
                                  ("fubini-study", 3, 5), ("random-real-analytic", 1, 8),
                                  ("random-real-analytic", 2, 6), ("flat", 2, 6)):
        job = _curved_job("bt-eval", dim, trunc, generator)
        job.update(lhs=_dense_jets(rng, dim, trunc), rhs=_dense_jets(rng, dim, trunc))
        code, out, err = run_main(capsys, "--job", write_job(tmp_path, job))
        assert code == 0 and out.endswith("status: ok\n"), err
    assert len(projected) == 5  # one solve per curved job, none on the flat one
    # the guard bites: rep-act still solves the full symbol
    with pytest.raises(AssertionError, match="full Toeplitz symbol"):
        main(["--job", write_job(tmp_path, _curved_job("rep-act", 1, 6))])


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_bt_eval_jets_with_inverse_h_powers(tmp_path, capsys, side):
    """Jets may carry negative k2 at degree >= 0, and the value is the one the
    full symbols give; a term of negative degree exits 2 before any solve."""
    inverse = [{"k2": -2, "I": [2], "J": [1], "re": "1", "im": "0"},
               {"k2": -2, "I": [1], "J": [2], "re": "1/3", "im": "1"},
               {"k2": -2, "I": [0], "J": [3], "re": "2", "im": "0"},
               {"k2": -2, "I": [3], "J": [0], "re": "-5", "im": "0"}]
    job = {"mode": "bt-eval", "dim": 1, "trunc": 6,
           "potential": {"generator": "fubini-study"},
           "lhs": [Y_RECORD, {"k2": 0, "I": [3], "J": [0], "re": "2", "im": "0"}],
           "rhs": [YB_RECORD, {"k2": 0, "I": [0], "J": [3], "re": "-1", "im": "0"}]}
    job[side] = inverse
    code, out, _ = run_main(capsys, "--job", write_job(tmp_path, job))
    assert code == 0
    lhs, rhs = (WickSeries.from_records(1, 6, job[name], lower_bound=-1)
                for name in ("lhs", "rhs"))
    weight = jets.weight_series(jets.fubini_study_potential(1, 6), 6)
    value = wick_star(integrals.toeplitz_symbol(lhs, weight).holomorphic_part(),
                      integrals.toeplitz_symbol(rhs, weight).antiholomorphic_part()
                      ).constant_part()
    assert value
    assert f"value: {value}\n" in out
    job[side] = [{"k2": -2, "I": [1], "J": [0], "re": "1", "im": "0"}]
    _assert_one_line_rejection(
        tmp_path, job, f"field \"{side}\": bad jet record: term (-2, (1,), (0,)) "
                       "has degree -1 < lower bound 0")


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
        load_job(write_job(tmp_path, _curved_job(mode, dim, trunc)))


@pytest.mark.parametrize("mode, dim, trunc", [
    ("bt-eval", 1, 16), ("rep-act", 1, 16), ("bt-eval", 2, 10),
    ("rep-act", 2, 10), ("bt-eval", 3, 6), ("rep-act", 4, 5),
    ("bt-eval", 8, 3),
])
def test_joint_ceiling_admits_windows_up_to_dim_2_trunc_10(tmp_path, mode,
                                                            dim, trunc):
    job = load_job(write_job(tmp_path, _curved_job(mode, dim, trunc)))
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
        "mode": "wick-star", "dim": 8, "trunc": 16, "lhs": [], "rhs": []}))
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


@pytest.mark.parametrize("composition", [
    {"ms": [4096, 8192, 16384], "orders": [0, 1, 2, 3, 4],
     "elements": [[0, 0], [1, 1], [0, 1], [2, 2]]},
    {"ms": [4096, 8192, 16384], "orders": [0, 1, 2, 3, 4, 5],
     "elements": [[3, 3], [5, 5], [2, 4]]},
])
def test_admitted_composition_orders_are_predicted_in_window(tmp_path, capsys,
                                                              composition):
    # the highest orders here need a prediction truncation above 10
    path = write_job(tmp_path, {"mode": "cp1-verify", "max_p": 0,
                                "max_order": 0, "composition": composition})
    code, out, _ = run_main(capsys, "--job", path)
    assert code == 0, out
    assert "FAILED" not in out


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
