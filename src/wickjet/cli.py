"""Batch front-end: job files in, deterministic reports out.

A job is one JSON object using the shared literal formats: series terms are
records ``{"k2": int, "I": [...], "J": [...], "re": "p/q", "im": "p/q"}``
and jets drop the ``k2`` field (function jets may keep it; a missing one
reads as 0).  Reports are plain text assembled in canonical order with
nothing time- or machine-dependent in them, so identical jobs produce
byte-identical output; stdout carries only the report, and errors go to
stderr.

Exit codes: 0 success, 2 malformed job, usage error or unwritable output,
3 computation error, 4 acceptance failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from math import comb
from pathlib import Path
from typing import NamedTuple

from .btrep import BTContext, bt_star_eval, rep_act
from .coefficients import LITERAL_DIGITS
from .errors import WickjetError
from .jets import (
    PotentialJets,
    apply_normalization,
    flat_potential,
    fubini_study_potential,
    k_normalize,
    random_real_analytic_potential,
)
from .series import WickSeries
from .suites import (
    SUITES,
    composition_fits,
    decays,
    exact_truncation,
    peak_section_rows,
    slope_bound,
)
from .wick import wick_star

__all__ = ["JobSpec", "JobError", "Report", "load_job", "run", "main"]

PARSE_EXIT = 2
COMPUTE_EXIT = 3
ACCEPT_EXIT = 4

MODES = ("wick-star", "bt-eval", "k-normalize", "rep-act", "cp1-verify",
         "suite")
GENERATORS = ("flat", "fubini-study", "random-real-analytic")

# Largest truncation, and largest potential order, a job may request.
TRUNC_CEILING = 16
# Largest tensor power a composition fit may request.  The CP^1 oracle
# computes each requested entry from its closed form, so a tensor power costs
# about the same at any m.  The distinct tensor powers may sum to at most
# twice this, which mainly caps how many a fit lists: at most 255.
MS_CEILING = 2 ** 14
# Largest monomial exponent of the peak-section rows.  Their cost about
# quadruples with each doubling: 0.8 s at 64 through order 4.
MAX_P_CEILING = 64
# Largest number of complex variables a job may request.  An order-6
# Fubini-Study normal form with its round trip takes about 0.14 s at dim 8.
DIM_CEILING = 8
# Most terms a dense series in h, y and yb may hold at a bt-eval or rep-act
# job's dim and trunc (see dense_terms): the count at dim 2, trunc 10.
# Both modes build e^(w/h) and solve Toeplitz symbols whose size follows
# this count.  The slowest admitted jobs (dense random potentials at dim 2,
# trunc 10 or dim 3, trunc 6) take about 4 s.
TERMS_CEILING = 1792
# Largest partial-sum order and monomial degree of a composition fit, a
# cost ceiling.  The prediction's truncation follows from both (see
# suites.exact_truncation): 22 at 5 and 5, which takes under 0.1 s.
ENGINE_REACH = 5


class JobError(Exception):
    """Malformed job: the message names the offending field."""


class JobSpec(NamedTuple):
    mode: str
    dim: int
    trunc: int
    inputs: dict
    out: dict


class Report(NamedTuple):
    text: str
    files: dict
    accepted: bool


# ---------------------------------------------------------------------------
# job parsing


def dense_terms(dim: int, trunc: int) -> int:
    """Terms h^k y^I yb^J, k >= 0, of degree 2k + |I| + |J| <= trunc in dim variables."""
    return sum(comb(trunc - 2 * k + 2 * dim, 2 * dim)
               for k in range(trunc // 2 + 1))


def _field(data: dict, name: str, kind, required: bool = True, default=None):
    if name not in data:
        if required:
            raise JobError(f"missing required field \"{name}\"")
        return default
    value = data[name]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise JobError(f"field \"{name}\": expected an integer, "
                           f"got {value!r}")
        return value
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise JobError(f"field \"{name}\": expected "
                       f"{' or '.join(k.__name__ for k in kinds)}, "
                       f"got {value!r}")
    return value


def _integers(values: list, name: str, low: int, high: int) -> tuple:
    """JSON integers within [low, high]; bools and floats are rejected."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise JobError(f"field \"{name}\": expected integers, got "
                           f"{value!r}")
        if not low <= value <= high:
            raise JobError(f"field \"{name}\": {value} is outside "
                           f"{low}..{high}")
    return tuple(values)


def _distinct(values, name: str, what: str):
    """``values``, unless empty or repeating one: a job that checks nothing,
    or one thing twice, is malformed."""
    if not values:
        raise JobError(f"field \"{name}\": need at least one {what}")
    repeated = sorted(v for v, n in Counter(values).items() if n > 1)
    if repeated:
        raise JobError(f"field \"{name}\": repeated {what}s "
                       f"{', '.join(map(str, repeated))}")
    return values


def _parse_composition(comp: dict) -> dict:
    orders = _distinct(_integers(
        _field(comp, "orders", list, required=False, default=[0, 1, 2]),
        "composition.orders", 0, ENGINE_REACH), "composition.orders", "order")
    ms = _distinct(_integers(
        _field(comp, "ms", list, required=False,
               default=[32, 64, 128, 256, 512]),
        "composition.ms", 1, MS_CEILING), "composition.ms", "tensor power")
    if sum(ms) > 2 * MS_CEILING:
        raise JobError(f"field \"composition.ms\": the tensor powers sum to "
                       f"{sum(ms)}, above the ceiling {2 * MS_CEILING}")
    elements = []
    for pair in _field(comp, "elements", list, required=False,
                       default=[[0, 0], [1, 1]]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise JobError(f"field \"composition.elements\": expected "
                           f"[p, q] pairs, got {pair!r}")
        p, q = _integers(pair, "composition.elements", 0, ENGINE_REACH)
        if max(p, q) > min(ms):
            raise JobError(f"field \"composition.elements\": no z^{max(p, q)}"
                           f" section exists at m = {min(ms)}")
        elements.append((p, q))
    return {"orders": orders, "ms": ms,
            "elements": _distinct(tuple(elements), "composition.elements",
                                  "element")}


def _parse_series(data: dict, name: str, dim: int, trunc: int) -> WickSeries:
    records = _field(data, name, list)
    try:
        series = WickSeries.from_records(dim, trunc, records)
    except (KeyError, TypeError, ValueError, WickjetError) as exc:
        raise JobError(f"field \"{name}\": bad series record: {exc}") from None
    return series


def _parse_jets(data: dict, name: str, dim: int, trunc: int) -> WickSeries:
    spec = _field(data, name, (dict, list))
    if isinstance(spec, list):
        spec = {"records": spec}
    order = _field(spec, "order", int, required=False, default=trunc)
    if order < trunc:
        raise JobError(f"field \"{name}\": order {order} is below trunc {trunc}")
    records = _field(spec, "records", list)
    try:
        return WickSeries.from_records(dim, order,
                                       ({"k2": 0, **rec} for rec in records))
    except (KeyError, TypeError, ValueError, WickjetError) as exc:
        raise JobError(f"field \"{name}\": bad jet record: {exc}") from None


def _parse_potential(data: dict, name: str, dim: int,
                     default_order: int) -> PotentialJets:
    spec = _field(data, name, dict)
    generator = _field(spec, "generator", str, required=False)
    order = _field(spec, "order", int, required=False, default=default_order)
    if order > TRUNC_CEILING:
        raise JobError(f"potential order {order} is above the ceiling "
                       f"{TRUNC_CEILING}")
    if generator is not None:
        if generator not in GENERATORS:
            raise JobError(f"field \"{name}\": unknown generator "
                           f"\"{generator}\" (choose from "
                           f"{', '.join(GENERATORS)})")
        try:
            if generator == "flat":
                return flat_potential(dim, order)
            if generator == "fubini-study":
                return fubini_study_potential(dim, order)
            seed = _field(spec, "seed", int)
            return random_real_analytic_potential(seed, dim, order)
        except WickjetError as exc:
            raise JobError(f"field \"{name}\": {exc}") from None
    records = _field(spec, "jets", list)
    try:
        return PotentialJets.from_records(dim, order, records)
    except (KeyError, TypeError, ValueError, WickjetError) as exc:
        raise JobError(f"field \"{name}\": {exc}") from None


def _parse_out(data: dict) -> dict:
    out = _field(data, "out", dict, required=False, default={})
    clean = {}
    for key, value in out.items():
        if not isinstance(value, str) or not value:
            raise JobError(f"field \"out\": path for \"{key}\" must be a "
                           f"non-empty string")
        path = Path(value)
        if path.is_absolute() or ".." in path.parts:
            raise JobError(f"field \"out\": path for \"{key}\" must stay "
                           f"inside the output directory")
        if value.rsplit("/", 1)[-1] in ("", "."):
            raise JobError(f"field \"out\": path for \"{key}\" must name "
                           f"a file, got {value!r}")
        clean[str(key)] = value
    return clean


def _output_paths(out: dict, artifacts) -> dict:
    """The path under ``--out`` of the report and of each named artifact."""
    return {"report": out.get("report", "report.txt"),
            **{name: out.get(name, name) for name in artifacts}}


def _check_distinct_outputs(out: dict, artifacts) -> None:
    """Reject a job two of whose outputs resolve to one path: the later
    write would replace the earlier with no message."""
    seen = {}
    for name, value in _output_paths(out, artifacts).items():
        path = Path(value)
        if path in seen:
            raise JobError(f"field \"out\": \"{seen[path]}\" and \"{name}\" "
                           f"both write {str(path)!r}")
        seen[path] = name


def _composition_file(order: int) -> str:
    return f"composition-order{order}.csv"


def load_job(path) -> JobSpec:
    """Parse and validate one JSON job file into a JobSpec."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise JobError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                       f"{exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer past int()'s digit limit, or nesting too deep
        raise JobError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise JobError(f"{path}: the job must be a JSON object")
    if not data:
        raise JobError(f"{path}: empty job — expected at least a \"mode\" "
                       f"field")
    try:
        return _load_job_data(data)
    except JobError as exc:
        raise JobError(f"{path}: {exc}") from None


def _load_job_data(data: dict) -> JobSpec:
    mode = _field(data, "mode", str)
    if mode not in MODES:
        raise JobError(f"unknown mode \"{mode}\" (choose from "
                       f"{', '.join(MODES)})")
    out = _parse_out(data)

    if mode == "suite":
        names = _field(data, "names", list, required=False,
                       default=list(SUITES))
        unknown = [n for n in names if not isinstance(n, str) or n not in SUITES]
        if unknown:
            raise JobError(f"field \"names\": unknown suites "
                           f"{', '.join(map(str, unknown))} (choose from "
                           f"{', '.join(SUITES)})")
        _distinct(names, "names", "suite")
        seed = _field(data, "seed", int, required=False, default=0)
        return JobSpec(mode, 0, 0, {"names": names, "seed": seed}, out)

    if mode == "cp1-verify":
        max_p = _field(data, "max_p", int, required=False, default=3)
        max_order = _field(data, "max_order", int, required=False, default=4)
        if max_p < 0 or max_order < 0:
            raise JobError("fields \"max_p\"/\"max_order\" must be "
                           "non-negative")
        if max_p > MAX_P_CEILING:
            raise JobError(f"max_p {max_p} is above the ceiling "
                           f"{MAX_P_CEILING}")
        trunc = exact_truncation(max_order, 0)
        if trunc > TRUNC_CEILING:
            raise JobError(f"max_order {max_order} needs truncation {trunc}, "
                           f"above the ceiling {TRUNC_CEILING}")
        inputs = {"max_p": max_p, "max_order": max_order}
        comp = _field(data, "composition", dict, required=False)
        if comp is not None:
            inputs["composition"] = _parse_composition(comp)
            _check_distinct_outputs(out, map(_composition_file,
                                             inputs["composition"]["orders"]))
        return JobSpec(mode, 1, trunc, inputs, out)

    dim = _field(data, "dim", int)
    if dim < 1:
        raise JobError("field \"dim\" must be at least 1")
    if dim > DIM_CEILING:
        raise JobError(f"dim {dim} is above the ceiling {DIM_CEILING}")

    if mode == "k-normalize":
        potential = _parse_potential(data, "potential", dim, 6)
        return JobSpec(mode, dim, potential.order,
                       {"potential": potential}, out)

    trunc = _field(data, "trunc", int)
    if trunc < 0:
        raise JobError("field \"trunc\" must be non-negative")
    if trunc > TRUNC_CEILING:
        raise JobError(f"trunc {trunc} is above the ceiling {TRUNC_CEILING}")
    if mode in ("bt-eval", "rep-act") \
            and dense_terms(dim, trunc) > TERMS_CEILING:
        raise JobError(f"dim {dim} with trunc {trunc} allows "
                       f"{dense_terms(dim, trunc)} series terms, above the "
                       f"ceiling {TERMS_CEILING}")

    if mode == "wick-star":
        inputs = {"lhs": _parse_series(data, "lhs", dim, trunc),
                  "rhs": _parse_series(data, "rhs", dim, trunc)}
    elif mode == "bt-eval":
        inputs = {"potential": _parse_potential(data, "potential", dim, trunc),
                  "lhs": _parse_jets(data, "lhs", dim, trunc),
                  "rhs": _parse_jets(data, "rhs", dim, trunc)}
    else:  # rep-act
        inputs = {"potential": _parse_potential(data, "potential", dim, trunc),
                  "function": _parse_jets(data, "function", dim, trunc),
                  "element": _parse_series(data, "element", dim, trunc)}
        if not inputs["element"].is_holomorphic():
            raise JobError("field \"element\": a model-space element is "
                           "holomorphic, but a term has a yb factor (J != 0)")
    if mode != "wick-star" and inputs["potential"].order < trunc:
        raise JobError(f"field \"potential\": order "
                       f"{inputs['potential'].order} is below trunc {trunc}")
    return JobSpec(mode, dim, trunc, inputs, out)


# ---------------------------------------------------------------------------
# mode runners


def _record_lines(title: str, records: list, unreadable: list) -> list:
    """``title``, then the indented record lines, or "(zero)", then a note
    naming the ``unreadable`` records, which a job cannot read back."""
    lines = [title] + ([f"  {rec}" for rec in records] or ["  (zero)"])
    if unreadable:
        lines.append(f"  (records {', '.join(map(str, unreadable))} have a "
                      f"literal of more than {LITERAL_DIGITS} digits: a job "
                      f"cannot read them back)")
    return lines


def _context_for(job: JobSpec) -> tuple:
    """Context plus report lines describing how the potential was used."""
    potential = job.inputs["potential"]
    lines = []
    if not potential.normalized:
        potential, _, _ = k_normalize(potential)
        lines.append("potential: normalized on entry")
    return BTContext.from_potential(potential, job.trunc), lines


def _series_lines(job: JobSpec, names: tuple, label: str, result) -> list:
    """The named input series, then ``result`` as text and as records."""
    text, records, unreadable = result.text_and_record_lines()
    lines = [f"{name}: {job.inputs[name]}" for name in names]
    lines.append(f"{label}: {text}")
    return lines + _record_lines(f"{label} records:", records, unreadable)


def _run_wick_star(job: JobSpec) -> tuple:
    product = wick_star(job.inputs["lhs"], job.inputs["rhs"])
    return _series_lines(job, ("lhs", "rhs"), "product", product), {}, True


def _run_bt_eval(job: JobSpec) -> tuple:
    ctx, lines = _context_for(job)
    value = bt_star_eval(job.inputs["lhs"], job.inputs["rhs"], ctx)
    return lines + _series_lines(job, ("lhs", "rhs"), "value", value), {}, True


def _run_rep_act(job: JobSpec) -> tuple:
    ctx, lines = _context_for(job)
    result = rep_act(job.inputs["function"], job.inputs["element"], ctx)
    lines += _series_lines(job, ("function", "element"), "result", result)
    return lines, {}, True


def _run_k_normalize(job: JobSpec) -> tuple:
    raw = job.inputs["potential"]
    normalized, coords, frame = k_normalize(raw)
    round_trip = apply_normalization(raw, coords, frame) == normalized
    # jets are classical: their records leave out "k2", and those of the
    # holomorphic coordinate and frame changes leave out "J" too
    lines = _record_lines(f"normalized potential (order {normalized.order}):",
                          *normalized.varphi.record_lines("k2"))
    lines += _record_lines("volume-log jets:", *normalized.psi.record_lines("k2"))
    for i, series in enumerate(coords):
        lines += _record_lines(f"coordinate change (component {i + 1}):",
                               *series.record_lines("k2", "J"))
    lines += _record_lines("frame change:", *frame.record_lines("k2", "J"))
    lines.append(f"round-trip: {'ok' if round_trip else 'FAILED'}")
    return lines, {}, round_trip


def _csv_value(c) -> str:
    if c.re or not c.im:
        return str(c)
    return f"0{'+' if c.im > 0 else ''}{c.im}i"  # keeps the zero real part


def _composition_csv(per_element: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["m", "p", "q", "exact_value", "predicted_partial_sum",
                     "residual_float", "fitted_order"])
    for (p, q), fit in sorted(per_element.items()):
        fitted = "exact" if fit["exact"] else repr(fit["fitted"])
        for m, exact, partial, residual in fit["rows"]:
            writer.writerow([m, p, q, _csv_value(exact), _csv_value(partial),
                             repr(residual), fitted])
    return buffer.getvalue()


def _run_cp1_verify(job: JobSpec) -> tuple:
    max_p = job.inputs["max_p"]
    max_order = job.inputs["max_order"]
    lines = [f"peak-section identity through order {max_order} "
             f"(truncation {job.trunc}):"]
    accepted = True
    for p, engine, closed, match in peak_section_rows(max_p, max_order):
        verdict = "EXACT MATCH" if match else "MISMATCH"
        accepted = accepted and match
        lines.append(f"p={p}: engine {engine}")
        lines.append(f"p={p}: closed {closed}")
        lines.append(f"p={p}: {verdict}")

    files = {}
    comp = job.inputs.get("composition")
    if comp is not None:
        lines.append("composition decay:")
        fits = composition_fits(orders=comp["orders"], ms=comp["ms"],
                                elements=comp["elements"])
        for order in comp["orders"]:
            per_element = fits[order]
            bound = slope_bound(order)
            for (p, q), fit in sorted(per_element.items()):
                if fit["exact"]:
                    verdict = "exact"
                else:
                    slope = fit["fitted"]
                    good = decays(fit, order)
                    accepted = accepted and good
                    # one nonzero residual fits no slope
                    shown = "undetermined" if slope is None else f"{slope:.3f}"
                    verdict = (f"slope {shown} vs bound {bound:.1f} "
                               f"{'ok' if good else 'FAILED'}")
                lines.append(f"  order {order}, element ({p}, {q}): {verdict}")
            files[_composition_file(order)] = _composition_csv(per_element)
    return lines, files, accepted


def _run_suite(job: JobSpec) -> tuple:
    seed = job.inputs["seed"]
    lines = [f"seed: {seed}"]
    accepted = True
    for name in job.inputs["names"]:
        report = SUITES[name](seed=seed)
        status = "PASS" if report.ok else "FAIL"
        lines.append(f"suite {report.name}: {status} "
                     f"({report.cases} checks)")
        for failure in report.failures:
            lines.append(f"  {failure}")
        accepted = accepted and report.ok
    return lines, {}, accepted


_RUNNERS = {"wick-star": _run_wick_star, "bt-eval": _run_bt_eval,
            "rep-act": _run_rep_act, "k-normalize": _run_k_normalize,
            "cp1-verify": _run_cp1_verify, "suite": _run_suite}


def run(job: JobSpec) -> Report:
    """Execute a parsed job; the report text is canonical and reproducible."""
    header = ["wickjet report", f"mode: {job.mode}"]
    if job.mode not in ("cp1-verify", "suite"):
        header.append(f"dim: {job.dim}")
        header.append(f"trunc: {job.trunc}")

    lines, files, accepted = _RUNNERS[job.mode](job)
    status = "ok" if accepted else "acceptance-failure"
    text = "\n".join(header + lines + [f"status: {status}"]) + "\n"
    return Report(text, files, accepted)


# ---------------------------------------------------------------------------
# entry point


def _write_artifacts(report: Report, job: JobSpec, out_dir) -> None:
    """Write the report, then each artifact, under ``out_dir``, making the
    directories each path needs."""
    contents = {"report": report.text, **report.files}
    for name, path in _output_paths(job.out, sorted(report.files)).items():
        target = Path(out_dir) / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(contents[name], encoding="utf-8")


# Built once, at import: a caller that runs several jobs through ``main`` in
# one process reuses it.  A ``wickjet`` command runs one job and builds it
# once either way.
_PARSER = argparse.ArgumentParser(
    prog="wickjet", description="Run one wickjet job file and print its report.")
_PARSER.add_argument("--job", help="path to a JSON job file")
_PARSER.add_argument("--out", help="directory for report artifacts")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    if not args.job:
        _PARSER.print_usage(sys.stderr)
        print("wickjet: error: no job given — pass --job <path>",
              file=sys.stderr)
        return PARSE_EXIT

    try:
        job = load_job(args.job)
    except OSError as exc:
        print(f"wickjet: cannot read job: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except JobError as exc:
        print(f"wickjet: bad job: {exc}", file=sys.stderr)
        return PARSE_EXIT

    try:
        report = run(job)
    except WickjetError as exc:
        print(f"wickjet: computation error ({job.mode}): {exc}",
              file=sys.stderr)
        return COMPUTE_EXIT

    sys.stdout.write(report.text)
    if args.out is not None:
        try:
            _write_artifacts(report, job, args.out)
        except OSError as exc:
            print(f"wickjet: cannot write output: {exc}", file=sys.stderr)
            return PARSE_EXIT
    return 0 if report.accepted else ACCEPT_EXIT


if __name__ == "__main__":  # pragma: no cover - exercised through the tests
    sys.exit(main())
