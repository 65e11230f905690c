"""Batch front-end: job files in, deterministic reports out.

A job is one JSON object using the shared literal formats: series terms are
records ``{"k2": int, "I": [...], "J": [...], "re": "p/q", "im": "p/q"}``
and classical jets drop the ``k2`` field.  Reports are plain text assembled
in canonical order with nothing time- or machine-dependent in them, so
identical jobs produce byte-identical output; stdout carries only the
report, and errors go to stderr.

Exit codes: 0 success, 2 malformed job or usage error, 3 computation error,
4 acceptance failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .btrep import BTContext, bt_star_eval, rep_act
from .coefficients import format_rational
from .errors import WickjetError
from .jets import (
    FunctionJets,
    PotentialJets,
    apply_normalization,
    flat_potential,
    fubini_study_potential,
    jets_from_records,
    jets_to_records,
    k_normalize,
    random_real_analytic_potential,
)
from .series import WickSeries
from .suites import (
    ENGINE_TRUNC,
    SUITES,
    composition_fits,
    peak_section_rows,
    run_suites,
)
from .wick import wick_star

__all__ = ["JobSpec", "JobError", "Report", "load_job", "run", "main"]

PARSE_EXIT = 2
COMPUTE_EXIT = 3
ACCEPT_EXIT = 4

MODES = ("wick-star", "bt-eval", "k-normalize", "rep-act", "cp1-verify",
         "suite")
GENERATORS = ("flat", "fubini-study", "random-real-analytic")

# Largest tensor power a composition fit may request.  The banded CP^1
# oracle builds each matrix in O(m) exact cells, so m = 2^14 stays cheap.
MS_CEILING = 2 ** 14
# Largest partial-sum order and monomial degree of a composition fit; past
# it the engine's Gram norm of z^p truncates to zero.
ENGINE_REACH = ENGINE_TRUNC // 2


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
        raise JobError(f"field \"{name}\": expected {kind.__name__}, "
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


def _parse_composition(comp: dict) -> dict:
    orders = _integers(
        _field(comp, "orders", list, required=False, default=[0, 1, 2]),
        "composition.orders", 0, ENGINE_REACH)
    ms = _integers(
        _field(comp, "ms", list, required=False,
               default=[32, 64, 128, 256, 512]),
        "composition.ms", 1, MS_CEILING)
    if not ms:
        raise JobError("field \"composition.ms\": need at least one tensor "
                       "power")
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
    return {"orders": orders, "ms": ms, "elements": tuple(elements)}


def _parse_series(data: dict, name: str, dim: int, trunc: int) -> WickSeries:
    records = _field(data, name, list)
    try:
        series = WickSeries.from_records(dim, trunc, records)
    except (KeyError, TypeError, ValueError, WickjetError) as exc:
        raise JobError(f"field \"{name}\": bad series record: {exc}") from None
    return series


def _parse_jets(data: dict, name: str, dim: int, default_order: int) -> FunctionJets:
    spec = _field(data, name, (dict, list))
    if isinstance(spec, list):
        spec = {"records": spec}
    order = _field(spec, "order", int, required=False, default=default_order)
    records = _field(spec, "records", list)
    try:
        return FunctionJets.from_records(dim, order, records)
    except (KeyError, TypeError, ValueError, WickjetError) as exc:
        raise JobError(f"field \"{name}\": bad jet record: {exc}") from None


def _parse_potential(data: dict, name: str, dim: int,
                     default_order: int) -> PotentialJets:
    spec = _field(data, name, dict)
    generator = _field(spec, "generator", str, required=False)
    order = _field(spec, "order", int, required=False, default=default_order)
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
        jets = jets_from_records(records, dim, order, what=name)
        return PotentialJets(dim, order, jets)
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
        clean[str(key)] = value
    return clean


def load_job(path, trunc_ceiling: int) -> JobSpec:
    """Parse and validate one JSON job file into a JobSpec."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                       f"{exc.msg}") from None
    if not isinstance(data, dict):
        raise JobError(f"{path}: the job must be a JSON object")
    if not data:
        raise JobError(f"{path}: empty job — expected at least a \"mode\" "
                       f"field")
    try:
        return _load_job_data(data, trunc_ceiling)
    except JobError as exc:
        raise JobError(f"{path}: {exc}") from None


def _load_job_data(data: dict, trunc_ceiling: int) -> JobSpec:
    mode = _field(data, "mode", str)
    if mode not in MODES:
        raise JobError(f"unknown mode \"{mode}\" (choose from "
                       f"{', '.join(MODES)})")
    out = _parse_out(data)

    if mode == "suite":
        names = _field(data, "names", list, required=False)
        if names is not None:
            unknown = [n for n in names if n not in SUITES]
            if unknown:
                raise JobError(f"field \"names\": unknown suites "
                               f"{', '.join(map(str, unknown))} (choose from "
                               f"{', '.join(SUITES)})")
        seed = _field(data, "seed", int, required=False)
        return JobSpec(mode, 0, 0, {"names": names, "seed": seed}, out)

    if mode == "cp1-verify":
        max_p = _field(data, "max_p", int, required=False, default=3)
        max_order = _field(data, "max_order", int, required=False, default=4)
        if max_p < 0 or max_order < 0:
            raise JobError("fields \"max_p\"/\"max_order\" must be "
                           "non-negative")
        trunc = 2 * max_order + 2
        if trunc > trunc_ceiling:
            raise JobError(f"max_order {max_order} needs truncation {trunc}, "
                           f"above the ceiling {trunc_ceiling}")
        inputs = {"max_p": max_p, "max_order": max_order}
        comp = _field(data, "composition", dict, required=False)
        if comp is not None:
            inputs["composition"] = _parse_composition(comp)
        return JobSpec(mode, 1, trunc, inputs, out)

    dim = _field(data, "dim", int)
    if dim < 1:
        raise JobError("field \"dim\" must be at least 1")

    if mode == "k-normalize":
        potential = _parse_potential(data, "potential", dim, 6)
        if potential.order > trunc_ceiling:
            raise JobError(f"potential order {potential.order} is above the "
                           f"ceiling {trunc_ceiling}")
        return JobSpec(mode, dim, potential.order,
                       {"potential": potential}, out)

    trunc = _field(data, "trunc", int)
    if trunc < 0:
        raise JobError("field \"trunc\" must be non-negative")
    if trunc > trunc_ceiling:
        raise JobError(f"trunc {trunc} is above the ceiling {trunc_ceiling}")

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
    return JobSpec(mode, dim, trunc, inputs, out)


# ---------------------------------------------------------------------------
# mode runners


def _record_lines(records, indent: str = "  ") -> list:
    if not records:
        return [indent + "(zero)"]
    return [indent + json.dumps(rec) for rec in records]


def _context_for(job: JobSpec) -> tuple:
    """Context plus report lines describing how the potential was used."""
    potential = job.inputs["potential"]
    lines = []
    if not potential.normalized:
        potential, _, _ = k_normalize(potential)
        lines.append("potential: normalized on entry")
    return BTContext.from_potential(potential, job.trunc), lines


def _run_wick_star(job: JobSpec) -> tuple:
    product = wick_star(job.inputs["lhs"], job.inputs["rhs"])
    lines = [f"lhs: {job.inputs['lhs']}",
             f"rhs: {job.inputs['rhs']}",
             f"product: {product}",
             "product records:"]
    lines += _record_lines(product.to_records())
    return lines, {}, True


def _run_bt_eval(job: JobSpec) -> tuple:
    ctx, lines = _context_for(job)
    value = bt_star_eval(job.inputs["lhs"], job.inputs["rhs"], ctx)
    lines += [f"lhs: {job.inputs['lhs']}",
              f"rhs: {job.inputs['rhs']}",
              f"value: {value}",
              "value records:"]
    lines += _record_lines(value.to_records())
    return lines, {}, True


def _run_rep_act(job: JobSpec) -> tuple:
    ctx, lines = _context_for(job)
    result = rep_act(job.inputs["function"], job.inputs["element"], ctx)
    lines += [f"function: {job.inputs['function']}",
              f"element: {job.inputs['element']}",
              f"result: {result}",
              "result records:"]
    lines += _record_lines(result.to_records())
    return lines, {}, True


def _holo_map_records(mapping) -> list:
    return [{"I": list(I), "re": format_rational(c.re),
             "im": format_rational(c.im)}
            for I, c in sorted(mapping.items())]


def _run_k_normalize(job: JobSpec) -> tuple:
    raw = job.inputs["potential"]
    normalized, coords, frame = k_normalize(raw)
    round_trip = apply_normalization(raw, coords, frame) == normalized
    lines = [f"normalized potential (order {normalized.order}):"]
    lines += _record_lines(jets_to_records(normalized.varphi))
    lines.append("volume-log jets:")
    lines += _record_lines(jets_to_records(normalized.psi or {}))
    for i, mapping in enumerate(coords):
        lines.append(f"coordinate change (component {i + 1}):")
        lines += _record_lines(_holo_map_records(mapping))
    lines.append("frame change:")
    lines += _record_lines(_holo_map_records(frame))
    lines.append(f"round-trip: {'ok' if round_trip else 'FAILED'}")
    return lines, {}, round_trip


def _csv_value(c) -> str:
    if c.im:
        return f"{format_rational(c.re)}{'+' if c.im > 0 else ''}" \
               f"{format_rational(c.im)}i"
    return format_rational(c.re)


def _composition_csv(per_element: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["m", "p", "q", "exact_value", "predicted_partial_sum",
                     "residual_float", "fitted_order"])
    for (p, q), fit in sorted(per_element.items()):
        fitted = "exact" if fit["fitted"] is None else repr(fit["fitted"])
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
            bound = -(order + 1) + 0.3
            for (p, q), fit in sorted(per_element.items()):
                if fit["exact"]:
                    verdict = "exact"
                else:
                    slope = fit["fitted"]
                    good = slope is not None and slope <= bound
                    accepted = accepted and good
                    verdict = (f"slope {slope:.3f} vs bound {bound:.1f} "
                               f"{'ok' if good else 'FAILED'}")
                lines.append(f"  order {order}, element ({p}, {q}): {verdict}")
            files[f"composition-order{order}.csv"] = \
                _composition_csv(per_element)
    return lines, files, accepted


def _run_suite(job: JobSpec, seed: int) -> tuple:
    job_seed = job.inputs.get("seed")
    effective = seed if job_seed is None else job_seed
    reports = run_suites(job.inputs.get("names"), seed=effective)
    lines = [f"seed: {effective}"]
    accepted = True
    for report in reports:
        status = "PASS" if report.ok else "FAIL"
        lines.append(f"suite {report.name}: {status} "
                     f"({report.cases} checks)")
        for failure in report.failures:
            lines.append(f"  {failure}")
        accepted = accepted and report.ok
    return lines, {}, accepted


def run(job: JobSpec, seed: int = 0) -> Report:
    """Execute a parsed job; the report text is canonical and reproducible."""
    header = ["wickjet report", f"mode: {job.mode}"]
    if job.mode not in ("cp1-verify", "suite"):
        header.append(f"dim: {job.dim}")
        header.append(f"trunc: {job.trunc}")

    if job.mode == "wick-star":
        lines, files, accepted = _run_wick_star(job)
    elif job.mode == "bt-eval":
        lines, files, accepted = _run_bt_eval(job)
    elif job.mode == "rep-act":
        lines, files, accepted = _run_rep_act(job)
    elif job.mode == "k-normalize":
        lines, files, accepted = _run_k_normalize(job)
    elif job.mode == "cp1-verify":
        lines, files, accepted = _run_cp1_verify(job)
    else:
        lines, files, accepted = _run_suite(job, seed)

    status = "ok" if accepted else "acceptance-failure"
    text = "\n".join(header + lines + [f"status: {status}"]) + "\n"
    return Report(text, files, accepted)


# ---------------------------------------------------------------------------
# entry point


def _write_artifacts(report: Report, job: JobSpec, out_dir) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    names = {"report": job.out.get("report", "report.txt")}
    for artifact in report.files:
        names[artifact] = job.out.get(artifact, artifact)
    (directory / names["report"]).write_text(report.text, encoding="utf-8")
    for artifact, content in sorted(report.files.items()):
        target = directory / names[artifact]
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wickjet",
        description="Run one wickjet job file and print its report.")
    parser.add_argument("--job", help="path to a JSON job file")
    parser.add_argument("--out", help="directory for report artifacts")
    parser.add_argument("--trunc-ceiling", type=int, default=16,
                        help="largest truncation a job may request")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized suites")
    args = parser.parse_args(argv)

    if not args.job:
        parser.print_usage(sys.stderr)
        print("wickjet: error: no job given — pass --job <path>",
              file=sys.stderr)
        return PARSE_EXIT

    try:
        job = load_job(args.job, args.trunc_ceiling)
    except OSError as exc:
        print(f"wickjet: cannot read job: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except JobError as exc:
        print(f"wickjet: bad job: {exc}", file=sys.stderr)
        return PARSE_EXIT

    try:
        report = run(job, seed=args.seed)
    except WickjetError as exc:
        print(f"wickjet: computation error ({job.mode}): {exc}",
              file=sys.stderr)
        return COMPUTE_EXIT

    sys.stdout.write(report.text)
    if args.out is not None:
        _write_artifacts(report, job, args.out)
    return 0 if report.accepted else ACCEPT_EXIT


if __name__ == "__main__":  # pragma: no cover - exercised through the tests
    sys.exit(main())
