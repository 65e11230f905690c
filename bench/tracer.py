"""Outside-in tracer: spans and exact work counters around wickjet's layers.

The tracer replaces public functions of the package with wrappers while it
is installed and puts the originals back when it is removed; the package
itself is not edited.  A function is replaced at every binding that refers
to it: ``from .wick import wick_star`` copies the name into ``integrals``,
``btrep`` and ``suites``, and those modules call their own copy.  Methods
are replaced on the class, under every name that refers to them (so
``__radd__`` follows ``__add__``).

Each call records a span (target, parent span, start, end) in memory.  A
target's self time is its spans' duration minus the part covered by
wrapped child spans.  Counters are computed in the wrapper from the
arguments and the result, after the span's end; that counting time is
charged to nobody, so it inflates neither the span nor its parent.  The
counters depend only on the inputs, so they repeat exactly across passes.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _series_key(s):
    return (s.dim, s.trunc, s.lower_bound, frozenset(s.terms.items()))


def _count_wick_star(f, g):
    contractions = 0
    right = [(k2 + sum(I) + sum(J), J) for (k2, I, J) in g.terms]
    for (k2, I, J) in f.terms:
        room = f.trunc - (k2 + sum(I) + sum(J))
        for deg, Jg in right:
            if deg <= room:
                ways = 1
                for a, b in zip(I, Jg):
                    ways *= min(a, b) + 1
                contractions += ways
    return {"pairs": len(f.terms) * len(g.terms), "contractions": contractions}


def _wick_star(args, kwargs, result):
    counts = _count_wick_star(*args, **kwargs)
    counts["terms_out"] = len(result.terms)
    return counts, None


def _series_mul(args, kwargs, result):
    left, right = args
    if result is NotImplemented:
        return {}, None
    width = len(right.terms) if hasattr(right, "terms") else 1
    return {"pairs": len(left.terms) * width,
            "terms_out": len(result.terms)}, None


def _fock_act(args, kwargs, result):
    f, s = args
    return {"pairs": len(f.terms) * len(s.terms)}, None


def _classical_exp(args, kwargs, result):
    def key(h, divide_by_hbar=False):
        return (_series_key(h), divide_by_hbar)
    return {}, key(*args, **kwargs)


def _toeplitz_symbol(args, kwargs, result):
    f, w = args
    return {}, (_series_key(f), _series_key(w.body))


def _cp1_toeplitz(args, kwargs, result):
    m, f = args
    nonzero = sum(1 for row in result.entries for c in row if c)
    return {"cells": (m + 1) ** 2, "nonzero": nonzero}, (m, f)


def _cli_run(args, kwargs, result):
    return {"report_bytes": len(result.text.encode("utf-8"))}, None


# (metric prefix, module, attribute path, counter, counter metrics).  A
# counter maps (args, kwargs, result) to (increments, distinct-input key or
# None); "distinct" counts the distinct keys within each job.
TARGETS = (
    ("series.add", "wickjet.series", "WickSeries.__add__", None, ()),
    ("series.mul", "wickjet.series", "WickSeries.__mul__", _series_mul,
     ("pairs", "terms_out")),
    ("series.hbar_mul", "wickjet.series", "HbarSeries.__mul__", None, ()),
    ("wick.wick_star", "wickjet.wick", "wick_star", _wick_star,
     ("pairs", "contractions", "terms_out")),
    ("wick.fock_act", "wickjet.wick", "fock_act", _fock_act, ("pairs",)),
    ("wick.classical_exp", "wickjet.wick", "classical_exp", _classical_exp,
     ("distinct",)),
    ("wick.star_exp", "wickjet.wick", "star_exp", None, ()),
    ("wick.star_log", "wickjet.wick", "star_log", None, ()),
    ("wick.star_inverse", "wickjet.wick", "star_inverse", None, ()),
    ("integrals.formal_integral", "wickjet.integrals", "formal_integral",
     None, ()),
    ("integrals.inner_product", "wickjet.integrals", "inner_product", None,
     ()),
    ("integrals.toeplitz_symbol", "wickjet.integrals", "toeplitz_symbol",
     _toeplitz_symbol, ("distinct",)),
    ("jets.k_normalize", "wickjet.jets", "k_normalize", None, ()),
    ("jets.apply_normalization", "wickjet.jets", "apply_normalization", None,
     ()),
    ("jets.volume_log_jets", "wickjet.jets", "volume_log_jets", None, ()),
    ("jets.weight_series", "wickjet.jets", "weight_series", None, ()),
    ("jets.fubini_study_potential", "wickjet.jets", "fubini_study_potential",
     None, ()),
    ("jets.random_real_analytic_potential", "wickjet.jets",
     "random_real_analytic_potential", None, ()),
    ("btrep.BTContext.from_potential", "wickjet.btrep",
     "BTContext.from_potential", None, ()),
    ("btrep.bt_star_eval", "wickjet.btrep", "bt_star_eval", None, ()),
    ("btrep.rep_act", "wickjet.btrep", "rep_act", None, ()),
    ("btrep.vacuum_reduce", "wickjet.btrep", "vacuum_reduce", None, ()),
    ("cp1.cp1_toeplitz", "wickjet.cp1", "cp1_toeplitz", _cp1_toeplitz,
     ("cells", "nonzero", "distinct")),
    ("cp1.composition_residual", "wickjet.cp1", "composition_residual", None,
     ()),
    # The module-level cp1.expand_at_infinity only calls this method.
    ("cp1.expand_at_infinity", "wickjet.cp1",
     "FactorialRational.expand_at_infinity", None, ()),
    ("suites.peak_section_rows", "wickjet.suites", "peak_section_rows", None,
     ()),
    ("suites.engine_entry_series", "wickjet.suites", "engine_entry_series",
     None, ()),
    ("suites.composition_fits", "wickjet.suites", "composition_fits", None,
     ()),
    ("cli.load_job", "wickjet.cli", "load_job", None, ()),
    ("cli.run", "wickjet.cli", "run", _cli_run, ("report_bytes",)),
)

MARK = "_bench_traced"


def _bindings(module_name: str, path: str) -> tuple:
    """(original, [(owner, attribute)]) for every binding of one target."""
    module = sys.modules[module_name]
    if "." in path:
        owner_name, attr = path.split(".")
        owners = [getattr(module, owner_name)]
        original = owners[0].__dict__[attr]
    else:
        owners = [mod for name, mod in list(sys.modules.items())
                  if name == "wickjet" or name.startswith("wickjet.")]
        original = module.__dict__[path]
    return original, [(owner, attr) for owner in owners
                      for attr, value in list(vars(owner).items())
                      if value is original]


class Tracer:
    """Installable wrappers plus the spans and counters of the current pass."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self._patches = []
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded; called at the start of each pass."""
        self.span_target = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_extra = array("d")
        self._stack = []
        self.counts = defaultdict(int)
        self._seen = defaultdict(set)

    def begin_job(self) -> None:
        """Distinct-input counts are per job: forget earlier jobs' inputs."""
        self._seen.clear()

    def _wrap(self, target: int, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span = len(tracer.span_start)
            tracer.span_target.append(target)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            tracer.span_extra.append(0.0)
            stack.append(span)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_end[span] = end
            if counter is not None:
                increments, key = counter(args, kwargs, result)
                name = tracer.names[target]
                for metric, value in increments.items():
                    tracer.counts[name, metric] += value
                if key is not None and key not in tracer._seen[target]:
                    tracer._seen[target].add(key)
                    tracer.counts[name, "distinct"] += 1
            tracer.span_extra[span] = perf_counter() - end
            return result

        functools.update_wrapper(traced, fn)
        setattr(traced, MARK, True)
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for index, (_, module, path, counter, _) in enumerate(TARGETS):
            original, bindings = _bindings(module, path)
            if isinstance(original, classmethod):
                wrapper = classmethod(
                    self._wrap(index, original.__func__, counter))
            else:
                wrapper = self._wrap(index, original, counter)
            for owner, attr in bindings:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def summary(self) -> tuple:
        """(self seconds, counters) per target, and the span count, of a pass."""
        n = len(self.span_start)
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += (self.span_end[i] - self.span_start[i]
                             + self.span_extra[i])
        self_s = dict.fromkeys(self.names, 0.0)
        counts = {name: dict.fromkeys(("calls",) + metrics, 0)
                  for name, _, _, _, metrics in TARGETS}
        for i in range(n):
            name = self.names[self.span_target[i]]
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
            counts[name]["calls"] += 1
        for (name, metric), value in self.counts.items():
            counts[name][metric] += value
        return self_s, counts, n


def wrapped_bindings() -> list:
    """Every binding in the loaded wickjet modules that is a tracer wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "wickjet" or name.startswith("wickjet."):
            for attr, value in list(vars(mod).items()):
                if getattr(value, MARK, False):
                    found.append(f"{name}.{attr}")
                if isinstance(value, type):
                    for key, member in list(vars(value).items()):
                        fn = getattr(member, "__func__", member)
                        if getattr(fn, MARK, False):
                            found.append(f"{name}.{attr}.{key}")
    return found
