"""Spans and counts around qlower's public functions, from outside the package.

``Tracer.install`` replaces each wrapped function in every loaded qlower
module that holds it (the modules import names from each other, so the
defining module alone is not enough) and ``uninstall`` puts the originals
back. Spans and counters stay in memory; ``dump`` returns them for writing
at the end of the run.

Every wrapped call adds to its function's call count, inclusive time and
self time (inclusive minus the time of wrapped calls nested in it). Calls
of "hot" functions, made once per scanned point, are aggregated without a
span each; ``as_rational`` is only counted.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import reference

# Every time the benchmark takes is CPU time of the process doing the work.
# On a shared machine the wall clock also counts time the process waits for
# a CPU held by other tenants: identical work measured with both clocks
# spread 31% (quartile distance over median) by wall clock and 4% by CPU time.
# The work measured is single-threaded computation without I/O waits, so
# on an idle machine the two clocks agree.
clock = time.process_time


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_evaluate(tracer, fn, args, kwargs, result):
    net = args[0]
    tracer.counts["network.evaluate.rows"] += sum(m.rows for m in net.matrices)
    tracer.nets.setdefault(id(net), net)


def _observe_parse(tracer, fn, args, kwargs, result):
    entries = [e for m in args[0]["matrices"] for e in m["entries"]]
    tracer.counts["network.parse.entries"] += len(entries)
    tracer.counts["network.parse.distinct_entries"] += len(set(map(str, entries)))


def _observe_lowering(tracer, fn, args, kwargs, result):
    tracer.counts["lowering.rows_out"] += sum(m.rows for m in result[0].matrices)


def _observe_selector(tracer, fn, args, kwargs, result):
    tracer.counts["approx.selector_entries"] += result.rows * result.cols


def _observe_sup_error(tracer, fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    grid = a["obj"].grid
    points = a["n_per_axis"] ** grid.d
    if a["include_representatives"]:
        points += grid.cell_count
    tracer.counts["harness.sup_error.points"] += points


def _observe_check_holder(tracer, fn, args, kwargs, result):
    tracer.counts["harness.check_holder.pairs"] += _arguments(fn, args, kwargs)["pairs"]


# (defining module, function, kind, observer). Kinds: "span" records a span
# per call, "hot" aggregates only, "count" only counts calls.
WRAPPED = (
    ("rationals", "as_rational", "count", None),
    ("network", "evaluate", "span", _observe_evaluate),
    ("network", "serialize", "span", None),
    ("network", "network_from_dict", "span", _observe_parse),
    ("lowering", "ternarize", "span", _observe_lowering),
    ("lowering", "binarize", "span", _observe_lowering),
    ("approx", "build_approximator", "span", None),
    ("approx", "build_readout", "span", None),
    ("approx", "build_selector_matrix", "span", _observe_selector),
    ("approx", "cell_index", "hot", None),
    ("approx", "evaluate_implicit", "hot", None),
    ("harness", "builtin_targets", "span", None),
    ("harness", "check_holder", "span", _observe_check_holder),
    ("harness", "sup_error", "span", _observe_sup_error),
    ("harness", "equivalence_check", "span", None),
    ("harness", "random_network", "span", None),
)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts = Counter()
        self.spans = []        # [name, start, end, parent index or None]
        self.nets = {}         # networks evaluated, analysed after the run
        self.observe_s = 0.0   # time in observers, after their call's span ends
        self._stack = []       # open frames: [child seconds, span index]
        self._patched = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name, keep):
        parent = self._stack[-1][1] if self._stack else None
        index = parent
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [0.0, index]
        self._stack.append(frame)
        return frame

    def _leave(self, name, frame, keep, start, end):
        self._stack.pop()
        duration = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if keep:
            span = self.spans[frame[1]]
            span[1], span[2] = start, end

    @contextmanager
    def span(self, name):
        """A benchmark-level span (set-up, operation)."""
        frame = self._enter(name, True)
        start = clock()
        try:
            yield
        finally:
            self._leave(name, frame, True, start, clock())

    def _wrap(self, name, fn, kind, observe):
        if kind == "count":
            def counted(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted
        keep = kind == "span"

        def timed(*args, **kwargs):
            frame = self._enter(name, keep)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, keep, start, clock())
            if observe is not None:
                start = clock()
                observe(self, fn, args, kwargs, result)
                self.observe_s += clock() - start
            return result
        return timed

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "qlower" or n.startswith("qlower.")]
        for modname, fname, kind, observe in WRAPPED:
            original = getattr(importlib.import_module("qlower." + modname), fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, kind, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def analyse_nets(self):
        """Fold the evaluated networks into row and denominator counts."""
        for net in self.nets.values():
            for p in reference.matrix_profiles(reference.plain_network(net)):
                self.counts["network.rows_seen"] += p["rows"]
                self.counts["network.distinct_rows_seen"] += p["distinct_rows"]
                self.counts["network.den_bits"] = max(self.counts["network.den_bits"],
                                                      p["den_bits"])
        self.nets.clear()

    def dump(self) -> dict:
        self.analyse_nets()
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "spans": self.spans,
        }

    def merge(self, dumped: dict):
        """Add a child process's dump (its spans become roots here)."""
        for name, (calls, total, own) in dumped["stats"].items():
            stat = self.stats[name]
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        for name, value in dumped["counts"].items():
            if name == "network.den_bits":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        offset = len(self.spans)
        for name, start, end, parent in dumped["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + offset])


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _totals(tracer: Tracer) -> dict:
    """Additive per-layer quantities of one tracer: ms, calls and counts."""
    tracer.analyse_nets()
    stats, counts = tracer.stats, tracer.counts

    def ms(name, column=1):
        return _ms(stats[name][column]) if name in stats else 0.0

    def calls(name):
        return stats[name][0] if name in stats else 0

    return {
        "network.evaluate.calls": calls("network.evaluate"),
        "network.evaluate.ms": ms("network.evaluate"),
        "network.evaluate.rows": counts["network.evaluate.rows"],
        "network.rows_seen": counts["network.rows_seen"],
        "network.distinct_rows_seen": counts["network.distinct_rows_seen"],
        "network.parse.ms": ms("network.network_from_dict"),
        "network.parse.entries": counts["network.parse.entries"],
        "network.parse.distinct_entries": counts["network.parse.distinct_entries"],
        "network.serialize.ms": ms("network.serialize"),
        "lowering.ternarize.ms": ms("lowering.ternarize"),
        "lowering.binarize.ms": ms("lowering.binarize"),
        "lowering.rows_out": counts["lowering.rows_out"],
        "approx.build_readout.ms": ms("approx.build_readout"),
        "approx.build_selector.ms": ms("approx.build_selector_matrix"),
        "approx.selector_entries": counts["approx.selector_entries"],
        "approx.cell_index.calls": calls("approx.cell_index"),
        "approx.cell_index.ms": ms("approx.cell_index"),
        "approx.evaluate_implicit.ms": ms("approx.evaluate_implicit"),
        "harness.sup_error.ms": ms("harness.sup_error", column=2),
        "harness.sup_error.points": counts["harness.sup_error.points"],
        "harness.check_holder.ms": ms("harness.check_holder"),
        "harness.check_holder.pairs": counts["harness.check_holder.pairs"],
        "harness.equivalence_check.ms": ms("harness.equivalence_check"),
        "harness.random_network.ms": ms("harness.random_network"),
        "rationals.as_rational.calls": counts["rationals.as_rational.calls"],
    }


def layer_metrics(setup: Tracer, traced: Tracer, passes: int, cli: dict) -> dict:
    """Per-layer metrics: the set-up's totals plus the traced phase's totals
    per pass. ``sup_error`` reports self time, every other time is inclusive.

    ``cli`` maps each CLI step to its mean CPU ms and peak RSS per child.
    """
    once, per_pass = _totals(setup), _totals(traced)
    out = {name: once[name] + per_pass[name] / passes for name in once}

    rows, distinct = out.pop("network.rows_seen"), out.pop("network.distinct_rows_seen")
    out["network.distinct_row_ratio"] = distinct / rows if rows else 0.0
    entries, distinct = out["network.parse.entries"], out.pop("network.parse.distinct_entries")
    out["network.parse.distinct_entry_ratio"] = distinct / entries if entries else 0.0
    out["network.den_bits"] = max(setup.counts["network.den_bits"],
                                  traced.counts["network.den_bits"])
    for step in ("start", "approx", "eval", "eval_implicit", "lower", "equiv"):
        out[f"cli.{step}.ms"] = cli.get(step, {}).get("ms", 0.0)
    for step in ("approx", "eval", "eval_implicit", "lower", "equiv"):
        out[f"cli.{step}.rss_mb"] = cli.get(step, {}).get("rss_mb", 0.0)
    return out


def self_times(tracer: Tracer) -> dict:
    return {
        name: {"calls": calls, "total_ms": _ms(total), "self_ms": _ms(own)}
        for name, (calls, total, own) in sorted(tracer.stats.items())
    }


def layer_table(q, net, points, repeats: int = 5) -> list[dict]:
    """Time per matrix, beside its ``reference.matrix_profiles`` entry.

    A matrix's time is the cost of evaluating the network truncated after
    it, minus the truncation before it, over all points (fastest of
    ``repeats``). Caches are warmed first, so only evaluation is timed; a
    matrix much cheaper than the timing noise can read slightly negative.
    """
    prefixes = [q.Network(net.input_dim, net.matrices[:k + 1], net.activation)
                for k in range(len(net.matrices))]
    cumulative = []
    for prefix in prefixes:
        for x in points:
            q.evaluate(prefix, x)
        samples = []
        for _ in range(repeats):
            start = clock()
            for x in points:
                q.evaluate(prefix, x)
            samples.append(clock() - start)
        cumulative.append(min(samples))
    profiles = reference.matrix_profiles(reference.plain_network(net))
    previous = [0.0] + cumulative[:-1]
    return [{"matrix": k, "ms": _ms(cumulative[k] - previous[k]), **p}
            for k, p in enumerate(profiles)]
