"""One run of one qlower benchmark workload.

    python3 bench/run.py --workload lower_verify --seed 1 --seconds 15 --trace 0

Runs from any directory; qlower is imported from the ``src`` directory
next to ``bench``, and the run fails without printing a result when it is
missing. The run repeats whole passes of the workload's operations until
``--seconds`` have elapsed (at least two passes on approx_scan), checks
every output against the independent references in ``reference.py``, and
prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the run makes one untraced and one traced phase, prints
the per-layer metrics, and writes spans, self times, the tracing overhead
and (on lower_verify) the per-layer table of the largest binarized net to
``bench/results/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import tracing
import workloads
from tracing import clock

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

# Fresh set-ups per run; setup_s is their median, since a single set-up of
# about 0.15 s does not repeat within a tenth.
SETUP_REPEATS = 3


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}


def with_units(values: dict) -> dict:
    units = declared_units()
    missing = set(values) - set(units)
    if missing:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {sorted(missing)}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_qlower():
    if not (SRC / "qlower" / "__init__.py").is_file():
        raise BenchError(f"no qlower sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qlower

    if Path(qlower.__file__).resolve().parent != (SRC / "qlower").resolve():
        raise BenchError(f"imported qlower from {qlower.__file__}, not from {SRC}")
    return qlower


def setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_s: set up from a fresh interpreter, then print the
    CPU time this process has used since it started."""
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        workloads.SETUPS[workload](import_qlower(), seed, work)
        print(f"ready {clock()!r}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True)
        words = done.stdout.split()
        if done.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise BenchError(f"set-up of {workload} failed in a fresh interpreter")
        samples.append(float(words[1]))
    return statistics.median(samples)


class Measurement:
    def __init__(self):
        self.times, self.names, self.passes, self.failures = [], [], 0, []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(q, ops, seconds: float, tracer=None, min_passes: int = 1) -> Measurement:
    """Whole passes over ``ops`` until ``seconds`` of wall time have elapsed
    and at least ``min_passes`` passes are made. An operation that raises
    ``QlowerError`` makes the run incorrect; only the known fault ``check``
    reports counts as failed."""
    m = Measurement()
    start = time.monotonic()
    while m.passes < min_passes or time.monotonic() - start < seconds:
        for op in ops:
            timer = workloads.Timer()
            try:
                with tracer.span("op:" + op.name) if tracer else nullcontext():
                    out = op.run(q, timer)
            except q.QlowerError as exc:
                raise workloads.Incorrect(f"{op.name}: {type(exc).__name__}: {exc}") from exc
            m.times.append(timer.seconds)
            m.names.append(op.name)
            if not op.check(out):
                m.failures.append(f"{op.name}: certified verdict differs from the exact one")
            del out
        m.passes += 1
    return m


def work_weighted_median(m: Measurement) -> float:
    """The mean time of the operation in which the middle of the run's
    operation time is spent: each operation's timings are averaged over the
    passes, and the means, sorted, are weighted by themselves."""
    by_name = {}
    for name, seconds in zip(m.names, m.times):
        by_name.setdefault(name, []).append(seconds)
    means = sorted(statistics.mean(times) for times in by_name.values())
    half, total = sum(means) / 2.0, 0.0
    for mean in means:
        total += mean
        if total >= half:
            break
    return mean


def end_to_end(q, workload, seed, seconds, work) -> tuple[Measurement, dict]:
    setup_s = measure_setup(workload, seed)
    ops = workloads.SETUPS[workload](q, seed, work)
    m = measure(q, ops, seconds, min_passes=workloads.MIN_PASSES.get(workload, 1))
    child = getattr(ops[0], "child", None)
    if child is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_mb = max(rss for _, _, rss, _ in child.log)
    # After the peak is read: serializing the largest approximators costs
    # far more memory than the operations do.
    output_bytes = sum(op.output_bytes(q) for op in ops) / len(ops)
    if workload in workloads.WORK_WEIGHTED_P50:
        p50 = work_weighted_median(m)
    else:
        p50 = statistics.median(m.times)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": m.attempted / sum(m.times),
        "op_p50_ms": p50 * 1000.0,
        "peak_rss_mb": peak_mb,
        "output_bytes": output_bytes,
    }
    return m, with_units(metrics)


def _cli_steps(log) -> dict:
    """Per CLI step, the mean CPU ms of ``qlower.cli.main`` and its peak RSS,
    as the launcher read them before analysing its trace; ``start`` (mean
    interpreter start plus import) over all children."""
    steps = {}
    for step, _, _, trace in log:
        if trace is None:
            raise BenchError(f"the traced {step} child wrote no trace")
        entry = steps.setdefault(step, {"ms": [], "rss_mb": 0.0})
        entry["ms"].append(trace["main_ms"])
        entry["rss_mb"] = max(entry["rss_mb"], trace["main_rss_mb"])
    out = {step: {"ms": statistics.mean(e["ms"]), "rss_mb": e["rss_mb"]}
           for step, e in steps.items()}
    if log:
        out["start"] = {"ms": statistics.mean(trace["start_ms"] for *_, trace in log)}
    return out


def traced(q, workload, seed, seconds, work) -> tuple[Measurement, dict]:
    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    setup_tracer.install()
    try:
        with setup_tracer.span("setup"):
            ops = workloads.SETUPS[workload](q, seed, work)
    finally:
        setup_tracer.uninstall()
    plain = measure(q, ops, seconds / 2)
    child = getattr(ops[0], "child", None)
    if child is not None:
        child.launcher = BENCH / "cli_launcher.py"
        child.log.clear()
    tracer.install()
    try:
        m = measure(q, ops, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    cli = {}
    if child is not None:
        for *_, trace in child.log:
            tracer.merge(trace)
        cli = _cli_steps(child.log)
    overhead_pct = (statistics.mean(m.times) / statistics.mean(plain.times) - 1.0) * 100.0
    per_layer = tracing.layer_metrics(setup_tracer, tracer, m.passes, cli)
    per_layer["trace.overhead_pct"] = overhead_pct
    record = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "passes": {"untraced": plain.passes, "traced": m.passes},
        "mean_op_ms": {"untraced": statistics.mean(plain.times) * 1000.0,
                       "traced": statistics.mean(m.times) * 1000.0},
        "overhead_pct": overhead_pct,
        "per_layer": per_layer,
        "self_times": {"setup": tracing.self_times(setup_tracer),
                       "traced": tracing.self_times(tracer)},
        "spans": {"fields": ["name", "start", "end", "parent"],
                  "setup": setup_tracer.spans, "traced": tracer.spans},
    }
    if workload == "lower_verify":
        record["layer_table"] = largest_binary_table(q, ops)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"trace written to {path}", file=sys.stderr)
    m.failures = plain.failures + m.failures
    m.times = plain.times + m.times
    m.names = plain.names + m.names
    return m, with_units(per_layer)


def largest_binary_table(q, ops) -> dict:
    """Per-layer table of the largest binarized net of the pass."""
    best = None
    for op in ops:
        for net in op.nets:
            binr, _ = q.binarize(q.ternarize(net)[0])
            rows = sum(m.rows for m in binr.matrices)
            if best is None or rows > best[0]:
                best = (rows, net, binr)
    _, src, binr = best
    points = list(itertools.product(workloads.GRID5, repeat=src.input_dim))
    return {
        "source": {"input_dim": src.input_dim, "depth": src.depth,
                   "widths": list(src.width_vector)},
        "points": len(points),
        "layers": tracing.layer_table(q, binr, points),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The materialization cap is part of what is measured: always the default.
    os.environ.pop("QLOWER_CAP", None)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        q = import_qlower()
        work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
        try:
            run = traced if args.trace else end_to_end
            m, metrics = run(q, args.workload, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except workloads.Incorrect as exc:
        print(f"bench: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    for failure in m.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
