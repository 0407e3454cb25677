"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and returns a
fixed list of operations, one pass. An operation's ``run`` makes the calls
into qlower, each through ``timer`` so that only those calls are timed;
its ``check`` then verifies the outputs against ``reference`` outside the
timed span. ``check`` raises ``Incorrect`` for a wrong output and returns
False for the one known fault counted as a failed operation: the
certificate verdict of the ``approx_scan`` boundary case, which disagrees
with the exact one. The same disagreement on any other case is a wrong
output.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference
from tracing import clock

ROOT = Path(__file__).resolve().parent.parent
F = Fraction
GRID5 = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))

# The selector cap is part of the program's behaviour under test; the
# benchmark always runs with the default.
DEFAULT_CAP = 10**8


class Incorrect(Exception):
    """The program returned a wrong output."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Incorrect(message)


class Timer:
    """Sums the durations of the calls made through it."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        self.seconds += clock() - start
        return result


def _fresh(q, net):
    """A copy sharing no cached evaluation forms, so every pass does the
    same work."""
    return q.Network(
        net.input_dim,
        tuple(q.WeightMatrix(m.rows, m.cols, m.entries) for m in net.matrices),
        net.activation,
        net.output_scale,
    )


def _point(rng: random.Random, d: int) -> tuple:
    return tuple(F(rng.randrange(1001), 1000) for _ in range(d))


# --- lower_verify ----------------------------------------------------------------

LOWER_CLASSES = tuple(itertools.product((1, 2, 3), (1, 2, 3, 4)))  # (d, depth)
LOWER_BATCHES = 8
LOWER_MAX_WIDTH = 8


class LowerBatch:
    """ternarize then binarize one net of every (d, depth) class; evaluate
    source, ternary and binary on the 5^d grid; equivalence_check source
    against binary."""

    def __init__(self, index, nets):
        self.name = f"batch{index}"
        self.nets = nets

    def run(self, q, timer):
        out = []
        for net in self.nets:
            src = _fresh(q, net)
            tern, _ = timer(q.ternarize, src)
            binr, _ = timer(q.binarize, tern)
            values = [
                (timer(q.evaluate, src, x), timer(q.evaluate, tern, x),
                 timer(q.evaluate, binr, x))
                for x in itertools.product(GRID5, repeat=src.input_dim)
            ]
            report = timer(q.equivalence_check, src, binr)
            out.append((src, tern, binr, values, report))
        return out

    def check(self, out) -> bool:
        for src, _, binr, values, report in out:
            ref = reference.plain_network(src)
            lowered = reference.plain_network(binr)
            grid = itertools.product(GRID5, repeat=src.input_dim)
            for x, (a, t, b) in zip(grid, values):
                want = reference.evaluate(ref, x)[0]
                require(a == t == b == want,
                        f"{self.name}: values differ at {x}: source {a}, ternary {t}, "
                        f"binary {b}, reference {want}")
            require(report.equivalent, f"{self.name}: equivalence_check reports a divergence")
            require(reference.depth(lowered) == reference.depth(ref) + 5,
                    f"{self.name}: binary depth is not source depth + 5")
            require(reference.is_binary_quarter(lowered),
                    f"{self.name}: binary net has an entry other than +-1/4")
        return True

    def output_bytes(self, q) -> int:
        """Bytes of the ternary and binary network files of this batch."""
        total = 0
        for net in self.nets:
            tern, _ = q.ternarize(_fresh(q, net))
            binr, _ = q.binarize(tern)
            total += len(q.serialize(tern)) + len(q.serialize(binr))
        return total


def setup_lower_verify(q, seed, work):
    ops = []
    for b in range(LOWER_BATCHES):
        nets = [
            q.random_network(random.Random(f"lower_verify:{seed}:{b}:{d}:{depth}"),
                             d, depth, LOWER_MAX_WIDTH)
            for d, depth in LOWER_CLASSES
        ]
        ops.append(LowerBatch(b, nets))
    return ops


# --- approx_scan -----------------------------------------------------------------

# Exact Hoelder data of the built-in targets, as the package documents them.
HOLDER = {"mean": (F(1), F(1)), "maxcoord": (F(1), F(1)), "root": (F(1, 2), F(1))}
SCAN_POINTS = {1: 1001, 2: 201}
SCAN_EPSILONS = (F(1, 5), F(1, 10), F(1, 20))
CHECK_POINTS = 3


class ApproxCase:
    """build_approximator plus sup_error over the scan grid; a materialized
    network is also evaluated at a few seeded points beside
    evaluate_implicit."""

    def __init__(self, q, targets, name, d, epsilon, rng, K=None, M=None, boundary=False):
        beta, default_K = HOLDER[name]
        self.target, self.d, self.epsilon, self.M_override = name, d, epsilon, M
        self.boundary = boundary
        self.beta = beta
        self.K = default_K if K is None else K
        spec = targets[d][name]
        if K is not None:
            spec = q.HolderFunctionSpec(spec.evaluator, d, beta, K, spec.F)
        self.spec = spec
        self.name = f"{name}:d{d}:eps{epsilon}" + ("" if M is None else f":M{M}")
        self.points = [_point(rng, d) for _ in range(CHECK_POINTS)]

    def run(self, q, timer):
        bundle = timer(q.build_approximator, self.spec, self.epsilon, M_override=self.M_override)
        report = timer(q.sup_error, bundle, self.spec, n_per_axis=SCAN_POINTS[self.d],
                       bound=self.epsilon)
        values = []
        for x in self.points:
            net_value = None if bundle.network is None else timer(q.evaluate, bundle.network, x)
            values.append((net_value, timer(q.evaluate_implicit, bundle, x)))
        return bundle, report, values

    def check(self, out) -> bool:
        bundle, report, values = out
        name, d, eps, K, beta = self.target, self.d, self.epsilon, self.K, self.beta
        M = self.M_override or reference.certified_resolution(K, beta, eps)
        require(bundle.grid.M == M, f"{self.name}: M = {bundle.grid.M}, expected {M}")
        entries = (M + 1) ** d * (d * M + 1)
        require((bundle.network is not None) == (entries <= DEFAULT_CAP),
                f"{self.name}: materialized is {bundle.network is not None} "
                f"for {entries} selector entries")
        err = reference.approximation_error(name, report.argmax_point, M)
        require(float(err) == report.sup_error,
                f"{self.name}: error at the argmax is {float(err)}, reported sup "
                f"{report.sup_error}")
        require(reference.within_holder_bound(err, K, beta, M),
                f"{self.name}: sup error {report.sup_error} exceeds K/(M+1)^beta")
        require(report.passed == (err <= eps), f"{self.name}: wrong pass verdict")
        if d == 1:
            full = reference.sup_error_scan(name, d, M, SCAN_POINTS[d])
            require(full == err, f"{self.name}: rescan finds sup {float(full)}, "
                                 f"reported {report.sup_error}")
        for x, (net_value, implicit) in zip(self.points, values):
            want = reference.approximator_value(name, x, M)
            require(implicit == want, f"{self.name}: evaluate_implicit{x} = {implicit}, "
                                      f"reference {want}")
            require(net_value is None or net_value == want,
                    f"{self.name}: network value at {x} = {net_value}, reference {want}")
        exact = reference.certifies(K, beta, eps, M)
        require(self.boundary or bundle.certified == exact,
                f"{self.name}: certified is {bundle.certified}, exactly {exact}")
        return bundle.certified == exact

    def output_bytes(self, q) -> int:
        """Bytes of the network file this case's approximator makes; 0 when
        the selector stays implicit."""
        bundle = q.build_approximator(self.spec, self.epsilon, M_override=self.M_override)
        return 0 if bundle.network is None else len(q.serialize(bundle.network))


def setup_approx_scan(q, seed, work):
    targets = {d: q.builtin_targets(d) for d in SCAN_POINTS}
    rng = random.Random(f"approx_scan:{seed}")
    ops = [ApproxCase(q, targets, name, d, eps, rng)
           for d in SCAN_POINTS for name in HOLDER for eps in SCAN_EPSILONS]
    # (K/eps)^2 = 49 = M + 1: the bound K/(M+1)^beta equals eps exactly, so
    # this resolution certifies eps. The float comparison in
    # ApproximatorBundle.certified says it does not.
    ops.append(ApproxCase(q, targets, "root", 2, F(1, 3), rng, K=F(7, 3), M=48,
                          boundary=True))
    return ops


# --- cli_roundtrip -----------------------------------------------------------------

CLI_ROUNDS = 3
CLI_EPSILON = F(1, 7)     # root at d=2: M = 49, 2,500 cells, a 2.7 MB file
CLI_SOURCE = (2, 3, 8)    # (d, depth, max width) of the nets lowered
CLI_LOWER_POINTS = 4


class Child:
    """Runs CLI children one at a time, recording CPU time and peak RSS.

    With ``launcher`` set, children run through the tracing launcher and
    their traces are kept in ``log``.
    """

    def __init__(self, work: Path):
        self.work, self.launcher = work, None
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = []   # (step, CPU seconds, peak RSS MB, trace or None)

    def __call__(self, step, args):
        """Run one CLI command; its time is the child's CPU time."""
        out_path, err_path = self.work / f"{step}.out", self.work / f"{step}.err"
        trace_path = self.work / f"{step}.trace.json"
        if self.launcher is None:
            argv = [sys.executable, "-m", "qlower.cli", *args]
        else:
            argv = [sys.executable, str(self.launcher), str(trace_path), *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = usage.ru_utime + usage.ru_stime
        trace = None
        if self.launcher is not None and trace_path.exists():
            trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        self.log.append((step, seconds, usage.ru_maxrss / 1024.0, trace))
        return proc.returncode, out_path.read_text(), err_path.read_text(), seconds


class RoundTrip:
    """approx -> eval -> eval --implicit -> lower --mode binary -> equiv,
    each a fresh qlower CLI process."""

    def __init__(self, index, child, source_path, source_plain, rng):
        self.name = f"roundtrip{index}"
        self.child = child
        self.source_path, self.source = source_path, source_plain
        d = CLI_SOURCE[0]
        self.x = _point(rng, d)
        self.lower_points = [_point(rng, d) for _ in range(CLI_LOWER_POINTS)]
        work = child.work
        self.files = [work / "approx.json", work / "approx.cert.json",
                      work / "lowered.json", work / "lowered.cert.json"]
        self.bytes = 0

    def run(self, q, timer):
        for path in self.files:
            if path.exists():
                path.unlink()
        x = ",".join(f"{v.numerator}/{v.denominator}" for v in self.x)
        results = {}
        for step, args in (
            ("approx", ["approx", "--target", "root", "--d", "2", "--eps", str(CLI_EPSILON),
                        "--out", str(self.files[0])]),
            ("eval", ["eval", "--net", str(self.files[0]), "--x", x]),
            ("eval_implicit", ["eval", "--net", str(self.files[0]), "--x", x, "--implicit"]),
            ("lower", ["lower", "--mode", "binary", "--in", str(self.source_path),
                       "--out", str(self.files[2])]),
            ("equiv", ["equiv", "--a", str(self.source_path), "--b", str(self.files[2])]),
        ):
            code, out, err, seconds = self.child(step, args)
            timer.seconds += seconds
            results[step] = (code, out, err)
        return results

    def check(self, results) -> bool:
        payload = {}
        for step, (code, out, err) in results.items():
            require(code == 0, f"{self.name}: {step} exited {code}: {err.strip()}")
            payload[step] = json.loads(out)
        M = reference.certified_resolution(F(1), F(1, 2), CLI_EPSILON)
        approx = payload["approx"]
        require(approx["M"] == M and approx["certified"] and approx["materialized"],
                f"{self.name}: approx reports {approx}")
        want = reference.approximator_value("root", self.x, M)
        for step in ("eval", "eval_implicit"):
            require(F(payload[step]["value"]) == want,
                    f"{self.name}: {step} prints {payload[step]['value']}, reference {want}")
        lower = payload["lower"]
        require(lower["pass"] and lower["via_ternary"], f"{self.name}: lower reports {lower}")
        lowered = reference.network_from_json(json.loads(self.files[2].read_text()))
        require(reference.is_binary_quarter(lowered),
                f"{self.name}: lowered file has an entry other than +-1/4")
        require(reference.depth(lowered) == reference.depth(self.source) + 5,
                f"{self.name}: lowered depth is not source depth + 5")
        for x in self.lower_points:
            require(reference.evaluate(lowered, x) == reference.evaluate(self.source, x),
                    f"{self.name}: lowered file differs from its source at {x}")
        require(payload["equiv"]["equivalent"], f"{self.name}: equiv reports a divergence")
        self.bytes = sum(path.stat().st_size for path in self.files)
        return True

    def output_bytes(self, q) -> int:
        """Bytes of every file the last round trip wrote."""
        return self.bytes


def setup_cli_roundtrip(q, seed, work):
    d, depth, width = CLI_SOURCE
    rng = random.Random(f"cli_roundtrip:{seed}")
    child = Child(work)
    ops = []
    for i in range(CLI_ROUNDS):
        net = q.random_network(random.Random(f"cli_roundtrip:{seed}:{i}"), d, depth, width)
        path = work / f"source{i}.json"
        q.save_network(net, path)
        ops.append(RoundTrip(i, child, path, reference.plain_network(net), rng))
    return ops


# Whole passes an end-to-end run makes at least; runs repeat passes until
# their length has elapsed. An approx_scan pass takes about 19 s, a run's
# length; a second pass averages every case over two timings, which halves
# the spread of ops_per_s over ten seeds.
MIN_PASSES = {"approx_scan": 2}

# Workloads whose op_p50_ms is the work-weighted median (run.py). The 19
# approx_scan cases differ 500x in cost, 9 of them d=1 under 0.25 s: the
# plain median of their timings is the fastest of the ~0.8 s maxcoord d=2
# timings, a minimum that spread 0.11-0.25 over ten seeds. The
# work-weighted median falls in the middle of root d=2 eps=1/10 (3.3 s),
# with 42-45% of the pass's time below it, so it stays on that case and
# averages two of its timings.
WORK_WEIGHTED_P50 = {"approx_scan"}

SETUPS = {
    "lower_verify": setup_lower_verify,
    "approx_scan": setup_approx_scan,
    "cli_roundtrip": setup_cli_roundtrip,
}
