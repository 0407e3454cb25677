"""Measurement harness: verified built-in targets, sup-error reports,
network equivalence checks, seeded random networks, and CSV summaries.

All sampling is seeded, and every seed is either an int or a string, so
repeated runs (including across processes) produce identical bytes.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .approx import (
    ApproximatorBundle,
    HolderFunctionSpec,
    build_approximator,
    bundle_from_network,
    bundle_stats,
    check_cap,
    read_target,
)
from .errors import DimensionError, DomainError
from .network import ActivationKind, Network, WeightMatrix, WeightSet, by_id, forward_integers
from .rationals import RationalLike, as_rational, describe_number, format_rational, round_binary64

HOLDER_CHECK_PAIRS = 10_000

# Points equivalence_check runs through a net in one packed pass; a unit
# then holds at most this many lanes.
_EQUIVALENCE_CHUNK = 128

# Slack for spot checks that must run in binary64 (irrational targets or
# fractional beta): covers rounding of the evaluator and of |x-y|^beta.
FLOAT_CHECK_SLACK = 1e-12

# The coordinates check_holder samples: the dyadics i/256, 0 <= i <= 256.
_HOLDER_GRID = tuple(Fraction(i, 256) for i in range(257))

CSV_COLUMNS = (
    "target", "d", "beta", "K", "eps", "M",
    "depth", "widths", "sparsity", "sup_error", "bound", "pass",
)


# ---------------------------------------------------------------------------
# Built-in targets


def _const_half(x: Sequence) -> Fraction:
    return Fraction(1, 2)


def _mean(x: Sequence) -> Fraction:
    num, den = 0, 1  # the running sum num/den, normalized once at the end
    for v in x:
        r = as_rational(v)
        num, den = num * r.denominator + r.numerator * den, den * r.denominator
    return Fraction(num, den * len(x))


def _maxcoord(x: Sequence) -> Fraction:
    return max(map(as_rational, x))


def _root(x: Sequence) -> float:
    return math.sqrt(max(map(float, x)))


def check_holder(
    spec: HolderFunctionSpec,
    pairs: int = HOLDER_CHECK_PAIRS,
    seed: int = 0,
    name: str = "target",
) -> None:
    """Spot-check the claimed inequality |f(x)-f(y)| <= K |x-y|^beta.

    Seeded sample pairs with dyadic coordinates, values read by
    read_target. When beta = 1 and neither value is a float, the pair is
    decided exactly in integers: with fx = a/b, fy = c/e and K = Kn/Kd,
    |fx-fy| > K*gap/256 is |a*e - c*b| * Kd * 256 > Kn * gap * b * e.
    Otherwise it is decided in binary64 with a tiny slack; a difference
    beyond its range is inf. Raises DomainError on a violated pair, on
    fewer than 1 pair, and on a seed too large for str() to print, and
    CapacityError on more pairs than QLOWER_CAP, before any is drawn.
    Sampling cannot prove the claim, only catch wrong constants.
    """
    if pairs < 1:
        raise DomainError(f"need at least 1 pair, got {describe_number(pairs)}")
    check_cap("Hoelder spot check", "pairs", "check fewer pairs", pairs)
    try:
        seed_text = str(seed)
    except ValueError:  # an integer with more digits than str() allows
        raise DomainError(f"seed {describe_number(seed)} is too large to print") from None
    rng = random.Random(f"holder:{name}:{spec.d}:{seed_text}:{pairs}")
    exact = spec.beta == 1
    K_n, K_d = spec.K.numerator, spec.K.denominator
    K_f, beta_f = float(spec.K), float(spec.beta)
    for _ in range(pairs):
        xi = [rng.randrange(257) for _ in range(spec.d)]
        yi = [rng.randrange(257) for _ in range(spec.d)]
        gap = max(abs(a - b) for a, b in zip(xi, yi))  # |x-y| is gap/256
        x = [_HOLDER_GRID[i] for i in xi]
        y = [_HOLDER_GRID[i] for i in yi]
        fx, fy = read_target(spec.evaluator, x), read_target(spec.evaluator, y)
        if exact and type(fx) is not float and type(fy) is not float:
            a, b, c, e = fx.numerator, fx.denominator, fy.numerator, fy.denominator
            violated = abs(a * e - c * b) * K_d * 256 > K_n * gap * b * e
        else:
            # gap/256 is exact in binary64. Two floats subtract there; any
            # other pair exactly, rounded once, so no value overflows.
            diff = fx - fy if type(fx) is type(fy) is float else round_binary64(Fraction(fx) - Fraction(fy))
            violated = abs(diff) > K_f * (gap / 256) ** beta_f + FLOAT_CHECK_SLACK
        if violated:
            raise DomainError(
                f"target {name!r} violates its claimed constants at "
                f"x={[format_rational(v) for v in x]}, "
                f"y={[format_rational(v) for v in y]}"
            )


# name -> (evaluator, beta, K, F)
_BUILTIN = {
    "const": (_const_half, 1, 1, Fraction(1, 2)),
    "mean": (_mean, 1, 1, 1),
    "maxcoord": (_maxcoord, 1, 1, 1),
    "root": (_root, Fraction(1, 2), 1, 1),
}

_target_cache: dict[tuple[str, int], HolderFunctionSpec] = {}


def builtin_target(name: str, d: int) -> HolderFunctionSpec:
    """Named target on [0,1]^d with verified constants (sup metric).

    const     x -> 1/2
    mean      x -> (x_1 + ... + x_d) / d          (beta=1, K=1)
    maxcoord  x -> max_i x_i                      (beta=1, K=1)
    root      x -> sqrt(max_i x_i)                (beta=1/2, K=1)

    The claim is spot-checked on first use per (name, d), then cached.
    """
    if (name, d) not in _target_cache:
        spec = builtin_spec(name, d)
        check_holder(spec, name=name)
        _target_cache[name, d] = spec
    return _target_cache[name, d]


def builtin_spec(name: str, d: int) -> HolderFunctionSpec:
    """The named target with its claimed constants, not spot-checked."""
    if name not in _BUILTIN:
        raise DomainError(
            f"unknown target {name!r}; available: {', '.join(sorted(_BUILTIN))}")
    evaluator, *constants = _BUILTIN[name]
    return HolderFunctionSpec(evaluator, d, *constants)


def builtin_targets(d: int) -> dict[str, HolderFunctionSpec]:
    """All built-in targets on [0,1]^d, each as from ``builtin_target``."""
    return {name: builtin_target(name, d) for name in _BUILTIN}


# ---------------------------------------------------------------------------
# Sup-error measurement


@dataclass(frozen=True)
class ErrorReport:
    """``sup_error`` is a maximum over finitely many scanned points, so a
    lower bound on the true sup. ``passed`` compares it with the given
    bound, both rounded to binary64; it is None when no bound was given."""

    sup_error: float
    argmax_point: tuple[Fraction, ...]
    passed: Optional[bool]


def sup_error(
    obj: Union[ApproximatorBundle, Network],
    f: Union[HolderFunctionSpec, Callable],
    n_per_axis: int = 101,
    bound: Optional[RationalLike] = None,
    include_representatives: bool = True,
) -> ErrorReport:
    """Measured sup distance between a target and an approximator.

    Scans the uniform grid with n_per_axis points per axis (endpoints
    included) and, by default, every cell representative. Each point is
    compared exactly, as a cross-multiplied integer inequality between
    the target value (a float taken at its exact binary64 value) and its
    readout entry, whose integer pair is taken once per distinct readout
    object; the largest difference becomes one Fraction and is
    rounded to binary64 only at the end, as is the bound (to an infinity
    beyond its range). Target values are read by read_target, whose
    DomainError names the point. Of a HolderFunctionSpec only the
    dimension (another one raises DimensionError) and the evaluator are
    read. When a bound is given, ``passed`` records whether the measured
    sup stayed within it. A scan of more points than QLOWER_CAP raises
    CapacityError before it starts.
    """
    if n_per_axis < 2:
        raise DomainError(
            f"need at least 2 grid points per axis, got {describe_number(n_per_axis)}")
    bundle = obj if isinstance(obj, ApproximatorBundle) else bundle_from_network(obj)
    grid, readout = bundle.grid, bundle.readout
    if isinstance(f, HolderFunctionSpec) and f.d != grid.d:
        raise DimensionError(f"target is on [0,1]^{f.d}, the approximator on [0,1]^{grid.d}")
    evaluator = f.evaluator if isinstance(f, HolderFunctionSpec) else f
    points = n_per_axis ** grid.d + (grid.cell_count if include_representatives else 0)
    check_cap("scan", "points", "scan fewer points per axis", points)
    # The largest difference so far is worst_n/worst_d, kept unreduced.
    # With f(x) = a/b and readout[k] = p/q, |a/b - p/q| > worst_n/worst_d
    # is |a*q - p*b| * worst_d > worst_n * b * q, decided in integers.
    worst_n, worst_d = -1, 1
    argmax: tuple[Fraction, ...] = ()
    ratios = {k: c.as_integer_ratio() for k, c in by_id(readout).items()}
    pairs = list(map(ratios.__getitem__, map(id, readout)))

    def visit(x: tuple[Fraction, ...], k: int) -> None:
        nonlocal worst_n, worst_d, argmax
        a, b = read_target(evaluator, x).as_integer_ratio()
        p, q = pairs[k]
        n = abs(a * q - p * b)
        if n * worst_d > worst_n * b * q:
            worst_n, worst_d, argmax = n, b * q, x

    # A point's cell digit along an axis depends only on that coordinate,
    # so each axis value's grid.digit is found once. The points are
    # visited in product order, the last axis fastest; that axis is walked
    # lazily, so a d=1 scan holds no per-point list, and the d-1 outer
    # axes share one list of (value, digit) pairs.
    def walk():
        for i in range(n_per_axis):
            v = Fraction(i, n_per_axis - 1)
            yield v, grid.digit(v)

    outer = list(walk()) if grid.d > 1 else []
    *places, top = grid.place_values
    for prefix in itertools.product(outer, repeat=grid.d - 1):
        head = tuple(v for v, _ in prefix)
        base = sum(m * place for (_, m), place in zip(prefix, places))
        for v, m in outer or walk():
            visit(head + (v,), base + m * top)
    if include_representatives:
        for k, x in grid.representatives():
            visit(x, k)
    worst_f = round_binary64(Fraction(worst_n, worst_d))
    passed = None if bound is None else worst_f <= round_binary64(as_rational(bound))
    return ErrorReport(sup_error=worst_f, argmax_point=argmax, passed=passed)


# ---------------------------------------------------------------------------
# Network equivalence


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    max_abs_diff: float
    first_divergence: Optional[dict]


def equivalence_check(
    a: Network,
    b: Network,
    n_samples: int = 200,
    seed: int = 0,
    tolerance: float = 0.0,
) -> EquivalenceReport:
    """Compare two networks on seeded dyadic points of the unit cube.

    Outputs differ where their exact difference is more than
    ``tolerance``, which must be finite and non-negative; the default 0
    demands equal outputs. The points k/256 are drawn in chunks of
    _EQUIVALENCE_CHUNK, and each net runs once per chunk through
    ``forward_integers``, whose units then hold one lane per point: a
    unit takes at most 128·B bits, B the lane width its exact bound asks
    for, however many samples are drawn. Each comparison is decided per
    sample, in sample order, by cross-multiplied integers, as in
    ``sup_error``: no value is built for a sample. ``max_abs_diff`` is the
    largest exact difference rounded once to binary64 (inf beyond its
    range), and ``first_divergence`` holds exact values as text. More
    samples than QLOWER_CAP raise CapacityError before any is drawn.
    Sampling cannot prove equivalence, only exhibit a divergence.
    """
    if a.input_dim != b.input_dim:
        raise DimensionError(
            f"input dims differ: {a.input_dim} vs {b.input_dim}")
    if a.output_dim != b.output_dim:
        raise DimensionError(
            f"output dims differ: {a.output_dim} vs {b.output_dim}")
    if n_samples < 1:
        raise DomainError(f"need at least 1 sample, got {describe_number(n_samples)}")
    # An int or a Fraction is finite however large; only a float may not be.
    if isinstance(tolerance, float) and not math.isfinite(tolerance) or tolerance < 0:
        raise DomainError(
            f"tolerance must be finite and non-negative, got {describe_number(tolerance)}")
    check_cap("equivalence check", "samples", "draw fewer samples", n_samples)
    tol_n, tol_d = Fraction(tolerance).as_integer_ratio()
    rng = random.Random(seed)
    # The largest difference so far is worst_n/worst_d. With outputs p/da
    # and q/db, |p/da - q/db| is |p*db - q*da| / (da*db).
    worst_n, worst_d = 0, 1
    first: Optional[dict] = None
    for start in range(0, n_samples, _EQUIVALENCE_CHUNK):
        chunk = [[rng.randrange(257) for _ in range(a.input_dim)]
                 for _ in range(min(_EQUIVALENCE_CHUNK, n_samples - start))]
        outs_a, da = forward_integers(a, chunk, 256)
        outs_b, db = forward_integers(b, chunk, 256)
        nd = da * db
        for ks, pa, pb in zip(chunk, outs_a, outs_b):
            n = max(abs(p * db - q * da) for p, q in zip(pa, pb))
            if n * worst_d > worst_n * nd:
                worst_n, worst_d = n, nd
            if first is None and n * tol_d > tol_n * nd:
                first = {
                    "point": [format_rational(Fraction(k, 256)) for k in ks],
                    "a": [format_rational(Fraction(p, da)) for p in pa],
                    "b": [format_rational(Fraction(q, db)) for q in pb],
                }
    return EquivalenceReport(
        equivalent=first is None,
        max_abs_diff=round_binary64(Fraction(worst_n, worst_d)),
        first_divergence=first,
    )


# ---------------------------------------------------------------------------
# Random networks


def random_network(
    rng: random.Random,
    input_dim: int,
    depth: int,
    max_width: int,
    alphabet: WeightSet = WeightSet.BASE_A,
    density: float = 0.7,
) -> Network:
    """Seeded random ReLU network with weights drawn from the alphabet.

    Each entry is zero with probability 1 - density and otherwise
    uniform over the nonzero alphabet values. Depth 0 yields a single
    affine matrix.
    """
    if alphabet.members() is None:
        raise DomainError("random_network needs a finite alphabet")
    if depth < 0 or input_dim < 1 or max_width < 1:
        raise DomainError("depth >= 0 and positive dims/widths required")
    nonzero = sorted(v for v in alphabet.members() if v != 0)
    widths = [rng.randint(1, max_width) for _ in range(depth)]
    dims = [input_dim + 1] + widths + [1]
    matrices = []
    for layer in range(depth + 1):
        rows, cols = dims[layer + 1], dims[layer]
        entries = tuple(
            rng.choice(nonzero) if rng.random() < density else Fraction(0)
            for _ in range(rows * cols)
        )
        matrices.append(WeightMatrix(rows, cols, entries))
    return Network(input_dim, tuple(matrices), ActivationKind.RELU)


# ---------------------------------------------------------------------------
# CSV report


def report_rows(
    dims: Sequence[int],
    epsilons: Sequence[RationalLike],
    target_names: Optional[Sequence[str]] = None,
    n_per_axis: int = 101,
) -> list[dict]:
    """One row per (target, dimension, epsilon): build the approximator,
    measure its sup error, and record size and certificate columns.

    Each grid is built before its target is spot-checked, so an over-cap
    grid raises CapacityError without the spot-check's seconds in high d.
    """
    rows = []
    names = list(target_names) if target_names else sorted(_BUILTIN)
    for d in dims:
        for name in names:
            spec = builtin_spec(name, d)
            for eps in epsilons:
                bundle = build_approximator(spec, eps)
                builtin_target(name, d)  # spot-checked once per (name, d)
                report = sup_error(
                    bundle, spec, n_per_axis=n_per_axis, bound=bundle.error_bound)
                stats = bundle_stats(bundle)
                rows.append({
                    "target": name,
                    "d": d,
                    "beta": repr(float(spec.beta)),
                    "K": repr(float(spec.K)),
                    "eps": repr(float(as_rational(eps))),
                    "M": bundle.grid.M,
                    "depth": stats["depth"],
                    "widths": "x".join(str(w) for w in stats["widths"]),
                    "sparsity": stats["sparsity"],
                    "sup_error": repr(report.sup_error),
                    "bound": repr(bundle.error_bound),
                    "pass": report.passed,
                })
    return rows


def write_report_csv(path: str, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
