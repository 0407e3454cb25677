"""Measurement harness: built-in targets, sup-error reports,
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
    evaluate_implicit,
    holder_sign,
    read_target,
)
from .errors import DimensionError, DomainError
from .network import ActivationKind, Network, WeightMatrix, WeightSet, by_id, forward_integers
from .rationals import RationalLike, as_rational, describe_number, require_count, round_binary64

HOLDER_CHECK_PAIRS = 10_000

# Points equivalence_check runs through a net in one packed pass; a unit
# then holds at most this many lanes.
_EQUIVALENCE_CHUNK = 128

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


def _dyadic_indices(rng: random.Random, n: int) -> list[int]:
    """n draws of i in 0..256, the numerators of the sampled points i/256;
    one function, so that a test can substitute the draws."""
    return [rng.randrange(257) for _ in range(n)]


def _require_seed(seed) -> None:
    """Refuse a seed that is not an int or a str: random.Random seeds None
    from OS entropy, so another process would draw other samples."""
    if type(seed) not in (int, str):
        raise DomainError(f"seed must be an int or a str, got {describe_number(seed)}")


def check_holder(
    spec: HolderFunctionSpec,
    pairs: int = HOLDER_CHECK_PAIRS,
    seed: int = 0,
    name: str = "target",
) -> None:
    """Spot-check the claimed inequality |f(x)-f(y)| <= K |x-y|^beta.

    Seeded sample pairs with dyadic coordinates, values read by
    read_target. Each pair is decided exactly by holder_sign, as
    |f(x)-f(y)| against K*(gap/256)^beta, with a float value taken at its
    exact binary64 value. Raises DomainError on a violated pair, a pair
    count not an int >= 1 or a seed not an int or a str (or too long for
    str()), and CapacityError on more pairs than QLOWER_CAP, before any is
    drawn. Sampling cannot prove the claim, only catch wrong constants.
    """
    require_count("pairs", pairs)
    check_cap("Hoelder spot check", "pairs", "check fewer pairs", pairs)
    _require_seed(seed)
    try:
        seed_text = str(seed)
    except ValueError:  # an integer with more digits than str() allows
        raise DomainError(f"seed {describe_number(seed)} is too large to print") from None
    rng = random.Random(f"holder:{name}:{spec.d}:{seed_text}:{pairs}")
    for _ in range(pairs):
        drawn = _dyadic_indices(rng, 2 * spec.d)
        xi, yi = drawn[:spec.d], drawn[spec.d:]
        gap = max(abs(a - b) for a, b in zip(xi, yi))  # |x-y| is gap/256
        x = [_HOLDER_GRID[i] for i in xi]
        y = [_HOLDER_GRID[i] for i in yi]
        fx, fy = (as_rational(read_target(spec.evaluator, p)) for p in (x, y))
        if holder_sign(abs(fx - fy), spec.K, _HOLDER_GRID[gap], spec.beta) > 0:
            raise DomainError(
                f"target {name!r} violates its claimed constants at "
                f"x={[describe_number(v) for v in x]}, "
                f"y={[describe_number(v) for v in y]}"
            )


# name -> (evaluator, beta, K, F)
_BUILTIN = {
    "const": (_const_half, 1, 1, Fraction(1, 2)),
    "mean": (_mean, 1, 1, 1),
    "maxcoord": (_maxcoord, 1, 1, 1),
    "root": (_root, Fraction(1, 2), 1, 1),
}


def builtin_target(name: str, d: int) -> HolderFunctionSpec:
    """Named target on [0,1]^d with its claimed constants (sup metric).

    const     x -> 1/2
    mean      x -> (x_1 + ... + x_d) / d          (beta=1, K=1)
    maxcoord  x -> max_i x_i                      (beta=1, K=1)
    root      x -> sqrt(max_i x_i)                (beta=1/2, K=1)

    The constants are program constants, decided once by the test suite,
    not spot-checked at run time; each call builds a new spec.
    """
    if not isinstance(name, str):
        raise DomainError(f"target name must be a string, got {describe_number(name)}")
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
    require_count("n_per_axis", n_per_axis, least=2)
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
    passed = None if bound is None else worst_f <= round_binary64(bound)
    return ErrorReport(sup_error=worst_f, argmax_point=argmax, passed=passed)


# ---------------------------------------------------------------------------
# Network equivalence


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    max_abs_diff: float
    first_divergence: Optional[dict[str, list[Fraction]]]


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
    range), and ``first_divergence`` holds the first diverging sample's
    exact ``point`` and outputs ``a`` and ``b``, as Fractions. Before any
    sample is drawn, a seed not an int or a str raises DomainError, and
    more samples than QLOWER_CAP raise CapacityError.
    Sampling cannot prove equivalence, only exhibit a divergence.
    """
    if a.input_dim != b.input_dim:
        raise DimensionError(
            f"input dims differ: {a.input_dim} vs {b.input_dim}")
    if a.output_dim != b.output_dim:
        raise DimensionError(
            f"output dims differ: {a.output_dim} vs {b.output_dim}")
    require_count("n_samples", n_samples)
    # An int or a Fraction is below inf however large; nan is not >= 0.
    if not isinstance(tolerance, (int, float, Fraction)) or not 0 <= tolerance < math.inf:
        raise DomainError(
            f"tolerance must be finite and non-negative, got {describe_number(tolerance)}")
    check_cap("equivalence check", "samples", "draw fewer samples", n_samples)
    _require_seed(seed)
    tol_n, tol_d = Fraction(tolerance).as_integer_ratio()
    rng = random.Random(seed)
    # The largest difference so far is worst_n/worst_d. With outputs p/da
    # and q/db, |p/da - q/db| is |p*db - q*da| / (da*db).
    worst_n, worst_d = 0, 1
    first: Optional[dict] = None
    d = a.input_dim
    for start in range(0, n_samples, _EQUIVALENCE_CHUNK):
        drawn = _dyadic_indices(rng, d * min(_EQUIVALENCE_CHUNK, n_samples - start))
        chunk = [drawn[i:i + d] for i in range(0, len(drawn), d)]
        outs_a, da = forward_integers(a, chunk, 256)
        outs_b, db = forward_integers(b, chunk, 256)
        nd = da * db
        for ks, pa, pb in zip(chunk, outs_a, outs_b):
            n = max(abs(p * db - q * da) for p, q in zip(pa, pb))
            if n * worst_d > worst_n * nd:
                worst_n, worst_d = n, nd
            if first is None and n * tol_d > tol_n * nd:
                first = {"point": [Fraction(k, 256) for k in ks],
                         "a": [Fraction(p, da) for p in pa], "b": [Fraction(q, db) for q in pb]}
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
    affine matrix. Before anything is drawn, a size that is not an int
    >= 1 (>= 0 for depth) raises DomainError, and a net that could hold
    more entries than QLOWER_CAP, (depth+1)*max(input_dim+1, max_width)^2,
    raises CapacityError.
    """
    if alphabet.members() is None:
        raise DomainError("random_network needs a finite alphabet")
    require_count("input_dim", input_dim)
    require_count("depth", depth, least=0)
    require_count("max_width", max_width)
    check_cap("random network", "entries", "draw a smaller network",
              (depth + 1) * max(input_dim + 1, max_width) ** 2)
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
    """One row per (target, dimension, epsilon): build the approximator
    of the built-in target, measure its sup error, and record size and
    certificate columns. ``pass`` is whether the exact error at the
    scan's argmax is within K/(M+1)^beta, decided by holder_sign. An
    over-cap grid raises CapacityError before the target is evaluated
    anywhere.
    """
    rows = []
    names = list(target_names) if target_names else sorted(_BUILTIN)
    for d in dims:
        for name in names:
            spec = builtin_target(name, d)
            for eps in epsilons:
                bundle = build_approximator(spec, eps)
                report = sup_error(bundle, spec, n_per_axis=n_per_axis)
                x = report.argmax_point
                err = abs(as_rational(read_target(spec.evaluator, x)) - evaluate_implicit(bundle, x))
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
                    "pass": holder_sign(err, spec.K, Fraction(1, bundle.grid.M + 1),
                                        spec.beta) <= 0,
                })
    return rows


def write_report_csv(path: str, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
