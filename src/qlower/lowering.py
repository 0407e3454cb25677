"""Semantics-preserving lowering between weight alphabets.

Two exact passes over ReLU networks on [0,1]^d:

* ``ternarize``: weights in {0, +-1/2, +-1, 2} become {0, +-1/2} at the
  cost of two extra hidden layers and a 4x duplication of every unit.
* ``binarize``: weights in {0, +-1/2} become {+-1/4} at the cost of
  three extra hidden layers and a 2x duplication.

Both passes preserve the computed function exactly (as rational
functions) at every point of the unit cube: the prepended prefix gadgets
produce duplicated copies of the input coordinates using only
nonnegative intermediate values, so ReLU acts as the identity on them,
and each original weight is split into an exact sum over the copies.
Outside the cube the prefixes may clip negative coordinates, so no
equivalence is claimed there.

``to_unit_weights`` trades the 1/2 and 1/4 magnitudes for an output
scale using positive homogeneity of ReLU, and ``theorem_bounds`` is a
reporting-only calculator for the depth/width/sparsity a certified
Hoelder approximator needs before and after lowering.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

from .approx import check_cap
from .errors import DomainError
from .network import (
    ActivationKind,
    Network,
    WeightMatrix,
    WeightSet,
    sparsity,
    validate,
)
from .rationals import describe_number, require_count

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
ZERO = Fraction(0)

ROUNDING_NOTE = "non-integer log2 terms rounded up (deeper/wider is admissible); sparsity product rounded down"


@dataclass(frozen=True)
class LoweringCertificate:
    """Size accounting for one lowering pass, bounds and measured values."""

    input_dim: int
    weight_set_out: WeightSet
    source_depth: int
    target_depth: int
    source_width_max: int
    target_width_max: int
    source_sparsity: int
    target_sparsity: int
    target_sparsity_bound: int
    target_width_bound: int

    @property
    def passed(self) -> bool:
        return (
            self.target_width_max <= self.target_width_bound
            and self.target_sparsity <= self.target_sparsity_bound
        )

    def to_dict(self) -> dict:
        return {
            "pass": self.passed,
            "source": {
                "input_dim": self.input_dim,
                "depth": self.source_depth,
                "width_max": self.source_width_max,
                "sparsity": self.source_sparsity,
            },
            "target": {
                "weight_set": self.weight_set_out.value,
                "depth": self.target_depth,
                "width_max": self.target_width_max,
                "sparsity": self.target_sparsity,
            },
            "bounds": {
                "depth": self.target_depth,
                "width_max": self.target_width_bound,
                "sparsity": self.target_sparsity_bound,
            },
        }


_TERNARY_SPLITS = {
    ZERO: (ZERO, ZERO, ZERO, ZERO),
    HALF: (HALF, ZERO, ZERO, ZERO),
    -HALF: (-HALF, ZERO, ZERO, ZERO),
    Fraction(1): (HALF, HALF, ZERO, ZERO),
    Fraction(-1): (-HALF, -HALF, ZERO, ZERO),
    Fraction(2): (HALF, HALF, HALF, HALF),
}


def decompose_ternary(w: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Split w in {0, +-1/2, +-1, 2} into four {0, +-1/2} summands.

    Canonical fill: the needed +-1/2 terms occupy the leading slots, the
    rest are zeros, so lowering is reproducible byte for byte.
    """
    try:
        return _TERNARY_SPLITS[w]
    except KeyError:
        raise DomainError(
            f"{describe_number(w)} is not in the {{0, +-1/2, +-1, 2}} alphabet") from None


def decompose_binary(w: Fraction) -> tuple[Fraction, Fraction]:
    """Split w in {0, +-1/2} into two {+-1/4} summands (0 by cancellation)."""
    if w == ZERO:
        return (QUARTER, -QUARTER)
    if w == HALF:
        return (QUARTER, QUARTER)
    if w == -HALF:
        return (-QUARTER, -QUARTER)
    raise DomainError(f"{describe_number(w)} is not in the {{0, +-1/2}} alphabet")


def _per_d(build):
    """build(d), cached for up to 16 d once d is checked (an unhashable d
    too): a prefix is immutable and shared by every net lowered at that d."""
    cached = lru_cache(maxsize=16)(build)
    def prefix(d: int) -> Network:
        require_count("d", d)
        return cached(d)
    prefix.cache_clear, prefix.cache_info = cached.cache_clear, cached.cache_info
    return wraps(build)(prefix)


@_per_d
def ternary_prefix(d: int) -> Network:
    """Duplication gadget: (1, x) -> four copies of each coordinate.

    Two layers over {0, 1/2}: the first fans every input coordinate out
    to four units at weight 1/2 (values stay nonnegative on the cube, so
    ReLU is the identity), the second rebuilds each coordinate as half
    the sum of its four half-copies. Exactly 20(d+1) nonzero weights
    among 20(d+1)^2 entries.
    """
    n = d + 1
    check_cap("ternary prefix", "entries", "lower a net of lower input dimension", 20 * n**2)
    fan = [[HALF if c == src else ZERO for c in range(n)]
           for src in range(n) for _ in range(4)]
    gather = [
        [HALF if src * 4 <= j < src * 4 + 4 else ZERO for j in range(4 * n)]
        for src in range(n) for _ in range(4)
    ]
    return Network(d, (WeightMatrix.from_rows(fan), WeightMatrix.from_rows(gather)),
                   ActivationKind.RELU)


@_per_d
def binary_prefix(d: int) -> Network:
    """Duplication gadget over {+-1/4}: (1, x) -> (1, 1, x_1, x_1, ..., x_d, x_d).

    The alphabet has no zero, so unused contributions cancel in pairs
    (half the copies at +1/4, half at -1/4). Three layers:

      1. eight copies each of y_0 = (1 + sum x_i)/4 and, per axis k,
         y_k = (1 - x_k + sum_{i != k} x_i)/4; all nonnegative on the cube;
      2. eight copies of 2*y_0 and four copies of each x_k = 2*y_0 - 2*y_k;
      3. two copies of 1 = (16*y_0 - 4*sum x_i)/4 and two of each x_k.

    With n = d + 1 that is 8n^2 + 10n(4n + 4) entries.
    """
    n = d + 1
    check_cap("binary prefix", "entries", "lower a net of lower input dimension",
              8 * n**2 + 10 * n * (4 * n + 4))

    def pm(pattern: list[int]) -> list[Fraction]:
        return [QUARTER if s > 0 else -QUARTER for s in pattern]

    # Layer 1: rows indexed by (block b in 0..d, copy in 0..7) over d+1 inputs.
    layer1 = []
    for b in range(d + 1):
        signs = [1] * (d + 1)
        if b > 0:
            signs[b] = -1
        layer1.extend([pm(signs)] * 8)

    # Layer 2 input: blocks of 8 copies of y_b. Output: 8 copies of 2*y_0,
    # then 4 copies of each x_k. A +4/-4 split of an 8-copy block cancels it;
    # a 2/2 split cancels a 4-copy block.
    cancel8 = [1, 1, 1, 1, -1, -1, -1, -1]
    layer2 = []
    row_2y0 = pm([1] * 8 + cancel8 * d)
    layer2.extend([row_2y0] * 8)
    for k in range(1, d + 1):
        signs: list[int] = [1] * 8
        for b in range(1, d + 1):
            signs += [-1] * 8 if b == k else cancel8
        layer2.extend([pm(signs)] * 4)

    # Layer 3 input: 8 copies of 2*y_0, then per axis 4 copies of x_k.
    cancel4 = [1, 1, -1, -1]
    layer3 = []
    row_one = pm([1] * 8 + [-1] * (4 * d))
    layer3.extend([row_one] * 2)
    for k in range(1, d + 1):
        signs = list(cancel8)
        for b in range(1, d + 1):
            signs += [1] * 4 if b == k else cancel4
        layer3.extend([pm(signs)] * 2)

    mats = tuple(WeightMatrix.from_rows(m) for m in (layer1, layer2, layer3))
    return Network(d, mats, ActivationKind.RELU)


def _require_lowerable(net: Network, alphabet: WeightSet, pass_name: str) -> None:
    if net.activation is not ActivationKind.RELU:
        raise DomainError(
            f"{pass_name} requires the relu activation, got {net.activation.value}"
        )
    if net.output_scale != 1:
        raise DomainError(f"{pass_name} requires output_scale 1 (rescale first), "
                          f"got {describe_number(net.output_scale)}")
    report = validate(net, alphabet)
    if not report.passed:
        i, r, c, v = report.offender
        raise DomainError(
            f"{pass_name} input must have weights in {alphabet.value}; "
            f"matrix {i} entry ({r},{c}) is {v}"
        )


def _duplicate_body(
    matrices: tuple[WeightMatrix, ...],
    copies: int,
    split,
) -> list[WeightMatrix]:
    """Rewrite each original matrix for `copies`-fold duplicated units.

    Unit u's copies all carry u's pre-activation, so ReLU commutes with
    duplication; each weight w from u to v becomes split(w) spread across
    u's copies, repeated for every copy of v. The final matrix keeps the
    original output units un-duplicated. Each distinct entry object is
    split once, and its parts are shared by every entry it fills.
    """
    out = []
    last = len(matrices) - 1
    for i, mat in enumerate(matrices):
        dup_out = 1 if i == last else copies
        parts = {k: split(e) for k, e in mat._objects.items()}
        entries: list[Fraction] = []
        for r in range(mat.rows):
            row = tuple(itertools.chain.from_iterable(map(parts.__getitem__, map(id, mat.row(r)))))
            entries.extend(row * dup_out)
        out.append(WeightMatrix(mat.rows * dup_out, mat.cols * copies, tuple(entries)))
    return out


def _certificate(
    source: Network,
    target: Network,
    weight_set_out: WeightSet,
    width_factor: int,
    sparsity_bound: int,
) -> LoweringCertificate:
    return LoweringCertificate(
        input_dim=source.input_dim,
        weight_set_out=weight_set_out,
        source_depth=source.depth,
        target_depth=target.depth,
        source_width_max=source.width_max,
        target_width_max=target.width_max,
        source_sparsity=sparsity(source).total_nonzero,
        target_sparsity=sparsity(target).total_nonzero,
        target_sparsity_bound=sparsity_bound,
        target_width_bound=width_factor * source.width_max,
    )


def ternarize(net: Network) -> tuple[Network, LoweringCertificate]:
    """Lower a {0, +-1/2, +-1, 2} ReLU net to {0, +-1/2}, exactly.

    Adds the two-layer duplication prefix and quadruplicates every
    hidden unit; depth grows by exactly 2, the width at most 4x, and the
    nonzero count is bounded by 16*s + 20*(d+1). The result computes the
    same function at every point of [0,1]^d. A depth-0 source has only
    its output matrix, which reads the prefix's copies directly.
    """
    _require_lowerable(net, WeightSet.BASE_A, "ternarize")
    prefix = ternary_prefix(net.input_dim)
    body = _duplicate_body(net.matrices, 4, decompose_ternary)
    lowered = Network(net.input_dim, prefix.matrices + tuple(body), ActivationKind.RELU)
    bound = 16 * sparsity(net).total_nonzero + 20 * (net.input_dim + 1)
    cert = _certificate(net, lowered, WeightSet.TERNARY_HALF, 4, bound)
    return lowered, cert


def binarize(net: Network) -> tuple[Network, LoweringCertificate]:
    """Lower a {0, +-1/2} ReLU net to {+-1/4}, exactly.

    Adds the three-layer duplication prefix and duplicates every hidden
    unit twice; depth grows by exactly 3 and the width at most 8x. Every
    entry of the result is +-1/4 (zeros are realized by cancellation),
    and the function is unchanged on [0,1]^d.
    """
    _require_lowerable(net, WeightSet.TERNARY_HALF, "binarize")
    prefix = binary_prefix(net.input_dim)
    body = _duplicate_body(net.matrices, 2, decompose_binary)
    lowered = Network(net.input_dim, prefix.matrices + tuple(body), ActivationKind.RELU)
    cert = _certificate(
        net, lowered, WeightSet.BINARY_QUARTER, 8,
        sparsity_bound=sum(m.rows * m.cols for m in lowered.matrices),
    )
    return lowered, cert


_UNIT_CONVERSIONS = {
    WeightSet.TERNARY_HALF: (2, WeightSet.TERNARY_UNIT),
    WeightSet.BINARY_QUARTER: (4, WeightSet.BINARY_UNIT),
}


def to_unit_weights(net: Network) -> Network:
    """Rescale a half/quarter-alphabet ReLU net to unit weights.

    Positive homogeneity (relu(a*z) = a*relu(z) for a > 0) lets every
    matrix be multiplied by 2 (ternary) or 4 (binary) while the output
    scale absorbs the inverse factor once per matrix, so the computed
    function is unchanged everywhere.
    """
    if net.activation is not ActivationKind.RELU:
        raise DomainError(
            f"unit-weight conversion requires relu, got {net.activation.value}"
        )
    for alphabet, (factor, _out) in _UNIT_CONVERSIONS.items():
        if validate(net, alphabet).passed:
            k = len(net.matrices)
            return Network(
                net.input_dim,
                tuple(m.scaled_by(factor) for m in net.matrices),
                net.activation,
                net.output_scale * Fraction(1, factor**k),
            )
    raise DomainError(
        "unit-weight conversion needs weights in ternary_half or binary_quarter"
    )


# --- size-bound calculator ---------------------------------------------------


@dataclass(frozen=True)
class TheoremBoundParams:
    """Inputs for the certified-approximator size accounting."""

    m: int
    N: int
    beta: float | Fraction
    d: int
    K: float | Fraction


@dataclass(frozen=True)
class TheoremBoundReport:
    L: int
    p_inf: int
    s_max: int
    error_factor: float
    lowered_ternary: tuple[int, int, int]  # (depth, width, sparsity)
    lowered_binary: tuple[int, int]        # (depth, width)
    rounding: str = ROUNDING_NOTE

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "p_inf": self.p_inf,
            "s_max": self.s_max,
            "error_factor": self.error_factor,
            "lowered_ternary": {
                "depth": self.lowered_ternary[0],
                "width": self.lowered_ternary[1],
                "sparsity": self.lowered_ternary[2],
            },
            "lowered_binary": {
                "depth": self.lowered_binary[0],
                "width": self.lowered_binary[1],
            },
            "rounding": self.rounding,
        }


def theorem_bounds(params: TheoremBoundParams) -> TheoremBoundReport:
    """Depth/width/sparsity accounting for a certified approximator.

    The reported error factor is N*2^-m + N^(-beta/d); the multiplicative
    constant depending on (beta, d, K) is not known in closed form and is
    deliberately not included. The formulas run in binary64 (beta and K
    are converted with float()); parameters that overflow it raise
    DomainError.
    """
    try:
        return _theorem_bounds(params)
    except OverflowError:
        raise DomainError("parameters too large: the bound formulas overflow binary64") from None


def _theorem_bounds(params: TheoremBoundParams) -> TheoremBoundReport:
    m, N, beta, d, K = params.m, params.N, params.beta, params.d, params.K
    require_count("m", m)
    require_count("d", d)
    for name, value in (("beta", beta), ("K", K)):
        if not isinstance(value, (int, float, Fraction)) or not value > 0:  # nan too
            raise DomainError(f"{name} must be positive, got {describe_number(value)}")
    beta, K = float(beta), float(K)
    n_floor = max((beta + 1) ** d, (K + 1) * math.e**d)
    if type(N) is not int or N < n_floor:
        raise DomainError(
            f"N must be an integer >= max((beta+1)^d, (K+1)e^d) = {n_floor:.6g}, "
            f"got {describe_number(N)}"
        )

    log_term = (beta + d) * math.log2(N) + math.log2(K) + d * math.log2(math.e)
    L = 16 + 2 * (m + 5) * (1 + math.ceil(math.log2(max(d, beta)))) + math.ceil(8 * log_term)
    p_first = 2 * (1 + d + (2 * beta) ** d * N + 2 * log_term)
    p_second = 2**d * 6 * (d + math.ceil(beta)) * N
    p_inf = math.ceil(max(p_first, p_second))
    s_max = math.floor(141 * (d + beta + 1) ** (3 + d) * L * p_inf)
    error_factor = N * 2.0 ** (-m) + N ** (-beta / d)
    return TheoremBoundReport(
        L=L,
        p_inf=p_inf,
        s_max=s_max,
        error_factor=error_factor,
        lowered_ternary=(L + 2, 4 * p_inf, 16 * s_max + 20 * (d + 1)),
        lowered_binary=(L + 5, 32 * p_inf),
    )
