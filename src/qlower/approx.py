"""Depth-2 indicator-activation approximators on the unit cube.

The construction partitions [0,1]^d into (M+1)^d congruent half-open
cells, detects the cell of the input with one indicator layer per
threshold, selects it with a second indicator layer, and reads out the
target's value at the cell's representative corner. The resulting
network is exactly piecewise constant, and for a (beta, K)-Hoelder
target its sup error is at most K/(M+1)^beta.

Grid convention: the axis thresholds sit at j/(M+1) for j = 1..M, so
cell m along an axis is [m/(M+1), (m+1)/(M+1)) (the last cell closes at
1) and the representative of a cell is its smallest corner, coordinates
m_i/(M+1). Cells are indexed k = sum_i m_i (M+1)^(i-1).

Boundary semantics: points exactly on a threshold belong to the upper
cell. Evaluation is exact, so it honours this at every threshold; a
value printed as binary64 is rounded only after the cell is found.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .errors import CapacityError, DimensionError, DomainError
from .network import ActivationKind, Network, WeightMatrix
from .rationals import RationalLike, as_rational, format_rational, round_binary64

DEFAULT_SELECTOR_CAP = 10**8
CAP_ENV_VAR = "QLOWER_CAP"

NOTE_CERTIFIED = "certified resolution from the Hoelder constants"
NOTE_USER_M = "user-supplied resolution"
NOTE_RECONSTRUCTED = "reconstructed from a serialized network"

ZERO = Fraction(0)
ONE = Fraction(1)


def selector_cap() -> int:
    """Effective materialization cap; QLOWER_CAP overrides the default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_SELECTOR_CAP
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise DomainError(f"{CAP_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class GridSpec:
    """Uniform partition of [0,1]^d into (M+1)^d half-open cells."""

    d: int
    M: int

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if self.M < 1:
            raise DomainError(f"resolution must be >= 1, got {self.M}")

    @property
    def cell_count(self) -> int:
        return (self.M + 1) ** self.d

    @property
    def spacing(self) -> Fraction:
        return Fraction(1, self.M + 1)

    @cached_property
    def place_values(self) -> tuple[int, ...]:
        """(M+1)^(i-1) for each axis i, so that k = sum_i m_i (M+1)^(i-1)."""
        return tuple((self.M + 1) ** i for i in range(self.d))

    def digit(self, v: Fraction) -> int:
        """Cell digit min(M, floor(v(M+1))) of v in [0, 1], in integers."""
        return min(self.M, v.numerator * (self.M + 1) // v.denominator)

    def cell_coords(self, k: int) -> tuple[int, ...]:
        """Digits (m_1, ..., m_d) of cell k in base M+1, axis 1 first."""
        if not 0 <= k < self.cell_count:
            raise DomainError(f"cell index {k} out of range [0, {self.cell_count})")
        base = self.M + 1
        out = []
        for _ in range(self.d):
            k, m = divmod(k, base)
            out.append(m)
        return tuple(out)

    def cell_index_of(self, coords: Sequence[int]) -> int:
        if len(coords) != self.d:
            raise DomainError(f"{len(coords)} cell digits given, grid expects {self.d}")
        k = 0
        for m, place in zip(coords, self.place_values):
            if not 0 <= m <= self.M:
                raise DomainError(f"cell digit {m} out of range [0, {self.M}]")
            k += m * place
        return k

    def representative(self, k: int) -> tuple[Fraction, ...]:
        """Smallest corner of cell k, coordinates m_i/(M+1)."""
        return tuple(Fraction(m, self.M + 1) for m in self.cell_coords(k))

    def representatives(self) -> Iterator[tuple[int, tuple[Fraction, ...]]]:
        """Every (k, representative(k)) in index order, axis 1 varying fastest.

        The coordinates are shared Fraction(m, M+1) objects, built once per
        digit instead of once per cell."""
        corners = [Fraction(m, self.M + 1) for m in range(self.M + 1)]
        for k, reversed_point in enumerate(itertools.product(corners, repeat=self.d)):
            yield k, reversed_point[::-1]


_EXACT_BITS = 1 << 16  # largest (K/eps)^r that choose_resolution expands
_SEED_BITS = 50  # largest log2 resolution it seeds from a binary64 root


def choose_resolution(K: RationalLike, beta: RationalLike, epsilon: RationalLike) -> int:
    """Certifying grid resolution, M = max(1, ceil((K/eps)^(1/beta))).

    Not always the smallest: K/(M+1)^beta <= eps holds exactly when
    M+1 >= this value, so M one smaller certifies too whenever that is
    still >= 1 (K=1, beta=1, eps=1/10 gives M=10, yet M=9 certifies).
    Exact for every rational beta = p/r: the result is the least N >= 1
    with N^p >= (K/eps)^r. That is decided in integers while (K/eps)^r
    has at most _EXACT_BITS bits; a larger denominator, such as the 2^52
    of a binary64 beta, is decided from logarithms (see _reaches), and
    then a resolution above 2^_SEED_BITS raises DomainError.
    """
    K_ = as_rational(K)
    beta_ = as_rational(beta)
    eps_ = as_rational(epsilon)
    if K_ <= 0 or eps_ <= 0:
        raise DomainError(f"K and epsilon must be positive, got K={K}, epsilon={epsilon}")
    if not 0 < beta_ <= 1:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    p, r = beta_.numerator, beta_.denominator
    q = K_ / eps_
    if q <= 1:
        return 1
    a, b = q.numerator, q.denominator
    if r * a.bit_length() <= _EXACT_BITS:
        # N^p is an integer, so N^p >= (K/eps)^r exactly when N^p >= ceil((K/eps)^r).
        return _ceil_root(-(-(a ** r) // b ** r), p)
    # (K/eps)^r is too large to expand: seed from the binary64 root and
    # decide the boundary from logarithms. N >= K/eps as beta <= 1, so
    # capping q keeps float(q) finite and every q >= 2^(_SEED_BITS+1)
    # still above the limit. A beta that rounds to 0.0 puts N beyond any limit.
    beta_f = float(beta_)
    log2_n = math.log2(min(q, 2 << _SEED_BITS)) / beta_f if beta_f else math.inf
    if log2_n > _SEED_BITS:
        raise DomainError(
            f"resolution too large to compute exactly: (K/eps)^(1/beta) is above "
            f"2^{_SEED_BITS} and (K/eps)^r has over {_EXACT_BITS} bits for "
            f"beta = p/r {f'= {beta_f}' if beta_f else 'below 2^-1074'}")
    n = math.ceil(2.0 ** log2_n)  # the binary64 root, off by at most a few
    while not _reaches(n, q, beta_):
        n += 1
    while n > 1 and _reaches(n - 1, q, beta_):
        n -= 1
    return n


def _ceil_root(c: int, p: int) -> int:
    """Least n >= 1 with n^p >= c, by integer Newton iteration."""
    if c <= 1:
        return 1
    n = 1 << -(-c.bit_length() // p)  # 2^ceil(bits/p) > c^(1/p)
    while True:  # decreases to floor(c^(1/p)) from above
        m = ((p - 1) * n + c // n ** (p - 1)) // p
        if m >= n:
            break
        n = m
    return n if n ** p >= c else n + 1


def _reaches(n: int, q: Fraction, beta: Fraction) -> bool:
    """Whether n^beta >= q, for n >= 1 and n^beta != q.

    Compares p*ln(n) with r*ln(q) for beta = p/r in decimal arithmetic,
    doubling the precision until their difference exceeds a bound on its
    rounding error (each ln is correctly rounded; the bound allows 100
    units in the last place of the largest term). The difference is
    never 0 where choose_resolution calls this: n^p = q^r needs q = m^p
    and n = m^r for an integer m, so n < 2^(_SEED_BITS+1) and r*bits(q)
    > _EXACT_BITS rule it out for q > 1.
    """
    terms = ((beta.numerator, n), (-beta.denominator, q.numerator),
             (beta.denominator, q.denominator))
    prec = 40
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            parts = [Decimal(c) * Decimal(x).ln() for c, x in terms]
            diff = sum(parts)
            if abs(diff) > max(map(abs, parts)) * Decimal(10) ** (3 - prec):
                return diff > 0
        prec *= 2


def cell_index(x: Sequence[RationalLike], grid: GridSpec) -> int:
    """Index of the cell containing x, by exact rational comparison.

    Along each axis, m_i = grid.digit(x_i) counts the thresholds j/(M+1)
    that x_i meets or exceeds. Floats are taken at their exact binary value.
    """
    if len(x) != grid.d:
        raise DomainError(f"point has {len(x)} coordinates, grid expects {grid.d}")
    k = 0
    for i, (raw, place) in enumerate(zip(x, grid.place_values)):
        v = as_rational(raw)
        if not ZERO <= v <= ONE:
            raise DomainError(f"coordinate {i} = {raw} lies outside [0, 1]")
        k += grid.digit(v) * place
    return k


def build_threshold_matrix(grid: GridSpec) -> WeightMatrix:
    """First-layer matrix: one all-zero row (the constant-1 code bit after
    the indicator), then per axis i and threshold j the row computing
    x_i - j/(M+1)."""
    d, M = grid.d, grid.M
    base = M + 1
    rows = [[ZERO] * (d + 1)]
    for i in range(1, d + 1):
        for j in range(1, M + 1):
            row = [ZERO] * (d + 1)
            row[0] = Fraction(-j, base)
            row[i] = ONE
            rows.append(row)
    return WeightMatrix.from_rows(rows)


def check_cap(what: str, unit: str, remedy: str, base: int, exp: int = 1) -> None:
    """Raise CapacityError when `what` needs base**exp `unit`s, more than the cap.

    base**exp >= 2^n for n = exp*floor(log2 base). When 2^n already has
    more decimal digits than sys.get_int_max_str_digits() allows, the
    size is refused as "at least 2^n" without computing base**exp, which
    takes seconds for a hostile exponent (3^(10^7) cells). A computed
    size too long to print is reported by its bit length the same way.
    """
    cap = selector_cap()
    limit = sys.get_int_max_str_digits()
    n = exp * (base.bit_length() - 1)
    if limit and n >= (10**limit).bit_length():
        size = f"at least 2^{n}"
    else:
        size = base**exp
        if size <= cap:
            return
        if limit and size >= 10**limit:
            size = f"at least 2^{size.bit_length() - 1}"
    raise CapacityError(
        f"{what} needs {size} {unit}, over the cap of {cap}; {remedy} or raise {CAP_ENV_VAR}",
        required=size,
        cap=cap,
    )


def selector_fits(grid: GridSpec) -> bool:
    """Whether the grid's (M+1)^d x (dM+1) selector is within the cap."""
    return grid.cell_count * (grid.d * grid.M + 1) <= selector_cap()


def _selector_tail(grid: GridSpec) -> tuple[int, ...]:
    """Columns 1..dM of every selector row: -(M+1)^(i-1) over axis i's block.

    Plain ints, so that comparing parsed Fraction rows against them takes
    Fraction's fast integer path."""
    return tuple(-place for place in grid.place_values for _ in range(grid.M))


def build_selector_matrix(grid: GridSpec) -> WeightMatrix:
    """Second-layer matrix mapping the threshold code to (r - k)_r.

    Row r carries r in the constant column and -(M+1)^(i-1) in every
    column of axis i's threshold block, so the indicator of the result
    is one-hot at the input's cell index. All entries are integers of
    magnitude below (M+1)^d.
    """
    cells = grid.cell_count
    width = grid.d * grid.M + 1
    check_cap("selector matrix", "entries", "evaluate implicitly instead", cells * width)
    tail = tuple(map(Fraction, _selector_tail(grid)))
    entries: list[Fraction] = []
    for r in range(cells):
        entries.append(Fraction(r))
        entries.extend(tail)
    return WeightMatrix(cells, width, tuple(entries))


def bundle_stats(bundle: ApproximatorBundle) -> dict:
    """Depth, width vector, and nonzero count of the network that the two
    builders above and the readout assemble, computed from the grid and
    readout without materializing anything."""
    d, M = bundle.grid.d, bundle.grid.M
    cells = bundle.grid.cell_count
    nnz = 2 * d * M + (cells - 1) + cells * d * M + sum(1 for v in bundle.readout if v)
    return {
        "depth": 2,
        "widths": (d + 1, d * M + 1, cells, 1),
        "sparsity": nnz,
    }


@dataclass(frozen=True)
class HolderFunctionSpec:
    """A target on [0,1]^d with claimed Hoelder data |f(x)-f(y)| <= K|x-y|^beta.

    The claim is trusted here; the harness spot-verifies it by sampling.
    ``beta``, ``K`` and ``F`` accept any RationalLike and are stored as
    exact Fractions. Certificates record them as binary64, so a value
    that rounds to 0 or infinity raises DomainError.
    """

    evaluator: Callable
    d: int
    beta: Fraction
    K: Fraction
    F: Fraction

    def __post_init__(self):
        for name in ("beta", "K", "F"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if not 0 < self.beta <= 1:
            raise DomainError(f"beta must lie in (0, 1], got {self.beta}")
        if self.K <= 0 or self.F <= 0:
            raise DomainError("K and F must be positive")
        for name in ("beta", "K", "F"):
            _check_binary64(name, getattr(self, name))


def _check_binary64(name: str, value: Fraction) -> None:
    """Refuse a positive value that certificates cannot record as binary64."""
    rounded = round_binary64(value)
    if not 0 < rounded < math.inf:
        raise DomainError(
            f"{name} rounds to {rounded} in binary64, so it cannot be recorded; "
            f"give a value within the binary64 range")


def read_target(evaluator: Callable, x: Sequence[Fraction], cell: Optional[int] = None):
    """The target's value at x: a finite float as it is, any other value as
    an exact Fraction. An evaluator that raises, or a value that is not a
    finite rational (nan, an infinity, a bool, None), raises DomainError
    naming the point (and the cell, if given), the error as its cause."""
    try:
        value = evaluator(x)
        return value if type(value) is float and math.isfinite(value) else as_rational(value)
    except Exception as exc:
        where = "" if cell is None else f"cell {cell}, "
        raise DomainError(f"target evaluator failed at {where}point "
                          f"{[format_rational(v) for v in x]}") from exc


def build_readout(f, grid: GridSpec) -> tuple[Fraction, ...]:
    """Target values at all cell representatives, as exact rationals.

    Accepts a HolderFunctionSpec (on the grid's dimension, else
    DimensionError) or a bare callable. Each value is read by read_target,
    whose DomainError names the cell and its representative.
    """
    if isinstance(f, HolderFunctionSpec):
        if f.d != grid.d:
            raise DimensionError(f"target is on [0,1]^{f.d}, the grid on [0,1]^{grid.d}")
        f = f.evaluator
    values = (read_target(f, point, cell=k) for k, point in grid.representatives())
    return tuple(as_rational(v) if type(v) is float else v for v in values)


@dataclass(frozen=True)
class ApproximatorBundle:
    """The approximator as its grid and readout, plus its error certificate.

    The threshold and selector layers follow from the grid alone, so the
    network is derived on first access; it is None when the selector
    would exceed the cap. ``evaluate_implicit`` works either way.
    ``epsilon`` is None for a bundle read back from a network.
    """

    grid: GridSpec
    epsilon: Optional[Fraction]
    readout: tuple[Fraction, ...]
    holder: Optional[HolderFunctionSpec]
    note: str

    @cached_property
    def network(self) -> Optional[Network]:
        if not selector_fits(self.grid):
            return None
        return Network(
            self.grid.d,
            (
                build_threshold_matrix(self.grid),
                build_selector_matrix(self.grid),
                WeightMatrix(1, len(self.readout), self.readout),
            ),
            ActivationKind.INDICATOR01,
        )

    @property
    def certified(self) -> bool:
        """K/(M+1)^beta <= epsilon, i.e. the integer M+1 >= (K/eps)^(1/beta):
        exact whenever choose_resolution is."""
        h = self.holder
        return (h is not None and self.epsilon is not None
                and self.grid.M + 1 >= choose_resolution(h.K, h.beta, self.epsilon))

    @property
    def error_bound(self) -> Optional[float]:
        """K/(M+1)^beta when Hoelder data is attached, else None."""
        if self.holder is None:
            return None
        return float(self.holder.K) / (self.grid.M + 1) ** float(self.holder.beta)

    def certificate_dict(self) -> dict:
        h = self.holder
        return {
            "d": self.grid.d,
            "M": self.grid.M,
            "beta": None if h is None else float(h.beta),
            "K": None if h is None else float(h.K),
            "F": None if h is None else float(h.F),
            "epsilon": None if self.epsilon is None else float(self.epsilon),
            "bound": self.error_bound,
            "certified": self.certified,
            "note": self.note,
            "materialized": selector_fits(self.grid),
        }


def build_approximator(
    f: HolderFunctionSpec,
    epsilon: RationalLike,
    M_override: Optional[int] = None,
) -> ApproximatorBundle:
    """Build the approximator for a Hoelder target at accuracy epsilon.

    The resolution is chosen so that K/(M+1)^beta <= epsilon, which
    certifies the sup-norm error whenever the target really satisfies
    its claimed Hoelder inequality. An explicit M_override skips the
    choice and is recorded in the certificate note. A grid over the cap
    raises CapacityError before the target is evaluated anywhere. An
    epsilon that rounds to 0 or infinity in binary64 raises DomainError.
    """
    eps = as_rational(epsilon)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    _check_binary64("epsilon", eps)
    if M_override is None:
        grid, note = GridSpec(f.d, choose_resolution(f.K, f.beta, eps)), NOTE_CERTIFIED
    else:
        grid, note = GridSpec(f.d, M_override), NOTE_USER_M
    check_cap("readout", "cells", "choose a coarser accuracy", grid.M + 1, grid.d)
    if not selector_fits(grid):
        note += "; selector left implicit (over the materialization cap)"
    return ApproximatorBundle(grid, eps, build_readout(f, grid), f, note)


def evaluate_implicit(bundle: ApproximatorBundle, x: Sequence[RationalLike]) -> Fraction:
    """Look up the exact readout value of x's cell without the selector
    matrix. The cell is resolved by exact comparison on the given
    coordinates, so this agrees with ``evaluate`` on the materialized
    network."""
    return bundle.readout[cell_index(x, bundle.grid)]


def _require_rows(name: str, mat: WeightMatrix, expected: Callable) -> None:
    """Raise DomainError at the first entry of mat that differs from expected(r)."""
    for r in range(mat.rows):
        got, want = mat.row(r), expected(r)
        if got != want:
            c = next(c for c in range(mat.cols) if got[c] != want[c])
            raise DomainError(
                f"{name} entry ({r}, {c}) is {format_rational(got[c])}, expected "
                f"{format_rational(want[c])}: not the canonical approximator construction"
            )


def bundle_from_network(net: Network) -> ApproximatorBundle:
    """Rebuild a bundle (grid and readout) from a materialized network.

    The network must be the depth-2 indicator construction of
    build_approximator: the grid is inferred from the matrix sizes, and
    every threshold and selector entry is checked against its formula,
    so the readout alone determines what the network computes.
    """
    if net.activation is not ActivationKind.INDICATOR01 or len(net.matrices) != 3:
        raise DomainError("not a depth-2 indicator approximator network")
    w, v, u = net.matrices
    d = net.input_dim
    if (w.rows - 1) % d != 0:
        raise DomainError("threshold matrix rows do not match any grid resolution")
    grid = GridSpec(d, (w.rows - 1) // d)
    if v.rows != grid.cell_count or u.rows != 1:
        raise DomainError("selector/readout shapes do not match the inferred grid")
    _require_rows("threshold", w, build_threshold_matrix(grid).row)
    tail = _selector_tail(grid)
    _require_rows("selector", v, lambda r: (r,) + tail)
    readout = tuple(e * net.output_scale for e in u.entries)
    bundle = ApproximatorBundle(grid, None, readout, None, NOTE_RECONSTRUCTED)
    vars(bundle)["network"] = net  # already materialized: seed the cached property
    return bundle
