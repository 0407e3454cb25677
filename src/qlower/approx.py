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
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional

from .errors import CapacityError, DimensionError, DomainError
from .network import ActivationKind, LayerPlan, Network, WeightMatrix, plan_layer
from .rationals import (
    RationalLike, as_rational, describe_number, require_count, round_binary64)

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
        require_count("dimension", self.d)
        require_count("resolution", self.M)

    @property
    def cell_count(self) -> int:
        return (self.M + 1) ** self.d

    @cached_property
    def place_values(self) -> tuple[int, ...]:
        """(M+1)^(i-1) for each axis i, so that k = sum_i m_i (M+1)^(i-1)."""
        return tuple((self.M + 1) ** i for i in range(self.d))

    def digit(self, v: Fraction) -> int:
        """Cell digit min(M, floor(v(M+1))) of v in [0, 1], in integers."""
        return min(self.M, v.numerator * (self.M + 1) // v.denominator)

    def representative(self, k: int) -> tuple[Fraction, ...]:
        """Smallest corner of cell k, coordinates m_i/(M+1) for k's digits m_i in base M+1,
        axis 1 first. A k that is not an int in [0, cell_count) raises DomainError."""
        require_count("cell index", k, least=0)
        if k >= self.cell_count:
            raise DomainError(
                f"cell index {describe_number(k)} out of range [0, {describe_number(self.cell_count)})")
        out = []
        for _ in range(self.d):
            k, m = divmod(k, self.M + 1)
            out.append(Fraction(m, self.M + 1))
        return tuple(out)

    def representatives(self) -> Iterator[tuple[int, tuple[Fraction, ...]]]:
        """Every (k, representative(k)) in index order, axis 1 varying fastest.

        The coordinates are shared Fraction(m, M+1) objects, built once per
        digit instead of once per cell."""
        corners = [Fraction(m, self.M + 1) for m in range(self.M + 1)]
        for k, reversed_point in enumerate(itertools.product(corners, repeat=self.d)):
            yield k, reversed_point[::-1]


_EXACT_BITS = 1 << 16  # largest integer power that the exact comparisons expand
_MAX_BITS = 51  # choose_resolution refuses a resolution above 2^_MAX_BITS off its integer path


def choose_resolution(K: RationalLike, beta: RationalLike, epsilon: RationalLike) -> int:
    """Certifying grid resolution, M = max(1, ceil((K/eps)^(1/beta))).

    Not always the smallest: K/(M+1)^beta <= eps holds exactly when
    M+1 >= this value, so M one smaller certifies too whenever that is
    still >= 1 (K=1, beta=1, eps=1/10 gives M=10, yet M=9 certifies).
    Exact for every rational beta = p/r: the result is the least N >= 1
    with N^p >= (K/eps)^r, found in integers while (K/eps)^r has at most
    _EXACT_BITS bits. Else (the 2^52 denominator of a binary64 beta) it
    bisects by holder_sign between ceil(K/eps), as beta <= 1, and
    2^ceil(e/beta), where K/eps < 2^e, in at most _MAX_BITS + 1 steps; a
    least N above 2^_MAX_BITS raises DomainError.
    """
    K_, beta_, eps_ = map(as_rational, (K, beta, epsilon))
    if K_ <= 0 or eps_ <= 0:
        raise DomainError(f"K and epsilon must be positive, got K={describe_number(K)}, "
                          f"epsilon={describe_number(epsilon)}")
    if not 0 < beta_ <= 1:
        raise DomainError(f"beta must lie in (0, 1], got {describe_number(beta)}")
    p, r = beta_.numerator, beta_.denominator
    q = K_ / eps_
    if q <= 1:
        return 1
    a, b = q.numerator, q.denominator
    if r * a.bit_length() <= _EXACT_BITS:
        # N^p is an integer, so N^p >= (K/eps)^r exactly when N^p >= ceil((K/eps)^r).
        return _ceil_root(-(-(a ** r) // b ** r), p)
    # N = ceil(q) - 1 < q fails, and N = 2^ceil(e*r/p) passes, as q < 2^e;
    # a bound above the limit is capped to 2^_MAX_BITS + 1, assumed to pass.
    log2_hi = -(-(a.bit_length() - b.bit_length() + 1) * r // p)
    lo = -(-a // b) - 1
    hi = 1 << log2_hi if log2_hi <= _MAX_BITS else (1 << _MAX_BITS) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holder_sign(eps_, K_, Fraction(1, mid), beta_) >= 0:
            hi = mid
        else:
            lo = mid
    if hi > 1 << _MAX_BITS:
        raise DomainError(
            f"resolution too large to compute exactly: (K/eps)^(1/beta) is above "
            f"2^{_MAX_BITS} and (K/eps)^r has over {_EXACT_BITS} bits for "
            f"beta = {describe_number(beta_)}")
    return hi


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


def _exact_root(n: int, r: int) -> Optional[int]:
    """n^(1/r) for n >= 0 if it is an integer, else None."""
    m = n if n <= 1 else _ceil_root(n, r) if n.bit_length() > r else None  # else 1 < n^(1/r) < 2
    return m if m is not None and m ** r == n else None


def holder_sign(lhs: Fraction, K: Fraction, t: Fraction, beta: Fraction) -> int:
    """The exact sign (-1, 0 or 1) of lhs - K*t^beta, for lhs >= 0, K > 0,
    t in [0, 1] and beta = p/r in (0, 1].

    A tie makes t^beta = lhs/K rational, so t^(1/r) too (p and r are
    coprime): t = s^r, decided as lhs against K*s^p. Any other t has
    t < t^beta < 1 and is decided by the bracket lhs <= K*t or lhs >= K,
    then by (lhs/K)^r against t^p while that has at most _EXACT_BITS bits,
    else by r*ln(lhs/K) against p*ln(t) in decimal, at a precision doubled
    until their difference, never 0 here, exceeds a bound on its rounding
    error (100 units in the last place of the largest term).
    """
    p, r = beta.numerator, beta.denominator
    u, v = _exact_root(t.numerator, r), _exact_root(t.denominator, r)
    if u is not None and v is not None:
        rhs = K * Fraction(u ** p, v ** p)
        return (lhs > rhs) - (lhs < rhs)
    if lhs <= K * t or lhs >= K:
        return -1 if lhs < K else 1
    ratio = lhs / K
    sizes = (ratio.numerator, ratio.denominator, t.numerator, t.denominator)
    if r * sum(n.bit_length() for n in sizes) <= _EXACT_BITS:
        return 1 if ratio ** r > t ** p else -1
    terms = ((r, ratio.numerator), (-r, ratio.denominator), (-p, t.numerator), (p, t.denominator))
    prec = 40
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            parts = [Decimal(c) * Decimal(x).ln() for c, x in terms]
            diff = sum(parts)
            if abs(diff) > max(map(abs, parts)) * Decimal(10) ** (3 - prec):
                return 1 if diff > 0 else -1
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
            raise DomainError(f"coordinate {i} = {describe_number(raw)} lies outside [0, 1]")
        k += grid.digit(v) * place
    return k


def _threshold_row(grid: GridSpec, r: int) -> tuple[Fraction, ...]:
    """Row r of the threshold matrix: all zero for r = 0 (the constant-1
    code bit after the indicator), then x_i - j/(M+1) for r = (i-1)M + j."""
    row = [ZERO] * (grid.d + 1)
    if r:
        i, j = divmod(r - 1, grid.M)
        row[0], row[i + 1] = Fraction(-j - 1, grid.M + 1), ONE
    return tuple(row)


def build_threshold_matrix(grid: GridSpec) -> WeightMatrix:
    """First-layer matrix, rows ``_threshold_row`` r = 0..dM. More than QLOWER_CAP
    entries, (dM+1)(d+1), raise CapacityError before any row is built."""
    rows = grid.d * grid.M + 1
    check_cap("threshold matrix", "entries", "choose a coarser grid", rows * (grid.d + 1))
    return WeightMatrix.from_rows([_threshold_row(grid, r) for r in range(rows)])


def check_cap(what: str, unit: str, remedy: str, base: int, exp: int = 1, factor: int = 1) -> None:
    """Raise CapacityError when `what` needs factor*base**exp `unit`s, more than the cap.

    That size is >= 2^n for n = exp*floor(log2 base) + floor(log2 factor).
    When 2^n already has more decimal digits than sys.get_int_max_str_digits()
    allows, the size is refused as "at least 2^n" without computing base**exp,
    which takes seconds for a hostile exponent (3^(10^7) cells). A computed
    size too long to print is reported by its bit length the same way.
    """
    cap = selector_cap()
    if exp * base.bit_length() + factor.bit_length() < cap.bit_length():
        return  # size < 2^(exp*bits + factor bits) <= cap, decided without 10**limit
    limit = sys.get_int_max_str_digits()
    n = exp * (base.bit_length() - 1) + factor.bit_length() - 1
    if limit and n >= (10**limit).bit_length():
        size = f"at least 2^{describe_number(n)}"
    else:
        size = factor * base**exp
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

    Plain ints: they are the one shared part of the selector's plan."""
    return tuple(-place for place in grid.place_values for _ in range(grid.M))


class _SelectorEntries(Sequence):
    """The selector's entries, row-major, derived from the grid: row r is
    (r, tail). It equals, and hashes as, the tuple of its entries. Reads
    return the same objects: the shared tail Fractions, and Fraction(r)
    from a list built on the first read of column 0 and stored by
    setdefault, so that concurrent first reads agree on it."""

    def __init__(self, grid: GridSpec):
        self._cells, self._cols = grid.cell_count, grid.d * grid.M + 1
        self._tail = tuple(map(Fraction, _selector_tail(grid)))

    @property
    def _heads(self) -> list[Fraction]:
        return vars(self).get("heads") or vars(self).setdefault(
            "heads", [Fraction(r) for r in range(self._cells)])

    def __len__(self) -> int:
        return self._cells * self._cols

    def __getitem__(self, key):
        index = range(len(self))[key]  # negative indices, IndexError, slices
        r, c = divmod(index if isinstance(index, int) else index.start, self._cols)
        if isinstance(index, int):
            return self._tail[c - 1] if c else self._heads[r]
        if index.step == 1 and c == 0 and len(index) == self._cols:  # a row, in O(cols)
            return (self._heads[r],) + self._tail
        return tuple(map(self.__getitem__, index))

    def __iter__(self) -> Iterator[Fraction]:
        rows = map(tuple.__add__, zip(self._heads), itertools.repeat(self._tail))
        return itertools.chain.from_iterable(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _SelectorEntries)):
            return NotImplemented
        return len(other) == len(self) and all(self[i:i + self._cols] == other[i:i + self._cols]
                                               for i in range(0, len(self), self._cols))

    def __hash__(self) -> int:
        return hash(tuple(self))


def build_selector_matrix(grid: GridSpec) -> WeightMatrix:
    """Second-layer matrix mapping the threshold code to (r - k)_r.

    Row r carries r in the constant column and -(M+1)^(i-1) in every
    column of axis i's threshold block, so the indicator of the result
    is one-hot at the input's cell index. All entries are integers of
    magnitude below (M+1)^d. ``entries`` derives them from the grid; the
    cap still bounds their count, which the writer and ``validate`` walk;
    it is checked before (M+1)^d is computed.
    """
    width = grid.d * grid.M + 1
    check_cap("selector matrix", "entries", "evaluate implicitly instead",
              grid.M + 1, grid.d, width)
    return WeightMatrix(grid.cell_count, width, _SelectorEntries(grid))


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

    The claim is trusted here. ``check_holder`` spot-checks a claim by
    sampling; the built-in targets' claims are decided by the test suite.
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
        require_count("dimension", self.d)
        if not 0 < self.beta <= 1:
            raise DomainError(f"beta must lie in (0, 1], got {describe_number(self.beta)}")
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
                          f"{[describe_number(v) for v in x]}") from exc


def build_readout(f, grid: GridSpec) -> tuple[Fraction, ...]:
    """Target values at all cell representatives, as exact rationals.

    Accepts a HolderFunctionSpec (on the grid's dimension, else
    DimensionError) or a bare callable. Each value is read by read_target,
    whose DomainError names the cell and its representative. Each distinct
    float value becomes one Fraction, shared by every cell that has it.
    More than QLOWER_CAP cells raise CapacityError before the target is
    read anywhere.
    """
    if isinstance(f, HolderFunctionSpec):
        if f.d != grid.d:
            raise DimensionError(f"target is on [0,1]^{f.d}, the grid on [0,1]^{grid.d}")
        f = f.evaluator
    check_cap("readout", "cells", "choose a coarser accuracy", grid.M + 1, grid.d)
    exact: dict[float, Fraction] = {}  # 0.0 and -0.0 are one key, both 0
    values = []
    for k, point in grid.representatives():
        v = read_target(f, point, cell=k)
        if type(v) is float:
            r = exact.get(v)
            if r is None:
                r = exact[v] = as_rational(v)
            v = r
        values.append(v)
    return tuple(values)


@dataclass(frozen=True)
class ApproximatorBundle:
    """The approximator as its grid and readout, plus its error certificate.

    The threshold and selector layers follow from the grid alone, so the
    network is derived on first access (None when the selector would
    exceed the cap), and the selector's entries are a view of the grid.
    Its evaluation plan is seeded too: the selector layer's from the grid,
    as one group (``_selector_tail`` with the constants 0..cells-1),
    and the threshold and readout layers' by ``plan_layer``.
    ``evaluate_implicit`` works either way.
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
        threshold = build_threshold_matrix(self.grid)
        readout = WeightMatrix(1, len(self.readout), self.readout)
        net = Network(self.grid.d, (threshold, build_selector_matrix(self.grid), readout),
                      ActivationKind.INDICATOR01)
        # No two threshold or selector rows are equal, and plan_layer keeps
        # their order, so no layer merges units. Selector row r is (r, tail)
        # in integers already: one group, as plan_layer would find it.
        selector = LayerPlan(1, ((_selector_tail(self.grid), range(self.grid.cell_count)),), None)
        vars(net)["_plan"] = (plan_layer(threshold, None), selector, plan_layer(readout, None))
        return net

    @property
    def certified(self) -> bool:
        """K/(M+1)^beta <= epsilon, decided exactly by holder_sign for any
        M, beta, K and epsilon."""
        h = self.holder
        return (h is not None and self.epsilon is not None
                and holder_sign(self.epsilon, h.K, Fraction(1, self.grid.M + 1), h.beta) >= 0)

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
    choice and is recorded in the certificate note. build_readout refuses
    a grid over the cap with CapacityError before it reads the target. An
    epsilon that rounds to 0 or infinity in binary64 raises DomainError.
    """
    eps = as_rational(epsilon)
    if eps <= 0:
        raise DomainError(f"epsilon must be positive, got {describe_number(epsilon)}")
    _check_binary64("epsilon", eps)
    if M_override is None:
        grid, note = GridSpec(f.d, choose_resolution(f.K, f.beta, eps)), NOTE_CERTIFIED
    else:
        grid, note = GridSpec(f.d, M_override), NOTE_USER_M
    readout = build_readout(f, grid)  # first: it checks the cell count, selector_fits computes it
    if not selector_fits(grid):
        note += "; selector left implicit (over the materialization cap)"
    return ApproximatorBundle(grid, eps, readout, f, note)


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
                f"{name} entry ({r}, {c}) is {describe_number(got[c])}, expected "
                f"{describe_number(want[c])}: not the canonical approximator construction"
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
    _require_rows("threshold", w, lambda r: _threshold_row(grid, r))
    tail = _selector_tail(grid)
    if v.row(0)[1:] == tail:  # rows that share row 0's objects then compare
        tail = v.row(0)[1:]   # by identity, without a Fraction.__eq__ per entry
    _require_rows("selector", v, lambda r: (r,) + tail)
    readout = u.scaled_by(net.output_scale).entries
    bundle = ApproximatorBundle(grid, None, readout, None, NOTE_RECONSTRUCTED)
    vars(bundle)["network"] = net  # already materialized: seed the cached property
    return bundle
