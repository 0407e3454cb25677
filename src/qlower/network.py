"""Feedforward networks with exact rational weights.

A network of depth L is the composition

    f(x) = output_scale * W_L . act o W_{L-1} . ... . act o W_0 . (1, x)

where the activation acts coordinate-wise after every matrix except the
last, and the constant coordinate 1 prepended to the input stands in for
shift vectors. Networks are immutable; evaluation, validation, counting,
and serialization are pure functions, so any number of concurrent
readers is safe.

Exact evaluation never touches floats. One loop, ``forward_integers``,
computes each layer in integers over a running common denominator, which
avoids per-operation gcd reduction and is exact for arbitrary rational
weights and inputs. ``evaluate`` and ``forward_trace`` wrap it with one
point. ``harness.equivalence_check`` calls it directly on up to 128
integer points at once, which run through each layer together: each
unit holds one integer whose fixed-width lanes are the points' values,
so a row takes one dot product for all of them, and the activation acts
on every lane by bit masks. The lane width comes from an exact bound on
every value a lane takes, so no lane carries into its neighbour.

It runs on a row-quotient plan that each network builds once, on first
use, in one pass over each matrix's rows. Units whose rows are identical
compute identical values, so every layer keeps only its distinct rows,
and the next layer sums the columns of the units it merged as it reads
each row, before the row is compared. The lowering passes duplicate
every hidden unit, so a lowered net shrinks back to about its source's
widths. A distinct row is a constant, column 0, and a part, the other
columns: the plan holds each distinct part once, as a group with one
constant per row that has it, and takes its dot product once per point.
Every selector row of an approximator is ``(r, tail)``, so ``approx``
derives its entries from the grid as they are read, and seeds its plan
as one group. Outputs are expanded back to one value per unit, as are
``forward_trace``'s layers, so the plan changes no value.

Each matrix finds its distinct entry objects once (``by_id``), on first
use, and keeps them. The plan, ``validate``, the nonzero count,
``scaled_by``, the writer and the lowering's unit duplication read them,
so they work once per distinct entry object, not once per entry, and
equal entries that share one object share one integer in the plan. Both
the plan and the lowering read a repeat of the previous row's objects once.

Every result is exact; a caller that wants binary64 rounds it once, with
``rationals.round_binary64``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import is_, mul
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DimensionError, ParseError
from .rationals import (
    RationalLike, as_rational, describe_number, format_rational, lcm_denominators, require_count)

FORMAT_VERSION = 1

ZERO = Fraction(0)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class ActivationKind(str, Enum):
    """Coordinate-wise activation applied after every non-final matrix."""

    RELU = "relu"                  # max(0, z)
    INDICATOR01 = "indicator01"    # 1 if 0 <= z < 1 else 0


class WeightSet(str, Enum):
    """Admissible weight alphabets; membership tests are exact."""

    UNRESTRICTED = "unrestricted"
    BASE_A = "baseA"                  # {0, +-1/2, +-1, 2}
    TERNARY_HALF = "ternary_half"     # {0, +-1/2}
    TERNARY_UNIT = "ternary_unit"     # {0, +-1}
    BINARY_QUARTER = "binary_quarter" # {+-1/4}
    BINARY_UNIT = "binary_unit"       # {+-1}

    def members(self) -> frozenset[Fraction] | None:
        """The finite alphabet, or None for the unrestricted set."""
        return _WEIGHT_SET_MEMBERS[self]


_WEIGHT_SET_MEMBERS: dict[WeightSet, frozenset[Fraction] | None] = {
    WeightSet.UNRESTRICTED: None,
    WeightSet.BASE_A: frozenset({ZERO, HALF, -HALF, Fraction(1), Fraction(-1), Fraction(2)}),
    WeightSet.TERNARY_HALF: frozenset({ZERO, HALF, -HALF}),
    WeightSet.TERNARY_UNIT: frozenset({ZERO, Fraction(1), Fraction(-1)}),
    WeightSet.BINARY_QUARTER: frozenset({QUARTER, -QUARTER}),
    WeightSet.BINARY_UNIT: frozenset({Fraction(1), Fraction(-1)}),
}


@dataclass(frozen=True)
class WeightMatrix:
    """Dense rational matrix; entries row-major, in lowest terms: a tuple, or
    for an approximator's selector a read-only view of its grid (approx.py)."""

    rows: int
    cols: int
    entries: Sequence[Fraction]

    def __post_init__(self):
        require_count("rows", self.rows)
        require_count("cols", self.cols)
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{describe_number(self.rows)}x{describe_number(self.cols)} matrix needs "
                f"{describe_number(self.rows * self.cols)} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "WeightMatrix":
        if not rows:
            raise DimensionError("matrix needs at least one row")
        ncols = len(rows[0])
        flat: list[Fraction] = []
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionError(f"row {r} has {len(row)} entries, expected {ncols}")
            flat.extend(as_rational(v) for v in row)
        return cls(len(rows), ncols, tuple(flat))

    def row(self, r: int) -> tuple[Fraction, ...]:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    @cached_property
    def _objects(self) -> dict[int, Fraction]:
        """``by_id(self.entries)``, found once, on first use. Its keys are
        ids, valid only while these entries live: pickling leaves it out.
        An entry that is not a Fraction or an int (a bool is not) raises
        ParseError, so every reader of the entries refuses it."""
        objects = by_id(self.entries)
        if not set(map(type, objects.values())) <= {Fraction, int}:
            bad = next(e for e in objects.values() if type(e) not in (Fraction, int))
            raise ParseError(f"entry must be a Fraction or an int, got {bad!r}")
        return objects

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_objects", None)
        return state

    def scaled_by(self, factor: RationalLike) -> "WeightMatrix":
        f = as_rational(factor)
        scaled = {k: e * f for k, e in self._objects.items()}
        entries = tuple(map(scaled.__getitem__, map(id, self.entries)))
        return WeightMatrix(self.rows, self.cols, entries)

    def nonzero_count(self) -> int:
        objects = self._objects
        if all(objects.values()):
            return len(self.entries)
        return sum(n for k, n in Counter(map(id, self.entries)).items() if objects[k])


@dataclass(frozen=True)
class Network:
    """Immutable network: matrices, activation, and an output scale.

    The output scale is bookkeeping for rescaled weight alphabets; it
    multiplies the final linear output and is ignored by alphabet
    validation.
    """

    input_dim: int
    matrices: tuple[WeightMatrix, ...]
    activation: ActivationKind
    output_scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        object.__setattr__(self, "output_scale", as_rational(self.output_scale))
        require_count("input_dim", self.input_dim)
        if not self.matrices:
            raise DimensionError("network needs at least one matrix")
        if self.matrices[0].cols != self.input_dim + 1:
            raise DimensionError(
                f"layer 0 has {describe_number(self.matrices[0].cols)} columns, expected "
                f"input_dim+1 = {describe_number(self.input_dim + 1)}",
                layer=0,
            )
        for i in range(len(self.matrices) - 1):
            if self.matrices[i + 1].cols != self.matrices[i].rows:
                raise DimensionError(
                    f"layer {i + 1} has {describe_number(self.matrices[i + 1].cols)} columns "
                    f"but layer {i} emits {describe_number(self.matrices[i].rows)} units",
                    layer=i + 1,
                )

    @property
    def depth(self) -> int:
        """Number of activation applications."""
        return len(self.matrices) - 1

    @property
    def width_vector(self) -> tuple[int, ...]:
        """(p_0, ..., p_{L+1}) with p_0 = input_dim + 1."""
        return (self.matrices[0].cols,) + tuple(m.rows for m in self.matrices)

    @property
    def width_max(self) -> int:
        return max(self.width_vector)

    @property
    def output_dim(self) -> int:
        return self.matrices[-1].rows

    @cached_property
    def _plan(self) -> tuple[LayerPlan, ...]:
        """The row-quotient plan that exact evaluation runs on."""
        plan, merged = [], None
        for mat in self.matrices:
            plan.append(plan_layer(mat, merged))
            merged = plan[-1].gather
        return tuple(plan)


class LayerPlan(NamedTuple):
    """One matrix of a network's exact-evaluation plan.

    The matrix times ``scale`` (the lcm of its denominators) is read in
    integers over the distinct units of the previous layer. Each of its
    distinct rows is a constant, column 0, and a part, the other columns.
    ``groups`` holds each distinct part once, in the order it first
    appears, as ``(part, constants)``: the rows ``(c, *part)`` for c in
    constants, in the order each first appears with that part. The plan
    computes each group's rows in order; ``gather[u]`` is the index of unit
    u's value in that order, and ``gather`` is None when that order is the
    units' own.
    """

    scale: int
    groups: tuple[tuple[tuple[int, ...], Sequence[int]], ...]
    gather: tuple[int, ...] | None


def by_id(values: Sequence) -> dict[int, object]:
    """The distinct objects of ``values``, keyed by ``id``, in order of first
    appearance. The caller keeps ``values`` alive while it uses the keys.
    A ``WeightMatrix`` finds its own once and keeps them."""
    return dict(zip(map(id, values), values))


def plan_layer(mat: WeightMatrix, merged: tuple[int, ...] | None) -> LayerPlan:
    """Plan one matrix whose input units map to distinct values by ``merged``
    (None when the input units are all distinct), in one pass over its rows.
    Each row is read in integers, its merged columns summed, and filed under
    its part, its constant placed in that group on first appearance, so
    rows that share a part are never held in full. A row of the previous
    row's objects reuses that row's unit: the lowering writes each row 2, 4
    or 8 times in a row, and the reader shares repeats. Rows are compared
    by identity, so no ``Fraction.__eq__`` runs."""
    objects = mat._objects
    scale = lcm_denominators(objects.values())
    scaled = {k: e.numerator * (scale // e.denominator) for k, e in objects.items()}
    width = None if merged is None else max(merged) + 1
    groups: dict[tuple[int, ...], dict[int, int]] = {}  # part -> {constant: place in group}
    units: list[tuple[dict[int, int], int]] = []  # (group, place) of each row
    entries, cols, prev = mat.entries, mat.cols, ()
    for i in range(0, len(entries), cols):
        row = entries[i:i + cols]
        if not (prev and all(map(is_, row, prev))):
            prev = row
            if merged is None:
                constant, part = scaled[id(row[0])], tuple(map(scaled.__getitem__, map(id, row[1:])))
            else:
                summed = [0] * width
                for j, k in zip(merged, map(id, row)):
                    summed[j] += scaled[k]
                constant, part = summed[0], tuple(summed[1:])
            group = groups.setdefault(part, {})
            unit = group, group.setdefault(constant, len(group))
        units.append(unit)
    start, offset = {}, 0
    for group in groups.values():
        start[id(group)], offset = offset, offset + len(group)
    gather = tuple(start[id(group)] + place for group, place in units)
    return LayerPlan(scale, tuple((part, tuple(group)) for part, group in groups.items()),
                     None if gather == tuple(range(mat.rows)) else gather)


@dataclass(frozen=True)
class SparsityReport:
    total_nonzero: int
    per_matrix: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    weight_set: WeightSet
    offender: tuple[int, int, int, str] | None  # (matrix, row, col, value)

    def __bool__(self) -> bool:
        return self.passed


def forward_integers(net: Network, points: Sequence[Sequence[int]], den: int,
                     trace: list | None = None):
    """Run the net on each point p/den of ``points``, where den > 0 and
    each p holds input_dim integer numerators: the one evaluation loop.

    Returns a list with one tuple of output numerators per point, one per
    output unit with the output scale applied, and their one positive
    denominator. Each layer works on integers over a running common
    denominator, one value per distinct unit of the plan; the constant
    coordinate enters as den. Each group's part takes one dot product
    with nums[1:], and each of its rows adds its constant times nums[0].

    One point runs on plain integers, with the activation fused into the
    row sums. Two or more run together, packed into lanes (``_Lanes``):
    each unit holds one integer whose B-bit lanes are the points' values,
    so a row takes one dot product for every point, and the activation
    acts on every lane at once by bit masks. B comes from an exact bound
    on every value a lane takes, so a unit of L points takes L·B bits.
    ``trace``, when given, receives each hidden layer's values as
    Fractions, one per unit; it needs a single point.
    """
    if trace is not None and len(points) != 1:
        raise ValueError("forward_integers traces a single point")
    plan = net._plan
    relu = net.activation is ActivationKind.RELU
    if len(points) > 1:
        columns = list(zip(*points))
        lanes = _Lanes(net, columns, den)
        nums = lanes.pack(columns, den)
    else:
        lanes, nums = None, [den, *points[0]]
    for layer in plan[:-1]:
        den *= layer.scale
        n0, rest = nums[0], nums[1:]
        if lanes:
            nums = lanes.activate((s + c * n0 for part, constants in layer.groups
                                   for s in (sum(map(mul, part, rest)),) for c in constants),
                                  relu, den)
        elif relu:
            nums = [v if (v := s + c * n0) > 0 else 0 for part, constants in layer.groups
                    for s in (sum(map(mul, part, rest)),) for c in constants]
        else:
            nums = [1 if 0 <= s + c * n0 < den else 0 for part, constants in layer.groups
                    for s in (sum(map(mul, part, rest)),) for c in constants]
        if not relu:
            den = 1
        if trace is not None:
            trace.append(_expand([Fraction(n, den) for n in nums], layer.gather))
    last, k, n0, rest = plan[-1], net.output_scale.numerator, nums[0], nums[1:]
    out = [(s + c * n0) * k for part, constants in last.groups
           for s in (sum(map(mul, part, rest)),) for c in constants]
    den *= last.scale * net.output_scale.denominator
    if lanes:
        return list(zip(*_expand(list(map(lanes.unpack, out)), last.gather))), den
    return [_expand(out, last.gather)], den


class _Lanes:
    """Several points' values of a unit, packed side by side in one integer.

    Point s's value v sits in bits [B·s, B·s + B) of P = Σ v_s·2^(B·s).
    P is a signed sum, and the borrows between lanes are harmless, since
    the rows act on P linearly. Every lane value that is packed, compared
    or unpacked lies in (-2^(B-1), 2^(B-1)), so P + H, with
    H = 2^(B-1) per lane, has each lane in [0, 2^B) with no carry between
    lanes, and bit B-1 of a lane is set exactly where v >= 0.

    B is the bit length of a bound on every such value, plus 2, rounded
    up to a byte. The bound starts at the inputs' largest |value| and is
    multiplied, layer by layer, by the plan's largest row l1 norm (the
    largest Σ|part| + max|constant| of a group), and on the last layer by the
    output scale's numerator. An indicator layer compares s and s - den,
    so it counts max(bound, den), and its output is at most 1. The +2
    keeps |s - den| <= 2·max(bound, den) < 2^(B-1).
    """

    def __init__(self, net: Network, columns: list[tuple[int, ...]], den: int):
        relu = net.activation is ActivationKind.RELU
        top = bound = max(den, max(map(max, columns)), -min(map(min, columns)))
        *hidden, last = net._plan
        for layer in hidden:
            bound *= _row_norm(layer)
            if relu:
                top = max(top, bound)
            else:
                top = max(top, bound, den * layer.scale)
                bound = den = 1
        top = max(top, bound * _row_norm(last) * abs(net.output_scale.numerator))
        self.size = (top.bit_length() + 2 + 7) // 8  # bytes per lane
        self.count = len(columns[0])
        self.sign = 8 * self.size - 1  # B - 1
        self.ones = int.from_bytes((b"\1" + bytes(self.size - 1)) * self.count, "little")
        self.offset = self.ones << self.sign  # H

    def pack(self, columns: list[tuple[int, ...]], den: int) -> list[int]:
        """The input units: the constant den, then one per coordinate."""
        size, half = self.size, 1 << self.sign
        return [den * self.ones, *(
            int.from_bytes(b"".join([(v + half).to_bytes(size, "little") for v in column]),
                           "little") - self.offset
            for column in columns)]

    def activate(self, sums: Iterable[int], relu: bool, den: int) -> list[int]:
        """ReLU, or the indicator 0 <= s < den, of every lane of each sum.
        ``sums`` may be a generator, so no list of them is held."""
        ones, offset, sign = self.ones, self.offset, self.sign
        if relu:
            mask, out = (2 << sign) - 1, []
            for s in sums:
                t = s + offset
                pos = (t >> sign) & ones
                out.append((t & pos * mask) - (pos << sign))
            return out
        # the lanes with s >= 0, less those with s - den >= 0 (den > 0)
        below = offset - den * ones
        return [((s + offset) >> sign & ones) ^ ((s + below) >> sign & ones) for s in sums]

    def unpack(self, packed: int) -> list[int]:
        """The lane values of one unit, in point order."""
        size, half = self.size, 1 << self.sign
        data = (packed + self.offset).to_bytes(size * self.count, "little")
        return [int.from_bytes(data[i:i + size], "little") - half
                for i in range(0, len(data), size)]


def _row_norm(layer: LayerPlan) -> int:
    """The largest l1 norm of the layer's rows."""
    return max(sum(map(abs, part)) + max(map(abs, constants)) for part, constants in layer.groups)


def _expand(values: list, gather: tuple[int, ...] | None) -> tuple:
    return tuple(values) if gather is None else tuple(map(values.__getitem__, gather))


def _forward(net: Network, x: Sequence[RationalLike], trace: list | None = None):
    if len(x) != net.input_dim:
        raise DimensionError(
            f"input has {len(x)} coordinates, network expects {net.input_dim}", layer=0)
    xs = [as_rational(v) for v in x]
    den = lcm_denominators(xs)
    (nums,), den = forward_integers(
        net, [[f.numerator * (den // f.denominator) for f in xs]], den, trace)
    out = tuple(Fraction(n, den) for n in nums)
    return out[0] if len(out) == 1 else out


def evaluate(net: Network, x: Sequence[RationalLike]):
    """Evaluate the network at x exactly: a Fraction when the output has
    one unit, else a tuple of them.

    All arithmetic is in rationals (floats in x are taken at their exact
    binary value), so the half-open indicator threshold holds at every
    boundary point. Inputs outside [0,1]^d are evaluated by the same
    formula, but the lowering and approximation guarantees elsewhere in
    this package only cover the unit cube.
    """
    return _forward(net, x)


def forward_trace(net: Network, x: Sequence[RationalLike]):
    """Return (exact post-activation tuples per hidden layer, output).

    The output collapses to a scalar for one-unit outputs, as in
    ``evaluate``.
    """
    trace: list[tuple[Fraction, ...]] = []
    return trace, _forward(net, x, trace)


def validate(net: Network, weight_set: WeightSet) -> ValidationReport:
    """Check that every matrix entry lies in the alphabet (exact equality).

    The output scale is exempt: it is bookkeeping, not a weight.
    """
    members = weight_set.members()
    if members is None:
        return ValidationReport(True, weight_set, None)
    for i, mat in enumerate(net.matrices):
        if all(e in members for e in mat._objects.values()):
            continue
        idx, e = next((j, e) for j, e in enumerate(mat.entries) if e not in members)
        r, c = divmod(idx, mat.cols)
        return ValidationReport(False, weight_set, (i, r, c, describe_number(e)))
    return ValidationReport(True, weight_set, None)


def sparsity(net: Network) -> SparsityReport:
    """Count exactly-nonzero weights, per matrix and in total."""
    per = tuple(m.nonzero_count() for m in net.matrices)
    return SparsityReport(sum(per), per)


# --- serialization -----------------------------------------------------------
#
# UTF-8 JSON, one object per network, in the layout json.dumps(..., indent=1)
# gives:
#   {"format_version": 1, "input_dim": d, "activation": "relu",
#    "output_scale": "p/q",
#    "matrices": [{"rows": r, "cols": c, "entries": ["p/q", ...]}, ...]}
# Entries are row-major; the writer always emits lowest terms. It formats
# each distinct entry object once and writes the layout itself: entry
# strings match -?\d+(/\d+)? and need no escaping. The reader parses each
# distinct entry string of a file once and shares the value among its
# repeats; a bad entry still reports its own path.


def serialize(net: Network) -> bytes:
    text: dict[int, str] = {}
    matrices = []
    for m in net.matrices:
        for k, e in m._objects.items():
            if k not in text:
                text[k] = format_rational(e)
        entries = '",\n    "'.join(map(text.__getitem__, map(id, m.entries)))
        matrices.append(
            f'  {{\n   "rows": {m.rows},\n   "cols": {m.cols},\n'
            f'   "entries": [\n    "{entries}"\n   ]\n  }}'
        )
    return (
        f'{{\n "format_version": {FORMAT_VERSION},\n "input_dim": {net.input_dim},\n'
        f' "activation": {json.dumps(net.activation.value)},\n'
        f' "output_scale": "{format_rational(net.output_scale)}",\n'
        f' "matrices": [\n' + ",\n".join(matrices) + '\n ]\n}\n'
    ).encode("utf-8")


def _expect(payload: dict, key: str, types, location: str):
    if key not in payload:
        raise ParseError(f"missing key {key!r}", location=location)
    value = payload[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"key {key!r} has wrong type {type(value).__name__}", location=location)
    return value


def _parse_entry(raw, location: str) -> Fraction:
    if isinstance(raw, str):  # the common case first: entries are written as strings
        try:
            return as_rational(raw)
        except ParseError as exc:
            raise ParseError(str(exc), location=location) from exc
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    raise ParseError(f"entry must be a rational string or integer, got {raw!r}", location=location)


def _parse_entries(raw: list, location: str, parsed: dict[str, Fraction]) -> tuple[Fraction, ...]:
    """One matrix's entries. ``parsed`` maps each string entry parsed so far
    in the file to its value, so a repeated string is parsed and checked
    once. A string that fails raises before it is stored, so every bad
    entry reports its own index. Entries of any other type (integers, and
    the values ``_parse_entry`` refuses) are parsed each time. The tuple
    is built as the entries are read, with no list before it, so a large
    matrix is held once."""

    def values():
        for j, e in enumerate(raw):
            if type(e) is str:
                value = parsed.get(e)
                if value is None:
                    value = parsed[e] = _parse_entry(e, f"{location}.entries[{j}]")
            else:
                value = _parse_entry(e, f"{location}.entries[{j}]")
            yield value

    return tuple(values())


def network_from_dict(payload: dict, location: str = "$") -> Network:
    if not isinstance(payload, dict):
        raise ParseError("network payload must be a JSON object", location=location)
    version = _expect(payload, "format_version", int, location)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}", location=location)
    input_dim = _expect(payload, "input_dim", int, location)
    act_raw = _expect(payload, "activation", str, location)
    try:
        activation = ActivationKind(act_raw)
    except ValueError:
        raise ParseError(f"unknown activation {act_raw!r}", location=f"{location}.activation") from None
    scale = _parse_entry(payload.get("output_scale", "1"), f"{location}.output_scale")
    mats_raw = _expect(payload, "matrices", list, location)
    parsed: dict[str, Fraction] = {}
    matrices = []
    for i, m in enumerate(mats_raw):
        loc = f"{location}.matrices[{i}]"
        if not isinstance(m, dict):
            raise ParseError("matrix must be a JSON object", location=loc)
        rows = _expect(m, "rows", int, loc)
        cols = _expect(m, "cols", int, loc)
        entries_raw = _expect(m, "entries", list, loc)
        if rows < 1 or cols < 1:
            raise DimensionError(
                f"matrix {i} declares {rows}x{cols}; its shape must be positive", layer=i)
        if len(entries_raw) != rows * cols:
            raise DimensionError(
                f"matrix {i} declares {rows}x{cols} but carries {len(entries_raw)} entries",
                layer=i,
            )
        matrices.append(WeightMatrix(rows, cols, _parse_entries(entries_raw, loc, parsed)))
    return Network(input_dim, tuple(matrices), activation, scale)


def _json_payload(data: Union[bytes, str, None], path=None):
    """The JSON value of ``data``, or of the file at ``path`` when data is
    None. The file is read here, so its bytes die as they are decoded and
    its text as this returns: no frame holds either while the payload is
    read, on any Python version."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")  # the bytes die here, unless the caller holds them
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc.reason}", location=f"byte {exc.start}") from None
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", location=f"line {exc.lineno} col {exc.colno}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer longer than int(str) accepts
        raise ParseError(f"invalid JSON: {exc}") from None


def deserialize(data: Union[bytes, str]) -> Network:
    payload = _json_payload(data)
    del data  # the text or bytes, before the payload is read
    return network_from_dict(payload)


def load_network(path) -> Network:
    return network_from_dict(_json_payload(None, path))


def save_network(net: Network, path) -> None:
    """Write serialize(net) to path; a net it refuses leaves no file."""
    data = serialize(net)
    with open(path, "wb") as fh:
        fh.write(data)
