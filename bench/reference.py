"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls qlower. Networks are read either from the public fields
of a network object (``input_dim``, ``matrices[i].rows/cols/entries``,
``activation``, ``output_scale``) or from the JSON file format, and are
evaluated by the textbook formula in plain ``Fraction`` arithmetic. Grid
approximators are checked through integer cell digits and the targets'
definitions, never through qlower's lookup or readout.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

QUARTER = Fraction(1, 4)


# --- networks ----------------------------------------------------------------


def plain_network(net) -> tuple:
    """(input_dim, activation name, output scale, [(rows, cols, entries)])."""
    return (
        net.input_dim,
        net.activation.value,
        Fraction(net.output_scale),
        [(m.rows, m.cols, tuple(m.entries)) for m in net.matrices],
    )


def network_from_json(payload: dict) -> tuple:
    """The same tuple as ``plain_network``, read from the file format."""
    mats = [
        (m["rows"], m["cols"], tuple(Fraction(e) for e in m["entries"]))
        for m in payload["matrices"]
    ]
    return (
        payload["input_dim"],
        payload["activation"],
        Fraction(payload.get("output_scale", "1")),
        mats,
    )


def evaluate(plain: tuple, x) -> list[Fraction]:
    """f(x) = scale * W_L act(... act(W_0 (1, x))) in plain Fractions."""
    input_dim, activation, scale, mats = plain
    if len(x) != input_dim:
        raise ValueError(f"point has {len(x)} coordinates, network expects {input_dim}")
    values = [Fraction(1)] + [Fraction(v) for v in x]
    last = len(mats) - 1
    for i, (rows, cols, entries) in enumerate(mats):
        values = [
            sum((entries[r * cols + c] * values[c] for c in range(cols)), Fraction(0))
            for r in range(rows)
        ]
        if i < last:
            if activation == "relu":
                values = [v if v > 0 else Fraction(0) for v in values]
            elif activation == "indicator01":
                values = [Fraction(1) if 0 <= v < 1 else Fraction(0) for v in values]
            else:
                raise ValueError(f"reference has no activation {activation!r}")
    return [v * scale for v in values]


def is_binary_quarter(plain: tuple) -> bool:
    """Every entry is exactly +1/4 or -1/4 (no zeros)."""
    return all(e in (QUARTER, -QUARTER) for _, _, entries in plain[3] for e in entries)


def depth(plain: tuple) -> int:
    return len(plain[3]) - 1


def matrix_profiles(plain: tuple) -> list[dict]:
    """Per matrix: rows, cols, distinct rows, and the bit length of the
    running common denominator that exact evaluation carries out of it, for
    an integer input point.

    Each matrix multiplies the denominator by the lcm of its entry
    denominators; ReLU keeps it, the indicator resets it to 1.
    """
    _, activation, _, mats = plain
    profiles, den = [], 1
    for rows, cols, entries in mats:
        den *= math.lcm(*(e.denominator for e in entries))
        profiles.append({
            "rows": rows,
            "cols": cols,
            "distinct_rows": len({entries[r * cols:(r + 1) * cols] for r in range(rows)}),
            "den_bits": den.bit_length(),
        })
        if activation == "indicator01":
            den = 1
    return profiles


# --- grid approximators --------------------------------------------------------


def cell_digit(v: Fraction, M: int) -> int:
    """min(M, floor(v * (M+1))) for v in [0, 1], in integers."""
    if not 0 <= v <= 1:
        raise ValueError(f"coordinate {v} lies outside [0, 1]")
    return min(M, v.numerator * (M + 1) // v.denominator)


def target_value(name: str, x) -> Fraction:
    """The built-in targets by their definitions. ``root`` is defined in
    binary64 (sqrt of the correctly rounded max coordinate), so its exact
    value is that of the float."""
    if name == "mean":
        return sum(x, Fraction(0)) / len(x)
    if name == "maxcoord":
        return max(x)
    if name == "root":
        return Fraction(math.sqrt(float(max(x))))
    raise ValueError(f"no reference for target {name!r}")


def approximator_value(name: str, x, M: int) -> Fraction:
    """Output of the grid approximator at x: the target at the smallest
    corner of x's cell."""
    return target_value(name, [Fraction(cell_digit(v, M), M + 1) for v in x])


def approximation_error(name: str, x, M: int) -> Fraction:
    return abs(target_value(name, x) - approximator_value(name, x, M))


def sup_error_scan(name: str, d: int, M: int, n_per_axis: int) -> Fraction:
    """Exact maximum error over the uniform scan grid and every cell corner."""
    axis = [Fraction(i, n_per_axis - 1) for i in range(n_per_axis)]
    worst = Fraction(0)
    for x in itertools.product(axis, repeat=d):
        worst = max(worst, approximation_error(name, x, M))
    corners = [Fraction(m, M + 1) for m in range(M + 1)]
    for x in itertools.product(corners, repeat=d):
        worst = max(worst, approximation_error(name, x, M))
    return worst


def ceil_fraction(q: Fraction) -> int:
    return -(-q.numerator // q.denominator)


def _inverse_exponent(beta: Fraction) -> int:
    inv = 1 / beta
    if inv.denominator != 1:
        raise ValueError(f"1/beta must be an integer, got beta={beta}")
    return inv.numerator


def certified_resolution(K: Fraction, beta: Fraction, epsilon: Fraction) -> int:
    """M = max(1, ceil((K/eps)^(1/beta))) in integers."""
    return max(1, ceil_fraction((K / epsilon) ** _inverse_exponent(beta)))


def within_holder_bound(err: Fraction, K: Fraction, beta: Fraction, M: int) -> bool:
    """err <= K / (M+1)^beta, decided exactly: err^n (M+1) <= K^n, n = 1/beta."""
    n = _inverse_exponent(beta)
    return err ** n * (M + 1) <= K ** n


def certifies(K: Fraction, beta: Fraction, epsilon: Fraction, M: int) -> bool:
    """K / (M+1)^beta <= eps, decided exactly: (K/eps)^n <= M+1, n = 1/beta."""
    n = _inverse_exponent(beta)
    return (K / epsilon) ** n <= M + 1
