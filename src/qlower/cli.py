"""Command-line front end for batch use of the toolchain.

Each subcommand returns one JSON payload, which ``main`` prints to stdout
(``--pretty`` indents it), and the message of a failed check, if any.
Errors and failed checks are reported as one JSON line on stderr. Exit
codes: 0 success, 1 validation or check failure, 2 usage error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional, Sequence

from .approx import build_approximator, bundle_from_network, evaluate_implicit
from .errors import DomainError, QlowerError
from .harness import (
    builtin_target,
    check_holder,
    equivalence_check,
    report_rows,
    write_report_csv,
)
from .lowering import (
    TheoremBoundParams,
    binarize,
    ternarize,
    theorem_bounds,
    to_unit_weights,
)
from .network import WeightSet, evaluate, load_network, save_network, validate
from .rationals import as_rational, format_rational, round_binary64


def _rational_arg(text: str):
    try:
        return as_rational(text)
    except QlowerError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _split_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, allow_nan=False)
        fh.write("\n")


def _emit_error(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for field in ("required", "cap", "layer", "location"):
        if getattr(exc, field, None) is not None:
            payload[field] = getattr(exc, field)
    print(json.dumps(payload, allow_nan=False), file=sys.stderr)


def _default_cert_path(out_path: str) -> str:
    return out_path.removesuffix(".json") + ".cert.json"


def _mode(args) -> str:
    """How values print: exact rationals, or binary64 (``--float``)."""
    return "float" if args.float_mode else "exact"


# ---------------------------------------------------------------------------
# Subcommands: each returns its stdout payload and the message of a failed
# check (exit 1), or None.


def cmd_approx(args):
    overrides = {k: getattr(args, k) for k in ("beta", "K", "F") if getattr(args, k) is not None}
    spec = dataclasses.replace(builtin_target(args.target, args.d), **overrides)
    # Build from the claimed constants first: an over-cap grid raises
    # CapacityError here, before the spot-check of user-supplied
    # constants, which takes seconds in high d.
    bundle = build_approximator(spec, args.eps, M_override=args.M)
    if overrides:
        check_holder(spec, name=args.target)
    materialized = bundle.network is not None
    if materialized:
        save_network(bundle.network, args.out)
    cert_path = args.cert or _default_cert_path(args.out)
    _write_json(cert_path, bundle.certificate_dict())
    payload = {
        "command": "approx",
        "target": args.target,
        "d": args.d,
        "M": bundle.grid.M,
        "cells": bundle.grid.cell_count,
        "epsilon": float(args.eps),
        "bound": bundle.error_bound,
        "certified": bundle.certified,
        "materialized": materialized,
        "network": args.out if materialized else None,
        "certificate": cert_path,
    }
    if bundle.certified:
        return payload, None
    return payload, f"resolution M={bundle.grid.M} does not certify eps={float(args.eps)}"


def cmd_lower(args):
    net = load_network(args.infile)
    via_ternary = False
    if args.mode == "ternary":
        lowered, cert = ternarize(net)
    elif validate(net, WeightSet.TERNARY_HALF).passed:
        lowered, cert = binarize(net)
    else:
        middle, _ = ternarize(net)
        lowered, cert = binarize(middle)
        via_ternary = True
    save_network(lowered, args.out)
    cert_path = args.cert or _default_cert_path(args.out)
    _write_json(cert_path, cert.to_dict())
    payload = {
        "command": "lower",
        "mode": args.mode,
        "via_ternary": via_ternary,
        "in": args.infile,
        "out": args.out,
        "certificate": cert_path,
        **cert.to_dict(),
    }
    return payload, None if cert.passed else "lowering certificate bounds violated"


def cmd_rescale(args):
    net = load_network(args.infile)
    # The source alphabet decides the label: a zero-free binary result
    # also satisfies the ternary unit alphabet, so testing the output
    # would misreport it.
    src_ternary = validate(net, WeightSet.TERNARY_HALF).passed
    unit = to_unit_weights(net)
    save_network(unit, args.out)
    out_set = WeightSet.TERNARY_UNIT if src_ternary else WeightSet.BINARY_UNIT
    payload = {
        "command": "rescale",
        "to": args.to,
        "in": args.infile,
        "out": args.out,
        "weight_set": out_set.value,
        "output_scale": format_rational(unit.output_scale),
    }
    return payload, None


def _render_value(value, mode: str):
    """An exact value (or tuple of them) as JSON: rational text, or its
    binary64 rounding, with "inf" or "-inf" beyond range (JSON has none)."""
    if isinstance(value, tuple):
        return [_render_value(v, mode) for v in value]
    if mode == "exact":
        return format_rational(value)
    value = round_binary64(value)
    return value if math.isfinite(value) else str(value)


def cmd_eval(args):
    net = load_network(args.net)
    x = tuple(as_rational(tok) for tok in _split_list(args.x))
    value = evaluate_implicit(bundle_from_network(net), x) if args.implicit else evaluate(net, x)
    mode = _mode(args)
    payload = {"command": "eval", "mode": mode, "implicit": args.implicit,
               "value": _render_value(value, mode)}
    return payload, None


def cmd_equiv(args):
    a = load_network(args.a)
    b = load_network(args.b)
    report = equivalence_check(
        a, b, n_samples=args.samples, seed=args.seed, tolerance=args.tolerance)
    mode = _mode(args)
    first = report.first_divergence
    if first is not None:
        # --float rounds each output, except where a's and b's binary64 texts
        # agree: both print exact, so outputs that differ never read alike.
        rounded = {k: [str(round_binary64(v)) for v in first[k]] for k in ("a", "b")}
        exact = [mode == "exact" or p == q for p, q in zip(rounded["a"], rounded["b"])]
        first = {"point": list(map(format_rational, first["point"])), **{
            k: [format_rational(v) if e else r for v, r, e in zip(first[k], rounded[k], exact)]
            for k in ("a", "b")}}
    diff = report.max_abs_diff  # a float already, inf beyond binary64 (JSON has none)
    payload = {"command": "equiv", "input_dim": a.input_dim,
               "samples": args.samples, "mode": mode, "equivalent": report.equivalent,
               "max_abs_diff": diff if math.isfinite(diff) else str(diff),
               "first_divergence": first}
    if report.equivalent:
        return payload, None
    return payload, f"networks differ (max |diff| = {report.max_abs_diff})"


def cmd_bounds(args):
    params = TheoremBoundParams(m=args.m, N=args.N, beta=args.beta, d=args.d, K=args.K)
    return {"command": "bounds", **theorem_bounds(params).to_dict()}, None


def cmd_report(args):
    dims = []
    for tok in _split_list(args.dims):
        try:
            dims.append(int(tok))
        except ValueError:
            raise DomainError(f"dimension must be an integer, got {tok!r}") from None
    eps_list = [as_rational(tok) for tok in _split_list(args.eps_list)]
    if not dims or not eps_list:
        raise DomainError("need at least one dimension and one epsilon")
    names = _split_list(args.targets) if args.targets else None
    rows = report_rows(dims, eps_list, names, n_per_axis=args.grid)
    write_report_csv(args.csv, rows)
    all_passed = all(row["pass"] for row in rows)
    payload = {"command": "report", "rows": len(rows), "csv": args.csv,
               "all_passed": all_passed}
    return payload, None if all_passed else "one or more rows exceeded their bound"


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pretty", action="store_true",
                   help="indent the JSON output")


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true",
                       help="print exact rationals (default)")
    group.add_argument("--float", dest="float_mode", action="store_true",
                       help="print the exact result rounded to 64-bit floats")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlower",
        description="Exact construction, lowering, and evaluation of "
                    "quantized feedforward networks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="command")

    p = sub.add_parser("approx",
                       help="build a certified piecewise-constant approximator")
    p.add_argument("--target", required=True,
                   help="built-in target: const, mean, maxcoord, root")
    p.add_argument("--d", type=_positive_int, required=True,
                   help="input dimension")
    p.add_argument("--beta", type=_rational_arg, help="override the exponent")
    p.add_argument("--K", type=_rational_arg, help="override the constant")
    p.add_argument("--F", type=_rational_arg, help="override the sup bound")
    p.add_argument("--eps", type=_rational_arg, required=True,
                   help="target sup accuracy")
    p.add_argument("--M", type=_positive_int,
                   help="explicit grid resolution (skips the certified choice)")
    p.add_argument("--out", required=True, help="network JSON path")
    p.add_argument("--cert", help="certificate path (default: next to --out)")
    _add_common(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("lower", help="lower a network to a smaller alphabet")
    p.add_argument("--mode", required=True, choices=("ternary", "binary"))
    p.add_argument("--in", dest="infile", required=True, help="input network")
    p.add_argument("--out", required=True, help="output network")
    p.add_argument("--cert", help="certificate path (default: next to --out)")
    _add_common(p)
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("rescale", help="rescale weights to a unit alphabet")
    p.add_argument("--to", required=True, choices=("unit",))
    p.add_argument("--in", dest="infile", required=True, help="input network")
    p.add_argument("--out", required=True, help="output network")
    _add_common(p)
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("eval", help="evaluate a network at a point")
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--x", required=True,
                   help='comma-separated coordinates; rationals like "3/10" allowed; '
                        'write a point that starts with "-" as --x=-1,3')
    p.add_argument("--implicit", action="store_true",
                   help="evaluate an approximator by cell lookup")
    _add_mode_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("equiv", help="compare two networks on seeded samples")
    p.add_argument("--a", required=True, help="first network")
    p.add_argument("--b", required=True, help="second network")
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--tolerance", type=_rational_arg, default=0)
    _add_mode_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("bounds", help="size bounds for a certified approximator")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--beta", type=_rational_arg, required=True)
    p.add_argument("--K", type=_rational_arg, required=True)
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("report", help="sup-error CSV over built-in targets")
    p.add_argument("--targets", help="comma-separated names (default: all)")
    p.add_argument("--eps-list", required=True, dest="eps_list",
                   help="comma-separated accuracies")
    p.add_argument("--dims", default="1", help="comma-separated dimensions")
    p.add_argument("--grid", type=_positive_int, default=101,
                   help="scan points per axis")
    p.add_argument("--csv", required=True, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        payload, failure = args.func(args)
    except QlowerError as exc:
        _emit_error(exc)
        return 1
    except OSError as exc:
        _emit_error(exc)
        return 3
    print(json.dumps(payload, indent=1 if args.pretty else None, allow_nan=False))
    if failure is None:
        return 0
    _emit_error(DomainError(failure))
    return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
