"""Command-line interface.

Subcommands: ``integrate`` (apply a rule), ``bounds`` (error-bound
report), ``kernel`` (sample the error kernels to CSV), ``converge``
(grid-refinement study) and ``compare`` (Simpson vs corrected rule).

Exit codes: 0 success, 1 usage error, 2 evaluation or convergence error.
Reversed limits (a > b) are normalized by swapping and negating before
anything reaches the library; a zero-width interval short-circuits to
zero integrals and zero bounds.
"""

from __future__ import annotations

import argparse
import math
import json
import re
import sys
from typing import Sequence, TextIO

from .bounds import (
    DerivativeRange,
    composite_bound_k6,
    composite_bounds,
    estimate_derivative_range,
    secant_slope,
)
from .errors import InvalidRangeError, MsquadError, ParseError
from .integrand import Integrand, Interval, UniformGrid
from .jets import expression_integrand
from .kernels import KERNEL_ORDERS, kernel_eval
from .reference import compare_rules, convergence_study, reference_integral
from .rules import COMPOSITE_RULES, Rule, corrected_midpoint_panel, midpoint_panel

_FORMATS = ("table", "csv", "json")
_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_EVAL = 2


class _UsageError(Exception):
    pass


# What argparse takes for a negative number rather than an option, so that
# ``-a -1e-3`` works like ``-a -1``; the pattern it ships (Python 3.11)
# has no exponent form.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="msquad",
        description="Endpoint-corrected Simpson quadrature and its error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expr = _ArgumentParser(add_help=False)
    expr.add_argument("--f", required=True, help="integrand expression in x")
    expr.add_argument(
        "--df",
        help="expression overriding the first derivative (higher orders still "
        "come from automatic differentiation)",
    )

    limits = _ArgumentParser(add_help=False)
    limits.add_argument("-a", type=float, required=True, help="lower limit")
    limits.add_argument("-b", type=float, required=True, help="upper limit")

    fmt = _ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=_FORMATS, default="table")

    p = sub.add_parser("integrate", parents=[expr, limits, fmt],
                       help="integrate with one of the four rules")
    p.add_argument("--rule", choices=[r.value for r in Rule],
                   default=Rule.MODIFIED_SIMPSON.value)
    p.add_argument("-n", type=int, default=8, help="pair count (composite rules)")
    p.add_argument("--reference", action="store_true",
                   help="also report the reference value and the true error")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="tolerance for the reference integral")

    p = sub.add_parser("bounds", parents=[expr, limits, fmt],
                       help="error-bound report for the corrected rule")
    p.add_argument("-k", type=int, choices=range(2, 7), required=True,
                   help="derivative order the bound is based on")
    p.add_argument("-n", type=int, default=8, help="pair count")
    p.add_argument("--lower", type=float,
                   help="rigorous lower bound for f^(k) on [a, b]")
    p.add_argument("--upper", type=float,
                   help="rigorous upper bound for f^(k) on [a, b]")
    p.add_argument("--samples", type=int, default=129,
                   help="sample count for the range estimator")
    p.add_argument("--safety", type=float, default=1.05,
                   help="bracket inflation factor for estimated ranges")

    p = sub.add_parser("kernel", parents=[fmt],
                       help="sample the error kernels on [0, 1]")
    p.add_argument("-k", type=int, choices=range(2, 7),
                   help="dump a single kernel instead of all five")
    p.add_argument("--samples", type=int, default=101)

    p = sub.add_parser("converge", parents=[expr, limits, fmt],
                       help="grid-refinement study for one composite rule")
    p.add_argument("--rule", choices=[r.value for r in COMPOSITE_RULES],
                   default=Rule.MODIFIED_SIMPSON.value)
    p.add_argument("--n-list", default="2,4,8,16,32,64",
                   help="comma-separated pair counts, strictly increasing")

    p = sub.add_parser("compare", parents=[expr, limits, fmt],
                       help="Simpson vs corrected rule on identical grids")
    p.add_argument("--n-list", default="2,4,8,16,32,64")

    return parser


# -- output helpers ----------------------------------------------------------


def _cell(value: object) -> str:
    """Byte-stable cell text: shortest round-trip floats, blank for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table_cell(value: object) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _emit_record(payload: dict, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True), file=out)
    elif fmt == "csv":
        _emit_grid(list(payload), [list(payload.values())], fmt, out)
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key:<{width}}  {_table_cell(value)}", file=out)


def _emit_grid(
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    fmt: str,
    out: TextIO,
    trailers: Sequence[tuple[str, object]] = (),
) -> None:
    if fmt == "json":
        payload = {
            "columns": list(columns),
            "rows": [list(r) for r in rows],
            **{k: v for k, v in trailers},
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    elif fmt == "csv":
        print(",".join(columns), file=out)
        for row in rows:
            print(",".join(_cell(v) for v in row), file=out)
        for key, value in trailers:
            print(f"{key},{_cell(value)}", file=out)
    else:
        cells = [[_table_cell(v) for v in row] for row in rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(columns)
        ]
        print("  ".join(c.ljust(w) for c, w in zip(columns, widths)), file=out)
        for row in cells:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)
        for key, value in trailers:
            print(f"{key}  {_table_cell(value)}", file=out)


# -- argument plumbing -------------------------------------------------------


def _integrand(args: argparse.Namespace) -> Integrand:
    try:
        return expression_integrand(args.f, args.df)
    except ParseError as exc:
        # --f is parsed first, so text equal to --f failed as --f
        flag = "--f" if exc.text == args.f else "--df"
        raise _UsageError(f"{flag}: {exc}") from exc


def _normalized_limits(args: argparse.Namespace) -> tuple[Interval | None, float]:
    """Return (interval, orientation sign); interval is None when a == b."""
    if args.a == args.b and math.isfinite(args.a):
        return None, 1.0
    try:
        if args.a < args.b:
            return Interval(args.a, args.b), 1.0
        return Interval(args.b, args.a), -1.0
    except ValueError as exc:  # non-finite limits or an overflowing width
        raise _UsageError(f"-a/-b: {exc}") from exc


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"--n-list: {exc}") from exc
    if not ns or any(n < 1 for n in ns):
        raise _UsageError("--n-list: need positive pair counts")
    if any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
        raise _UsageError("--n-list: pair counts must be strictly increasing")
    return ns


# -- subcommands -------------------------------------------------------------


def _cmd_integrate(args: argparse.Namespace, out: TextIO) -> int:
    f = _integrand(args)
    rule = Rule(args.rule)
    if args.n < 1:
        raise _UsageError(f"-n: pair count must be >= 1, got {args.n}")
    iv, sign = _normalized_limits(args)

    payload: dict[str, object] = {
        "rule": rule.value,
        "a": args.a,
        "b": args.b,
        "n_pairs": args.n,
    }
    if iv is None:
        payload.update({"h": 0.0, "value": 0.0, "leading_error_estimate": 0.0})
        if args.reference:
            payload.update({"reference_value": 0.0, "reference_abs_error": 0.0})
        _emit_record(payload, args.format, out)
        return _EXIT_OK

    estimate: float | None = None
    if rule is Rule.MIDPOINT:
        value = midpoint_panel(f, iv)
        payload["n_pairs"] = 1
    elif rule is Rule.CORRECTED_MIDPOINT:
        value = corrected_midpoint_panel(f, iv)
        payload["n_pairs"] = 1
    else:
        grid = UniformGrid(iv, args.n)
        result = COMPOSITE_RULES[rule](f, grid)
        value = result.value
        if result.leading_error_estimate is not None:
            estimate = sign * result.leading_error_estimate
        payload["h"] = grid.h

    payload["value"] = sign * value
    payload["leading_error_estimate"] = estimate
    if args.reference:
        try:
            ref = reference_integral(f, iv, args.tol)
        except ValueError as exc:  # the tolerance limit
            raise _UsageError(f"--tol: {exc}") from exc
        payload["reference_value"] = sign * ref.value
        payload["reference_abs_error"] = abs(sign * value - sign * ref.value)
    _emit_record(payload, args.format, out)
    return _EXIT_OK


def _cmd_bounds(args: argparse.Namespace, out: TextIO) -> int:
    f = _integrand(args)
    if args.n < 1:
        raise _UsageError(f"-n: pair count must be >= 1, got {args.n}")
    if (args.lower is None) != (args.upper is None):
        raise _UsageError("--lower and --upper must be given together")
    iv, _ = _normalized_limits(args)
    k = args.k

    if iv is None:
        payload: dict[str, object] = {
            "k": k, "a": args.a, "b": args.b, "n_pairs": args.n, "h": 0.0,
            "range_lower": 0.0, "range_upper": 0.0,
            "range_provenance": "user-supplied",
        }
        fields = ("sup_f6", "bound") if k == 6 else (
            "secant", "range_bound", "lower_gap_bound", "upper_gap_bound", "peano_classic",
            "best")
        payload.update(dict.fromkeys(fields, 0.0), rigorous=True)
        _emit_record(payload, args.format, out)
        return _EXIT_OK

    grid = UniformGrid(iv, args.n)
    if args.lower is not None:
        if not (math.isfinite(args.lower) and math.isfinite(args.upper)):
            raise _UsageError("--lower and --upper must be finite")
        if args.lower > args.upper:
            raise _UsageError("--lower must not exceed --upper")
        rng = DerivativeRange(k=k, lower=args.lower, upper=args.upper,
                              provenance="user-supplied")
    else:
        try:
            rng = estimate_derivative_range(
                f, k, iv, n_samples=args.samples, safety=args.safety
            )
        except ValueError as exc:  # the --samples and --safety limits
            raise _UsageError(str(exc)) from exc

    payload = {
        "k": k,
        "a": args.a,
        "b": args.b,
        "n_pairs": args.n,
        "h": grid.h,
        "range_lower": rng.lower,
        "range_upper": rng.upper,
        "range_provenance": rng.provenance,
    }
    if k == 6:
        payload["sup_f6"] = rng.sup_abs
        payload["bound"] = composite_bound_k6(rng.sup_abs, grid.h, iv.width)
        payload["rigorous"] = rng.rigorous
    else:
        slope = secant_slope(f, k - 1, iv)
        report = composite_bounds(k, rng, slope, grid.h, iv.width)
        payload.update({
            "secant": slope.value,
            "range_bound": report.range_bound,
            "lower_gap_bound": report.lower_gap_bound,
            "upper_gap_bound": report.upper_gap_bound,
            "peano_classic": report.peano_classic,
            "best": report.best,
            "rigorous": report.rigorous,
        })
    _emit_record(payload, args.format, out)
    return _EXIT_OK


def _cmd_kernel(args: argparse.Namespace, out: TextIO) -> int:
    if args.samples < 2:
        raise _UsageError(f"--samples: need at least 2, got {args.samples}")
    orders = (args.k,) if args.k is not None else KERNEL_ORDERS
    columns = ["x"] + [f"T_{k}" for k in orders]
    rows = []
    for i in range(args.samples):
        x = i / (args.samples - 1)
        rows.append([x] + [kernel_eval(k, x) for k in orders])
    _emit_grid(columns, rows, args.format, out)
    return _EXIT_OK


def _cmd_converge(args: argparse.Namespace, out: TextIO) -> int:
    f = _integrand(args)
    n_list = _parse_n_list(args.n_list)
    iv, _ = _normalized_limits(args)
    if iv is None:
        raise _UsageError("-a/-b: a convergence study needs a non-empty interval")
    table = convergence_study(Rule(args.rule), f, iv, n_list)
    rows = [[r.h, r.approx, r.abs_error] for r in table.rows]
    _emit_grid(
        ["h", "approx", "abs_error"],
        rows,
        args.format,
        out,
        trailers=[("fitted_order", table.fitted_order)],
    )
    return _EXIT_OK


def _cmd_compare(args: argparse.Namespace, out: TextIO) -> int:
    f = _integrand(args)
    n_list = _parse_n_list(args.n_list)
    iv, _ = _normalized_limits(args)
    if iv is None:
        raise _UsageError("-a/-b: a rule comparison needs a non-empty interval")
    cmp = compare_rules(f, iv, n_list)
    rows = []
    for rs, rm, ratio in zip(cmp.simpson.rows, cmp.modified.rows, cmp.error_ratios):
        ratio_out = ratio if math.isfinite(ratio) else None  # JSON null, CSV empty
        rows.append([rs.h, rs.approx, rs.abs_error, rm.approx, rm.abs_error, ratio_out])
    _emit_grid(
        ["h", "simpson", "simpson_abs_error", "msimpson", "msimpson_abs_error",
         "error_ratio"],
        rows,
        args.format,
        out,
        trailers=[
            ("fitted_order_simpson", cmp.simpson.fitted_order),
            ("fitted_order_msimpson", cmp.modified.fitted_order),
        ],
    )
    return _EXIT_OK


_COMMANDS = {
    "integrate": _cmd_integrate,
    "bounds": _cmd_bounds,
    "kernel": _cmd_kernel,
    "converge": _cmd_converge,
    "compare": _cmd_compare,
}


def run(
    argv: Sequence[str] | None = None,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Parse ``argv`` and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except (_UsageError, InvalidRangeError) as exc:
        print(f"msquad: error: {exc}", file=err)
        return _EXIT_USAGE
    except MsquadError as exc:
        print(f"msquad: error: {exc}", file=err)
        return _EXIT_EVAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
