"""Expected results from the mpmath oracle, and the check of each op.

``expect(op)`` computes what an op must produce; ``check(op, result,
expected)`` returns ``None`` when the result passes and otherwise the
reason it fails.  An op also fails when it raised or when a repeat gave a
different result; the worker reports both.

Tolerances (stated once, here):

- integral values: ``INTEGRAL_RTOL * max(1, integral |f|)`` from the
  mpmath integral (composite ops, CLI ``integrate --reference``);
- rule values at small pair counts: ``RULE_RTOL * max(1, integral |f|)``
  from the same rule summed at 30 digits;
- the study reference value: ``REFERENCE_RTOL * max(1, integral |f|)``;
- derivative-based numbers (secant, leading-error estimate):
  ``DERIV_RTOL`` relative to the mp.diff values that form them;
- a bound report is valid when the true rule error (30-digit rule value
  minus mpmath integral) does not exceed its ``best`` (``bound`` for
  k = 6), and its range contains the true extrema of f^(k);
- Peano kernels: ``KERNEL_RTOL`` times the kernel's sup norm.
"""

from __future__ import annotations

import csv
import io
import json
import math

import oracle

INTEGRAL_RTOL = 1e-9
RULE_RTOL = 1e-11
REFERENCE_RTOL = 1e-12
DERIV_RTOL = 1e-7
KERNEL_RTOL = 1e-9
FIT_ATOL = 0.01  # fitted order against the slope of the true errors (seen: 1e-4)


def expect(op: dict) -> dict:
    kind = op["kind"]
    if kind == "cli":
        return _expect_cli(op["check"])
    if kind == "composite":
        return _expect_composite(op)
    if kind == "bounds":
        return _expect_bounds(op["f"], op["a"], op["b"], op["k"], op["n"])
    return _expect_study(op["f"], op["a"], op["b"], op["n_list"],
                         ("simpson", "msimpson") if kind == "compare" else (op["rule"],))


def _expect_composite(op: dict) -> dict:
    value, absval = oracle.integral(op["f"], op["a"], op["b"])
    out = {"integral": value, "scale": max(1.0, absval)}
    if op["rule"] == "msimpson":
        out["estimate"] = oracle.leading_estimate(op["f"], op["a"], op["b"], op["n"])
    return out


def _expect_bounds(text: str, a: float, b: float, k: int, n: int) -> dict:
    out = {
        "true_error": oracle.rule_error(text, a, b, "msimpson", n),
        "extrema": oracle.derivative_extrema(text, a, b)[k],
        "estimate": oracle.leading_estimate(text, a, b, n),
    }
    if k < 6:
        da, db = oracle.derivative(text, a, k - 1), oracle.derivative(text, b, k - 1)
        out["secant"] = (db - da) / (b - a)
        out["secant_scale"] = (abs(da) + abs(db)) / (b - a)
    return out


def _expect_study(text: str, a: float, b: float, n_list: list[int], rules) -> dict:
    value, absval = oracle.integral(text, a, b)
    return {
        "integral": value,
        "scale": max(1.0, absval),
        "rules": {r: [oracle.rule_value(text, a, b, r, n) for n in n_list] for r in rules},
        "errors": {r: [oracle.rule_error(text, a, b, r, n) for n in n_list] for r in rules},
    }


def _expect_cli(c: dict) -> dict:
    cmd = c["cmd"]
    if cmd == "integrate":
        value, absval = oracle.integral(c["f"], c["a"], c["b"])
        n = c["n"] if c["rule"] in ("simpson", "msimpson") else 1
        out = {"integral": value, "scale": max(1.0, absval),
               "rule": oracle.rule_value(c["f"], c["a"], c["b"], c["rule"], n)}
        if c["rule"] == "msimpson":
            out["estimate"] = oracle.leading_estimate(c["f"], c["a"], c["b"], n)
        return out
    if cmd == "bounds":
        return _expect_bounds(c["f"], c["a"], c["b"], c["k"], c["n"])
    if cmd == "kernel":
        ks = [c["k"]] if c["k"] is not None else [2, 3, 4, 5, 6]
        m = c["samples"]
        return {"ks": ks, "xs": [i / (m - 1) for i in range(m)],
                "values": {k: [oracle.peano_kernel(k, i / (m - 1)) for i in range(m)]
                           for k in ks},
                "scales": {k: oracle.kernel_scale(k) for k in ks}}
    if cmd in ("converge", "compare"):
        rules = (c["rule"],) if cmd == "converge" else ("simpson", "msimpson")
        return _expect_study(c["f"], c["a"], c["b"], c["n_list"], rules)
    return {}


# -- checks ------------------------------------------------------------------


def _close(got, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def check(op: dict, result: dict, exp: dict) -> str | None:
    if "error" in result:
        return f"raised {result['error']}"
    kind = op["kind"]
    if kind == "composite":
        return _check_composite(op, result, exp)
    if kind == "bounds":
        return _check_bounds(op["k"], result, exp)
    if kind == "converge":
        return _check_table(op["n_list"], op["a"], op["b"], result, exp, op["rule"])
    if kind == "compare":
        return _check_compare(op["n_list"], op["a"], op["b"], result, exp)
    return _check_cli(op["check"], result, exp)


def _check_composite(op: dict, r: dict, exp: dict) -> str | None:
    tol = INTEGRAL_RTOL * exp["scale"]
    if not _close(r["value"], exp["integral"], tol):
        return f"value {r['value']!r} differs from the mpmath integral {exp['integral']!r} by more than {tol:.1e}"
    if op["rule"] == "msimpson":
        # The paper's claim: f' and f^(5) only at the two global endpoints.
        if r["order1"] != 2 or r["order5"] != 2:
            return f"f' evaluated {r['order1']} times and f^(5) {r['order5']} times, expected 2 and 2"
        est = exp["estimate"]
        if not _close(r["estimate"], est, DERIV_RTOL * abs(est) + 1e-300):
            return f"leading-error estimate {r['estimate']!r}, mpmath gives {est!r}"
    elif r["calls"] != 0:
        return f"Simpson's rule made {r['calls']} derivative calls, expected none"
    return None


def _check_bounds(k: int, r: dict, exp: dict) -> str | None:
    best = r["best"]
    if not isinstance(best, float) or not exp["true_error"] <= best * (1 + 1e-9):
        return f"true rule error {exp['true_error']:.3e} exceeds the reported bound {best!r}"
    lo, hi = exp["extrema"]
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    if not (r["lower"] <= lo + slack and r["upper"] >= hi - slack):
        return (f"range [{r['lower']!r}, {r['upper']!r}] misses the true extrema of "
                f"f^({k}) [{lo!r}, {hi!r}]")
    if k < 6 and not _close(r["secant"], exp["secant"],
                            DERIV_RTOL * exp["secant_scale"] + 1e-12):
        return f"secant {r['secant']!r}, mpmath gives {exp['secant']!r}"
    est = exp["estimate"]
    if not _close(r["estimate"], est, DERIV_RTOL * abs(est) + 1e-300):
        return f"leading-error estimate {r['estimate']!r}, mpmath gives {est!r}"
    return None


def _fit_slope(hs: list[float], errs: list[float]) -> float:
    xs, ys = [math.log(h) for h in hs], [math.log(e) for e in errs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _check_table(n_list, a, b, t: dict, exp: dict, rule: str,
                 digits: float = 0.0) -> str | None:
    """A study table against the oracle.

    ``digits`` is the relative rounding of printed numbers (CLI table
    format); CLI tables carry no reference value, so their ``abs_error``
    is held against the true error instead of ``|approx - reference|``.
    """
    scale = exp["scale"]
    reference = t["reference"]
    if reference is not None and not _close(reference, exp["integral"],
                                            REFERENCE_RTOL * scale):
        return f"reference {reference!r} differs from mpmath {exp['integral']!r}"
    rows = t["rows"]
    if [row[0] for row in rows] != list(n_list):
        return f"rows for pair counts {[row[0] for row in rows]}, expected {n_list}"
    window = []
    for (n, h, approx, abs_error), want, true_err in zip(rows, exp["rules"][rule],
                                                         exp["errors"][rule]):
        if not _close(h, (b - a) / (2 * n), digits * h):
            return f"h = {h!r} for n = {n}"
        if not _close(approx, want, RULE_RTOL * scale + digits * abs(want)):
            return f"{rule} n={n}: {approx!r}, the 30-digit rule gives {want!r}"
        if reference is not None:
            if abs_error != abs(approx - reference):
                return f"{rule} n={n}: abs_error {abs_error!r} is not |approx - reference|"
        elif not _close(abs_error, true_err,
                        (REFERENCE_RTOL + RULE_RTOL) * scale + digits * abs_error):
            return f"{rule} n={n}: abs_error {abs_error!r}, mpmath gives {true_err!r}"
        if 1e-13 < abs_error <= 1e-2:
            window.append((h, true_err))
    fitted = t["fitted"]
    if len(window) >= 2 and all(e > 0 for _, e in window):
        slope = _fit_slope([h for h, _ in window], [e for _, e in window])
        if not _close(fitted, slope, FIT_ATOL):
            return f"{rule}: fitted order {fitted!r}, the true errors give {slope:.3f}"
    return None


def _check_compare(n_list, a, b, r: dict, exp: dict) -> str | None:
    for key, rule in (("simpson", "simpson"), ("modified", "msimpson")):
        reason = _check_table(n_list, a, b, r[key], exp, rule)
        if reason:
            return reason
    for rs, rm, ratio in zip(r["simpson"]["rows"], r["modified"]["rows"], r["ratios"]):
        if rm[3] != 0.0 and ratio != rs[3] / rm[3]:
            return f"error ratio {ratio!r} is not {rs[3]!r}/{rm[3]!r}"
    return None


# -- CLI output --------------------------------------------------------------


def _num(text: str):
    if text in ("", "n/a", "None"):
        return None
    if text in ("True", "true"):
        return True
    if text in ("False", "false"):
        return False
    try:
        return float(text)
    except ValueError:
        return text


def parse_record(stdout: str, fmt: str) -> dict:
    """Key/value output of ``integrate`` and ``bounds`` in any format."""
    if fmt == "json":
        return json.loads(stdout)
    if fmt == "csv":
        keys, values = list(csv.reader(io.StringIO(stdout)))
        return {k: _num(v) for k, v in zip(keys, values)}
    out = {}
    for line in stdout.splitlines():
        key, value = line.split(None, 1)
        out[key] = _num(value.strip())
    return out


def parse_grid(stdout: str, fmt: str) -> tuple[list[str], list[list], dict]:
    """``(columns, rows, trailers)`` of ``kernel``/``converge``/``compare`` output."""
    if fmt == "json":
        payload = json.loads(stdout)
        columns, rows = payload.pop("columns"), payload.pop("rows")
        return columns, rows, payload
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(stdout)))
    else:
        lines = [line.split() for line in stdout.splitlines()]
    columns, rows, trailers = lines[0], [], {}
    for cells in lines[1:]:
        if len(cells) == 2 and isinstance(_num(cells[0]), str):
            trailers[cells[0]] = _num(cells[1])
        else:
            rows.append([_num(c) for c in cells])
    return columns, rows, trailers


def _check_cli(c: dict, r: dict, exp: dict) -> str | None:
    code, out, err = r["exit"], r["stdout"], r["stderr"]
    if code != c["exit"]:
        first = (err.strip().splitlines() or [""])[-1]
        return f"exit {code}, expected {c['exit']} ({first[:120]})"
    if c["cmd"] == "error":
        lines = err.splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("msquad: error: "):
            return "an error must print exactly one 'msquad: error:' line and no output"
        return None
    if err:
        return f"stderr is not empty: {err.splitlines()[0][:120]}"
    try:
        return _check_cli_output(c, out, exp)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {c['format']} output: {type(exc).__name__}: {exc}"


def _check_cli_output(c: dict, out: str, exp: dict) -> str | None:
    cmd, fmt = c["cmd"], c["format"]
    if cmd in ("integrate", "bounds"):
        rec = parse_record(out, fmt)
        echo = {"a": c["a"], "b": c["b"]}
        if cmd == "bounds":
            echo.update(k=c["k"], n_pairs=c["n"])
        elif c["rule"] in ("simpson", "msimpson"):
            echo.update(rule=c["rule"], n_pairs=c["n"])
        else:
            echo.update(rule=c["rule"], n_pairs=1)
        for key, want in echo.items():
            if rec.get(key) != want:
                return f"{key} reads {rec.get(key)!r}, the input was {want!r}"
        if "h" in rec and not _close(rec["h"], (c["b"] - c["a"]) / (2 * echo["n_pairs"]),
                                     1e-14 * abs(rec["h"])):
            return f"h reads {rec['h']!r} for n = {echo['n_pairs']}"
    if cmd == "integrate":
        scale = exp["scale"]
        # Table output prints 15 significant digits; allow for that rounding.
        tol = RULE_RTOL * scale + (1e-14 * abs(exp["rule"]) if fmt == "table" else 0.0)
        if not _close(rec["value"], exp["rule"], tol):
            return f"value {rec['value']!r}, the 30-digit {c['rule']} rule gives {exp['rule']!r}"
        if "estimate" in exp:
            est = exp["estimate"]
            if not _close(rec["leading_error_estimate"], est, DERIV_RTOL * abs(est) + 1e-300):
                return f"leading_error_estimate {rec['leading_error_estimate']!r}, mpmath gives {est!r}"
        if c["reference"] and not _close(rec["reference_value"], exp["integral"],
                                         INTEGRAL_RTOL * scale):
            return f"reference_value {rec['reference_value']!r}, mpmath gives {exp['integral']!r}"
        return None
    if cmd == "bounds":
        if c["k"] < 6:
            family = [rec[key] for key in ("range_bound", "lower_gap_bound",
                                           "upper_gap_bound", "peano_classic")]
            if rec["best"] != min(family):
                return f"best {rec['best']!r} is not the least of the bound family {family}"
        best = rec["bound"] if c["k"] == 6 else rec["best"]
        r = {"best": float(best), "lower": rec["range_lower"], "upper": rec["range_upper"],
             "secant": rec.get("secant"), "estimate": exp["estimate"]}
        return _check_bounds(c["k"], r, exp)
    columns, rows, trailers = parse_grid(out, fmt)
    if cmd == "kernel":
        ks = exp["ks"]
        if columns != ["x"] + [f"T_{k}" for k in ks] or len(rows) != len(exp["xs"]):
            return f"kernel columns {columns} with {len(rows)} rows"
        for row, x in zip(rows, exp["xs"]):
            if not _close(row[0], x, 1e-14):
                return f"kernel abscissa {row[0]!r}, expected {x!r}"
            for k, value in zip(ks, row[1:]):
                want = exp["values"][k][exp["xs"].index(x)]
                if not _close(value, want, KERNEL_RTOL * exp["scales"][k]):
                    return f"T_{k}({x!r}) = {value!r}, the Peano kernel gives {want!r}"
        return None
    n_list, a, b = c["n_list"], c["a"], c["b"]
    digits = 1e-14 if fmt == "table" else 0.0
    if cmd == "converge":
        if len(rows) != len(n_list) or columns != ["h", "approx", "abs_error"]:
            return f"converge columns {columns} with {len(rows)} rows"
        table = {"reference": None, "rows": [[n] + row for n, row in zip(n_list, rows)],
                 "fitted": trailers.get("fitted_order")}
        return _check_table(n_list, a, b, table, exp, c["rule"], digits)
    if len(rows) != len(n_list):
        return f"compare output has {len(rows)} rows for {len(n_list)} pair counts"
    for idx, rule, fit in ((1, "simpson", "fitted_order_simpson"),
                           (3, "msimpson", "fitted_order_msimpson")):
        table = {"reference": None,
                 "rows": [[n, row[0], row[idx], row[idx + 1]] for n, row in zip(n_list, rows)],
                 "fitted": trailers.get(fit)}
        reason = _check_table(n_list, a, b, table, exp, rule, digits)
        if reason:
            return reason
    for row in rows:
        s_err, m_err, ratio = row[2], row[4], row[5]
        if m_err and not _close(ratio, s_err / m_err, 1e-13 * abs(s_err / m_err)):
            return f"error ratio {ratio!r} is not {s_err!r}/{m_err!r}"
    return None

