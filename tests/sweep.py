"""The byte contract as a sweep: the same seeded cases on two msquad trees.

Usage:

    python tests/sweep.py BASE HEAD [--count N] [--seed S] [--library | --source] [--out FILE]

BASE and HEAD are directories that hold the ``msquad`` package, such as a
checkout's ``src``; a parent revision unpacks with ``git archive REV | tar
-x -C DIR`` into ``DIR/src``.  Each tree runs every case in a child process
of its own (this script with ``--child``):

- by default a case is an argv over every subcommand and format, with
  reversed, zero-width, signed-zero, subnormal, huge and non-finite limits,
  powers of every kind and the usage errors of ``tests/smoke.sh``, run
  through ``msquad.cli.run(argv, out, err)``;
- with ``--library`` a case is a text of the test corpora, or a power, a
  point, an interval drawn from the CLI limits, a pair count and a
  tolerance.  At the point the compiled value and the compiled jets of
  orders 0..6 run; on the interval both composite rules, the reference
  oracle, for k = 2..6 the sampled range of f^(k) and its bound report,
  and the studies (``convergence_study`` of each composite rule and
  ``compare_rules``, over the pair counts ``N_LIST``), each on the
  expression integrand that the CLI builds;
- with ``--source`` a case is a text of the test corpora, a bench family
  or a power, each once (``--count`` and ``--seed`` do not apply), and its
  outcome is the source of every function that ``Tracer._define`` makes
  for it: the value, the pair loop and the jets of orders 0..6.

It prints one summary line, for example

    sweep: 1500 run, 1266 identical, differing: exit 120, stdout 114; tracebacks: base 0, head 0

and writes each differing case with both outcomes to ``--out`` as JSON.  A
CLI case differs by ``traceback`` (either side printed one), else by
``exit`` (the codes differ), else by ``stdout``, ``stderr`` or both; a
library case by ``value``, ``jet``, ``rules``, ``reference``, ``bounds``,
``study`` or several of them, each compared bit for bit; a source case by
``value``, ``pairs``, ``jet`` or several of them.  The library and source modes read
the corpora from ``tests/helpers.py``, which imports msquad from HEAD.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial

# Powers of every kind: constant and varying exponents, integral at some
# points, non-finite, with calls, and bases that reach zero or go negative.
POWERS = (
    "2^x", "x^x", "(-2)^x", "3^(2*x)", "(1+x^2)^x", "x^(x/x)", "x^(x-x)",
    "x^(x-x-2)", "(x-2)^(2+(x-1)^3)", "x^1e999", "x^-1e999", "x^(1e999-1e999)",
    "x^sin(1)", "x^exp(0)", "x^sqrt(4)", "x^log(1)", "x^(0^0)", "x^2.5", "x^0.5",
    "x^2", "x^-2", "x^0", "x^3^2", "(x-1)^1.5", "x^2147483649", "0^x", "1^x",
    "(0^1)^(0^1)", "e^x",
)
_TEXTS = POWERS + (
    "exp(-x^2)", "sin(40*x)*exp(-x)", "1/(1+25*x^2)", "log(x)", "sqrt(x)", "1/x",
    "tan(x)", "exp(4.4e51*x)^2", "0*x", "x", "x^", "foo(x)", "(x", "²",
)
_LIMITS = ("0", "-0.0", "1", "-1", "2", "3", "0.5", "-2", "1e-8", "10", "1e-300",
           "5e-324", "1e-320", "1e300", "-1e300", "inf", "-inf", "nan", "1e4")
_N = ("1", "2", "3", "8", "16", "0", "-1")
_N_LISTS = ("2,4,8", "2,4", "4,2", "1", "x")
# The pair counts of a library case's studies: one doubling list for all.
N_LIST = [1, 2, 4, 8, 16, 32]
# The usage errors of tests/smoke.sh.  A huge pair count is drawn only here,
# where the spacing underflows: elsewhere it is a valid, endless run.
_HUGE = "1000000000000000000000000000000"
_USAGE_ERRORS = (
    ["integrate", "-n", _HUGE, "--f", "exp(x)", "-a", "0", "-b", "1e-300"],
    ["converge", "--n-list", f"2,{_HUGE}", "--f", "exp(x)", "-a", "0", "-b", "1e-300"],
    ["bounds", "--f", "exp(x)", "-a", "0", "-b", "1e-320", "-k", "2", "-n", "8"],
    ["bounds", "--f", "0*x", "-a", "5e-324", "-b", "1e-320", "-k", "5", "-n", "1",
     "--lower", "1", "--upper", "3"],
    ["kernel", "--samples", "100000000000"],
)


def _limits(rng: random.Random) -> list[str]:
    """``-a`` and ``-b``: edge values, plain ones, and equal ones a tenth of the time."""
    def limit(p_edge):
        return rng.choice(_LIMITS) if rng.random() < p_edge else repr(round(rng.uniform(-4, 4), 3))

    a = limit(0.6)
    return ["-a", a, "-b", a if rng.random() < 0.1 else limit(0.33)]


def cli_cases(count: int, seed: int) -> list[list[str]]:
    """``count`` seeded argv, one subcommand each."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        command = rng.choice(("integrate", "integrate", "bounds", "bounds", "kernel",
                              "converge", "compare"))
        argv = [command, "--format", rng.choice(("table", "csv", "json"))]
        if rng.random() < 0.03:
            cases.append(rng.choice(_USAGE_ERRORS) + argv[1:])
            continue
        if command == "kernel":
            if rng.random() < 0.5:
                argv += ["-k", rng.choice("234567")]
            cases.append(argv + ["--samples", rng.choice(("2", "11", "1"))])
            continue
        text = rng.choice(POWERS) if rng.random() < 0.6 else rng.choice(_TEXTS)
        argv += ["--f", text, *_limits(rng)]
        if rng.random() < 0.1:
            argv += ["--df", rng.choice(("1", "2*x", "x^x", "log(x)"))]
        if command == "integrate":
            argv += ["--rule", rng.choice(("midpoint", "cmidpoint", "simpson", "msimpson")),
                     "-n", rng.choice(_N)]
            if rng.random() < 0.2:
                argv += ["--reference", "--tol", rng.choice(("1e-12", "1e-6", "0"))]
        elif command == "bounds":
            argv += ["-k", rng.choice("234566"), "-n", rng.choice(_N),
                     "--samples", rng.choice(("8", "33", "129", "3"))]
            if rng.random() < 0.3:
                argv += ["--lower", rng.choice(("-1", "0", "1")),
                         "--upper", rng.choice(("1", "3", "0"))]
            if rng.random() < 0.1:
                argv += ["--safety", rng.choice(("0.5", "2"))]
        else:
            if command == "converge":
                argv += ["--rule", rng.choice(("simpson", "msimpson"))]
            argv += ["--n-list", rng.choice(_N_LISTS)]
        cases.append(argv)
    return cases


def library_cases(count: int, seed: int) -> list[list]:
    """``count`` seeded cases ``[text, x, a, b, n, tol]``; the limits come
    from the CLI draw, in increasing order, so some make no interval."""
    from helpers import JET_CORPUS, VALUE_CORPUS

    rng = random.Random(seed)
    texts = tuple(dict.fromkeys(VALUE_CORPUS + JET_CORPUS + POWERS))
    points = (0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 0.5, 1e-300, 1e300, math.inf, -math.inf, math.nan)
    cases = []
    for _ in range(count):
        text = rng.choice(texts)
        x = (rng.choice(points) if rng.random() < 0.5
             else rng.choice((float(rng.randint(-4, 4)), rng.uniform(-4.0, 4.0))))
        a, b = sorted(float(limit) for limit in _limits(rng)[1::2])
        cases.append([text, x, a, b, int(rng.choice(_N[:5])), rng.choice((1e-6, 1e-10, 1e-13))])
    return cases


def source_cases() -> list[str]:
    """Each text of the test corpora, the bench families and the powers, once."""
    from helpers import BENCH_FAMILIES, JET_CORPUS, VALUE_CORPUS

    return list(dict.fromkeys(VALUE_CORPUS + JET_CORPUS + BENCH_FAMILIES + POWERS))


# -- one tree, in its child -------------------------------------------------------


def _run_cli(argv: list[str]) -> list:
    from msquad.cli import run

    out, err = io.StringIO(), io.StringIO()
    try:
        code = run(argv, out, err)
    except Exception:  # what main() would let escape
        code = "uncaught"
        err.write(traceback.format_exc())
    return [code, out.getvalue(), err.getvalue()]


def _text(v):
    """``v`` as text: a float in hex (any NaN as "nan"), a tuple as the list
    of its fields' texts, anything else its ``repr``."""
    if isinstance(v, float):
        return "nan" if math.isnan(v) else v.hex()
    return [_text(field) for field in v] if isinstance(v, tuple) else repr(v)


def _outcome(fn, *args):
    """The result, or each field of a tuple of them, as text (see
    :func:`_text`); or the error's class and message."""
    try:
        values = fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return _text(values if isinstance(values, tuple) else (values,))


def _library_runner():
    from msquad.bounds import (
        composite_bound_k6, composite_bounds, estimate_derivative_range, secant_slope,
    )
    from msquad.expressions import compile_expression, parse
    from msquad.integrand import Interval, UniformGrid
    from msquad.jets import compile_jet, expression_integrand
    from msquad.reference import compare_rules, convergence_study, reference_integral
    from msquad.rules import Rule, composite_modified_simpson, composite_simpson

    compiled = {}

    def bound(f, iv, k, n):
        """The sampled range of f^(k) on ``iv`` and the bound report from it."""
        h = UniformGrid(iv, n).h
        rng = estimate_derivative_range(f, k, iv)
        if k == 6:
            return (*rng, composite_bound_k6(rng.sup_abs, h, iv.width))
        return (*rng, *composite_bounds(k, rng, secant_slope(f, k - 1, iv), h, iv.width))

    def run_case(case):
        text, x, a, b, n, tol = case
        if text not in compiled:
            tree = parse(text)
            compiled[text] = (expression_integrand(text), compile_expression(tree),
                              *(compile_jet(tree, k) for k in range(7)))
        f, value, *jets = compiled[text]

        def on_interval(job, *args):
            return _outcome(lambda: job(f, Interval(a, b), *args))

        return {
            "value": _outcome(value, x),
            "jet": [_outcome(jet, x) for jet in jets],
            "rules": [on_interval(lambda f, iv: rule(f, UniformGrid(iv, n)))
                      for rule in (composite_simpson, composite_modified_simpson)],
            "reference": on_interval(reference_integral, tol),
            "bounds": [on_interval(bound, k, n) for k in range(2, 7)],
            "study": [*(on_interval(partial(convergence_study, rule), N_LIST)
                        for rule in (Rule.SIMPSON, Rule.MODIFIED_SIMPSON)),
                      on_interval(compare_rules, N_LIST)],
        }

    return run_case


def _source_runner():
    from msquad.expressions import Tracer, compile_expression, compile_pair_terms, parse
    from msquad.jets import compile_jet

    bodies = []
    define = Tracer._define

    def record(self, params, body, filename):
        bodies.append(body)
        return define(self, params, body, filename)

    Tracer._define = record

    def run_case(text):
        tree = parse(text)
        bodies.clear()
        compile_expression(tree)
        compile_pair_terms(tree)
        for k in range(7):
            compile_jet(tree, k)
        value, pairs, *jets = bodies
        return {"value": value, "pairs": pairs, "jet": jets}

    return run_case


def _child(mode: str) -> None:
    cases = json.load(sys.stdin)
    run_case = (_library_runner() if mode == "library" else _source_runner() if mode == "source"
                else _run_cli)
    json.dump([run_case(case) for case in cases], sys.stdout)


# -- two trees, compared ----------------------------------------------------------


def run_tree(src: str, cases: list, library: bool = False, source: bool = False) -> list:
    """The outcome of each case on the msquad package in ``src``."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    mode = "source" if source else "library" if library else "cli"
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", mode],
                          input=json.dumps(cases), capture_output=True, text=True,
                          env=env, check=True, timeout=3600)
    return json.loads(proc.stdout)


def difference(base, head, library: bool = False) -> str | None:
    """The class by which two outcomes of one case differ, or None; a
    library or source outcome is a dict of kinds."""
    if base == head:
        return None
    if library:
        return "+".join(kind for kind in base if base[kind] != head[kind])
    if "Traceback" in base[2] + head[2]:
        return "traceback"
    if base[0] != head[0]:
        return "exit"
    return "+".join(kind for kind, j in (("stdout", 1), ("stderr", 2)) if base[j] != head[j])


def tracebacks(outcomes: list) -> int:
    return sum("Traceback" in json.dumps(o) for o in outcomes)


def sweep(base: str, head: str, cases: list, library: bool = False, source: bool = False):
    """The summary line and the differing cases of ``cases`` on two trees."""
    with ThreadPoolExecutor(2) as pool:
        base_out, head_out = pool.map(lambda src: run_tree(src, cases, library, source),
                                      (base, head))
    diffs = [{"case": case, "class": cls, "base": b, "head": h}
             for case, b, h in zip(cases, base_out, head_out)
             if (cls := difference(b, h, library or source))]
    classes = Counter(d["class"] for d in diffs)
    summary = (f"sweep: {len(cases)} run, {len(cases) - len(diffs)} identical, differing: "
               + (", ".join(f"{c} {n}" for c, n in sorted(classes.items())) or "none")
               + f"; tracebacks: base {tracebacks(base_out)}, head {tracebacks(head_out)}")
    return summary, diffs


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        return _child(sys.argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="directory holding the base tree's msquad package")
    parser.add_argument("head", help="directory holding the head tree's msquad package")
    parser.add_argument("--count", type=int, default=1500, help="cases to draw")
    parser.add_argument("--seed", type=int, default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--library", action="store_true",
                      help="library results on seeded points and intervals, not CLI argv")
    mode.add_argument("--source", action="store_true",
                      help="the compiled source of every corpus text, not CLI argv")
    parser.add_argument("--out", default="sweep_diff.json", help="JSON file of differing cases")
    args = parser.parse_args()
    if args.library or args.source:
        sys.path.append(os.path.abspath(args.head))  # for tests/helpers.py
    if args.source:
        cases = source_cases()
    elif args.library:
        cases = library_cases(args.count, args.seed)
    else:
        cases = cli_cases(args.count, args.seed)
    summary, diffs = sweep(args.base, args.head, cases, args.library, args.source)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(diffs, fh, indent=1)
    print(summary)


if __name__ == "__main__":
    main()
