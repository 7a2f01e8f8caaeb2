"""Seeded inputs for the four benchmark workloads.

Everything here is plain data made with ``random.Random(seed)``: the
workload process receives only these inputs, and one seed always gives
the same inputs.  A workload is a *round* of operations that the timed
loop repeats, so every op is run at least twice and a repeat that gives a
different result counts as a failure.

Each op is a dict with a ``kind``, its inputs, a short ``label`` and a
``defect`` id (``None`` unless the op reproduces an entry of
``known_defects.json``; those ops are expected to fail until the defect
is fixed, and a fix shows as a higher pass ratio).
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("composite", "bounds", "study", "cli")

# Tail percentile reported as ``op_tail_ms`` per workload.  Each is the
# highest of 50/75/90/95/99 that leaves at least ten samples beyond it at
# half the expected op rate of a 25 s run, so the percentile does not flip
# between runs when the host slows down; ``run.py`` falls back to a lower
# one (and says so) if a run still has too few samples.
TAIL_PERCENTILE = {"composite": 75, "bounds": 95, "study": 90, "cli": 75}

BASELINE_F = "exp(-x^2)*sin(3*x)+1/(1+x^2)"
BASELINE_A, BASELINE_B = 0.0, 2.0

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "known_defects.json"), encoding="utf-8") as _fh:
    KNOWN_DEFECTS = {d["id"]: d for d in json.load(_fh)}


def _p(rng: random.Random, lo: float, hi: float) -> float:
    """A parameter with two decimals, so expressions stay short and exact."""
    return round(rng.uniform(lo, hi), 2)


def _smooth(rng: random.Random, shape: int) -> tuple[str, float, float]:
    """One member of the smooth corpus used by ``composite`` and ``cli``."""
    c, w, d = _p(rng, 0.5, 2.0), _p(rng, 1.0, 5.0), _p(rng, 0.5, 2.0)
    a = _p(rng, -1.0, 0.5)
    b = round(a + _p(rng, 1.0, 3.0), 2)
    text = (
        f"exp(-{c}*x^2)*sin({w}*x)+1/(1+{d}*x^2)",
        f"cos({w}*x)*exp(-{c}*x)+sqrt(1+{d}*x^2)",
        f"log(1+{d}*x^2)*cos({w}*x)+x/(1+{c}*x^2)",
    )[shape % 3]
    return text, a, b


def _composite(rng: random.Random) -> list[dict]:
    # Pair counts: a stratified log-uniform design over [1e3, 1e5] in nine
    # strata, one integrand near the log-midpoint of each (seeded jitter of
    # a tenth of a stratum), with the top stratum pinned at exactly 1e5 on
    # the baseline integrand.  Free draws within each stratum made the work
    # per round, and with it ops_per_s, differ by up to 40% between seeds;
    # the pinned top keeps the largest working set (peak memory) seed-free.
    # Each stratum runs one rule and the middle one both, so a round has
    # ten ops, five per rule, and the median and p75 fall in the middle of
    # one op size's repeats rather than on the edge between two sizes.
    ops = []
    for j in range(9):
        if j == 8:
            text, a, b, n = BASELINE_F, BASELINE_A, BASELINE_B, 100_000
        else:
            text, a, b = _smooth(rng, j)
            n = int(10 ** (3 + 2 * (j + 0.45 + 0.1 * rng.random()) / 9))
        rules = ("msimpson", "simpson") if j == 4 else ("simpson" if j % 2 else "msimpson",)
        for rule in rules:
            ops.append({
                "kind": "composite", "rule": rule, "f": text, "a": a, "b": b, "n": n,
                "label": f"{rule} n={n} {text} [{a}, {b}]", "defect": None,
            })
    ms = [op for op in ops if op["rule"] == "msimpson"]
    ss = [op for op in ops if op["rule"] == "simpson"]
    rng.shuffle(ms)
    rng.shuffle(ss)
    # Rules alternate op by op.
    return [op for pair in zip(ms, ss) for op in pair]


_BOUNDS_SHAPES = (
    lambda rng: (BASELINE_F, BASELINE_A, BASELINE_B),
    lambda rng: (f"exp({_p(rng, 0.5, 1.5)}*x)", 0.0, _p(rng, 1.0, 2.0)),
    lambda rng: (f"sin({_p(rng, 1.0, 3.0)}*x)+cos({_p(rng, 1.0, 3.0)}*x)",
                 0.0, _p(rng, 1.0, 3.0)),
    lambda rng: (f"1/(1+{_p(rng, 1.0, 4.0)}*x^2)", -1.0, 1.0),
    lambda rng: (f"log(1+x)*exp(-{_p(rng, 0.5, 1.5)}*x)", 0.0, _p(rng, 1.0, 3.0)),
)


def _bounds(rng: random.Random) -> list[dict]:
    ops = []
    for shape in _BOUNDS_SHAPES:
        text, a, b = shape(rng)
        for k in range(2, 7):
            n = rng.choice((4, 8, 16, 32, 64))
            ops.append({
                "kind": "bounds", "f": text, "a": a, "b": b, "k": k, "n": n,
                "label": f"bounds k={k} n={n} {text} [{a}, {b}]", "defect": None,
            })
    rng.shuffle(ops)
    return ops


def _study(rng: random.Random) -> list[dict]:
    # Parameters vary by +-5% around sin(40x)e^-x, e^-x^2 cos(25x) and
    # 1/(1+25x^2): the oracle's work grows with the frequency, and wider
    # ranges made the work per round differ by ~15% between seeds.
    families = (
        (f"sin({_p(rng, 38.0, 42.0)}*x)*exp(-x)", 0.0, 10.0),
        (f"exp(-x^2)*cos({_p(rng, 23.75, 26.25)}*x)", -3.0, 3.0),
        (f"1/(1+{_p(rng, 23.75, 26.25)}*x^2)", -1.0, 1.0),
    )
    ops = []
    for text, a, b in families:
        n_list = [2 ** j for j in range(rng.choice((1, 2, 3)), 9)]
        for kind, rule in (("compare", "msimpson"), ("converge", "msimpson"),
                           ("converge", "simpson")):
            ops.append({
                "kind": kind, "rule": rule, "f": text, "a": a, "b": b,
                "n_list": n_list, "label": f"{kind} {rule} {text} [{a}, {b}]",
                "defect": None,
            })
    # Integrals whose integral of |f| is above ~9: the oracle cannot reach
    # the study's fixed 1e-13 (known defects, kept visible on purpose).
    n_list = [2 ** j for j in range(2, 9)]
    ops.append({"kind": "converge", "rule": "msimpson", "f": "exp(x)", "a": 0.0, "b": 3.0,
                "n_list": n_list, "label": "converge exp(x) [0, 3]",
                "defect": "study-converge-exp-floor"})
    ops.append({"kind": "compare", "rule": "msimpson", "f": "1/(1e-2+x^2)", "a": -1.0,
                "b": 1.0, "n_list": n_list, "label": "compare 1/(1e-2+x^2) [-1, 1]",
                "defect": "study-compare-peak-floor"})
    rng.shuffle(ops)
    return ops


def _cli_op(argv: list[str], check: dict, defect: str | None = None) -> dict:
    return {"kind": "cli", "argv": argv, "check": check,
            "label": "msquad " + " ".join(argv), "defect": defect}


def _cli(rng: random.Random) -> list[dict]:
    ops = []
    formats = ["table", "csv", "json"]

    f_int, _, _ = _smooth(rng, rng.randrange(3))
    a_int = rng.choice((-1.0, 0.0))  # "-a -1" must keep working
    b_int = _p(rng, 1.0, 3.0)
    rules = rng.sample(["midpoint", "cmidpoint", "simpson", "msimpson"], 3)
    for fmt, rule in zip(formats, rules):
        n = rng.choice((8, 16, 32))
        ref = fmt == "json"
        argv = ["integrate", "--f", f_int, "-a", _num(a_int), "-b", _num(b_int),
                "--rule", rule, "-n", str(n), "--format", fmt]
        if ref:
            argv.append("--reference")
        ops.append(_cli_op(argv, {"cmd": "integrate", "f": f_int, "a": a_int, "b": b_int,
                                  "rule": rule, "n": n, "reference": ref, "format": fmt,
                                  "exit": 0}))

    f_b, a_b, b_b = _BOUNDS_SHAPES[rng.randrange(len(_BOUNDS_SHAPES))](rng)
    for fmt, k in zip(formats, rng.sample(range(2, 7), 3)):
        n = rng.choice((4, 8, 16))
        argv = ["bounds", "--f", f_b, "-a", _num(a_b), "-b", _num(b_b), "-k", str(k),
                "-n", str(n), "--format", fmt]
        ops.append(_cli_op(argv, {"cmd": "bounds", "f": f_b, "a": a_b, "b": b_b, "k": k,
                                  "n": n, "format": fmt, "exit": 0}))

    for fmt in formats:
        k = rng.choice((None, 2, 3, 4, 5, 6))
        samples = rng.randrange(5, 22)
        argv = ["kernel", "--samples", str(samples), "--format", fmt]
        if k is not None:
            argv += ["-k", str(k)]
        ops.append(_cli_op(argv, {"cmd": "kernel", "k": k, "samples": samples,
                                  "format": fmt, "exit": 0}))

    f_s = f"sin({_p(rng, 2.0, 6.0)}*x)*exp(-x)"
    b_s = _p(rng, 1.0, 3.0)
    n_text = "2,4,8,16,32"
    for cmd in ("converge", "compare"):
        for fmt in formats:
            rule = rng.choice(("simpson", "msimpson"))
            argv = [cmd, "--f", f_s, "-a", "0", "-b", _num(b_s), "--n-list", n_text,
                    "--format", fmt]
            if cmd == "converge":
                argv += ["--rule", rule]
            ops.append(_cli_op(argv, {"cmd": cmd, "f": f_s, "a": 0.0, "b": b_s,
                                      "rule": rule, "n_list": [2, 4, 8, 16, 32],
                                      "format": fmt, "exit": 0}))

    # Invalid inputs with their documented exit codes (1 usage, 2 evaluation).
    for argv, code in (
        (["integrate", "--f", "sin(x", "-a", "0", "-b", "1"], 1),
        (["integrate", "--f", f_int, "-a", "0", "-b", "1", "-n", "0"], 1),
        (["converge", "--f", f_s, "-a", "0", "-b", "1", "--n-list", "8,4"], 1),
        (["bounds", "--f", f_b, "-a", "0", "-b", "1", "-k", "4", "--lower", "1"], 1),
        (["integrate", "--f", "log(x)", "-a", "-1", "-b", "1"], 2),
    ):
        ops.append(_cli_op(argv, {"cmd": "error", "exit": code}))

    # Known defects (ROADMAP item 4 and the study floor), expected to fail today.
    bargs = ["bounds", "--f", f_b, "-a", _num(a_b), "-b", _num(b_b), "-k", "4"]
    usage = {"cmd": "error", "exit": 1}
    ops += [
        _cli_op(["integrate", "--f", f_int, "-a", "0", "-b", "1", "--reference", "--tol", "0"],
                usage, "cli-tol-zero"),
        _cli_op(bargs + ["--samples", "3"], usage, "cli-samples-3"),
        _cli_op(bargs + ["--safety", "0.5"], usage, "cli-safety-below-1"),
        _cli_op(["integrate", "--f", f_int, "-a", "-1e-3", "-b", "1", "--format", "json"],
                {"cmd": "integrate", "f": f_int, "a": -1e-3, "b": 1.0, "rule": "msimpson",
                 "n": 8, "reference": False, "format": "json", "exit": 0},
                "cli-exponent-negative-limit"),
        _cli_op(bargs + ["--lower", "nan", "--upper", "1"], usage, "cli-lower-nan"),
        _cli_op(["integrate", "--f", "exp(-x^2)", "-a=-1e308", "-b=1e308"], usage,
                "cli-width-overflow"),
        _cli_op(["converge", "--f", "exp(x)", "-a", "0", "-b", "3"],
                {"cmd": "converge", "f": "exp(x)", "a": 0.0, "b": 3.0, "rule": "msimpson",
                 "n_list": [2, 4, 8, 16, 32, 64], "format": "table", "exit": 0},
                "cli-converge-exp-floor"),
    ]
    rng.shuffle(ops)
    return ops


def _num(value: float) -> str:
    """Shortest text for a limit: '-1' rather than '-1.0', as a user types it."""
    return str(int(value)) if value == int(value) else repr(value)


_BUILDERS = {"composite": _composite, "bounds": _bounds, "study": _study, "cli": _cli}


def build(workload: str, seed: int) -> list[dict]:
    """The round of ops for ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)
