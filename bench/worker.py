"""One workload process of the benchmark.

Reads the round of ops (JSON) from stdin, imports msquad from the
checkout's ``src``, builds the integrands, notes the moment it is ready,
then runs whole rounds of ops in a closed loop (one caller), stopping at
the round boundary closest to ``--seconds``; at least two rounds always
run, so every op is repeated.  Prints one JSON object with the per-op
latencies, the first result of every op and whether a repeat differed.

With ``--probe`` it exits as soon as it is ready (the parent times
set-up with it).  With ``--trace 1`` rounds alternate between traced and
untraced; the traced ones record spans (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import types

import hostspeed
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_perf = time.perf_counter

# One thread per process, and one string-hash seed for every process, so
# dict and set layouts do not vary from run to run.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def monotonic() -> float:
    """System-wide clock, comparable with the parent's spawn time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(SINGLE_THREAD_ENV)
    return env


class DerivativeCounter:
    """Counts ``f.derivative`` calls by order without touching point evaluation.

    Installed as an instance attribute, so ``f(x)`` keeps its normal path.
    """

    def __init__(self, f):
        self._derivative = f.derivative
        self.counts = [0] * 7
        f.derivative = self

    def __call__(self, order, x):
        self.counts[order] += 1
        return self._derivative(order, x)

    def reset(self) -> list[int]:
        counts, self.counts = self.counts, [0] * 7
        return counts


def _table(t) -> dict:
    return {"reference": t.reference_value,
            "rows": [[r.n_pairs, r.h, r.approx, r.abs_error] for r in t.rows],
            "fitted": t.fitted_order}


class Workload:
    def __init__(self, name: str, ops: list[dict], tracer: spans.Tracer | None):
        import msquad

        self.msquad = msquad
        self.name = name
        self.ops = ops
        self.env = child_env()
        self.tracer = tracer
        # A public name that has gone makes its ops fail, not the run.
        self.plain = types.SimpleNamespace(**{n: getattr(msquad, n, None) for n in _LIBRARY})
        self.lib = self.plain
        # Integrands are built once, here, as part of set-up.
        self.integrands: dict[str, object] = {}
        self.counters: dict[str, DerivativeCounter] = {}
        for op in ops:
            text = op.get("f")
            if text is not None and text not in self.integrands:
                f = msquad.expression_integrand(text)
                self.counters[text] = DerivativeCounter(f)
                self.integrands[text] = f
        self.current = self.integrands
        if tracer is not None:
            self.traced_integrands = {text: tracer.integrand(f, msquad.Integrand)
                                      for text, f in self.integrands.items()}

    # -- one op --------------------------------------------------------------

    def run(self, op: dict) -> dict:
        kind, lib = op["kind"], self.lib
        if kind == "cli":
            proc = subprocess.run([sys.executable, "-m", "msquad.cli", *op["argv"]],
                                  capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=120)
            return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        f = self.current[op["f"]]
        iv = lib.Interval(op["a"], op["b"])
        if kind == "composite":
            counter = self.counters[op["f"]]
            counter.reset()
            rule = (lib.composite_modified_simpson if op["rule"] == "msimpson"
                    else lib.composite_simpson)
            r = rule(f, lib.UniformGrid(iv, op["n"]))
            counts = counter.reset()
            return {"value": r.value, "estimate": r.leading_error_estimate,
                    "order1": counts[1], "order5": counts[5], "calls": sum(counts)}
        if kind == "bounds":
            k, grid = op["k"], lib.UniformGrid(iv, op["n"])
            rng = lib.estimate_derivative_range(f, k, iv)
            if k == 6:
                best, secant = lib.composite_bound_k6(rng.sup_abs, grid.h, iv.width), None
            else:
                slope = lib.secant_slope(f, k - 1, iv)
                best = lib.composite_bounds(k, rng, slope, grid.h, iv.width).best
                secant = slope.value
            return {"lower": rng.lower, "upper": rng.upper, "secant": secant, "best": best,
                    "estimate": lib.leading_error_estimate(f, grid)}
        if kind == "converge":
            return _table(lib.convergence_study(lib.Rule(op["rule"]), f, iv, op["n_list"]))
        c = lib.compare_rules(f, iv, op["n_list"])
        return {"simpson": _table(c.simpson), "modified": _table(c.modified),
                "ratios": list(c.error_ratios)}

    # -- tracing -------------------------------------------------------------

    def traced(self, on: bool) -> None:
        """Switch the library calls, the looked-up names and the integrands."""
        tr = self.tracer
        if not on:
            tr.unpatch()
            self.lib, self.current = self.plain, self.integrands
            return
        self.lib = types.SimpleNamespace(**{
            n: (tr.wrap(f"{_LIBRARY[n]}.{n}", fn, _ATTRS.get(n)) if _LIBRARY[n] and fn else fn)
            for n, fn in vars(self.plain).items()})
        self.current = self.traced_integrands
        _patch_library(tr, self.msquad)

    # -- timed phase ---------------------------------------------------------

    def timed(self, seconds: float, trace: bool) -> dict:
        attempts, first, repeats = [], {}, {}
        round_s: dict[int, list[float]] = {0: [], 1: []}  # by traced, probes excluded
        in_process = self.name != "cli"
        kind = "cpu" if in_process else "spawn"
        probes, probe_s, next_probe = [], 0.0, 0.0
        start = _perf()
        rounds = 0
        while True:
            traced = int(trace and in_process and rounds % 2 == 0)
            if traced:
                self.traced(True)
            t_round, round_probe_s = _perf(), 0.0
            for i, op in enumerate(self.ops):
                if _perf() >= next_probe:
                    t0 = _perf()
                    probes.append(hostspeed.probe(kind, self.env))
                    round_probe_s += _perf() - t0
                    next_probe = _perf() + hostspeed.EVERY_S[kind]
                span = self.tracer.begin_op(len(attempts), op["kind"]) if traced else None
                t0 = _perf()
                try:
                    result = self.run(op)
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    result = {"error": f"{type(exc).__name__}: {exc}"}
                dt = _perf() - t0
                if span is not None:
                    self.tracer.end_op(span)
                canon = json.dumps(result, sort_keys=True)
                mismatch = 0
                if i not in first:
                    first[i] = (canon, result)
                elif canon != first[i][0]:
                    mismatch = 1
                    repeats.setdefault(i, canon)
                attempts.append([i, dt, traced, mismatch])
            round_s[traced].append(_perf() - t_round - round_probe_s)
            probe_s += round_probe_s
            if traced:
                self.traced(False)
            rounds += 1
            elapsed = _perf() - start
            # Stop where the phase ends closest to ``seconds``.
            if rounds >= 2 and elapsed + 0.5 * elapsed / rounds > seconds:
                break
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        out = {
            "attempts": attempts,
            "results": {str(i): r for i, (_, r) in first.items()},
            "repeats": {str(i): c for i, c in repeats.items()},
            "rounds": rounds,
            "elapsed": _perf() - start - probe_s,
            "slowdown": hostspeed.slowdown(kind, probes),
            "round_s": round_s[0],
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        if round_s[1]:
            # Traced over untraced op rate, from the median round of each.
            out["overhead"] = statistics.median(round_s[0]) / statistics.median(round_s[1])
        return out

    # -- CLI layers (traced run of the cli workload) ---------------------------

    def cli_layers(self) -> dict:
        """Interpreter start, import costs and the in-process ``cli.run`` time."""
        py = sys.executable
        interp = statistics.median(hostspeed.spawn_probe(self.env) for _ in range(3))
        numpy_s, msquad_s = [], []
        for _ in range(3):
            proc = subprocess.run([py, "-X", "importtime", "-c", "import msquad.cli"],
                                  capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=60)
            cumulative = _import_times(proc.stderr)
            numpy_s.append(cumulative.get("numpy", 0) / 1e6)
            # What a CLI run pays to import msquad: package, cli and numpy.
            msquad_s.append(cumulative.get("msquad.cli", 0) / 1e6)
        import msquad.cli

        run = msquad.cli.run
        argvs = [op["argv"] for op in self.ops]

        def one_pass(traced):
            times = []
            for argv in argvs:
                span = self.tracer.begin_op(f"cli-{len(times)}", "cli") if traced else None
                t0 = _perf()
                try:
                    run(argv, out=io.StringIO(), err=io.StringIO())
                except Exception:  # the known tracebacks; timed all the same
                    pass
                times.append(_perf() - t0)
                if span is not None:
                    self.tracer.end_op(span)
            return times

        one_pass(False)  # warm-up
        plain, traced = [], []
        for _ in range(2):
            plain += one_pass(False)
            self.traced(True)
            _patch_cli(self.tracer, self.msquad)
            try:
                traced += one_pass(True)
            finally:
                self.traced(False)
        return {
            "cli.interpreter_s": interp,
            "cli.import_numpy_s": statistics.median(numpy_s),
            "cli.import_msquad_s": statistics.median(msquad_s),
            "cli.run_warm_ms": statistics.median(plain) * 1e3,
            "trace.overhead_ratio": sum(plain) / sum(traced),
        }


# Public names the workloads call, and the layer (module) each belongs to;
# an empty layer marks a type, which is not traced.
_LIBRARY = {
    "Interval": "", "UniformGrid": "", "Rule": "",
    "composite_modified_simpson": "rules", "composite_simpson": "rules",
    "leading_error_estimate": "rules",
    "estimate_derivative_range": "bounds", "secant_slope": "bounds",
    "composite_bounds": "bounds", "composite_bound_k6": "bounds",
    "convergence_study": "reference", "compare_rules": "reference",
}


_ATTRS = {"composite_modified_simpson": spans.rule_attrs, "composite_simpson": spans.rule_attrs}


def _patch_library(tr, msquad) -> None:
    """Trace the names that msquad's modules look up when they call each other."""
    rules, reference, bounds = msquad.rules, msquad.reference, msquad.bounds
    tr.patch(rules, "pairwise_sum", "summation.pairwise_sum", spans.summation_attrs)
    tr.patch(rules, "leading_error_estimate", "rules.leading_error_estimate")
    tr.patch(reference, "reference_integral", "reference.reference_integral",
             spans.reference_attrs)
    tr.patch(reference, "convergence_study", "reference.convergence_study")
    table = getattr(reference, "COMPOSITE_RULES", {})
    for rule, name in ((msquad.Rule.SIMPSON, "composite_simpson"),
                       (msquad.Rule.MODIFIED_SIMPSON, "composite_modified_simpson")):
        tr.patch(table, rule, f"rules.{name}", spans.rule_attrs)
    for name in ("kernel_abs_integral", "kernel_max_abs", "scaled_constants"):
        tr.patch(bounds, name, f"kernels.{name}")
    tr.patch(msquad.jets, "parse", "expressions.parse")


def _patch_cli(tr, msquad) -> None:
    """Trace the names ``msquad.cli`` calls, for the in-process CLI passes."""
    cli = msquad.cli
    for name in ("composite_modified_simpson", "composite_simpson"):
        tr.patch(cli, name, f"rules.{name}", spans.rule_attrs)
    for name in ("midpoint_panel", "corrected_midpoint_panel"):
        tr.patch(cli, name, f"rules.{name}")
    for name in ("estimate_derivative_range", "secant_slope", "composite_bounds",
                 "composite_bound_k6"):
        tr.patch(cli, name, f"bounds.{name}")
    tr.patch(cli, "kernel_eval", "kernels.kernel_eval")
    for name in ("compare_rules", "convergence_study"):
        tr.patch(cli, name, f"reference.{name}")
    tr.patch(cli, "reference_integral", "reference.reference_integral", spans.reference_attrs)
    if hasattr(cli, "expression_integrand"):
        real = cli.expression_integrand

        def expression_integrand(*args, **kwargs):
            return tr.integrand(real(*args, **kwargs), msquad.Integrand)

        tr.replace(cli, "expression_integrand", expression_integrand)


_IMPORT_LINE = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$")


def _import_times(stderr: str) -> dict[str, int]:
    """Cumulative microseconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out[m.group(2)] = int(m.group(1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = json.load(sys.stdin)
    tracer = None
    if args.trace:
        import msquad

        tracer = spans.Tracer()
        tracer.patch(msquad.jets, "parse", "expressions.parse")  # parses happen in set-up
    work = Workload(args.workload, spec["ops"], tracer)
    ready = monotonic()
    if tracer is not None:
        tracer.unpatch()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0
    out = work.timed(args.seconds, bool(args.trace))
    out["ready"] = ready
    if tracer is not None:
        out["layers"] = {"trace.overhead_ratio": out.pop("overhead", 0.0)}
        if args.workload == "cli":
            out["layers"].update(work.cli_layers())
        out["layers"].update(spans.layer_metrics(tracer))
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
