"""msquad benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (needs ``src/msquad`` and mpmath)::

    python3 bench/run.py --workload composite --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25   # every workload
    python3 bench/run.py --quick                                # self-check

Workloads (inputs from ``workloads.py``, made from the seed only):

- ``composite``: ``composite_modified_simpson`` / ``composite_simpson``
  alternating, pair counts log-uniform over [1e3, 1e5].  Point evaluation,
  summation and node lists do the work; jets are idle.
- ``bounds``: the CLI's sampled-range bound report for k = 2..6.  Jets do
  the work; no summation, small n.
- ``study``: ``compare_rules`` / ``convergence_study`` on oscillatory and
  peaked integrands.  The G7/K15 oracle dominates.
- ``cli``: one ``python -m msquad.cli`` child at a time over all five
  subcommands and three formats, plus invalid inputs.  Cold start matters.

Each workload runs in a fresh single-threaded process (``worker.py``)
that repeats whole rounds of its ops in a closed loop with one caller.
The parent computes the mpmath oracle (``oracle.py``, ``checks.py``)
before it starts any worker, so oracle work is outside the timed region
and outside ``setup_s``.

End-to-end metrics (``--trace 0``): ``setup_s`` (median over
``SETUP_SAMPLES`` spawns: process start to first op ready), ``ops_per_s``
(ops of a round over the median round time), ``op_p50_ms``,
``op_tail_ms`` (the workload's tail percentile, see
``workloads.TAIL_PERCENTILE``, printed with its sample count),
``peak_rss_mb`` (for ``cli`` the peak of its children) and ``pass_ratio``
= 1 - ``fail_ratio``.  ``fail_ratio`` is printed too; the JSON carries the
pass ratio because ``fail_ratio`` is exactly 0 on healthy workloads.  An
op fails when it raises, exits with the wrong code, is outside the oracle
tolerance, or gives a different result on a repeat.  Ops reproducing
``known_defects.json`` fail today.  Times are normalised by a host-speed
probe that does not use msquad (``hostspeed.py``); the raw values are
printed and kept in the run record.

Per-layer metrics (``--trace 1``): see ``spans.layer_metrics`` plus the
``cli.*`` numbers and ``trace.overhead_ratio`` (traced over untraced op
rate in the same run).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when an
op that is not a known defect fails.  A run record (host, versions,
failures, tail percentile) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
LADDER = (50, 75, 90, 95, 99)

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB", "pass_ratio": "1",
}
PER_LAYER = {
    "integrand.eval_calls": "count", "integrand.eval_us": "us", "integrand.eval_s": "s",
    "summation.calls": "count", "summation.values": "count", "summation.s": "s",
    "rules.composite_calls": "count", "rules.self_s": "s", "rules.nodes_per_s": "1/s",
    "rules.evals_per_node": "count", "rules.order1_per_composite": "count",
    "rules.order5_per_composite": "count",
    **{f"jets.order{k}_calls": "count" for k in range(1, 7)},
    "jets.call_us": "us", "jets.self_s": "s", "jets.distinct_x_ratio": "1",
    "bounds.estimate_calls": "count", "bounds.estimate_self_s": "s",
    "bounds.derivs_per_estimate": "count", "bounds.report_s": "s",
    "reference.oracle_calls": "count", "reference.oracle_calls_per_op": "count",
    "reference.oracle_self_s": "s", "reference.segments": "count",
    "reference.evals_per_segment": "count", "reference.converge_failures": "count",
    "cli.interpreter_s": "s", "cli.import_numpy_s": "s", "cli.import_msquad_s": "s",
    "cli.run_warm_ms": "ms",
    "expressions.parse_calls": "count", "expressions.parse_us": "us",
    "kernels.eval_calls": "count", "kernels.eval_us": "us",
    "trace.overhead_ratio": "1",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    from worker import SINGLE_THREAD_ENV

    return {**os.environ, **SINGLE_THREAD_ENV}


def spawn(workload: str, spec: str, seconds: float, trace: int, probe: bool,
          trace_out: str | None = None) -> tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to ready, its JSON output)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seconds", repr(seconds), "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = worker_env()
    t_spawn = monotonic()
    proc = subprocess.run(cmd, input=spec, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=env, timeout=seconds + 120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["ready"] - t_spawn, out


def tail(latencies: list[float], want: int) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it): ``want`` or the highest lower
    percentile of ``LADDER`` that leaves at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in sorted((q for q in LADDER if q <= want), reverse=True):
        rank = math.ceil(p / 100 * n)  # nearest-rank percentile
        if n - rank >= 10 or p == LADDER[0]:
            return p, xs[max(rank, 1) - 1], n - rank
    raise AssertionError("unreachable")


def host_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import importlib.metadata as md

    def version(name):
        try:
            return md.version(name)
        except md.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath")}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import checks
    import hostspeed
    import workloads

    ops = workloads.build(name, seed)
    t0 = time.perf_counter()
    expected = [checks.expect(op) for op in ops]
    oracle_s = time.perf_counter() - t0
    spec = json.dumps({"ops": ops})
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}")

    # Set-up is timed over several spawns, each after a spawn probe; the
    # probes give the host's slow-down for set-up (see hostspeed.py).
    env = worker_env()
    setups, setup_probes = [], []
    for i in range(SETUP_SAMPLES if not trace else 1):
        setup_probes.append(hostspeed.spawn_probe(env))
        if i < SETUP_SAMPLES - 1 and not trace:
            setups.append(spawn(name, spec, seconds, 0, probe=True)[0])
    ready_s, out = spawn(name, spec, seconds, trace, probe=False,
                         trace_out=stem + ".spans.jsonl" if trace else None)
    setups.append(ready_s)
    setup_slowdown = hostspeed.slowdown("spawn", setup_probes)
    slowdown = out["slowdown"]

    # -- checks --------------------------------------------------------------
    reasons = {}
    for key, result in out["results"].items():
        i = int(key)
        reason = checks.check(ops[i], result, expected[i])
        if reason is None and key in out["repeats"]:
            reason = "a repeat gave a different result"
        if reason is not None:
            reasons[i] = reason
    attempts = out["attempts"]  # [op index, seconds, traced, differs from first]
    attempted = len(attempts)
    failed = sum(1 for i, _, _, differs in attempts if i in reasons or differs)
    unexpected = sorted(i for i in reasons if ops[i]["defect"] is None)

    # -- metrics -------------------------------------------------------------
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "host": host_record(), "rounds": out["rounds"], "ops_per_round": len(ops),
              "timed_s": out["elapsed"], "oracle_s": oracle_s,
              "slowdown": slowdown, "setup_slowdown": setup_slowdown,
              "fail_ratio": failed / attempted,
              "failures": [{"op": ops[i]["label"], "defect": ops[i]["defect"],
                            "reason": reasons[i]} for i in sorted(reasons)]}
    if trace:
        # A layer this workload does not reach reads 0.
        metrics = {k: float(out["layers"].get(k, 0.0)) for k in PER_LAYER}
        units = PER_LAYER
    else:
        lat = [a[1] for a in attempts]
        pct, value, beyond = tail(lat, workloads.TAIL_PERCENTILE[name])
        record["tail"] = {"percentile": pct, "samples": len(lat), "beyond": beyond}
        # Throughput of the median round: robust to bursts of host slowness
        # that the probes miss (see hostspeed.py).
        raw = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(ops) / statistics.median(out["round_s"]),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": value * 1e3,
        }
        metrics = {
            "setup_s": raw["setup_s"] / setup_slowdown,
            "ops_per_s": raw["ops_per_s"] * slowdown,
            "op_p50_ms": raw["op_p50_ms"] / slowdown,
            "op_tail_ms": raw["op_tail_ms"] / slowdown,
            "peak_rss_mb": out["peak_rss_mb"],
            "pass_ratio": (attempted - failed) / attempted,
        }
        record["raw"] = raw
        record["setup_samples"] = setups
        units = END_TO_END
    record["metrics"] = metrics
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    return {
        "record": record,
        "results": {int(k): v for k, v in out["results"].items()},
        "result": {
            "correct": not unexpected,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def report(run: dict) -> None:
    """Human-readable lines for one workload run."""
    rec = run["record"]
    res = run["result"]
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
          f"{res['attempted']} ops in {rec['rounds']} rounds of {rec['ops_per_round']}, "
          f"{rec['timed_s']:.1f} s timed, oracle {rec['oracle_s']:.1f} s")
    host = rec["host"]
    print(f"   host: nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']} "
          f"numpy={host['numpy']} mpmath={host['mpmath']}")
    print(f"   host slow-down against the reference probe: {rec['slowdown']:.3f} in the "
          f"timed phase, {rec['setup_slowdown']:.3f} around set-up")
    for key, value in rec.get("raw", {}).items():
        print(f"   raw {key:<26} {value:.6g} (before normalising)")
    for key, m in res["metrics"].items():
        print(f"   {key:<30} {m['value']:.6g} {m['unit']}")
    if "tail" in rec:
        t = rec["tail"]
        print(f"   op_tail_ms is p{t['percentile']} of {t['samples']} samples "
              f"({t['beyond']} beyond it)")
    print(f"   fail_ratio                     {rec['fail_ratio']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    for f in rec["failures"]:
        tag = f"known defect {f['defect']}" if f["defect"] else "UNEXPECTED"
        print(f"   FAIL [{tag}] {f['op']}: {f['reason']}")


def self_check() -> int:
    """Quick mode: inputs reproduce, the checker rejects perturbed results,
    and every metric name and unit is present."""
    import checks
    import workloads

    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert json.dumps(a) == json.dumps(b), f"{name}: seed 7 gave different inputs"
        assert json.dumps(a) != json.dumps(workloads.build(name, 8)), f"{name}: seed ignored"
    print("inputs: one seed reproduces identical inputs, another seed differs")

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            run = run_workload(name, 1, 1.0, trace)
            metrics = run["result"]["metrics"]
            want = PER_LAYER if trace else END_TO_END
            assert set(metrics) == set(want), f"{name}: metric names {sorted(metrics)}"
            for key, m in metrics.items():
                assert m["unit"] == want[key] and isinstance(m["value"], float), key
            assert run["result"]["correct"], f"{name}: {run['record']['failures']}"
            if trace and name == "composite":
                assert metrics["rules.order1_per_composite"]["value"] == 2.0
            print(f"metrics: {name} trace={trace}: all {len(want)} names and units present")
            if not trace:
                _perturbation_check(name, run, checks)
    print("self-check ok")
    return 0


def _perturbation_check(name: str, run: dict, checks) -> None:
    """The checker must reject a deliberately perturbed result of every kind."""
    import workloads

    ops = workloads.build(name, run["record"]["seed"])
    failing = {f["op"] for f in run["record"]["failures"]}
    rejected = 0
    for i, result in run["results"].items():
        op = ops[i]
        if op["label"] in failing or op["kind"] == "cli" and op["check"]["cmd"] == "error":
            continue
        bad = _perturb(result)
        assert checks.check(op, bad, checks.expect(op)) is not None, \
            f"{name}: perturbed result of {op['label']} passed the check"
        rejected += 1
    assert rejected, f"{name}: nothing to perturb"
    print(f"checker: {name}: rejected all {rejected} perturbed results")


def _perturb(result: dict) -> dict:
    bad = json.loads(json.dumps(result))
    if "stdout" in bad:
        # Change the first digit after a decimal point in the output.
        out = bad["stdout"]
        i = out.index(".") + 1
        bad["stdout"] = out[:i] + str((int(out[i]) + 5) % 10) + out[i + 1:]
    elif "value" in bad:
        bad["value"] *= 1 + 1e-6
    elif "best" in bad:
        bad["best"] = 0.0
    else:
        table = bad["modified"] if "modified" in bad else bad
        table["rows"][0][2] *= 1 + 1e-6
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description="msquad benchmark")
    parser.add_argument("--workload", choices=("composite", "bounds", "study", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="self-check and exit")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "msquad", "__init__.py")):
        print(f"bench: no msquad sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    if args.quick:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")

    if args.workload != "all":
        run = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report(run)
        print(json.dumps(run["result"]))
        return 0

    import workloads

    runs = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads.WORKLOADS]
    for run in runs:
        report(run)
    keys = list((PER_LAYER if args.trace else END_TO_END)) + ["fail_ratio"]
    print(f"{'metric':<30}" + "".join(f"{w:>14}" for w in workloads.WORKLOADS))
    for key in keys:
        cells = []
        for run in runs:
            value = (run["record"]["fail_ratio"] if key == "fail_ratio"
                     else run["result"]["metrics"][key]["value"])
            cells.append(f"{value:>14.6g}")
        unit = "1" if key == "fail_ratio" else (PER_LAYER if args.trace else END_TO_END)[key]
        print(f"{key + ' [' + unit + ']':<30}" + "".join(cells))
    combined = {
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {f"{r['record']['workload']}.{k}": v
                    for r in runs for k, v in r["result"]["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
