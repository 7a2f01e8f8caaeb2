"""Host-speed probes used to normalise the benchmark's times.

The speed a process gets on a shared host drifts: the same composite op
measured 0.27 s and 0.39 s a few minutes apart with CPU time equal to wall
time, and runs of one seed differed by up to 50% in ops/s.  So a fixed
probe that does not touch msquad is timed throughout a run, interleaved
with the work it normalises; its median over the run divided by its
reference time is the run's slow-down factor, and every time metric is
divided by that factor (rates multiplied).  The metrics then read as on a
host where the probe takes its reference time: a change to msquad still
moves them, a slower host does not.  Raw values and the factors are kept
in the run record.

Two probes, matched to the work they normalise:

- ``cpu``: a pure-Python kernel, between the in-process ops;
- ``spawn``: start and exit of a bare interpreter, between the CLI
  children of the ``cli`` workload and around the set-up spawns, whose
  cost is process start-up more than computation.
"""

from __future__ import annotations

import gc
import math
import statistics
import subprocess
import sys
import time

# Reference times (fixed constants; about what each probe takes on a
# 2-core Intel Xeon host when it is not slowed down).
REFERENCE_S = {"cpu": 0.010, "spawn": 0.080}
# Least time between two probes in a timed phase.
EVERY_S = {"cpu": 0.25, "spawn": 1.0}
_POINTS = 30_000


def _point(x: float) -> float:
    return math.exp(-x * x) * math.sin(3.0 * x) + 1.0 / (1.0 + x * x)


def cpu_probe() -> float:
    """Seconds one run of the fixed kernel takes now.

    The collector is paused so that the heap of the calling process (the
    parent holds the oracle's objects) does not change the reading.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        values = [_point(i * 1e-4) for i in range(_POINTS)]
        math.fsum(values)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def spawn_probe(env: dict) -> float:
    """Seconds a bare interpreter takes to start and exit now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True,
                   timeout=60, check=False)
    return time.perf_counter() - t0


def probe(kind: str, env: dict) -> float:
    return cpu_probe() if kind == "cpu" else spawn_probe(env)


def slowdown(kind: str, samples: list[float]) -> float:
    """The run's slow-down factor: median probe time over the reference."""
    return statistics.median(samples) / REFERENCE_S[kind]
