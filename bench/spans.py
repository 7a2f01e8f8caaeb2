"""Spans and counters for the traced run.

Spans are recorded only on the benchmark's side of the library boundary:
around the calls a workload makes into msquad's public functions, and
around the module-level names msquad's own modules look up at call time
(``rules.pairwise_sum``, ``rules.leading_error_estimate``,
``reference.reference_integral``, ``reference.COMPOSITE_RULES`` ...).
A name that no longer exists is skipped, so its layer reads zero instead
of crashing the run.

A span carries its name, start, end, parent and op id.  Point
evaluations of f and of its derivatives are far too many to keep a span
each; they are folded into the enclosing span as counted leaves
(``integrand.eval``, ``jets.order1`` .. ``jets.order6``).  A span's self
time is its duration minus its child spans and leaves.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter

_perf = time.perf_counter
_JET_LEAVES = tuple(f"jets.order{k}" for k in range(7))


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "leaves", "sub", "attrs")

    def __init__(self, name: str, parent: int | None, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = _perf()
        self.end = 0.0
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}  # name -> [count, seconds]
        self.sub: Counter = Counter()      # span and leaf counts of the whole subtree
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s - sum(s for _, s in self.leaves.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[tuple[int, Span]] = []
        self._outside = Span("outside", None, None)  # leaves seen with no span open
        self._patches: list[tuple[object, str, object]] = []
        self.op = None
        self._op_x: set = set()
        self.distinct_x = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1][0] if self._stack else None
        span = Span(name, parent, self.op)
        self.spans.append(span)
        self._stack.append((len(self.spans) - 1, span))
        return span

    def close(self, span: Span) -> None:
        span.end = _perf()
        self._stack.pop()
        for name, (count, _) in span.leaves.items():
            span.sub[name] += count
        if self._stack:
            parent = self._stack[-1][1]
            parent.child_s += span.seconds
            parent.sub[span.name] += 1
            parent.sub.update(span.sub)

    def leaf(self, name: str, seconds: float) -> None:
        top = self._stack[-1][1] if self._stack else self._outside
        entry = top.leaves.get(name)
        if entry is None:
            top.leaves[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def begin_op(self, op_id, kind: str) -> Span:
        self.op = op_id
        return self.open(f"op.{kind}")

    def end_op(self, span: Span) -> None:
        self.close(span)
        self.distinct_x += len(self._op_x)
        self._op_x.clear()
        self.op = None

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` inside a span; ``attrs(args, result, exc)`` fills span attributes."""
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if attrs:
                    span.attrs.update(attrs(args, None, exc))
                raise
            finally:
                self.close(span)
            if attrs:
                span.attrs.update(attrs(args, result, None))
            return result
        return traced

    # -- patching the names msquad's modules look up -------------------------

    def patch(self, target, name: str, span_name: str, attrs=None) -> None:
        """Replace ``target.name`` (module attribute or dict key) by a traced wrapper."""
        is_dict = isinstance(target, dict)
        if (name not in target) if is_dict else not hasattr(target, name):
            return
        original = target[name] if is_dict else getattr(target, name)
        self.replace(target, name, self.wrap(span_name, original, attrs))

    def replace(self, target, name: str, value) -> None:
        """Set ``target.name`` (or ``target[name]``) until :meth:`unpatch`."""
        if isinstance(target, dict):
            self._patches.append((target, name, target[name]))
            target[name] = value
        else:
            self._patches.append((target, name, getattr(target, name)))
            setattr(target, name, value)

    def unpatch(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)

    # -- integrands ----------------------------------------------------------

    def integrand(self, base, integrand_cls):
        """``base`` rebuilt through the public constructor, with every point
        evaluation counted and timed as a leaf of the enclosing span."""
        leaf, op_x = self.leaf, self._op_x

        def fn(x):
            t0 = _perf()
            try:
                return base(x)
            finally:
                leaf("integrand.eval", _perf() - t0)

        def provider(order, x):
            t0 = _perf()
            try:
                return base.derivative(order, x)
            finally:
                leaf(_JET_LEAVES[order], _perf() - t0)
                op_x.add(x)

        return integrand_cls(fn, provider, max_order=base.max_order, name=base.name)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "op": span.op,
                    "leaves": span.leaves, "attrs": span.attrs,
                }) + "\n")


# -- attribute extractors for patched names ------------------------------------


def rule_attrs(args, result, exc):
    grid = args[1] if len(args) > 1 else None
    return {"nodes": 2 * grid.n_pairs + 1 if grid is not None else 0}


def summation_attrs(args, result, exc):
    values = args[0] if args else ()
    return {"values": len(values) if hasattr(values, "__len__") else 0}


_SEGMENTS = re.compile(r"after (\d+) segments")


def reference_attrs(args, result, exc):
    if exc is None:
        return {"segments": getattr(result, "subdivisions", 0), "failed": 0}
    match = _SEGMENTS.search(str(exc))
    failed = type(exc).__name__ == "ReferenceConvergenceError"
    return {"segments": int(match.group(1)) if match else 0, "failed": int(failed)}


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer numbers of one traced run, named ``<layer>.<metric>``."""
    leaves: dict[str, list] = {}
    for span in tr.spans + [tr._outside]:
        for name, (count, seconds) in span.leaves.items():
            entry = leaves.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += seconds

    def spans(*names):
        return [s for s in tr.spans if s.name in names]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    evals, eval_s = leaves.get("integrand.eval", (0, 0.0))
    out["integrand.eval_calls"] = evals
    out["integrand.eval_s"] = eval_s
    out["integrand.eval_us"] = ratio(eval_s * 1e6, evals)

    jet_calls = jet_s = 0
    for k in range(1, 7):
        count, seconds = leaves.get(f"jets.order{k}", (0, 0.0))
        out[f"jets.order{k}_calls"] = count
        jet_calls += count
        jet_s += seconds
    out["jets.call_us"] = ratio(jet_s * 1e6, jet_calls)
    out["jets.self_s"] = jet_s
    out["jets.distinct_x_ratio"] = ratio(tr.distinct_x, jet_calls)

    rules = spans("rules.composite_modified_simpson", "rules.composite_simpson")
    msimpson = spans("rules.composite_modified_simpson")
    nodes = sum(s.attrs.get("nodes", 0) for s in rules)
    out["rules.composite_calls"] = len(rules)
    out["rules.self_s"] = sum(s.self_seconds for s in rules)
    out["rules.nodes_per_s"] = ratio(nodes, sum(s.seconds for s in rules))
    out["rules.evals_per_node"] = ratio(sum(s.sub["integrand.eval"] for s in rules), nodes)
    out["rules.order1_per_composite"] = ratio(sum(s.sub["jets.order1"] for s in msimpson),
                                              len(msimpson))
    out["rules.order5_per_composite"] = ratio(sum(s.sub["jets.order5"] for s in msimpson),
                                              len(msimpson))

    sums = spans("summation.pairwise_sum")
    out["summation.calls"] = len(sums)
    out["summation.values"] = sum(s.attrs.get("values", 0) for s in sums)
    out["summation.s"] = sum(s.seconds for s in sums)

    estimates = spans("bounds.estimate_derivative_range")
    derivs = sum(s.sub[f"jets.order{k}"] for s in estimates for k in range(1, 7))
    out["bounds.estimate_calls"] = len(estimates)
    out["bounds.estimate_self_s"] = sum(s.self_seconds for s in estimates)
    out["bounds.derivs_per_estimate"] = ratio(derivs, len(estimates))
    out["bounds.report_s"] = sum(s.seconds for s in spans(
        "bounds.secant_slope", "bounds.composite_bounds", "bounds.composite_bound_k6"))

    refs = spans("reference.reference_integral")
    compares = spans("reference.compare_rules")
    segments = sum(s.attrs.get("segments", 0) for s in refs)
    out["reference.oracle_calls"] = len(refs)
    out["reference.oracle_calls_per_op"] = ratio(
        sum(s.sub["reference.reference_integral"] for s in compares), len(compares))
    out["reference.oracle_self_s"] = sum(s.self_seconds for s in refs)
    out["reference.segments"] = segments
    out["reference.evals_per_segment"] = ratio(sum(s.sub["integrand.eval"] for s in refs),
                                               segments)
    out["reference.converge_failures"] = sum(s.attrs.get("failed", 0) for s in refs)

    kernels = [s for s in tr.spans if s.name.startswith("kernels.")]
    out["kernels.eval_calls"] = len(kernels)
    out["kernels.eval_us"] = ratio(sum(s.seconds for s in kernels) * 1e6, len(kernels))

    parses = spans("expressions.parse")
    out["expressions.parse_calls"] = len(parses)
    out["expressions.parse_us"] = ratio(sum(s.seconds for s in parses) * 1e6, len(parses))
    return out
