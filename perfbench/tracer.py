"""In-memory span tracer for the traced benchmark run.

Spans are recorded from this package only.  :meth:`Tracer.install` swaps
each public layer entry point listed in :func:`_targets` for a wrapper that
opens and closes a span around the original, and :meth:`Tracer.uninstall`
puts the originals back, so untraced passes run the program untouched.

Every wrapped function is synchronous, so spans nest strictly even inside
the asyncio runtime: a span's parent is the span open when it started, and
its self time is its duration minus the time its child spans cover.
Self times and call counts are accumulated as spans close; the spans
themselves are kept in memory and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: Layer names, as the prefix of every span name.
LAYERS = (
    "kernels", "sweeps", "messagepassing", "verification", "runtime",
    "observability",
)

#: Runtime spans reported as time per call and calls per pass.
RUNTIME_CALLS = (
    "runtime.wire.encode", "runtime.wire.decode", "runtime.transport.post",
    "runtime.node.on_receive", "runtime.node.on_timer",
    "runtime.health.notify",
)


def rss_mb() -> float:
    """Current resident set size of this process in MB (Linux statm)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, pass]`` per span.
        self.spans: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Work counts measured at span boundaries (events, lane steps ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Largest value seen per gauge (resident memory per phase).
        self.peaks: Dict[str, float] = defaultdict(float)
        #: Total duration of spans with no parent.
        self.root_s = 0.0
        self.pass_index = 0
        self._stack: List[int] = []
        self._child: List[float] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.pass_index])
        self._stack.append(sid)
        self._child.append(0.0)
        return sid

    def close(self, sid: int) -> None:
        end = perf_counter()
        span = self.spans[sid]
        span[2] = end
        self._stack.pop()
        child = self._child.pop()
        duration = end - span[1]
        self.self_s[span[0]] += duration - child
        self.calls[span[0]] += 1
        if self._child:
            self._child[-1] += duration
        else:
            self.root_s += duration

    def wrap(self, name: Any, fn: Callable,
             after: Callable = None) -> Callable:
        """``fn`` inside a span; ``name`` may be a function of the args.

        ``after(result, args, kwargs)`` runs outside the span, to count
        the work the call did.
        """
        tracer = self
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name if fixed else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        """Wrap the layer entry points of every module already imported.

        A module the workload has not imported (its untraced pass always
        runs first) cannot be called by it; importing it here would only
        add its memory to the traced process.
        """
        if self._saved:
            return
        for module_name, path, name, after in _targets(self):
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]]
            self._saved.append((owner, parts[-1], original))
            setattr(owner, parts[-1], self.wrap(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output --------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "pass": rnd, "name": name,
                    "start": start - t0, "end": end - t0,
                }) + "\n")


def _targets(tracer: Tracer):
    """``(module, attribute path, span name, after-hook)`` per entry point.

    The sweep engine and the DES cell worker import these functions from
    their modules at call time, so patching the module attribute reaches
    them.  The verification calls and ``run_sweep`` are made by the
    benchmark itself and get their spans there.
    """
    counts = tracer.counts

    def family(args, kwargs):
        daemon = args[2] if len(args) > 2 else kwargs.get("daemon",
                                                          "bernoulli:0.5")
        return "kernels.batched." + daemon.split(":", 1)[0]

    def after_kernel(results, args, kwargs):
        steps = [int(r["steps"]) for r in results]
        counts["kernels.batched.lane_steps"] += len(steps) * max(steps)
        counts["kernels.batched.useful_steps"] += sum(steps)

    def around_events(name, fn_net):
        def span_name(args, kwargs):
            net = fn_net(args, kwargs)
            counts[name + ".events"] -= net.queue.executed
            return name

        def after(result, args, kwargs):
            counts[name + ".events"] += fn_net(args, kwargs).queue.executed

        return span_name, after

    stab_name, stab_after = around_events(
        "messagepassing.stabilize", lambda a, k: a[0].network)
    gap_name, gap_after = around_events(
        "messagepassing.gap", lambda a, k: a[0] if a else k["net"])

    return (
        ("repro.kernels.batched", "run_convergence_cells", family,
         after_kernel),
        ("repro.sweeps.store", "SweepStore.record", "sweeps.record", None),
        ("repro.messagepassing.cst", "transformed_from_chaos",
         "messagepassing.build", None),
        ("repro.messagepassing.coherence",
         "CoherenceTracker.run_until_stabilized", stab_name, stab_after),
        ("repro.messagepassing.modelgap", "evaluate_gap", gap_name,
         gap_after),
        ("repro.runtime.wire", "Wire.encode", "runtime.wire.encode", None),
        ("repro.runtime.wire", "Wire.decode", "runtime.wire.decode", None),
        ("repro.runtime.transport", "RingView.post",
         "runtime.transport.post", None),
        ("repro.messagepassing.node", "CSTNode.on_receive",
         "runtime.node.on_receive", None),
        ("repro.messagepassing.node", "CSTNode.on_timer",
         "runtime.node.on_timer", None),
        ("repro.runtime.health", "HealthMonitor.notify",
         "runtime.health.notify", None),
        ("repro.observability.ingest", "StoreSubscriber.__call__",
         "observability.ingest", None),
    )


#: Every per-layer metric, in report order.  A layer that does not run on
#: a workload reports 0.
PER_LAYER = (
    "kernels.batched.s",
    "kernels.batched.synchronous.s",
    "kernels.batched.central.s",
    "kernels.batched.bernoulli.s",
    "kernels.batched.lane_steps",
    "kernels.batched.useful_frac",
    "sweeps.record.s",
    "sweeps.record.calls",
    "sweeps.engine.other.s",
    "messagepassing.build.s",
    "messagepassing.stabilize.s",
    "messagepassing.stabilize.events",
    "messagepassing.gap.s",
    "messagepassing.gap.events",
    "messagepassing.events_per_s",
    "verification.closure.s",
    "verification.valuation.s",
    "verification.witness.s",
    "verification.states",
    "verification.edges",
    "verification.closure.rss_mb",
    "verification.valuation.rss_mb",
    "verification.witness.rss_mb",
    *(f"{name}.us" for name in RUNTIME_CALLS),
    *(f"{name}.calls" for name in RUNTIME_CALLS),
    "runtime.health.checks_per_msg",
    "runtime.unattributed_us_per_msg",
    "observability.ingest.us",
    "observability.ingest.events",
    *(f"share.{layer}" for layer in LAYERS),
    "trace.overhead_frac",
)


def per_layer_metrics(
    tracer: Tracer, passes: int, pass_wall: float, cpu_s: float,
    messages: int, overhead: float,
) -> Dict[str, float]:
    """Per-pass per-layer figures from ``passes`` traced passes.

    ``pass_wall`` is the mean timed wall clock of a traced pass (the base
    of each layer's share); ``cpu_s`` and ``messages`` are the process CPU
    time and delivered messages over all traced passes (live ring only).
    """
    s, c, k = tracer.self_s, tracer.calls, tracer.counts
    out = {name: 0.0 for name in PER_LAYER}

    def per_pass(value: float) -> float:
        return value / passes

    kernel = [n for n in s if n.startswith("kernels.batched.")]
    out["kernels.batched.s"] = per_pass(sum(s[n] for n in kernel))
    for fam in ("synchronous", "central", "bernoulli"):
        out[f"kernels.batched.{fam}.s"] = per_pass(
            s.get(f"kernels.batched.{fam}", 0.0))
    lane = k.get("kernels.batched.lane_steps", 0.0)
    out["kernels.batched.lane_steps"] = per_pass(lane)
    if lane:
        out["kernels.batched.useful_frac"] = (
            k["kernels.batched.useful_steps"] / lane)
    out["sweeps.record.s"] = per_pass(s.get("sweeps.record", 0.0))
    out["sweeps.record.calls"] = per_pass(c.get("sweeps.record", 0))
    out["sweeps.engine.other.s"] = per_pass(s.get("sweeps.engine", 0.0))
    for part in ("build", "stabilize", "gap"):
        out[f"messagepassing.{part}.s"] = per_pass(
            s.get(f"messagepassing.{part}", 0.0))
    for part in ("stabilize", "gap"):
        out[f"messagepassing.{part}.events"] = per_pass(
            k.get(f"messagepassing.{part}.events", 0.0))
    des_s = s.get("messagepassing.stabilize", 0.0) + s.get(
        "messagepassing.gap", 0.0)
    if des_s:
        out["messagepassing.events_per_s"] = (
            k.get("messagepassing.stabilize.events", 0.0)
            + k.get("messagepassing.gap.events", 0.0)) / des_s
    for phase in ("closure", "valuation", "witness"):
        out[f"verification.{phase}.s"] = per_pass(
            s.get(f"verification.{phase}", 0.0))
        out[f"verification.{phase}.rss_mb"] = tracer.peaks.get(
            f"verification.{phase}.rss_mb", 0.0)
    out["verification.states"] = per_pass(k.get("verification.states", 0))
    out["verification.edges"] = per_pass(k.get("verification.edges", 0))
    for name in RUNTIME_CALLS + ("observability.ingest",):
        calls = c.get(name, 0)
        if calls:
            out[f"{name}.us"] = s[name] / calls * 1e6
        key = "observability.ingest.events" if name.startswith(
            "observability") else f"{name}.calls"
        out[key] = per_pass(calls)
    if messages:
        out["runtime.health.checks_per_msg"] = (
            c.get("runtime.health.notify", 0) / messages)
        out["runtime.unattributed_us_per_msg"] = (
            (cpu_s - tracer.root_s) / messages * 1e6)
    for layer, seconds in tracer.layer_self_s().items():
        out[f"share.{layer}"] = per_pass(seconds) / pass_wall
    out["trace.overhead_frac"] = overhead
    return out


__all__ = [
    "LAYERS", "PER_LAYER", "RUNTIME_CALLS", "Tracer",
    "per_layer_metrics", "rss_mb",
]
