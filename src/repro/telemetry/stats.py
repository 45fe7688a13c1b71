"""Trace replay: compute a metrics summary from a JSONL trace.

``python -m repro stats <trace.jsonl>`` loads a trace written by a
telemetry session and re-derives the headline metrics from the raw events
— an independent audit of the counters the live session accumulated (the
test suite asserts the two agree, and that :class:`MessageTrace` totals
match on the same seeded run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.telemetry.events import Event
from repro.telemetry.export import iter_trace


@dataclass
class TraceStats:
    """Aggregates re-derived from one event trace."""

    events_total: int = 0
    by_layer: Dict[str, int] = field(default_factory=dict)
    by_kind: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Engine transitions (count of engine "step" events).
    engine_steps: int = 0
    #: Rule executions by rule name, from engine step moves.
    rules: Dict[str, int] = field(default_factory=dict)
    #: Network message accounting (send / deliver / loss / timer).
    messages: Dict[str, int] = field(default_factory=dict)
    #: Last own-view token census seen (any layer), if any.
    last_census: Optional[List[int]] = None
    #: (first, last) event time per layer.
    time_span: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: run_start / net_start descriptors, in order.
    runs: List[dict] = field(default_factory=list)
    #: Sequence monotonicity audit (True unless the trace is corrupt).
    seq_monotonic: bool = True
    _last_seq: int = field(default=-1, repr=False)

    # -- construction ------------------------------------------------------
    def add(self, event: Event) -> None:
        """Fold one event into the aggregates."""
        if event.seq <= self._last_seq:
            self.seq_monotonic = False
        self._last_seq = event.seq
        self.events_total += 1
        self.by_layer[event.layer] = self.by_layer.get(event.layer, 0) + 1
        key = (event.layer, event.kind)
        self.by_kind[key] = self.by_kind.get(key, 0) + 1
        first, last = self.time_span.get(event.layer, (event.time, event.time))
        self.time_span[event.layer] = (min(first, event.time),
                                       max(last, event.time))

        if event.kind in ("run_start", "net_start"):
            descriptor = {"layer": event.layer, "kind": event.kind}
            descriptor.update(event.payload)
            self.runs.append(descriptor)
        elif event.layer == "engine" and event.kind == "step":
            self.engine_steps += 1
            for move in event.payload.get("moves", ()):
                rule = str(move[1])
                self.rules[rule] = self.rules.get(rule, 0) + 1
        elif event.layer == "network" and event.kind in (
            "send", "deliver", "loss", "timer"
        ):
            self.messages[event.kind] = self.messages.get(event.kind, 0) + 1
        if event.kind == "census":
            holders = event.payload.get("holders")
            if holders is not None:
                self.last_census = list(holders)

    @classmethod
    def from_events(cls, events) -> "TraceStats":
        stats = cls()
        for event in events:
            stats.add(event)
        return stats

    @classmethod
    def from_file(cls, path: str) -> "TraceStats":
        return cls.from_events(iter_trace(path))

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        """Fixed-width text report (the ``repro stats`` output)."""
        lines = [f"events: {self.events_total} "
                 f"(seq monotonic: {self.seq_monotonic})"]
        for layer in sorted(self.by_layer):
            first, last = self.time_span[layer]
            lines.append(
                f"  layer {layer:<10} {self.by_layer[layer]:>8} events, "
                f"time [{first:.2f}, {last:.2f}]"
            )
        if self.runs:
            lines.append("runs:")
            for run in self.runs:
                desc = ", ".join(
                    f"{k}={v}" for k, v in run.items()
                    if k not in ("layer", "kind")
                )
                lines.append(f"  {run['layer']}/{run['kind']}: {desc}")
        if self.engine_steps:
            lines.append(f"engine steps: {self.engine_steps}")
        if self.rules:
            per_rule = "  ".join(
                f"{rule}={self.rules[rule]}" for rule in sorted(self.rules)
            )
            lines.append(f"rule executions: {per_rule}")
        if self.messages:
            lines.append(
                "messages: "
                + "  ".join(
                    f"{kind}={self.messages.get(kind, 0)}"
                    for kind in ("send", "deliver", "loss", "timer")
                )
            )
        if self.last_census is not None:
            lines.append(f"final token census: {self.last_census}")
        kinds = ", ".join(
            f"{layer}/{kind}={count}"
            for (layer, kind), count in sorted(self.by_kind.items())
        )
        lines.append(f"event kinds: {kinds}")
        return "\n".join(lines)
