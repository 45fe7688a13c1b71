"""Telemetry sessions: the ambient context instrumented layers consult.

A :class:`TelemetrySession` bundles the three telemetry primitives — a
:class:`~repro.telemetry.metrics.MetricsRegistry`, a master
:class:`~repro.telemetry.events.EventBus` and an optional JSONL trace
writer — plus bookkeeping (run descriptors, wall-clock) the run record
is built from.

Sessions are installed with the :func:`telemetry_session` context manager
and discovered with :func:`current_session`.  Instrumented code
(`simulation/engine.py`, `messagepassing/network.py`, ...) looks the
active session up **once per run**; when none is active the
instrumentation collapses to a single ``None`` check, which keeps the
disabled overhead within the < 5% budget on the scalar-engine hot loop.

The CST network owns its *own* bus (so :class:`MessageTrace` can attach to
one network without global state); at construction time it asks the active
session to :meth:`~TelemetrySession.attach_bus` it, which shares the
session's sequence counter and fans every network event into the session's
recorder, metric bridge and extra subscribers.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.telemetry.events import Event, EventBus
from repro.telemetry.export import DEFAULT_MAX_TRACE_EVENTS, JsonlTraceWriter
from repro.telemetry.metrics import MetricsRegistry

#: Stack of active sessions (innermost last); module-level so instrumented
#: layers can consult it without threading a parameter everywhere.
_ACTIVE: List["TelemetrySession"] = []


def current_session() -> Optional["TelemetrySession"]:
    """The innermost active session, or None when telemetry is off."""
    return _ACTIVE[-1] if _ACTIVE else None


class TelemetrySession:
    """One observability scope: metrics + events + optional trace file."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        max_trace_events: Optional[int] = DEFAULT_MAX_TRACE_EVENTS,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Shared sequencer: buses attached to this session draw from it, so
        #: ``seq`` is globally monotonic across layers.
        self.sequence: Iterator[int] = itertools.count()
        self.bus = EventBus(sequence=self.sequence)
        self.trace_path = trace_path
        self._writer = (
            JsonlTraceWriter(trace_path, max_events=max_trace_events)
            if trace_path is not None
            else None
        )
        #: ``run_start`` / ``net_start`` payloads, in observation order —
        #: the run record of what was simulated (algorithm, n, K,
        #: daemon, seeds).
        self.run_descriptors: List[dict] = []
        self.events_total = 0
        self.started_at = time.time()
        self._extra: List[Callable[[Event], None]] = []
        #: Subscribers that asked for per-step events (see ``subscribe``).
        self._detail_subscribers = 0
        self._closed = False
        self.bus.subscribe(self._ingest)
        # Network-layer counters, pre-created so the bridge stays allocation
        # free per event.
        self._msg_counters = {
            "send": self.registry.counter(
                "messages_sent_total", "link transmissions"),
            "deliver": self.registry.counter(
                "messages_delivered_total", "link deliveries"),
            "loss": self.registry.counter(
                "messages_lost_total", "messages lost in transit"),
            "timer": self.registry.counter(
                "timer_fires_total", "CST interval-timer firings"),
        }
        self._events_counter = self.registry.counter(
            "telemetry_events_total", "events observed by the session")

    # -- wiring ------------------------------------------------------------
    def attach_bus(self, bus: EventBus) -> None:
        """Fan a foreign bus's events into this session's pipeline."""
        bus.subscribe(self._ingest)

    def subscribe(
        self, fn: Callable[[Event], None], detail: bool = True
    ) -> Callable[[Event], None]:
        """Add an extra subscriber seeing events from *every* attached bus.

        ``detail=False`` registers a subscriber that does **not** count as
        a per-step consumer: hot loops keep their batched, events-off
        behaviour (:attr:`step_detail` stays false).  Use it for
        subscribers that only care about lifecycle events — the run-store
        ingester is the canonical example — so attaching them costs the
        engines nothing.
        """
        self._extra.append(fn)
        if detail:
            self._detail_subscribers += 1
        return fn

    # -- the pipeline ------------------------------------------------------
    def _ingest(self, event: Event) -> None:
        self.events_total += 1
        self._events_counter.inc(layer=event.layer)
        if event.kind in ("run_start", "net_start"):
            descriptor = {"layer": event.layer, "kind": event.kind,
                          "time": event.time}
            descriptor.update(event.payload)
            self.run_descriptors.append(descriptor)
        elif event.layer == "network":
            counter = self._msg_counters.get(event.kind)
            if counter is not None:
                counter.inc()
        if self._writer is not None:
            self._writer.write(event)
        for fn in self._extra:
            fn(event)

    @property
    def step_detail(self) -> bool:
        """Whether per-step events have a consumer (trace file or subscriber).

        Hot loops batch their counter updates regardless, but only publish
        per-step ``engine.step`` events when something will actually observe
        them — a metrics-only session skips the bus fan-out, which
        is what keeps telemetry-on runs within a few percent of
        telemetry-off.
        """
        return self._writer is not None or self._detail_subscribers > 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def trace_truncated(self) -> bool:
        return self._writer is not None and self._writer.truncated

    @property
    def trace_dropped_events(self) -> int:
        return self._writer.dropped if self._writer is not None else 0

    @property
    def wall_seconds(self) -> float:
        return time.time() - self.started_at

    def close(self) -> None:
        """Finalize the session: flush and close the trace writer."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._writer.close()


@contextmanager
def telemetry_session(
    trace_path: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    max_trace_events: Optional[int] = DEFAULT_MAX_TRACE_EVENTS,
):
    """Install a session as the ambient telemetry context.

    Example::

        with telemetry_session(trace_path="runs/demo/trace.jsonl") as tel:
            SharedMemorySimulator(alg, daemon).run(init, max_steps=1000)
        print(tel.registry.counter("steps_total").total())
    """
    session = TelemetrySession(
        trace_path=trace_path,
        registry=registry,
        max_trace_events=max_trace_events,
    )
    _ACTIVE.append(session)
    try:
        yield session
    finally:
        _ACTIVE.pop()
        session.close()
