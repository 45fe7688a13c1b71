"""Unified telemetry: metrics registry, event bus, traces and run records.

The observability layer shared by both execution models (see
``docs/TELEMETRY.md``):

* :mod:`repro.telemetry.metrics` — labelled counters / gauges /
  histograms with cheap no-op behaviour when disabled;
* :mod:`repro.telemetry.events` — the one :class:`Event` schema every
  layer publishes (engine steps, link sends/losses, timers, token
  censuses);
* :mod:`repro.telemetry.session` — the ambient :class:`TelemetrySession`
  instrumented code consults (``with telemetry_session(...)``);
* :mod:`repro.telemetry.export` — incremental JSONL trace writing and
  replay;
* :mod:`repro.telemetry.manifest` — the reproducibility record of an
  instrumented experiment or fuzz run, which the run store keeps as the
  run's row;
* :mod:`repro.telemetry.stats` — ``python -m repro stats`` trace replay;
* :mod:`repro.telemetry.progress` — live steps/sec + token-census
  emission for long sweeps.
"""

from repro.telemetry.events import Event, EventBus
from repro.telemetry.export import (
    JsonlTraceWriter,
    iter_trace,
    read_trace,
    write_events,
)
from repro.telemetry.manifest import build_manifest
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.progress import ProgressEmitter
from repro.telemetry.session import (
    TelemetrySession,
    current_session,
    telemetry_session,
)
from repro.telemetry.stats import TraceStats

__all__ = [
    "Event",
    "EventBus",
    "JsonlTraceWriter",
    "iter_trace",
    "read_trace",
    "write_events",
    "build_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProgressEmitter",
    "TelemetrySession",
    "current_session",
    "telemetry_session",
    "TraceStats",
]
