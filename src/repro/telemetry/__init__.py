"""Unified telemetry: metrics registry, event bus, traces and manifests.

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
* :mod:`repro.telemetry.manifest` — the ``manifest.json`` reproducibility
  record written next to every instrumented experiment result;
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
from repro.telemetry.manifest import (
    build_manifest,
    manifest_summary,
    read_manifest,
    write_manifest,
)
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
    "manifest_summary",
    "read_manifest",
    "write_manifest",
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
