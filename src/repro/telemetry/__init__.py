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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.events": ("Event", "EventBus"),
    "repro.telemetry.export": (
        "JsonlTraceWriter", "iter_trace", "read_trace", "write_events",
    ),
    "repro.telemetry.manifest": ("build_manifest",),
    "repro.telemetry.metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry",
    ),
    "repro.telemetry.progress": ("ProgressEmitter",),
    "repro.telemetry.session": (
        "TelemetrySession", "current_session", "telemetry_session",
    ),
    "repro.telemetry.stats": ("TraceStats",),
})
