"""Operator-grade observability: run store, SLO engine, incidents, ``top``.

This package turns the repo's telemetry exhaust (event bus, run records,
health reports) into an operator surface:

* :mod:`~repro.observability.store` — the persistent sqlite run store
  (``runs/store.sqlite``): runs, epochs, disturbances, metric samples and
  incidents, queryable via ``repro runs list|show|query``;
* :mod:`~repro.observability.ingest` — every way a run becomes rows: the
  live EventBus subscriber that feeds the store from runtime deployments,
  the writers for finished live reports and fleets, and the run record of
  ``repro run``, ``repro report`` and ``repro fuzz run``;
* :mod:`~repro.observability.slo` — paper-grounded service objectives
  (p50/p99 time-to-restabilize per disturbance class, the zero-vacancy
  graceful-handover guarantee, census bounds, availability) with
  error-budget accounting, behind ``repro slo report``;
* :mod:`~repro.observability.incidents` — structured incident records
  opened when the health monitor trips or an SLO burns budget;
* :mod:`~repro.observability.dashboard` — the ``repro top`` live terminal
  dashboard and the row renderer shared with ``repro live status --watch``
  and ``repro fleet status``.

See ``docs/OBSERVABILITY.md`` for the schema, SLO spec format and the
incident lifecycle.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.observability.dashboard": (
        "RingRow", "render_rows", "run_top_fleet", "top_curses", "top_plain",
    ),
    "repro.observability.incidents": ("IncidentTracker", "render_incidents"),
    "repro.observability.ingest": (
        "StoreSubscriber", "ingest_fleet_report", "ingest_live_report",
        "ingest_manifest", "recorded_ok",
    ),
    "repro.observability.slo": (
        "SloResult", "SloSpec", "default_slos", "disturbance_class",
        "evaluate_slos", "load_slo_specs", "merge_epochs", "quantile",
        "render_slo_report", "restabilize_stats", "vacancy_stats",
    ),
    "repro.observability.store": ("DEFAULT_STORE_PATH", "RunStore"),
})
