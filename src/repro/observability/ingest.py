"""Ingestion: how every kind of run becomes rows of the run store.

The :class:`~repro.observability.store.RunStore` is the one record a run
leaves (besides an opt-in JSONL trace); this module owns every way into
it.

A :class:`StoreSubscriber` registers on a
:class:`~repro.telemetry.session.TelemetrySession` (with ``detail=False``,
so its presence does **not** switch the simulation engines into per-step
event publishing — see the bench guard in
``benchmarks/bench_obs_overhead.py``) and turns the runtime event stream
into store rows as they happen:

========================  ====================================================
event (layer/kind)        effect
========================  ====================================================
runtime/run_start         open the run row (+ its ``boot`` epoch)
runtime/chaos_script      record the script name (incident context)
runtime/chaos             one ``disturbances`` row per applied op
runtime/node_crash        disturbance row
runtime/node_restart      disturbance row
runtime/fault             disturbance row
runtime/wire_fallback     disturbance row (mixed wire-format peer seen)
runtime/epoch_open        ``epochs`` row; open/extend the incident
runtime/epoch_stabilized  stabilize the epoch row; resolve the incident
runtime/violation         escalate/open a guarantee-breach incident
runtime/run_end           finalize the run: health columns, the verdict
                          ``ok`` and the census band in ``extra``, metric
                          samples
========================  ====================================================

Everything else on the bus is ignored with one dict lookup, which is what
keeps the attached-subscriber overhead on the engine step loop inside the
< 5 % budget.

Runs that finish before they are recorded go through one writer each:

* :func:`ingest_live_report` — a finished live ring's report (a chaos-lab
  cell, a ring of a sharded fleet): its row, epochs and scripted faults;
* :func:`ingest_fleet_report` — one ``fleet`` row per fleet invocation;
* :func:`ingest_manifest` — registry experiments and fuzz campaigns, which
  publish no runtime lifecycle events: their run record (what ran, phases,
  descriptors, trace, metrics) becomes the row.

:func:`recorded_ok` reads a row's verdict back.
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, Mapping, Optional

from repro.observability.incidents import IncidentTracker
from repro.observability.slo import disturbance_class
from repro.observability.store import RunStore
from repro.telemetry.events import Event

#: Metric families sampled into the store at ``run_end`` (totals).
SAMPLED_COUNTER_PREFIXES = ("live_", "messages_", "timer_")


def _utcnow() -> str:
    return _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime())


class StoreSubscriber:
    """Streams one telemetry session's events into a :class:`RunStore`.

    Parameters
    ----------
    store:
        The destination store (not closed by this subscriber).
    run_id:
        Public id for the next runtime run (the CLI and the fleet layer
        name their rows); auto-derived from the ``run_start`` payload
        when None.
    session:
        The telemetry session, consulted at ``run_end`` for metric totals
        to persist as samples.
    source:
        Provenance tag on created rows (``"live"``, ``"fleet"``, ...).
    """

    def __init__(
        self,
        store: RunStore,
        run_id: Optional[str] = None,
        session: Optional[Any] = None,
        source: str = "live",
    ):
        self.store = store
        self.session = session
        self.source = source
        self._pending_run_id = run_id
        self._run_db_id: Optional[int] = None
        self._extra: Dict[str, Any] = {}
        self._incidents: Optional[IncidentTracker] = None
        self._violations = 0
        self.runs_ingested = 0

    # -- dispatch ------------------------------------------------------------
    def __call__(self, event: Event) -> None:
        if event.layer == "runtime":
            handler = _RUNTIME_HANDLERS.get(event.kind)
            if handler is not None:
                handler(self, event)

    # -- runtime run lifecycle ----------------------------------------------
    def _on_run_start(self, event: Event) -> None:
        if self._run_db_id is not None:
            # A second deployment in the same session: close the books on
            # the first (its run_end may have been lost to a crash).
            self._finalize({}, at=event.time)
        p = event.payload
        run_id = self._pending_run_id or (
            f"live-{str(p.get('algorithm', '?')).lower()}"
            f"-n{p.get('n')}-seed{p.get('seed')}"
        )
        self._pending_run_id = None
        self._violations = 0
        self._extra = {"initial": p.get("initial"),
                       "timer_interval": p.get("timer_interval"),
                       "chaos": p.get("chaos")}
        self._run_db_id = self.store.insert_run(
            run_id,
            kind="live",
            algorithm=p.get("algorithm"),
            n=p.get("n"),
            k=p.get("K"),
            seed=p.get("seed"),
            transport=p.get("transport"),
            started_utc=_utcnow(),
            source=self.source,
            extra=self._extra,
        )
        self.store.add_epoch(
            self._run_db_id, idx=0, label="boot", cls="boot",
            started_at=0.0,
        )
        self._incidents = IncidentTracker(self.store, self._run_db_id)
        self.runs_ingested += 1

    def _on_chaos_script(self, event: Event) -> None:
        if self._run_db_id is None:
            return
        name = event.payload.get("name")
        self.store.update_run(self._run_db_id, script=name)
        if self._incidents is not None:
            self._incidents.set_script(name)

    def _on_disturbance_event(self, event: Event) -> None:
        if self._run_db_id is None:
            return
        p = event.payload
        kind = {
            "chaos": p.get("op"),
            "node_crash": "crash",
            "node_restart": "restart",
            "fault": p.get("fault"),
            "wire_fallback": "wire-fallback",
        }.get(event.kind) or event.kind
        params = {
            k: v for k, v in p.items() if k not in ("op", "fault", "duration")
        }
        self.store.add_disturbance(
            self._run_db_id,
            at=event.time,
            kind=str(kind),
            duration=float(p.get("duration", 0.0) or 0.0),
            params=params or None,
        )

    def _on_epoch_open(self, event: Event) -> None:
        if self._run_db_id is None:
            return
        p = event.payload
        label = str(p.get("label", "?"))
        self.store.add_epoch(
            self._run_db_id,
            idx=int(p.get("index", 0)),
            label=label,
            cls=disturbance_class(label),
            started_at=float(p.get("started_at", event.time)),
        )
        if self._incidents is not None:
            self._incidents.on_disturbance(event.time, label)

    def _on_epoch_stabilized(self, event: Event) -> None:
        if self._run_db_id is None:
            return
        p = event.payload
        self.store.stabilize_epoch(
            self._run_db_id,
            idx=int(p.get("index", 0)),
            stabilized_at=float(p.get("stabilized_at", event.time)),
        )
        if self._incidents is not None:
            self._incidents.on_stabilized(
                float(p.get("stabilized_at", event.time))
            )

    def _on_violation(self, event: Event) -> None:
        if self._run_db_id is None:
            return
        self._violations += 1
        if self._incidents is not None:
            self._incidents.on_violation(event.time, dict(event.payload))

    def _on_run_end(self, event: Event) -> None:
        self._finalize(dict(event.payload), at=event.time)

    def _finalize(self, health: Dict[str, Any], at: float) -> None:
        if self._run_db_id is None:
            return
        run_db_id = self._run_db_id
        columns: Dict[str, Any] = {"wall_seconds": at}
        if health:
            columns.update(
                stabilized=int(bool(health.get("stabilized"))),
                vacancy_instants=int(health.get("vacancy_instants") or 0),
                violations=len(health.get("guarantee_violations") or ())
                or self._violations,
                restarts=health.get("restarts"),
                extra={**self._extra, **_verdict(health)},
            )
        else:
            columns.update(violations=self._violations)
        self.store.update_run(run_db_id, **columns)
        if self._incidents is not None:
            self._incidents.finalize(at)
        if self.session is not None:
            self._sample_metrics(run_db_id, at)
        self.store.flush()
        self._run_db_id = None
        self._incidents = None

    def _sample_metrics(self, run_db_id: int, at: float) -> None:
        registry = getattr(self.session, "registry", None)
        if registry is None:
            return
        rows = []
        for name in registry.names():
            if not name.startswith(SAMPLED_COUNTER_PREFIXES):
                continue
            metric = registry.get(name)
            total = getattr(metric, "total", None)
            if total is None:
                continue
            rows.append((at, name, float(total()), None))
        if rows:
            self.store.add_samples(run_db_id, rows)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Flush buffered rows (the store itself stays open)."""
        if self._run_db_id is not None:
            # The session ended without a run_end (crash / ctrl-C): keep
            # what we have, leaving stabilized NULL to mark the truncation.
            self._finalize({}, at=0.0)
        self.store.flush()


_RUNTIME_HANDLERS = {
    "run_start": StoreSubscriber._on_run_start,
    "chaos_script": StoreSubscriber._on_chaos_script,
    "chaos": StoreSubscriber._on_disturbance_event,
    "node_crash": StoreSubscriber._on_disturbance_event,
    "node_restart": StoreSubscriber._on_disturbance_event,
    "fault": StoreSubscriber._on_disturbance_event,
    "wire_fallback": StoreSubscriber._on_disturbance_event,
    "epoch_open": StoreSubscriber._on_epoch_open,
    "epoch_stabilized": StoreSubscriber._on_epoch_stabilized,
    "violation": StoreSubscriber._on_violation,
    "run_end": StoreSubscriber._on_run_end,
}


def _verdict(health: Mapping[str, Any]) -> Dict[str, Any]:
    """The ``extra`` keys a health block contributes: the recorded verdict
    (``HealthMonitor.ok``) and the post-stabilization census band."""
    return {
        "ok": bool(health.get("ok")),
        "post_stab_min_holders": health.get("post_stab_min_holders"),
        "post_stab_max_holders": health.get("post_stab_max_holders"),
    }


def recorded_ok(row: Mapping[str, Any]) -> Optional[bool]:
    """A run row's recorded verdict: ``extra.ok``, None when none was
    recorded (experiment rows, runs cut short before ``run_end``)."""
    extra = row.get("extra")
    return extra.get("ok") if isinstance(extra, dict) else None


def ingest_live_report(
    store: RunStore,
    run_id: str,
    report: Mapping[str, Any],
    source: str,
    kind: str = "live",
    **columns: Any,
) -> int:
    """Record one finished live ring from its report; returns the db id.

    One ``runs`` row (identity and health columns from the report, the
    verdict in ``extra``), one ``epochs`` row per health epoch, and one
    ``disturbances`` row per op of a played chaos ``script`` block.
    ``columns`` override or add row columns (a chaos cell's campaign
    tag); an ``extra`` among them is merged over the verdict's keys, so
    the census band stays.  Sharded fleets and chaos-lab cells, whose
    rings ran where no subscriber could stream them, are written here.
    """
    health = report.get("health") or {}
    row: Dict[str, Any] = dict(
        algorithm=report.get("algorithm"),
        n=report.get("n"),
        k=report.get("K"),
        seed=report.get("seed"),
        transport=report.get("transport"),
        started_utc=_utcnow(),
        wall_seconds=report.get("wall_clock"),
        stabilized=int(bool(health.get("stabilized"))),
        vacancy_instants=health.get("vacancy_instants"),
        violations=len(health.get("guarantee_violations") or ()),
        restarts=report.get("restarts"),
        source=source,
        extra={**_verdict(health), **columns.pop("extra", {})},
    )
    row.update(columns)
    run_db_id = store.insert_run(run_id, kind=kind, **row)
    for idx, epoch in enumerate(health.get("epochs") or ()):
        label = str(epoch.get("label", "?"))
        store.add_epoch(
            run_db_id,
            idx=idx,
            label=label,
            cls=disturbance_class(label),
            started_at=float(epoch.get("started_at", 0.0)),
            stabilized_at=epoch.get("stabilized_at"),
        )
    for op in (report.get("script") or {}).get("ops", ()):
        store.add_disturbance(
            run_db_id,
            at=float(op.get("at", 0.0)),
            kind=str(op.get("kind", "?")),
            duration=float(op.get("duration", 0.0)),
            params=op.get("params") or None,
        )
    return run_db_id


def ingest_fleet_report(
    store: RunStore,
    run_id: str,
    report: Mapping[str, Any],
    rings: bool = False,
) -> int:
    """Record one fleet invocation as a ``fleet`` row; returns the db id.

    The row's ``extra`` holds the aggregate report (everything but the
    per-ring reports) and the fleet's verdict: every ring ``ok``.  The
    health columns stay NULL, so SLOs count each ring once, through its
    own row.  With ``rings`` the ring rows are written too, named
    ``<run_id>/<ring>`` like the rows an in-process fleet streams — a
    sharded fleet's workers open no store, so its parent records them
    from the merged report.
    """
    ring_reports = report.get("ring_reports") or {}
    first = next(iter(ring_reports.values()), {})
    aggregate = {k: v for k, v in report.items() if k != "ring_reports"}
    aggregate["ok"] = all(
        (ring.get("health") or {}).get("ok") for ring in ring_reports.values()
    )
    run_db_id = store.insert_run(
        run_id,
        kind="fleet",
        algorithm=first.get("algorithm"),
        n=first.get("n"),
        k=first.get("K"),
        seed=first.get("seed"),
        transport=report.get("transport"),
        started_utc=_utcnow(),
        wall_seconds=report.get("wall_clock"),
        stabilized=int(report.get("stabilized_rings") == report.get("rings")),
        source="fleet",
        extra=aggregate,
    )
    if rings:
        for name, ring in sorted(ring_reports.items()):
            ingest_live_report(store, f"{run_id}/{name}", ring, source="fleet")
    store.flush()
    return run_db_id


#: Record keys stored as ``runs`` columns rather than in ``extra``.
_RECORD_COLUMNS = ("experiment_id", "created_utc", "wall_seconds", "extra")


def ingest_manifest(
    store: RunStore, manifest: Dict[str, Any], source: str
) -> None:
    """Record one experiment or fuzz campaign's run record as a ``runs`` row.

    ``manifest`` is :func:`~repro.telemetry.manifest.build_manifest`'s
    record.  The row (kind ``experiment``) takes its algorithm, ``n``,
    ``K`` and seed from the first run descriptor.  Its ``extra`` holds the
    rest of the record — command, package, python and platform, phases,
    run descriptors, ``events_total``, the trace file and truncation, the
    metrics snapshot — plus the record's own ``extra`` keys (an
    experiment's ``fast``/``title``/``match``, a fuzz ``campaign``
    summary).  Every non-zero counter total becomes one sample.
    Recording a ``run_id`` again supersedes the old row and its samples.
    """
    extra = {k: v for k, v in manifest.items() if k not in _RECORD_COLUMNS}
    extra.update(manifest.get("extra") or {})
    descriptors = manifest.get("runs") or []
    first = descriptors[0] if descriptors else {}
    run_db_id = store.insert_run(
        manifest["experiment_id"],
        kind="experiment",
        algorithm=first.get("algorithm"),
        n=first.get("n"),
        k=first.get("K"),
        seed=first.get("seed"),
        started_utc=manifest.get("created_utc"),
        wall_seconds=manifest.get("wall_seconds"),
        source=source,
        extra=extra,
    )
    wall = float(manifest.get("wall_seconds") or 0.0)
    samples = []
    counters = (manifest.get("metrics") or {}).get("counters", {})
    for name, family in counters.items():
        total = sum(
            float(series.get("value") or 0.0)
            for series in family.get("series", ())
        )
        if total:
            samples.append((wall, name, total, None))
    if samples:
        store.add_samples(run_db_id, samples)
    store.flush()


__all__ = [
    "SAMPLED_COUNTER_PREFIXES",
    "StoreSubscriber",
    "ingest_fleet_report",
    "ingest_live_report",
    "ingest_manifest",
    "recorded_ok",
]
