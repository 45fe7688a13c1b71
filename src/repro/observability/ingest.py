"""Ingestion: the live bus subscriber and the manifest record.

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
runtime/run_end           finalize the run (health block, metric samples)
========================  ====================================================

Everything else on the bus is ignored with one dict lookup, which is what
keeps the attached-subscriber overhead on the engine step loop inside the
< 5 % budget.

Registry experiments and fuzz campaigns publish no runtime lifecycle
events, so their row comes from their manifest instead:
:func:`ingest_manifest` records it at the moment the manifest is written.
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, Optional

from repro.observability.incidents import IncidentTracker
from repro.observability.slo import disturbance_class
from repro.observability.store import RunStore
from repro.telemetry.events import Event

#: Metric families sampled into the store at ``run_end`` (totals).
SAMPLED_COUNTER_PREFIXES = ("live_", "messages_", "timer_")


class StoreSubscriber:
    """Streams one telemetry session's events into a :class:`RunStore`.

    Parameters
    ----------
    store:
        The destination store (not closed by this subscriber).
    run_id:
        Public id for the next runtime run (CLI passes its manifest run
        id so the store row and the ``runs/<id>/`` directory line up);
        auto-derived from the ``run_start`` payload when None.
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
        self._run_db_id = self.store.insert_run(
            run_id,
            kind="live",
            algorithm=p.get("algorithm"),
            n=p.get("n"),
            k=p.get("K"),
            seed=p.get("seed"),
            transport=p.get("transport"),
            started_utc=_time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", _time.gmtime()
            ),
            source=self.source,
            extra={"initial": p.get("initial"),
                   "timer_interval": p.get("timer_interval"),
                   "chaos": p.get("chaos")},
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


def ingest_manifest(
    store: RunStore, manifest: Dict[str, Any], source: str
) -> None:
    """Record one experiment or fuzz-campaign manifest as a ``runs`` row.

    The row (kind ``experiment``) takes its algorithm, ``n``, ``K`` and
    seed from the manifest's first run descriptor, and every non-zero
    counter total becomes one sample.  Recording a ``run_id`` again
    supersedes the old row and its samples.
    """
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
        extra={"command": manifest.get("command"),
               "package": manifest.get("package")},
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


__all__ = ["SAMPLED_COUNTER_PREFIXES", "StoreSubscriber", "ingest_manifest"]
