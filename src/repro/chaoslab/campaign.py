"""Declarative chaos campaigns: fault grids, persistence, and reports.

A :class:`CampaignSpec` is the file-shaped description of a resilience
study: one ring recipe, a list of typed faults, and a list of seeds.
:meth:`CampaignSpec.experiments` expands the ``seeds × faults`` grid into
:class:`~repro.chaoslab.experiment.ChaosExperiment` cells;
:func:`run_campaign` drives them through an
:class:`~repro.chaoslab.scheduler.ExperimentScheduler` and persists every
cell into the :class:`~repro.observability.store.RunStore` — a tagged
``runs`` row per cell (``runs.campaign``), its epochs, its injected
disturbances, every observation as a ``samples`` row, and a **critical
incident per invariant breach** — plus one ``campaigns`` row holding the
spec and the final report.

The report itself (:func:`build_campaign_report`) is computed *from the
store*, not from in-memory results: per-fault-class p50/p99
time-to-restabilize over merged epochs
(:func:`~repro.observability.slo.merge_epochs`), the breach list, and
error-budget burn — the fraction of failed cells over the campaign's
allowance.
"""

from __future__ import annotations

import json
import math
import os
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaoslab.experiment import (
    ChaosExperiment,
    ExperimentResult,
    ExperimentStatus,
)
from repro.chaoslab.observe import ObservationPoint
from repro.chaoslab.scheduler import ExperimentScheduler, OnProgress
from repro.observability.ingest import ingest_live_report
from repro.observability.slo import merge_epochs, quantile
from repro.observability.store import RunStore
from repro.runtime.chaos import FaultConfig


def _utcnow() -> str:
    return _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime())


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: a fault grid over one ring recipe.

    Every ``(fault, seed)`` pair becomes one experiment cell named
    ``<campaign>/<fault-slug>/seed<seed>``; compound multi-fault cells
    are built directly as :class:`ChaosExperiment`\\ s when needed.
    """

    name: str
    faults: Tuple[FaultConfig, ...]
    seeds: Tuple[int, ...] = (0,)
    algorithm: str = "ssrmin"
    n: int = 6
    K: Optional[int] = None
    transport: str = "loopback"
    wire: str = "json"
    timer_interval: float = 0.05
    budget: float = 10.0
    settle: float = 1.0
    stabilize_timeout: float = 20.0
    extra_duration: float = 0.0
    abort_on_breach: bool = True
    #: Fraction of grid cells allowed to fail before the campaign does.
    error_budget: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(
            f if isinstance(f, FaultConfig) else FaultConfig.from_json(f)
            for f in self.faults
        ))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.faults:
            raise ValueError("campaign needs at least one fault")
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if not math.isfinite(self.settle):
            # The director would sleep through it forever.
            raise ValueError(f"settle must be finite, got {self.settle}")
        if not (math.isfinite(self.timer_interval) and self.timer_interval > 0):
            # inf parks every node's refresh timer for good.
            raise ValueError("timer_interval must be finite and positive, "
                             f"got {self.timer_interval}")
        if not math.isfinite(self.stabilize_timeout):
            raise ValueError("stabilize_timeout must be finite, "
                             f"got {self.stabilize_timeout}")
        if not (math.isfinite(self.extra_duration)
                and self.extra_duration >= 0):
            raise ValueError("extra_duration must be finite and "
                             f"non-negative, got {self.extra_duration}")
        if not 0.0 <= self.error_budget <= 1.0:
            raise ValueError(
                f"error_budget must be in [0, 1], got {self.error_budget}"
            )

    @property
    def cells(self) -> int:
        return len(self.faults) * len(self.seeds)

    def experiments(self) -> List[ChaosExperiment]:
        """Expand the ``seeds × faults`` grid into experiment cells."""
        out: List[ChaosExperiment] = []
        for fault in self.faults:
            for seed in self.seeds:
                out.append(ChaosExperiment(
                    name=f"{self.name}/{fault.slug}/seed{seed}",
                    faults=(fault,),
                    algorithm=self.algorithm,
                    n=self.n,
                    K=self.K,
                    seed=seed,
                    transport=self.transport,
                    wire=self.wire,
                    timer_interval=self.timer_interval,
                    budget=self.budget,
                    settle=self.settle,
                    stabilize_timeout=self.stabilize_timeout,
                    extra_duration=self.extra_duration,
                    abort_on_breach=self.abort_on_breach,
                ))
        return out

    def to_json(self) -> dict:
        """JSON-able form (spec files, the ``campaigns.spec`` column)."""
        return {
            "name": self.name,
            "faults": [f.to_json() for f in self.faults],
            "seeds": list(self.seeds),
            "algorithm": self.algorithm,
            "n": self.n,
            "K": self.K,
            "transport": self.transport,
            "wire": self.wire,
            "timer_interval": self.timer_interval,
            "budget": self.budget,
            "settle": self.settle,
            "stabilize_timeout": self.stabilize_timeout,
            "extra_duration": self.extra_duration,
            "abort_on_breach": self.abort_on_breach,
            "error_budget": self.error_budget,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "CampaignSpec":
        if "name" not in blob:
            raise ValueError(f"campaign spec needs a 'name': {blob!r}")
        if not blob.get("faults"):
            raise ValueError(f"campaign {blob['name']!r} declares no faults")
        kwargs: Dict[str, Any] = {
            "name": blob["name"],
            "faults": tuple(
                FaultConfig.from_json(f) for f in blob["faults"]
            ),
        }
        for key in ("seeds", "algorithm", "n", "K", "transport", "wire",
                    "timer_interval", "budget", "settle",
                    "stabilize_timeout", "extra_duration",
                    "abort_on_breach", "error_budget"):
            if key in blob:
                kwargs[key] = blob[key]
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(kwargs["seeds"])
        return cls(**kwargs)


def load_campaign_spec(path: str) -> CampaignSpec:
    """Load a campaign spec file: JSON always, YAML when available."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if os.path.splitext(path)[1].lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise RuntimeError(
                f"{path}: YAML specs need PyYAML; re-express the spec as "
                f"JSON or install pyyaml"
            ) from None
        blob = yaml.safe_load(text)
    else:
        blob = json.loads(text)
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: campaign spec must be a mapping")
    return CampaignSpec.from_json(blob)


# -- persistence ---------------------------------------------------------------

def _fault_class(experiment: ChaosExperiment) -> str:
    """Grid-cell fault class: the fault's type, or ``mixed`` for volleys."""
    types = {f.fault_type.value for f in experiment.faults}
    return types.pop() if len(types) == 1 else "mixed"


def persist_experiment(
    store: RunStore,
    campaign: str,
    result: ExperimentResult,
) -> int:
    """Write one experiment cell into the store; returns its run db id.

    The ring's row, epochs and injected disturbances come from
    :func:`~repro.observability.ingest.ingest_live_report` (kind
    ``chaos-cell``, tagged with the campaign); this adds one ``samples``
    row per observation and — for a fatal result — exactly one escalated
    (critical) incident.
    """
    experiment = result.experiment
    run_db_id = ingest_live_report(
        store,
        experiment.name,
        result.report,
        source="chaoslab",
        kind="chaos-cell",
        campaign=campaign,
        n=experiment.n,
        seed=experiment.seed,
        transport=experiment.transport,
        script="+".join(f.slug for f in experiment.faults),
        extra={
            "status": result.status.value,
            "ok": result.ok,
            "fatal": result.fatal,
            "fault_class": _fault_class(experiment),
            "budget": experiment.budget,
            "time_to_restabilize": result.time_to_restabilize,
            "leaked_tasks": result.leaked_tasks,
            "faults": [f.to_json() for f in experiment.faults],
        },
    )
    store.add_samples(run_db_id, [
        (
            obs.time,
            f"obs.{obs.point}",
            obs.value if obs.value is not None else 0.0,
            {"event": obs.event, "breach": obs.breach, "fatal": obs.fatal},
        )
        for obs in result.observations
    ])
    if result.fatal:
        first = next(o for o in result.observations if o.fatal)
        store.open_incident(
            run_db_id,
            opened_at=first.time,
            kind="invariant-breach",
            severity="critical",
            title=(
                f"invariant breach in {experiment.name}: "
                f"{first.point} at {first.time:.2f}s"
            ),
            details={"observation": first.to_json(),
                     "status": result.status.value},
        )
    store.flush()
    return run_db_id


# -- reporting -----------------------------------------------------------------

def build_campaign_report(store: RunStore, name: str) -> dict:
    """Assemble the campaign report from the store (the source of truth).

    Per-fault-class restabilization latency quantiles are computed over
    the **merged** epochs of every cell in the class (so back-to-back
    disturbances within one cell count once, measured from the fault
    that stopped biting last), plus the breach list and error-budget
    burn.
    """
    row = store.get_campaign(name)
    if row is None:
        raise ValueError(f"no campaign named {name!r} in the store")
    spec = row.get("spec") or {}
    error_budget = float(spec.get("error_budget", 0.0))
    runs = store.campaign_runs(name)

    cells: List[dict] = []
    by_class: Dict[str, List[float]] = {}
    breaches: List[dict] = []
    for run in runs:
        extra = run.get("extra") or {}
        cls = extra.get("fault_class", "other")
        merged = merge_epochs(store.epochs_for(run["id"]))
        for epoch in merged:
            ttr = epoch.get("time_to_stabilize")
            if ttr is not None and epoch.get("class") != "boot":
                by_class.setdefault(cls, []).append(float(ttr))
        for sample in store.samples_for(run["id"]):
            labels = sample.get("labels") or {}
            if labels.get("breach"):
                breaches.append({
                    "cell": run["run_id"],
                    "point": str(sample.get("name", "")).replace(
                        "obs.", "", 1),
                    "time": sample.get("time"),
                    "value": sample.get("value"),
                    "fatal": bool(labels.get("fatal")),
                })
        cells.append({
            "cell": run["run_id"],
            "fault_class": cls,
            "seed": run.get("seed"),
            "status": extra.get("status"),
            "ok": bool(extra.get("ok")),
            "time_to_restabilize": extra.get("time_to_restabilize"),
            "stabilized": bool(run.get("stabilized")),
            "restarts": run.get("restarts"),
        })

    classes = {
        cls: {
            "cells": len(values),
            "p50": quantile(values, 0.50),
            "p99": quantile(values, 0.99),
            "max": max(values),
        }
        for cls, values in sorted(by_class.items())
    }
    total = len(cells)
    failed = sum(1 for c in cells if not c["ok"])
    aborted = sum(
        1 for c in cells if c["status"] == ExperimentStatus.ABORTED.value
    )
    failed_fraction = failed / total if total else 0.0
    if failed == 0:
        burn = 0.0
    elif error_budget > 0:
        burn = failed_fraction / error_budget
    else:
        burn = float("inf")
    return {
        "campaign": name,
        "cells": total,
        "completed": total - aborted,
        "aborted": aborted,
        "failed": failed,
        "classes": classes,
        "breaches": breaches,
        "error_budget": {
            "budget": error_budget,
            "failed_fraction": failed_fraction,
            "burn": burn,
            "ok": failed_fraction <= error_budget,
        },
        "ok": failed_fraction <= error_budget,
        "cell_rows": cells,
    }


def render_campaign_report(report: dict) -> List[str]:
    """Human-readable campaign report lines (the CLI's output)."""
    budget = report.get("error_budget", {})
    lines = [
        f"campaign:  {report.get('campaign')}",
        f"cells:     {report.get('cells')} "
        f"({report.get('completed')} completed, "
        f"{report.get('aborted')} aborted, {report.get('failed')} failed)",
    ]
    classes = report.get("classes", {})
    if classes:
        lines.append("time-to-restabilize by fault class:")
        for cls, stats in classes.items():
            lines.append(
                f"  {cls:<18} p50={stats['p50']:.3f}s  "
                f"p99={stats['p99']:.3f}s  max={stats['max']:.3f}s  "
                f"({stats['cells']} epochs)"
            )
    breaches = report.get("breaches", ())
    lines.append(f"breaches:  {len(breaches)}")
    for breach in breaches:
        marker = "FATAL " if breach.get("fatal") else ""
        lines.append(
            f"  {marker}{breach['cell']}: {breach['point']} "
            f"at {breach.get('time', 0.0):.2f}s"
        )
    burn = budget.get("burn", 0.0)
    lines.append(
        f"error budget: {budget.get('failed_fraction', 0.0):.1%} failed "
        f"of {budget.get('budget', 0.0):.1%} allowed "
        f"(burn {'∞' if burn == float('inf') else f'{burn:.2f}'}) -> "
        f"{'OK' if budget.get('ok') else 'EXCEEDED'}"
    )
    return lines


# -- execution -----------------------------------------------------------------

def run_campaign(
    spec: CampaignSpec,
    store: Optional[RunStore] = None,
    workers: int = 1,
    points: Optional[List[ObservationPoint]] = None,
    on_progress: Optional[OnProgress] = None,
) -> dict:
    """Run a campaign's full grid and return the store-derived report.

    Without a ``store`` an in-memory one is used for the duration — the
    report is *always* assembled from a RunStore, so persisted and
    ephemeral campaigns answer from the same code path.  Cells persist
    in completion order (parallel results are persisted parent-side; the
    scheduler's workers only ship JSON back).
    """
    own_store = store is None
    if own_store:
        store = RunStore(":memory:")
    assert store is not None
    experiments = spec.experiments()
    store.insert_campaign(
        spec.name,
        spec=spec.to_json(),
        started_utc=_utcnow(),
        cells=len(experiments),
    )
    results: List[Optional[ExperimentResult]] = [None] * len(experiments)

    def _progress(
        index: int, result: ExperimentResult, done: int, total: int
    ) -> None:
        results[index] = result
        persist_experiment(store, spec.name, result)
        if on_progress is not None:
            on_progress(index, result, done, total)

    scheduler = ExperimentScheduler(
        workers=workers, points=points, on_progress=_progress,
    )
    try:
        final = scheduler.run(experiments)
        # The scheduler's return is authoritative; persist any cell the
        # progress callback missed (defensive — sequential never does).
        for index, result in enumerate(final):
            if results[index] is None:
                persist_experiment(store, spec.name, result)
        wall = sum(
            r.report.get("wall_clock", 0.0) or 0.0 for r in final
        )
        report = build_campaign_report(store, spec.name)
        store.update_campaign(
            spec.name,
            wall_seconds=wall,
            completed=report["completed"],
            aborted=report["aborted"],
            breaches=len(report["breaches"]),
            report=report,
        )
        store.flush()
    finally:
        if own_store:
            store.close()
    return report


__all__ = [
    "CampaignSpec",
    "build_campaign_report",
    "load_campaign_spec",
    "persist_experiment",
    "render_campaign_report",
    "run_campaign",
]
