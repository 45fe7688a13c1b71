"""The SLO engine: paper-grounded service objectives over the run store.

The paper proves exactly the bounds an operator wants dashboards for:

* **Theorem 2** — O(n²)-round stabilization from arbitrary configurations,
  which at runtime becomes *time-to-restabilize per disturbance class*
  (p50/p99 over :class:`~repro.runtime.health.Epoch` records);
* **Theorems 3–4** — once legitimate + coherent, SSRmin's handover is
  graceful: the own-view token census never reaches zero.  At runtime that
  is the *vacancy-instant rate*, which must be exactly **0** for SSRmin and
  is expected non-zero for Dijkstra under CST (Figure 13's gap, live);
* **Lemma 5 / the (1,2) bounds** — census violations must be 0;
* plain *availability* — the fraction of disturbance epochs that
  re-stabilized at all.

An :class:`SloSpec` states one such objective declaratively (metric,
threshold, target fraction, filters); :func:`evaluate_slos` grades every
spec against the epochs/runs in a :class:`~repro.observability.store.RunStore`
and accounts the **error budget**: with ``target`` = 0.99, one percent of
events may breach before the budget is burned; ``budget_burn`` ≥ 1.0 means
the objective failed.  ``repro slo report`` renders the result and exits
non-zero when any spec's budget is burned.

Two helpers used across the observability layer live here too:

* :func:`disturbance_class` maps epoch labels (``"loss@0.60s"``,
  ``"restart-3"``, ``"loss-healed@1.60s"``) to their fault class;
* :func:`merge_epochs` collapses back-to-back disturbances — an epoch that
  never stabilized before the next fault hit is one *logical* outage, and
  counting its unstabilized prefix epochs as availability failures would
  charge the ring for faults it was never given time to absorb.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.observability.store import RunStore

#: Known fault classes, in rendering order.
DISTURBANCE_CLASSES = (
    "boot", "loss", "delay", "duplicate", "reorder", "partition",
    "crash", "wedge", "restart", "corrupt-state", "corrupt-cache",
)

_LABEL_RE = re.compile(r"^(?P<kind>[a-z-]+?)(-healed)?(@[\d.]+s|-\d+)?$")


def disturbance_class(label: str) -> str:
    """Fault class of an epoch label (``"loss-healed@1.6s"`` -> ``"loss"``).

    Labels the runtime emits are ``boot``, ``<kind>@<t>s`` /
    ``<kind>-healed@<t>s`` for transport windows, and ``<kind>-<node>``
    for point faults.  Unrecognized labels classify as ``"other"``.
    """
    match = _LABEL_RE.match(label.strip())
    if match is None:
        return "other"
    kind = match.group("kind")
    return kind if kind in DISTURBANCE_CLASSES else "other"


def merge_epochs(epochs: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Collapse consecutive epochs separated by zero stabilized instants.

    Input rows need ``label``, ``started_at``, ``stabilized_at`` (epoch
    order).  When epoch *i* never stabilized before epoch *i+1* opened,
    the two merge: the logical epoch keeps the **first** fault's onset
    (``first_started_at``), measures restabilization from the **last**
    fault (``started_at``), and carries every constituent label.  The
    class is the last label's class — re-stabilization is measured from
    the disturbance that stopped biting last (a ``loss`` window's
    ``loss-healed`` boundary keeps the ``loss`` class).
    """
    merged: List[Dict[str, Any]] = []
    for epoch in epochs:
        label = str(epoch.get("label", ""))
        row = {
            "label": label,
            "labels": [label],
            "class": epoch.get("class") or disturbance_class(label),
            "first_started_at": epoch.get("started_at"),
            "started_at": epoch.get("started_at"),
            "stabilized_at": epoch.get("stabilized_at"),
            "disturbances": 1,
        }
        if merged and merged[-1]["stabilized_at"] is None:
            prev = merged[-1]
            prev["labels"].append(label)
            prev["label"] = label
            prev["class"] = row["class"]
            prev["started_at"] = row["started_at"]
            prev["stabilized_at"] = row["stabilized_at"]
            prev["disturbances"] += 1
        else:
            merged.append(row)
    for row in merged:
        if row["stabilized_at"] is not None and row["started_at"] is not None:
            row["time_to_stabilize"] = row["stabilized_at"] - row["started_at"]
        else:
            row["time_to_stabilize"] = None
    return merged


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (NaN on empty input)."""
    if not values:
        return float("nan")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    frac = position - lower
    return ordered[lower] * (1 - frac) + ordered[upper] * frac


# -- declarative specs --------------------------------------------------------

#: Metrics a spec can target.
SLO_METRICS = ("restabilize", "vacancy", "census", "availability")


@dataclass(frozen=True)
class SloSpec:
    """One declarative service objective.

    Parameters
    ----------
    name:
        Unique label shown in reports and incident titles.
    metric:
        * ``"restabilize"`` — events are merged disturbance epochs; an
          event is *bad* when it never stabilized or took longer than
          ``threshold`` seconds;
        * ``"vacancy"`` — events are runs; bad when ``vacancy_instants``
          exceeds ``threshold`` (0 = the graceful-handover guarantee);
        * ``"census"`` — events are runs; bad when ``violations`` exceeds
          ``threshold``;
        * ``"availability"`` — events are merged epochs; bad when the
          epoch never stabilized.
    target:
        Required good fraction (0.99 = one bad event per hundred allowed);
        the error budget is ``1 - target``.
    threshold:
        Metric-specific bound (seconds for ``restabilize``, a count
        otherwise).
    algorithm:
        Substring filter on the stored algorithm name (``"ssrmin"``
        matches ``"SSRmin"``); None applies to every algorithm.
    disturbance_class:
        Restrict epoch-based metrics to one fault class.
    """

    name: str
    metric: str
    target: float = 1.0
    threshold: float = 0.0
    algorithm: Optional[str] = None
    disturbance_class: Optional[str] = None

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            raise ValueError(
                f"unknown SLO metric {self.metric!r}; have {SLO_METRICS}"
            )
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {self.target}")

    def to_json(self) -> dict:
        """JSON-able form (spec files round-trip through this)."""
        return asdict(self)

    @classmethod
    def from_json(cls, row: dict) -> "SloSpec":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(row) - known
        if unknown:
            raise ValueError(f"unknown SloSpec fields: {sorted(unknown)}")
        return cls(**row)


def default_slos() -> List[SloSpec]:
    """The paper-grounded default objectives.

    The restabilize threshold is deliberately generous (wall-clock depends
    on timer cadence, not just the O(n²) round bound); deployments tune it
    in a spec file.
    """
    return [
        SloSpec(name="restabilize-10s", metric="restabilize",
                target=0.99, threshold=10.0),
        SloSpec(name="ssrmin-zero-vacancy", metric="vacancy",
                target=1.0, threshold=0.0, algorithm="ssrmin"),
        SloSpec(name="census-in-bounds", metric="census",
                target=1.0, threshold=0.0),
        SloSpec(name="availability", metric="availability", target=0.95),
    ]


def load_slo_specs(path: str) -> List[SloSpec]:
    """Load specs from a JSON file (a list of SloSpec dicts)."""
    with open(path) as fh:
        rows = json.load(fh)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON list of SLO specs")
    return [SloSpec.from_json(row) for row in rows]


# -- evaluation ---------------------------------------------------------------


@dataclass
class SloResult:
    """One spec graded against the store."""

    spec: SloSpec
    events: int
    bad: int
    #: Example offender descriptions (run/epoch), capped.
    offenders: List[str] = field(default_factory=list)

    @property
    def good_fraction(self) -> float:
        if self.events == 0:
            return 1.0
        return 1.0 - self.bad / self.events

    @property
    def budget_burn(self) -> float:
        """Fraction of the error budget consumed (>= 1.0 means burned).

        A zero-width budget (target = 1.0) burns completely on the first
        bad event.
        """
        if self.events == 0 or self.bad == 0:
            return 0.0
        budget = 1.0 - self.spec.target
        bad_fraction = self.bad / self.events
        if budget <= 0.0:
            return math.inf
        return bad_fraction / budget

    @property
    def ok(self) -> bool:
        return self.budget_burn < 1.0

    def to_json(self) -> dict:
        """JSON-able form (``repro slo report --json``)."""
        return {
            "spec": self.spec.to_json(),
            "events": self.events,
            "bad": self.bad,
            "good_fraction": self.good_fraction,
            "budget_burn": (
                self.budget_burn if math.isfinite(self.budget_burn)
                else "inf"
            ),
            "ok": self.ok,
            "offenders": list(self.offenders),
        }


_MAX_OFFENDERS = 5


def _alg_matches(stored: Optional[str], wanted: Optional[str]) -> bool:
    if wanted is None:
        return True
    return wanted.lower() in (stored or "").lower()


def _merged_epoch_events(
    store: RunStore, spec: SloSpec
) -> List[Dict[str, Any]]:
    """Merged epochs of every matching run, tagged with run identity."""
    events: List[Dict[str, Any]] = []
    for run in store.list_runs(algorithm=spec.algorithm):
        raw = store.epochs_for(run["id"])
        if not raw:
            continue
        for epoch in merge_epochs(raw):
            epoch["run"] = run["run_id"]
            events.append(epoch)
    if spec.disturbance_class is not None:
        events = [e for e in events if e["class"] == spec.disturbance_class]
    return events


def evaluate_slo(store: RunStore, spec: SloSpec) -> SloResult:
    """Grade one spec against the store."""
    result = SloResult(spec=spec, events=0, bad=0)
    if spec.metric in ("restabilize", "availability"):
        for epoch in _merged_epoch_events(store, spec):
            result.events += 1
            ttr = epoch["time_to_stabilize"]
            if spec.metric == "availability":
                is_bad = ttr is None
            else:
                is_bad = ttr is None or ttr > spec.threshold
            if is_bad:
                result.bad += 1
                if len(result.offenders) < _MAX_OFFENDERS:
                    result.offenders.append(
                        f"{epoch['run']} epoch {epoch['label']}: "
                        + ("never stabilized" if ttr is None
                           else f"ttr {ttr:.3f}s > {spec.threshold}s")
                    )
        return result
    # run-level metrics
    column = "vacancy_instants" if spec.metric == "vacancy" else "violations"
    for run in store.list_runs(algorithm=spec.algorithm):
        value = run.get(column)
        if value is None:
            continue  # no health columns (an experiment or fuzz row)
        result.events += 1
        if value > spec.threshold:
            result.bad += 1
            if len(result.offenders) < _MAX_OFFENDERS:
                result.offenders.append(
                    f"{run['run_id']}: {column}={value} > {spec.threshold:g}"
                )
    return result


def evaluate_slos(
    store: RunStore,
    specs: Optional[Sequence[SloSpec]] = None,
    open_incidents: bool = False,
    now: float = 0.0,
) -> List[SloResult]:
    """Grade every spec; optionally record burned budgets as incidents.

    With ``open_incidents=True`` each failing spec opens one ``slo-burn``
    incident (severity ``critical``) carrying the offender list — unless an
    unresolved ``slo-burn`` incident with the same title is already open,
    so repeated reports don't multiply records.
    """
    if specs is None:
        specs = default_slos()
    results = [evaluate_slo(store, spec) for spec in specs]
    if open_incidents:
        already_open = {
            inc["title"] for inc in store.incidents(open_only=True)
            if inc["kind"] == "slo-burn"
        }
        for result in results:
            title = f"SLO budget burned: {result.spec.name}"
            if result.ok or title in already_open:
                continue
            store.open_incident(
                run_db_id=None,
                opened_at=now,
                kind="slo-burn",
                severity="critical",
                title=title,
                details={
                    "spec": result.spec.to_json(),
                    "events": result.events,
                    "bad": result.bad,
                    "offenders": result.offenders,
                },
            )
        store.flush()
    return results


# -- the report ---------------------------------------------------------------

def restabilize_stats(store: RunStore) -> List[Dict[str, Any]]:
    """p50/p99 time-to-restabilize per (algorithm, disturbance class).

    Never-stabilized merged epochs contribute ``inf`` so a ring that wedges
    shows up as an unbounded p99 instead of silently dropping out.
    """
    groups: Dict[tuple, List[float]] = {}
    for run in store.list_runs():
        raw = store.epochs_for(run["id"])
        if not raw:
            continue
        for epoch in merge_epochs(raw):
            key = (run.get("algorithm") or "?", epoch["class"])
            ttr = epoch["time_to_stabilize"]
            groups.setdefault(key, []).append(
                ttr if ttr is not None else math.inf
            )
    rows = []
    for (algorithm, cls), values in sorted(groups.items()):
        rows.append({
            "algorithm": algorithm,
            "class": cls,
            "epochs": len(values),
            "p50": quantile(values, 0.50),
            "p99": quantile(values, 0.99),
            "max": max(values),
        })
    return rows


def vacancy_stats(store: RunStore) -> List[Dict[str, Any]]:
    """Total vacancy instants and census violations per algorithm."""
    totals: Dict[str, Dict[str, Any]] = {}
    for run in store.list_runs():
        algorithm = run.get("algorithm") or "?"
        cell = totals.setdefault(
            algorithm,
            {"algorithm": algorithm, "runs": 0, "vacancy_instants": 0,
             "violations": 0},
        )
        if run.get("vacancy_instants") is None:
            continue
        cell["runs"] += 1
        cell["vacancy_instants"] += int(run.get("vacancy_instants") or 0)
        cell["violations"] += int(run.get("violations") or 0)
    return sorted(totals.values(), key=lambda c: c["algorithm"])


def _fmt_seconds(value: float) -> str:
    if math.isnan(value):
        return "-"
    if math.isinf(value):
        return "inf"
    return f"{value:.3f}s"


def render_slo_report(
    store: RunStore, results: Sequence[SloResult]
) -> List[str]:
    """Human-readable ``repro slo report`` output."""
    lines: List[str] = []
    counts = store.counts()
    lines.append(
        f"run store: {store.path} — {counts['runs']} runs, "
        f"{counts['epochs']} epochs, {counts['incidents']} incidents"
    )
    lines.append("")
    lines.append("time-to-restabilize (merged epochs):")
    stats = restabilize_stats(store)
    if not stats:
        lines.append("  (no epochs recorded)")
    for row in stats:
        lines.append(
            f"  {row['algorithm']:<14s} {row['class']:<13s} "
            f"epochs={row['epochs']:<4d} p50={_fmt_seconds(row['p50']):<9s} "
            f"p99={_fmt_seconds(row['p99']):<9s} "
            f"max={_fmt_seconds(row['max'])}"
        )
    lines.append("")
    lines.append("handover vacancy / census (per algorithm):")
    for row in vacancy_stats(store):
        lines.append(
            f"  {row['algorithm']:<14s} runs={row['runs']:<4d} "
            f"vacancy_instants={row['vacancy_instants']:<6d} "
            f"census_violations={row['violations']}"
        )
    lines.append("")
    lines.append("objectives:")
    for result in results:
        spec = result.spec
        burn = result.budget_burn
        burn_text = "inf" if math.isinf(burn) else f"{burn * 100:.0f}%"
        scope = []
        if spec.algorithm:
            scope.append(spec.algorithm)
        if spec.disturbance_class:
            scope.append(spec.disturbance_class)
        scope_text = f" [{'/'.join(scope)}]" if scope else ""
        lines.append(
            f"  {'OK  ' if result.ok else 'BURN'} {spec.name}{scope_text}: "
            f"{result.events - result.bad}/{result.events} good "
            f"(target {spec.target * 100:g}%, budget burn {burn_text})"
        )
        for offender in result.offenders:
            lines.append(f"        - {offender}")
    open_incidents = store.incidents(open_only=True)
    if open_incidents:
        lines.append("")
        lines.append(f"open incidents: {len(open_incidents)}")
        for inc in open_incidents[:10]:
            lines.append(
                f"  #{inc['id']} [{inc['severity']}] {inc['title']} "
                f"(run {inc.get('run') or '-'})"
            )
    return lines


__all__ = [
    "DISTURBANCE_CLASSES",
    "SLO_METRICS",
    "SloResult",
    "SloSpec",
    "default_slos",
    "disturbance_class",
    "evaluate_slo",
    "evaluate_slos",
    "load_slo_specs",
    "merge_epochs",
    "quantile",
    "render_slo_report",
    "restabilize_stats",
    "vacancy_stats",
]
