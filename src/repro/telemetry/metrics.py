"""Labelled metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` is the single place a run's quantitative
telemetry accumulates — ``steps_total{daemon=...}``,
``rule_fired_total{rule=R1..R5}``, ``messages_sent_total``,
``messages_lost_total``, the ``convergence_steps`` histogram, and whatever
later subsystems add.  The design follows the Prometheus client model
(metric name + label set -> numeric series) but stays dependency-free and
in-process: a registry is created per telemetry session and snapshotted
into the run record.

Disabled registries hand out shared null metrics whose mutators are
no-ops, so instrumented hot loops pay one attribute call when telemetry is
off (the engines additionally skip instrumentation entirely when no
session is active — see :mod:`repro.telemetry.session`).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (inclusive), chosen to span step
#: counts from tiny verification instances to the Theorem-2 sweeps.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, math.inf
)


def _key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named family of labelled series."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def series(self) -> Iterator[Tuple[LabelKey, object]]:
        """Iterate ``(label_key, value)`` pairs (snapshot order)."""
        raise NotImplementedError

    def snapshot(self) -> List[dict]:
        """JSON-able rows for the run record."""
        return [
            {"labels": dict(k), "value": v} for k, v in sorted(self.series())
        ]


class Counter(Metric):
    """Monotonically increasing count, per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        k = _key(labels)
        self._values[k] = self._values.get(k, 0) + amount

    def value(self, **labels) -> float:
        """Current value of one series (0 if never incremented)."""
        return self._values.get(_key(labels), 0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def series(self) -> Iterator[Tuple[LabelKey, float]]:
        return iter(self._values.items())


class Gauge(Metric):
    """Instantaneous value, per label set (may go up and down)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        """Overwrite the series selected by ``labels``."""
        self._values[_key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (may be negative) to one series."""
        k = _key(labels)
        self._values[k] = self._values.get(k, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        """Subtract ``amount`` from one series."""
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        """Current value of one series (0 if never set)."""
        return self._values.get(_key(labels), 0)

    def series(self) -> Iterator[Tuple[LabelKey, float]]:
        return iter(self._values.items())


class Histogram(Metric):
    """Cumulative-bucket histogram with sum and count, per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.buckets = bounds
        self._series: Dict[LabelKey, dict] = {}

    def _cell(self, labels: Dict[str, object]) -> dict:
        k = _key(labels)
        cell = self._series.get(k)
        if cell is None:
            cell = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._series[k] = cell
        return cell

    def observe(self, value: float, **labels) -> None:
        """Record one observation."""
        cell = self._cell(labels)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                cell["counts"][i] += 1
                break
        cell["sum"] += value
        cell["count"] += 1

    def count(self, **labels) -> int:
        """Observation count of one series (0 if never observed)."""
        cell = self._series.get(_key(labels))
        return cell["count"] if cell else 0

    def sum(self, **labels) -> float:
        """Sum of observations of one series."""
        cell = self._series.get(_key(labels))
        return cell["sum"] if cell else 0.0

    def mean(self, **labels) -> float:
        """Mean observation of one series (NaN when empty)."""
        cell = self._series.get(_key(labels))
        if not cell or not cell["count"]:
            return float("nan")
        return cell["sum"] / cell["count"]

    def series(self) -> Iterator[Tuple[LabelKey, dict]]:
        for k, cell in self._series.items():
            yield k, {
                "buckets": [
                    b if math.isfinite(b) else "inf" for b in self.buckets
                ],
                "counts": list(cell["counts"]),
                "sum": cell["sum"],
                "count": cell["count"],
            }


class _NullCounter(Counter):
    def inc(self, amount: float = 1, **labels) -> None:  # noqa: D102
        pass


class _NullGauge(Gauge):
    def set(self, value: float, **labels) -> None:  # noqa: D102
        pass

    def inc(self, amount: float = 1, **labels) -> None:  # noqa: D102
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float, **labels) -> None:  # noqa: D102
        pass


#: Shared no-op metrics handed out by disabled registries.
NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Factory and container for a session's metrics.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent per name: the
    first call creates the family, later calls return the same object (and
    raise if the name was registered as a different kind).  With
    ``enabled=False`` every accessor returns a shared null metric — the
    cheap no-op behaviour instrumented code relies on.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, Metric] = {}

    def _get(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter family ``name``."""
        if not self.enabled:
            return NULL_COUNTER
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge family ``name``."""
        if not self.enabled:
            return NULL_GAUGE
        return self._get(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram family ``name``."""
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        """Look up a registered family (None if absent)."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Sorted names of every registered family."""
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """JSON-able dump of every metric family, keyed by kind."""
        out: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        section = {"counter": "counters", "gauge": "gauges",
                   "histogram": "histograms"}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[section[metric.kind]][name] = {
                "help": metric.help,
                "series": metric.snapshot(),
            }
        return out
