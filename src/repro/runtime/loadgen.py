"""Open-loop load generation against a live ring's critical section.

The camera application (:mod:`repro.apps`) interprets the own-view token
holder as the *active* camera; operationally, clients contend for that
privilege — a priority review of the live feed, an exclusive actuator, the
mutual-exclusion critical section in general.  :class:`LoadGenerator`
models an open-loop client population issuing ``rate`` requests per second
against one live :class:`~repro.runtime.supervisor.RingSupervisor`:

* arrivals are drawn per event-loop tick as ``rate * dt`` with stochastic
  rounding (seeded), so a million-request-per-second workload costs the
  same integer arithmetic as ten per second — the generator never
  materializes individual requests;
* a request is **served** at the first tick where at least one node sees
  the token in its own view (Definition 3's ``h_i`` — the active camera);
  requests arriving while the census is vacant queue until the next
  holder tick, and their waits are recorded.

The report makes the paper's Theorem 3 operational: with SSRmin's
graceful handover the census never drops to zero after stabilization, so
``blocked_ticks`` stays 0 and every request is served within one tick;
Dijkstra's handover gap shows up directly as queued requests and a
nonzero wait tail.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Tuple

from repro.runtime.supervisor import RingSupervisor


def _weighted_percentile(
    samples: List[Tuple[float, int]], q: float
) -> float:
    """Percentile over ``(value, count)`` buckets (q in [0, 1])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    total = sum(c for _, c in ordered)
    target = q * total
    seen = 0
    for value, count in ordered:
        seen += count
        if seen >= target:
            return value
    return ordered[-1][0]


@dataclass
class LoadReport:
    """What a load run delivered (JSON-able via :meth:`to_json`)."""

    rate: float
    duration: float
    ticks: int
    requests: int
    served: int
    #: Ticks where the own-view census was vacant while demand waited —
    #: zero for a stabilized graceful-handover ring.
    blocked_ticks: int
    #: Requests still queued when the run ended.
    pending: int
    max_queue: int
    wait_p50: float
    wait_p99: float
    wait_max: float

    @property
    def throughput(self) -> float:
        """Served requests per second of load-run wall clock."""
        return self.served / self.duration if self.duration > 0 else 0.0

    def to_json(self) -> dict:
        """Plain-dict form for fleet/ring reports."""
        return {
            "rate": self.rate,
            "duration": self.duration,
            "ticks": self.ticks,
            "requests": self.requests,
            "served": self.served,
            "throughput": self.throughput,
            "blocked_ticks": self.blocked_ticks,
            "pending": self.pending,
            "max_queue": self.max_queue,
            "wait_p50": self.wait_p50,
            "wait_p99": self.wait_p99,
            "wait_max": self.wait_max,
        }


class LoadGenerator:
    """Drives one supervisor's ring with synthetic critical-section demand.

    Parameters
    ----------
    supervisor:
        A booted (or about-to-boot) live ring.
    rate:
        Mean request arrival rate (requests/second, open loop).
    seed:
        Stochastic-rounding RNG seed (runs replay).
    tick:
        Polling cadence in seconds; also the service granularity — waits
        are measured in whole ticks.
    """

    def __init__(
        self,
        supervisor: RingSupervisor,
        rate: float,
        seed: int = 0,
        tick: float = 0.005,
    ):
        import random

        self.supervisor = supervisor
        self.rate = float(rate)
        self.tick = tick
        self.rng = random.Random(seed ^ 0x10AD)
        self._queue: List[Tuple[int, float]] = []  # (count, enqueued_at)
        self._waits: List[Tuple[float, int]] = []  # (wait, count) buckets
        self.requests = 0
        self.served = 0
        self.blocked_ticks = 0
        self.ticks = 0
        self.max_queue = 0
        self._elapsed = 0.0

    # -- the tick ------------------------------------------------------------
    def _holders(self) -> int:
        """Own-view token holders, from the health monitor's census."""
        return self.supervisor.health.census.count()

    def _arrivals(self, dt: float) -> int:
        """Stochastically-rounded ``rate * dt`` (exact in expectation)."""
        exact = self.rate * dt
        count = int(exact)
        frac = exact - count
        if frac > 0.0 and self.rng.random() < frac:
            count += 1
        return count

    def step(self, dt: float, now: float) -> None:
        """Advance one tick: admit arrivals, serve if a holder exists."""
        self.ticks += 1
        arrivals = self._arrivals(dt)
        self.requests += arrivals
        if self._holders() >= 1:
            # Every queued request drains this tick; record its wait.
            for count, enqueued_at in self._queue:
                self._waits.append((now - enqueued_at, count))
                self.served += count
            self._queue.clear()
            if arrivals:
                self._waits.append((0.0, arrivals))
                self.served += arrivals
        else:
            if arrivals:
                self._queue.append((arrivals, now))
            if self._queue:
                self.blocked_ticks += 1
        depth = sum(c for c, _ in self._queue)
        if depth > self.max_queue:
            self.max_queue = depth

    async def run(self, duration: float) -> LoadReport:
        """Generate load for ``duration`` seconds; returns the report."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        last = start
        deadline = start + duration
        while True:
            await asyncio.sleep(self.tick)
            now = loop.time()
            self.step(now - last, now)
            last = now
            if now >= deadline:
                break
        self._elapsed = last - start
        return self.report()

    # -- reporting -----------------------------------------------------------
    def report(self) -> LoadReport:
        """Snapshot the demand/service counters as a :class:`LoadReport`."""
        pending = sum(c for c, _ in self._queue)
        return LoadReport(
            rate=self.rate,
            duration=self._elapsed,
            ticks=self.ticks,
            requests=self.requests,
            served=self.served,
            blocked_ticks=self.blocked_ticks,
            pending=pending,
            max_queue=self.max_queue,
            wait_p50=_weighted_percentile(self._waits, 0.50),
            wait_p99=_weighted_percentile(self._waits, 0.99),
            wait_max=max((w for w, _ in self._waits), default=0.0),
        )


__all__ = ["LoadGenerator", "LoadReport"]
