"""HealthMonitor epoch edge cases.

Three scenarios the dashboard and SLO engine must get right:

* a disturbance arriving *before* the ring ever stabilized (the boot epoch
  closes un-stabilized; the merged view treats boot + fault as one outage);
* back-to-back chaos ops with no re-stabilization between them (one
  logical outage, not two — ``merge_epochs`` collapses them);
* vacancy counting across a watchdog restart (the monitor outlives node
  objects, so Dijkstra's handover-gap counter is monotone over restarts).

The first two drive a :class:`HealthMonitor` directly with fake nodes and
a fake clock (fully deterministic); the last uses a real supervisor.
"""

import asyncio
from typing import List

from repro.core.ssrmin import SSRmin
from repro.observability.slo import merge_epochs
from repro.runtime.health import HealthMonitor

STABILIZE_TIMEOUT = 20.0


class FakeNode:
    """index/state/cache/view() — the shape HealthMonitor reads."""

    def __init__(self, alg, index: int, state):
        self.algorithm = alg
        self.index = index
        self.state = state
        self.cache = {}

    def view(self):
        v: List = [None] * self.algorithm.n
        v[self.index] = self.state
        for k, val in self.cache.items():
            v[k] = val
        return v


def _ring(alg, config):
    nodes = [FakeNode(alg, i, s) for i, s in enumerate(config)]
    for node in nodes:
        for k in ((node.index - 1) % alg.n, (node.index + 1) % alg.n):
            node.cache[k] = nodes[k].state
    return nodes


def _monitor(alg, nodes, clock_box):
    return HealthMonitor(alg, lambda: nodes, lambda: clock_box[0])


def _scramble(nodes, alg):
    """Make node 0's cache stale: neither legitimate-looking nor coherent."""
    space = alg.local_state_space()
    wrong = next(s for s in space if s != nodes[1].state)
    nodes[0].cache[1] = wrong


def test_disturbance_before_first_stabilization():
    alg = SSRmin(3, 4)
    nodes = _ring(alg, alg.initial_configuration())
    clock = [0.0]
    monitor = _monitor(alg, nodes, clock)

    # Boot epoch never stabilizes: the caches are scrambled from the start.
    _scramble(nodes, alg)
    clock[0] = 0.1
    monitor.notify()
    assert not monitor.stabilized

    # The fault hits *before* the first stabilization.
    clock[0] = 0.5
    monitor.note_disturbance("corrupt-state-0")
    assert len(monitor.epochs) == 2
    assert monitor.epochs[0].stabilized_at is None

    # Repair: legitimate + coherent for the first time ever.
    nodes[0].cache[1] = nodes[1].state
    clock[0] = 0.8
    monitor.notify()
    snap = monitor.snapshot()
    assert snap.legitimate and snap.coherent
    assert monitor.stabilized
    assert monitor.epochs[1].time_to_stabilize == 0.8 - 0.5

    # Merged view: boot + fault are ONE outage, classed by the last label,
    # with the restabilization clock anchored at the last disturbance.
    merged = merge_epochs([e.to_json() for e in monitor.epochs])
    assert len(merged) == 1
    assert merged[0]["class"] == "corrupt-state"
    assert merged[0]["labels"] == ["boot", "corrupt-state-0"]
    assert merged[0]["first_started_at"] == 0.0
    assert merged[0]["started_at"] == 0.5
    assert merged[0]["time_to_stabilize"] == 0.8 - 0.5


def test_back_to_back_ops_collapse_into_one_outage():
    alg = SSRmin(3, 4)
    nodes = _ring(alg, alg.initial_configuration())
    clock = [0.0]
    monitor = _monitor(alg, nodes, clock)

    opened, stabilized = [], []
    monitor.on_epoch_open = lambda i, e: opened.append((i, e.label))
    monitor.on_epoch_stabilized = lambda i, e: stabilized.append(i)

    clock[0] = 0.05
    monitor.notify()
    assert monitor.stabilized  # boot epoch closes immediately

    # Two chaos ops in quick succession, no re-stabilization between.
    clock[0] = 1.0
    _scramble(nodes, alg)
    monitor.note_disturbance("loss@1.00s")
    monitor.notify()
    clock[0] = 1.2
    monitor.note_disturbance("crash-2")
    monitor.notify()
    assert opened == [(1, "loss@1.00s"), (2, "crash-2")]
    assert monitor.epochs[1].stabilized_at is None

    nodes[0].cache[1] = nodes[1].state
    clock[0] = 1.5
    monitor.notify()
    assert stabilized == [0, 2]

    merged = merge_epochs([e.to_json() for e in monitor.epochs])
    assert [m["class"] for m in merged] == ["boot", "crash"]
    outage = merged[1]
    assert outage["labels"] == ["loss@1.00s", "crash-2"]
    assert outage["disturbances"] == 2
    assert outage["first_started_at"] == 1.0
    assert abs(outage["time_to_stabilize"] - 0.3) < 1e-9


def test_census_audit_suspended_while_fault_window_bites():
    """Theorem 3 premises fault-free execution: a census dip during an
    active loss window is not a vacancy/violation, the same dip after the
    window heals is."""
    class HideableTokens(SSRmin):
        hide_tokens = False

        def node_holds_token(self, view, i):
            return (not self.hide_tokens
                    and super().node_holds_token(view, i))

    # The monitor keys bounds + gracefulness off the type name.
    HideableTokens.__name__ = "SSRmin"
    alg = HideableTokens(3, 4)
    nodes = _ring(alg, alg.initial_configuration())
    clock = [0.05]
    monitor = _monitor(alg, nodes, clock)
    monitor.notify()
    assert monitor.stabilized

    alg.hide_tokens = True  # every own view goes token-less

    monitor.window_opened()
    clock[0] = 0.2
    monitor.notify()
    assert monitor.vacancy_instants == 0
    assert monitor.guarantee_violations == []

    monitor.window_healed()
    clock[0] = 0.3
    monitor.notify()
    assert monitor.vacancy_instants == 1
    assert len(monitor.guarantee_violations) == 1


def test_vacancy_counter_survives_watchdog_restart():
    """Dijkstra's handover-gap counter must be monotone across a restart:
    the monitor re-reads node objects, so swapping a server out from under
    it neither resets nor double-counts the tally."""
    from repro.runtime import RingSupervisor
    from repro.runtime.harness import build_algorithm

    async def scenario():
        sup = RingSupervisor(
            build_algorithm("dijkstra", 4, None), transport="loopback",
            seed=31, timer_interval=0.05, watchdog_interval=0.05,
        )
        try:
            await sup.boot()
            await sup.wait_stabilized(STABILIZE_TIMEOUT)
            await sup.run_for(0.4)
            before_kill = sup.health.vacancy_instants
            sup.kill(2)
            deadline = asyncio.get_running_loop().time() + STABILIZE_TIMEOUT
            while sup.total_restarts < 1:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            await sup.wait_stabilized(STABILIZE_TIMEOUT)
            await sup.run_for(0.4)
            after = sup.health.vacancy_instants
        finally:
            await sup.shutdown()
        return before_kill, after, sup.report()

    before_kill, after, report = asyncio.run(scenario())
    health = report["health"]
    # Dijkstra under CST shows the Figure 13 gap already before the crash.
    assert before_kill > 0
    # ... and keeps counting (never resets) across the watchdog restart.
    assert after >= before_kill
    assert health["vacancy_instants"] == after
    assert report["restarts"] >= 1
    assert health["stabilized"]
    assert any(e["label"].startswith(("crash-", "restart-"))
               for e in health["epochs"][1:])
