"""End-to-end tests: live asyncio rings stabilize and circulate.

No pytest-asyncio in the toolchain, so every test drives its own event
loop via ``asyncio.run`` from a plain sync function.
"""

import asyncio

import pytest

from repro.core.ssrmin import SSRmin
from repro.runtime import RingSupervisor, live_run

#: Generous deadline for loaded CI machines; real latency is ~10ms.
STABILIZE_TIMEOUT = 20.0


def _assert_healthy(report, lo=1, hi=2):
    health = report["health"]
    assert health["stabilized"], health
    assert health["guarantee_violations"] == []
    assert health["post_stab_min_holders"] >= lo
    assert health["post_stab_max_holders"] <= hi
    assert health["token_bounds"] == [lo, hi]


def test_loopback_n4_stabilizes_and_circulates():
    report = live_run(
        algorithm="ssrmin", n=4, transport="loopback", duration=0.5,
        seed=11, timer_interval=0.05, stabilize_timeout=STABILIZE_TIMEOUT,
    )
    _assert_healthy(report)
    # The token actually moved: rules executed on several nodes.
    rules = [s["rules_executed"] for s in report["nodes"].values()]
    assert sum(rules) > 0
    assert report["transport_stats"]["delivered"] > 0


def test_udp_n4_stabilizes():
    report = live_run(
        algorithm="ssrmin", n=4, transport="udp", duration=0.5,
        seed=3, timer_interval=0.05, stabilize_timeout=STABILIZE_TIMEOUT,
    )
    _assert_healthy(report)
    assert report["transport"] == "udp"


def test_dijkstra_loopback_shows_handover_gap():
    """Dijkstra under CST is *not* graceful: the own-view census dips to
    zero while a handover message is in flight (the Figure 13 gap), so
    the monitor counts vacancies instead of flagging violations."""
    report = live_run(
        algorithm="dijkstra", n=4, transport="loopback", duration=0.5,
        seed=5, timer_interval=0.05, stabilize_timeout=STABILIZE_TIMEOUT,
    )
    health = report["health"]
    assert health["stabilized"]
    assert not health["graceful_handover"]
    assert health["guarantee_violations"] == []
    assert health["token_bounds"] == [1, 1]
    # The gap SSRmin closes: token-less own-view instants were observed.
    assert health["vacancy_instants"] > 0


def test_ssrmin_loopback_has_no_vacancy_instants():
    """Theorem 3 live: SSRmin's own view never goes token-less."""
    report = live_run(
        algorithm="ssrmin", n=4, transport="loopback", duration=0.5,
        seed=5, timer_interval=0.05, stabilize_timeout=STABILIZE_TIMEOUT,
    )
    assert report["health"]["graceful_handover"]
    assert report["health"]["vacancy_instants"] == 0


def test_random_initial_configuration_stabilizes():
    """Theorem 4 live: boot from arbitrary states + default caches."""
    report = live_run(
        algorithm="ssrmin", n=4, transport="loopback", duration=0.3,
        seed=29, timer_interval=0.05, initial="random",
        stabilize_timeout=STABILIZE_TIMEOUT,
    )
    health = report["health"]
    assert health["stabilized"]
    # Once stabilized the census bound must hold on legitimate instants.
    final = len(health["epochs"]) - 1
    assert not [v for v in health["guarantee_violations"]
                if v["epoch_index"] == final]


@pytest.mark.slow
def test_loopback_n8_stabilizes_and_circulates():
    report = live_run(
        algorithm="ssrmin", n=8, transport="loopback", duration=1.0,
        seed=8, timer_interval=0.05, stabilize_timeout=STABILIZE_TIMEOUT,
    )
    _assert_healthy(report)
    rules = [s["rules_executed"] for s in report["nodes"].values()]
    assert sum(rules) > 0


@pytest.mark.parametrize("interval", [float("inf"), float("nan"), 0.0, -1.0])
def test_supervisor_rejects_bad_timer_interval(interval):
    with pytest.raises(ValueError, match="timer_interval must be finite"):
        RingSupervisor(SSRmin(4, 5), transport="loopback",
                       timer_interval=interval)


def test_kill_node_mid_run_watchdog_restarts_and_restabilizes():
    async def scenario():
        sup = RingSupervisor(
            SSRmin(4, 5), transport="loopback", seed=17,
            timer_interval=0.05, watchdog_interval=0.05,
        )
        try:
            await sup.boot()
            await sup.wait_stabilized(STABILIZE_TIMEOUT)
            victim = 2
            sup.kill(victim)
            assert not sup.servers[victim].alive
            # Watchdog must notice the corpse and bring up a fresh server.
            deadline = asyncio.get_running_loop().time() + STABILIZE_TIMEOUT
            while sup.total_restarts < 1:
                assert asyncio.get_running_loop().time() < deadline, \
                    "watchdog never restarted the killed node"
                await asyncio.sleep(0.02)
            await sup.wait_stabilized(STABILIZE_TIMEOUT)
            await sup.run_for(0.3)
        finally:
            await sup.shutdown()
        return sup.report()

    report = asyncio.run(scenario())
    assert report["restarts"] >= 1
    assert report["crashes_requested"] == 1
    health = report["health"]
    assert health["stabilized"]
    # The crash opened a new epoch; re-stabilization latency is recorded.
    assert any(e["label"].startswith("crash-") or
               e["label"].startswith("restart-")
               for e in health["epochs"][1:])
    assert health["time_to_restabilize"] is not None


def test_wedged_node_detected_and_restarted():
    """A node whose heartbeat dies silently is wedged, not crashed —
    the liveness watchdog must still replace it."""
    async def scenario():
        sup = RingSupervisor(
            SSRmin(4, 5), transport="loopback", seed=23,
            timer_interval=0.05, watchdog_interval=0.05,
            wedge_timeout=0.2,
        )
        try:
            await sup.boot()
            await sup.wait_stabilized(STABILIZE_TIMEOUT)
            # Simulate a wedge: the timer task dies but the server still
            # claims to be running (no crash() bookkeeping happened).
            sup.servers[1]._timer_task.cancel()
            deadline = asyncio.get_running_loop().time() + STABILIZE_TIMEOUT
            while sup.total_restarts < 1:
                assert asyncio.get_running_loop().time() < deadline, \
                    "watchdog never replaced the wedged node"
                await asyncio.sleep(0.02)
            await sup.wait_stabilized(STABILIZE_TIMEOUT)
        finally:
            await sup.shutdown()
        return sup.report()

    report = asyncio.run(scenario())
    assert report["restarts"] >= 1
    assert report["health"]["stabilized"]
