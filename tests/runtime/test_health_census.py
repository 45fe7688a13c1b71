"""The live health census against the snapshot oracle, at every notification.

:class:`~repro.runtime.health.HealthMonitor` checks the ring on an
incremental census fed one changed node per notification;
:meth:`~repro.runtime.health.HealthMonitor.snapshot` rebuilds the same
facts from every node object.  These runs install a monitor that, after
each ``notify``, requires the census's (holders, coherent, legitimate) to
equal the snapshot's.

The default runs cover the three paths that change a node outside a
receive or a timer: corrupt-state and corrupt-cache (``cache_scramble``,
on a bidirectional and a unidirectional ring) and a watchdog restart
(``crash_restart``).  The ``slow`` runs cover every other chaos preset,
for both algorithms, from legitimate and from random starts.
"""

import pytest

from repro.runtime import PRESETS, live_chaos
from repro.runtime import supervisor as supervisor_module
from repro.runtime.health import HealthMonitor

STABILIZE_TIMEOUT = 20.0

DEFAULT_RUNS = [
    ("ssrmin", "cache_scramble", "legitimate"),
    ("dijkstra", "cache_scramble", "legitimate"),
    ("ssrmin", "crash_restart", "legitimate"),
]
SLOW_RUNS = [
    (algorithm, script, initial)
    for algorithm in ("ssrmin", "dijkstra")
    for script in sorted(PRESETS)
    for initial in ("legitimate", "random")
    if (algorithm, script, initial) not in DEFAULT_RUNS
]


@pytest.fixture
def monitors(monkeypatch):
    """Every monitor the supervisor builds, each checked per notify."""
    built = []

    class CheckedMonitor(HealthMonitor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.compared = 0
            self.mismatches = []
            built.append(self)

        def notify(self, node=None):
            super().notify(node)
            snap = self.snapshot()
            census = self.census
            got = (census.holders(), census.stale == 0, census.legitimate())
            want = (snap.own_view_holders, snap.coherent, snap.legitimate)
            self.compared += 1
            if got != want:
                self.mismatches.append((snap.time, got, want))

    monkeypatch.setattr(supervisor_module, "HealthMonitor", CheckedMonitor)
    return built


def run_checked(monitors, algorithm, script, initial):
    report = live_chaos(
        script=script, algorithm=algorithm, n=5, transport="loopback",
        seed=5, timer_interval=0.05, initial=initial,
        stabilize_timeout=STABILIZE_TIMEOUT,
    )
    (monitor,) = monitors
    assert monitor.mismatches == []
    assert monitor.compared == monitor.checks > 100
    assert report["health"]["stabilized"]
    return report


@pytest.mark.parametrize("algorithm,script,initial", DEFAULT_RUNS)
def test_census_matches_snapshot(monitors, algorithm, script, initial):
    report = run_checked(monitors, algorithm, script, initial)
    labels = [e["label"] for e in report["health"]["epochs"]]
    if script == "cache_scramble":
        assert any(lbl.startswith("corrupt-state") for lbl in labels)
        assert any(lbl.startswith("corrupt-cache") for lbl in labels)
    else:
        assert report["restarts"] >= 1
        assert any(lbl.startswith("restart-") for lbl in labels)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm,script,initial", SLOW_RUNS)
def test_census_matches_snapshot_under_every_script(
        monitors, algorithm, script, initial):
    run_checked(monitors, algorithm, script, initial)
