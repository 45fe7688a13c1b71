"""Dashboard: the shared row renderer and the plain-text top frontend."""

import asyncio

from repro.observability.dashboard import (
    RingRow,
    render_rows,
    run_top_fleet,
    top_plain,
)
from repro.observability.ingest import ingest_live_report
from repro.observability.store import RunStore
from repro.runtime.fleet import FleetSupervisor, RingSpec

LIVE_BLOCK = {
    "algorithm": "SSRmin", "n": 4, "restarts": 1,
    "health": {
        "stabilized": True,
        "ok": True,
        "vacancy_instants": 0,
        "guarantee_violations": [],
        "post_stab_min_holders": 1,
        "epochs": [
            {"label": "boot", "started_at": 0.0, "stabilized_at": 0.01},
            {"label": "loss@1.00s", "started_at": 1.0, "stabilized_at": 1.25,
             "time_to_stabilize": 0.25},
        ],
    },
}


def _row(block):
    """``RingRow`` of a live report, as recorded in (and read from) a store."""
    with RunStore(":memory:") as store:
        ingest_live_report(store, "demo", block, source="live")
        run = store.get_run("demo")
        return RingRow.from_run("demo", run, store.epochs_for(run["id"]))


def test_ring_row_from_live_report():
    row = _row(LIVE_BLOCK)
    assert row.algorithm == "SSRmin"
    assert row.status == "STABLE"
    assert row.epoch_label == "loss@1.00s"
    assert row.clock == 0.25
    assert row.restarts == 1
    assert row.census == 1


def test_chaos_cell_row_keeps_the_census_band():
    # A campaign cell's own ``extra`` merges over the verdict's keys.
    with RunStore(":memory:") as store:
        ingest_live_report(store, "camp/loss/seed1", LIVE_BLOCK,
                           source="chaoslab", kind="chaos-cell",
                           campaign="camp",
                           extra={"ok": False, "status": "breach"})
        run = store.get_run("camp/loss/seed1")
        row = RingRow.from_run("cell", run, store.epochs_for(run["id"]))
    assert run["extra"]["post_stab_min_holders"] == 1
    assert run["extra"]["status"] == "breach"
    assert run["extra"]["ok"] is False  # the cell's recorded verdict
    assert row.census == 1


def test_ring_row_flags_breach_and_failure():
    block = {
        "algorithm": "SSRmin", "n": 4,
        "health": {"stabilized": False, "ok": False, "epochs": [
            {"label": "boot", "started_at": 0.0, "stabilized_at": None},
        ]},
    }
    assert _row(block).status == "FAIL"
    block["health"]["stabilized"] = True
    block["health"]["guarantee_violations"] = [{"epoch_index": 0}]
    assert _row(block).status == "BREACH"
    assert _row(block).violations == 1


def test_render_rows_is_fixed_width_table():
    lines = render_rows([_row(LIVE_BLOCK)])
    assert lines[0].startswith("RING")
    assert "CENSUS" in lines[0] and "VAC" in lines[0]
    assert len(lines) == 3  # header, rule, one ring
    assert "SSRmin" in lines[2] and "STABLE" in lines[2]


def test_top_plain_streams_frames_and_records_runs():
    store = RunStore(":memory:")
    frames = []
    specs = [
        RingSpec(name="a", algorithm="ssrmin", n=4, seed=1, wire="json",
                 timer_interval=0.05),
        RingSpec(name="b", algorithm="dijkstra", n=4, seed=2, wire="json",
                 timer_interval=0.05),
    ]
    fleet = FleetSupervisor(specs, transport="loopback", store=store)
    report = top_plain(fleet, duration=0.5, refresh=0.1, out=frames.append)
    rings = report["ring_reports"]
    assert sorted(rings) == ["a", "b"]
    assert all(r["health"]["stabilized"] for r in rings.values())
    text = "\n".join(frames)
    assert "repro top — frame" in text
    assert "ssrmin-a" not in text  # names are used verbatim
    assert "a" in text and "b" in text
    # Every ring left a queryable run behind under the fleet's id, which
    # is named with its base seed.
    runs = {r["run_id"] for r in store.list_runs()}
    assert runs == {"fleet-ssrmin-r2-n4-seed1/a", "fleet-ssrmin-r2-n4-seed1/b"}
    store.close()


def test_top_with_zero_duration_runs_until_stopped():
    frames = []

    def on_frame(lines):
        frames.append(lines)
        return len(frames) == 3  # what the curses frontend's ``q`` does

    # The script is still playing when the frontend stops: the session
    # cancels it and drains the ring.
    spec = RingSpec(name="a", n=4, seed=1, wire="json", timer_interval=0.05,
                    script="loss_burst")
    fleet = FleetSupervisor([spec], transport="loopback")
    report = asyncio.run(run_top_fleet(fleet, 0, 0.05, on_frame))
    assert len(frames) == 3
    assert list(report["ring_reports"]) == ["a"]
    assert [task.cancelled() for task in fleet._tasks] == [True]
