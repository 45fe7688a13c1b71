"""Dashboard: the shared row renderer and the plain-text top frontend."""

from repro.observability.dashboard import (
    RingRow,
    TopRingSpec,
    render_rows,
    top_plain,
)
from repro.observability.ingest import ingest_live_report
from repro.observability.store import RunStore

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
        TopRingSpec(name="a", algorithm="ssrmin", n=4, seed=1,
                    timer_interval=0.05),
        TopRingSpec(name="b", algorithm="dijkstra", n=4, seed=2,
                    timer_interval=0.05),
    ]
    reports = top_plain(specs, duration=0.5, refresh=0.1,
                        store=store, out=frames.append)
    assert len(reports) == 2
    assert all(r["health"]["stabilized"] for r in reports)
    text = "\n".join(frames)
    assert "repro top — frame" in text
    assert "ssrmin-a" not in text  # names are used verbatim
    assert "a" in text and "b" in text
    # Every ring left a queryable run behind, named with its seed.
    runs = {r["run_id"] for r in store.list_runs()}
    assert runs == {"top-a-seed1", "top-b-seed2"}
    store.close()
