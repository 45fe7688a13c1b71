"""One run record: every entry point writes the run store and nothing else,
row ids say what ran, and every surface reads one recorded verdict."""

import os

from repro import cli
from repro.core.ssrmin import SSRmin
from repro.experiments.report import generate_report
from repro.observability.ingest import StoreSubscriber
from repro.observability.store import RunStore
from repro.runtime import default_specs, run_fleet
from repro.runtime.health import HealthMonitor
from repro.telemetry.events import Event

LOOPBACK_FLEET = ["fleet", "run", "--transport", "loopback", "--rings", "2",
                  "--n", "4", "--timer-interval", "0.05", "--duration",
                  "0.2", "--seed", "1"]


def _ids(store_path, kind=None):
    with RunStore(store_path) as store:
        return sorted(r["run_id"] for r in store.list_runs(kind=kind))


def test_two_fleets_keep_their_ring_rows(tmp_path):
    store = str(tmp_path / "store.sqlite")
    for seed in (1, 50):
        report = run_fleet(
            default_specs(2, n=4, seed=seed, timer_interval=0.05),
            duration=0.2, transport="loopback", store_path=store,
        )
        assert report["stabilized_rings"] == 2
    assert _ids(store) == [
        "fleet-ssrmin-r2-n4-seed1/ring-0", "fleet-ssrmin-r2-n4-seed1/ring-1",
        "fleet-ssrmin-r2-n4-seed50/ring-0", "fleet-ssrmin-r2-n4-seed50/ring-1",
    ]


def test_two_top_sessions_keep_their_ring_rows(tmp_path, capsys):
    # top records a fleet, the way ``fleet run`` does: one fleet row and
    # one row per ring under the fleet id, which carries the base seed.
    store = str(tmp_path / "store.sqlite")
    for seed in ("0", "10"):
        assert cli.main(["top", "--plain", "--rings", "2", "--n", "4",
                         "--duration", "0.2", "--refresh", "0.1",
                         "--timer-interval", "0.05", "--seed", seed,
                         "--store", store]) == 0
    assert "(run fleet-ssrmin-r2-n4-seed10, 2 ring rows)" in \
        capsys.readouterr().out
    assert _ids(store, kind="fleet") == [
        "fleet-ssrmin-r2-n4-seed0", "fleet-ssrmin-r2-n4-seed10",
    ]
    assert _ids(store, kind="live") == [
        "fleet-ssrmin-r2-n4-seed0/dijkstra-1",
        "fleet-ssrmin-r2-n4-seed0/ssrmin-0",
        "fleet-ssrmin-r2-n4-seed10/dijkstra-1",
        "fleet-ssrmin-r2-n4-seed10/ssrmin-0",
    ]


def _record_breached_run(store_path):
    """A live row whose final epoch stabilized, then broke the guarantee."""
    monitor = HealthMonitor(SSRmin(4, 5), nodes=lambda: [],
                            clock=lambda: 1.0)
    monitor.epochs[0].stabilized_at = 0.5
    monitor.guarantee_violations.append(
        {"time": 0.9, "holders": [], "legitimate": True, "epoch": "boot",
         "epoch_index": 0})
    health = monitor.to_json()
    assert health["stabilized"] and not health["ok"]
    with RunStore(store_path) as store:
        subscriber = StoreSubscriber(store, run_id="live-run-breached",
                                     source="live")
        subscriber(Event(0, 0.0, "runtime", "run_start",
                         {"algorithm": "SSRmin", "n": 4, "seed": 0,
                          "transport": "loopback"}))
        subscriber(Event(1, 1.0, "runtime", "run_end", health))
        subscriber.close()


def test_live_status_fails_a_final_epoch_violation(tmp_path, capsys):
    store = str(tmp_path / "store.sqlite")
    _record_breached_run(store)
    assert cli.main(["live", "status", "--store", store]) == 1
    assert capsys.readouterr().out.startswith("FAIL live-run-breached:")
    assert cli.main(["runs", "list", "--store", store]) == 0
    assert capsys.readouterr().out.startswith("FAIL live-run-breached:")
    assert cli.main(["live", "status", "--watch", "--iterations", "1",
                     "--store", store]) == 0
    assert "BREACH" in capsys.readouterr().out


def test_runs_list_prints_the_last_epochs_ttr(tmp_path, capsys):
    store_path = str(tmp_path / "store.sqlite")
    with RunStore(store_path) as store:
        rid = store.insert_run("live-x", kind="live", algorithm="SSRmin",
                               n=4, stabilized=1, extra={"ok": True})
        store.add_epoch(rid, 0, "boot", "boot", 0.0, stabilized_at=0.1)
        store.add_epoch(rid, 1, "loss@1.00s", "loss", 1.0,
                        stabilized_at=2.3)
    assert cli.main(["runs", "list", "--store", store_path]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("ok   live-x:")
    assert line.endswith(" ttr=1.300s")


def test_runs_list_selects_every_recorded_kind(tmp_path, capsys):
    store_path = str(tmp_path / "store.sqlite")
    with RunStore(store_path) as store:
        for run_id, kind in (("lem1", "experiment"), ("live-x", "live"),
                             ("fleet-ssrmin-r2-n4-seed1", "fleet"),
                             ("ci-cell-0", "chaos-cell"),
                             ("ci-cell-1", "chaos-cell")):
            store.insert_run(run_id, kind=kind, algorithm="SSRmin", n=4)
    for kind, ids in (("fleet", ["fleet-ssrmin-r2-n4-seed1"]),
                      ("chaos-cell", ["ci-cell-0", "ci-cell-1"])):
        assert cli.main(["runs", "list", "--kind", kind,
                         "--store", store_path]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert sorted(line.split()[1] for line in lines) == [
            f"{run_id}:" for run_id in ids]
        assert all(f": {kind} SSRmin n=4 " in line for line in lines)


def test_fleet_run_and_status_read_the_store(tmp_path, capsys):
    store = str(tmp_path / "store.sqlite")
    assert cli.main([*LOOPBACK_FLEET, "--store", store]) == 0
    assert os.listdir(tmp_path) == ["store.sqlite"]
    assert _ids(store, kind="fleet") == ["fleet-ssrmin-r2-n4-seed1"]
    with RunStore(store) as opened:
        fleet = opened.get_run("fleet-ssrmin-r2-n4-seed1")
    assert fleet["extra"]["ok"] is True and fleet["stabilized"] == 1
    assert fleet["vacancy_instants"] is None  # counted on the ring rows
    assert set(fleet["extra"]) >= {"rings", "transport", "loop",
                                   "delivered_per_sec", "specs"}
    capsys.readouterr()
    assert cli.main(["fleet", "status", "--store", store]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("ok   fleet-ssrmin-r2-n4-seed1: 2 rings over "
                             "loopback (loop=")
    assert out[0].endswith(" msgs/sec")
    assert out[1].lstrip().startswith("RING")
    assert [line.split()[0] for line in out[3:]] == ["ring-0", "ring-1"]
    assert all("STABLE" in line for line in out[3:])


def test_sharded_fleet_rings_recorded_from_the_merged_report(tmp_path, capsys):
    store = str(tmp_path / "store.sqlite")
    assert cli.main([*LOOPBACK_FLEET, "--workers", "2",
                     "--store", store]) == 0
    assert _ids(store) == [
        "fleet-ssrmin-r2-n4-seed1", "fleet-ssrmin-r2-n4-seed1/ring-0",
        "fleet-ssrmin-r2-n4-seed1/ring-1",
    ]
    capsys.readouterr()
    assert cli.main(["fleet", "status", "--store", store]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("ok   fleet-ssrmin-r2-n4-seed1: 2 rings")
    assert [line.split()[0] for line in out[3:]] == ["ring-0", "ring-1"]
    with RunStore(store) as opened:
        ring = opened.get_run("fleet-ssrmin-r2-n4-seed1/ring-0")
        assert opened.epochs_for(ring["id"])
    assert ring["extra"]["ok"] is True


def test_every_entry_point_leaves_only_the_store_and_its_traces(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    live = ["--n", "4", "--transport", "loopback", "--timer-interval",
            "0.05", "--duration", "0.2", "--seed", "1"]
    assert cli.main(["run", "lem1", "--fast"]) == 0
    generate_report(fast=True, experiment_ids=["lem2", "fig03"],
                    telemetry_dir="runs")
    assert cli.main(["fuzz", "run", "--trials", "3", "--seed", "2"]) == 0
    assert cli.main(["live", "run", *live]) == 0
    assert cli.main(["live", "chaos", "--script", "cache_scramble",
                     *live]) == 0
    assert cli.main([*LOOPBACK_FLEET]) == 0
    assert cli.main([*LOOPBACK_FLEET[:-1], "3", "--workers", "2"]) == 0
    assert cli.main(["top", "--plain", "--rings", "2", "--n", "4",
                     "--duration", "0.2", "--refresh", "0.1",
                     "--timer-interval", "0.05"]) == 0
    files = sorted(
        os.path.relpath(os.path.join(root, name), tmp_path)
        for root, _, names in os.walk(tmp_path) for name in names
    )
    assert files == [os.path.join("runs", "fuzz-seed2", "trace.jsonl"),
                     os.path.join("runs", "lem1", "trace.jsonl"),
                     os.path.join("runs", "store.sqlite")]
    assert _ids(os.path.join("runs", "store.sqlite")) == [
        "fig03",
        "fleet-ssrmin-r2-n4-seed0", "fleet-ssrmin-r2-n4-seed0/dijkstra-1",
        "fleet-ssrmin-r2-n4-seed0/ssrmin-0",
        "fleet-ssrmin-r2-n4-seed1", "fleet-ssrmin-r2-n4-seed1/ring-0",
        "fleet-ssrmin-r2-n4-seed1/ring-1",
        "fleet-ssrmin-r2-n4-seed3", "fleet-ssrmin-r2-n4-seed3/ring-0",
        "fleet-ssrmin-r2-n4-seed3/ring-1",
        "fuzz-seed2", "lem1", "lem2",
        "live-chaos-cache_scramble-ssrmin-n4-seed1",
        "live-run-ssrmin-n4-seed1",
    ]
