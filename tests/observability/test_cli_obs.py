"""CLI-level tests: runs, slo, top, live --store, live status --watch."""

import json

from repro import cli
from repro.observability.store import RunStore


def _record_run(tmp_path, algorithm="ssrmin", seed=3):
    store = str(tmp_path / "store.sqlite")
    rc = cli.main([
        "live", "chaos", "--script", "loss_burst",
        "--algorithm", algorithm, "--n", "4",
        "--transport", "loopback", "--seed", str(seed),
        "--timer-interval", "0.05", "--stabilize-timeout", "20",
        "--store", store,
    ])
    assert rc == 0
    return store


def test_live_chaos_records_into_store_and_slo_report_passes(
        tmp_path, capsys):
    store = _record_run(tmp_path)
    capsys.readouterr()

    rc = cli.main(["runs", "list", "--store", store])
    out = capsys.readouterr().out
    assert rc == 0
    assert "live-chaos-loss_burst-ssrmin-n4-seed3" in out

    rc = cli.main(["slo", "report", "--store", store])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p99" in out
    assert "ssrmin-zero-vacancy" in out
    assert "OK" in out


def test_no_store_flag_skips_recording(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    store = str(tmp_path / "store.sqlite")
    rc = cli.main([
        "live", "run", "--n", "4", "--transport", "loopback",
        "--seed", "1", "--timer-interval", "0.05",
        "--stabilize-timeout", "20", "--duration", "0.2",
        "--store", store, "--no-store",
    ])
    assert rc == 0
    assert list(tmp_path.iterdir()) == []  # no store, no other file


def test_runs_show_and_query(tmp_path, capsys):
    store = _record_run(tmp_path)
    capsys.readouterr()

    rc = cli.main(["runs", "show", "live-chaos-loss_burst-ssrmin-n4-seed3",
                   "--store", store])
    out = capsys.readouterr().out
    assert rc == 0
    assert "epochs (" in out and "incidents (" in out
    assert "loss_burst" in out
    assert "  K: 5" in out

    rc = cli.main(["runs", "query",
                   "SELECT algorithm, vacancy_instants FROM runs",
                   "--store", store, "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rows[0]["algorithm"] == "SSRmin"
    assert rows[0]["vacancy_instants"] == 0

    rc = cli.main(["runs", "query", "DELETE FROM runs", "--store", store])
    assert rc == 1

    rc = cli.main(["runs", "show", "no-such-run", "--store", store])
    assert rc == 1


def test_runs_commands_fail_cleanly_without_store(tmp_path, capsys):
    rc = cli.main(["runs", "list", "--store",
                   str(tmp_path / "missing.sqlite")])
    assert rc == 1
    assert "no run store" in capsys.readouterr().err


def test_slo_report_burns_on_failed_run(tmp_path, capsys):
    store_path = str(tmp_path / "store.sqlite")
    with RunStore(store_path) as store:
        rid = store.insert_run(
            "live-bad", kind="live", algorithm="SSRmin", n=4,
            stabilized=0, vacancy_instants=3, violations=0,
        )
        store.add_epoch(rid, 0, "boot", "boot", 0.0)
    rc = cli.main(["slo", "report", "--store", store_path,
                   "--open-incidents"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "BURN" in out
    with RunStore(store_path) as store:
        assert any(i["kind"] == "slo-burn" for i in store.incidents())


def test_top_plain_cli(tmp_path, capsys):
    store = str(tmp_path / "store.sqlite")
    rc = cli.main([
        "top", "--plain", "--rings", "2", "--n", "4",
        "--duration", "0.4", "--refresh", "0.1",
        "--timer-interval", "0.05", "--store", store,
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "repro top — frame" in out
    assert "ssrmin-0" in out and "dijkstra-1" in out
    with RunStore(store) as opened:
        assert {r["run_id"] for r in opened.list_runs()} == {
            "fleet-ssrmin-r2-n4-seed0",
            "fleet-ssrmin-r2-n4-seed0/ssrmin-0",
            "fleet-ssrmin-r2-n4-seed0/dijkstra-1",
        }
        fleet = opened.get_run("fleet-ssrmin-r2-n4-seed0")
    assert fleet["kind"] == "fleet" and fleet["extra"]["ok"] is True
    assert fleet["extra"]["transport"] == "loopback"


def test_live_status_watch_renders_dashboard_rows(tmp_path, capsys):
    _record_run(tmp_path)
    capsys.readouterr()
    rc = cli.main(["live", "status", "--watch", "--iterations", "1",
                   "--store", str(tmp_path / "store.sqlite")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "live status — frame 1" in out
    # The same columns `repro top` renders (shared renderer).
    assert "RING" in out and "CENSUS" in out and "STATUS" in out
    assert "STABLE" in out


def test_live_status_watch_empty_dir_exits_nonzero(tmp_path, capsys):
    rc = cli.main(["live", "status", "--watch", "--iterations", "1",
                   "--store", str(tmp_path / "store.sqlite")])
    assert rc == 1
    assert "no run store" in capsys.readouterr().err
