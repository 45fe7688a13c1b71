"""CLI-level tests for ``repro live run|chaos|status``."""

import pytest

from repro import cli
from repro.observability.store import RunStore


def test_live_run_no_telemetry_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = cli.main([
        "live", "run", "--n", "4", "--timer-interval", "0.05",
        "--duration", "0.3", "--seed", "2", "--no-store",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: HEALTHY" in out
    assert "stabilized: True" in out
    assert "run store:" not in out
    assert list(tmp_path.iterdir()) == []


def test_live_run_records_its_row(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    store = str(tmp_path / "store.sqlite")
    rc = cli.main([
        "live", "run", "--n", "4", "--timer-interval", "0.05",
        "--duration", "0.3", "--seed", "2", "--store", store,
    ])
    assert rc == 0
    assert [p.name for p in tmp_path.iterdir()] == ["store.sqlite"]
    with RunStore(store) as opened:
        run = opened.get_run("live-run-ssrmin-n4-seed2")
        samples = {s["name"] for s in opened.samples_for(run["id"])}
    assert (run["kind"], run["source"], run["stabilized"]) == (
        "live", "live", 1)
    assert run["extra"]["ok"] is True
    # Runtime metrics were flushed into the session and sampled.
    assert "live_rules_executed_total" in samples

    # status over the store summarizes the run and exits 0.
    capsys.readouterr()
    rc = cli.main(["live", "status", "--store", store])
    out = capsys.readouterr().out
    assert rc == 0
    assert "live-run-ssrmin-n4-seed2" in out
    assert out.startswith("ok")


def test_live_status_empty_dir_exits_nonzero(tmp_path, capsys):
    rc = cli.main(["live", "status", "--store",
                   str(tmp_path / "store.sqlite")])
    assert rc == 1
    assert "no run store" in capsys.readouterr().err
    RunStore(str(tmp_path / "store.sqlite")).close()  # a store, no runs
    rc = cli.main(["live", "status", "--store",
                   str(tmp_path / "store.sqlite")])
    assert rc == 1
    assert "no live runs" in capsys.readouterr().out


def test_live_chaos_rejects_unknown_script():
    with pytest.raises(SystemExit):
        cli.main(["live", "chaos", "--script", "nope", "--no-store"])


@pytest.mark.parametrize("command", [["live", "run"], ["live", "chaos"],
                                     ["fleet", "run"], ["top"]])
@pytest.mark.parametrize("interval", ["inf", "nan", "0"])
def test_bad_timer_interval_exits_2_before_booting(command, interval, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*command, "--timer-interval", interval])
    assert exit_info.value.code == 2
    assert "must be finite and positive" in capsys.readouterr().err
