"""CLI-level tests for ``repro live run|chaos|status``."""

import json
import os

import pytest

from repro import cli



def test_live_run_no_telemetry_exits_zero(capsys):
    rc = cli.main([
        "live", "run", "--n", "4", "--timer-interval", "0.05",
        "--duration", "0.3", "--seed", "2", "--no-telemetry",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: HEALTHY" in out
    assert "stabilized: True" in out
    assert "telemetry:" not in out


def test_live_run_writes_manifest(tmp_path, capsys):
    rc = cli.main([
        "live", "run", "--n", "4", "--timer-interval", "0.05",
        "--duration", "0.3", "--seed", "2",
        "--telemetry-dir", str(tmp_path),
        "--store", str(tmp_path / "store.sqlite"),
    ])
    assert rc == 0
    path = os.path.join(tmp_path, "live-run-ssrmin-n4-seed2", "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    live = manifest["extra"]["live"]
    assert live["health"]["stabilized"]
    assert manifest["command"].startswith("repro live run")
    # Runtime metrics were flushed into the session registry.
    assert "live_rules_executed_total" in manifest["metrics"]["counters"]

    # status over the directory summarizes the run and exits 0.
    capsys.readouterr()
    rc = cli.main(["live", "status", "--telemetry-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "live-run-ssrmin-n4-seed2" in out
    assert out.startswith("ok")


def test_live_status_empty_dir_exits_nonzero(tmp_path, capsys):
    rc = cli.main(["live", "status", "--telemetry-dir", str(tmp_path)])
    assert rc == 1
    assert "no live run manifests" in capsys.readouterr().out


def test_live_chaos_rejects_unknown_script():
    with pytest.raises(SystemExit):
        cli.main(["live", "chaos", "--script", "nope", "--no-telemetry"])


@pytest.mark.parametrize("command", [["live", "run"], ["live", "chaos"],
                                     ["fleet", "run"], ["top"]])
@pytest.mark.parametrize("interval", ["inf", "nan", "0"])
def test_bad_timer_interval_exits_2_before_booting(command, interval, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*command, "--timer-interval", interval])
    assert exit_info.value.code == 2
    assert "must be finite and positive" in capsys.readouterr().err
