"""Campaign specs, RunStore persistence (schema v2), and grid reports."""

import json
import math
import sqlite3

import pytest

from repro import cli
from repro.chaoslab import (
    CampaignSpec,
    FaultConfig,
    FaultType,
    build_campaign_report,
    load_campaign_spec,
    render_campaign_report,
    run_campaign,
)
from repro.observability import RunStore
from repro.observability.store import SCHEMA_VERSION


def _spec(**overrides):
    kwargs = dict(
        name="test-campaign",
        faults=(
            FaultConfig(FaultType.LOSS, at=0.2, duration=0.3, severity=0.4),
            FaultConfig(FaultType.NODE_CRASH, at=0.3),
        ),
        seeds=(7,),
        n=4,
        settle=0.6,
        budget=15.0,
        timer_interval=0.05,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestCampaignSpec:
    def test_grid_expansion(self):
        spec = _spec(seeds=(1, 2, 3))
        experiments = spec.experiments()
        assert spec.cells == len(experiments) == 6
        names = [e.name for e in experiments]
        assert len(set(names)) == 6
        assert "test-campaign/loss-0.4/seed2" in names
        assert "test-campaign/node-crash/seed3" in names

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one fault"):
            CampaignSpec(name="x", faults=())
        with pytest.raises(ValueError, match="at least one seed"):
            _spec(seeds=())
        with pytest.raises(ValueError, match="error_budget"):
            _spec(error_budget=1.5)
        for settle in (math.inf, math.nan):
            with pytest.raises(ValueError, match="settle must be finite"):
                _spec(settle=settle)

    def test_json_roundtrip(self):
        spec = _spec(error_budget=0.25, seeds=(1, 9))
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone == spec

    def test_load_spec_json_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(_spec().to_json()))
        assert load_campaign_spec(str(path)) == _spec()

    def test_load_spec_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "campaign.yaml"
        path.write_text(yaml.safe_dump(_spec().to_json()))
        assert load_campaign_spec(str(path)) == _spec()

    def test_load_spec_rejects_non_finite_onset(self, tmp_path):
        """Python's json reads ``NaN``; the fault refuses it."""
        path = tmp_path / "nan.json"
        path.write_text('{"name": "x", "faults": [{"type": "loss", '
                        '"at": NaN}]}')
        with pytest.raises(ValueError, match="at must be finite"):
            load_campaign_spec(str(path))

    @pytest.mark.parametrize("field,value", [
        ("timer_interval", math.inf),
        ("timer_interval", math.nan),
        ("timer_interval", 0.0),
        ("timer_interval", -0.05),
        ("stabilize_timeout", math.inf),
        ("stabilize_timeout", math.nan),
        ("extra_duration", math.inf),
        ("extra_duration", math.nan),
        ("extra_duration", -1.0),
    ])
    def test_ring_timing_validated(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            _spec(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("timer_interval", "Infinity"),
        ("stabilize_timeout", "NaN"),
        ("extra_duration", "-Infinity"),
    ])
    def test_load_spec_rejects_bad_ring_timing(self, tmp_path, field, value):
        path = tmp_path / "timing.json"
        path.write_text('{"name": "x", "faults": [{"type": "wedge"}], '
                        f'"{field}": {value}}}')
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            load_campaign_spec(str(path))

    def test_load_spec_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="mapping"):
            load_campaign_spec(str(path))


class TestStoreSchemaV2:
    def test_fresh_store_has_campaigns_table(self):
        with RunStore(":memory:") as store:
            assert store.counts()["campaigns"] == 0

    def test_v1_store_migrates_in_place(self, tmp_path):
        """A v1-era store (no campaign column, no campaigns table) opens
        cleanly and gains both without touching existing rows."""
        path = str(tmp_path / "v1.sqlite")
        conn = sqlite3.connect(path)
        conn.executescript("""
            CREATE TABLE runs (
                id INTEGER PRIMARY KEY, run_id TEXT NOT NULL UNIQUE,
                kind TEXT NOT NULL, algorithm TEXT, n INTEGER, k INTEGER,
                seed INTEGER, transport TEXT, script TEXT,
                started_utc TEXT, wall_seconds REAL, stabilized INTEGER,
                vacancy_instants INTEGER, violations INTEGER,
                restarts INTEGER, source TEXT, extra TEXT
            );
            INSERT INTO runs (run_id, kind) VALUES ('old-run', 'live');
            PRAGMA user_version = 1;
        """)
        conn.commit()
        conn.close()
        with RunStore(path) as store:
            run = store.get_run("old-run")
            assert run is not None and run["campaign"] is None
            store.insert_campaign("fresh", cells=0)
            assert store.get_campaign("fresh")["cells"] == 0
        version = sqlite3.connect(path).execute(
            "PRAGMA user_version"
        ).fetchone()[0]
        assert version == SCHEMA_VERSION

    def test_newer_schema_refused(self, tmp_path):
        path = str(tmp_path / "future.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="newer"):
            RunStore(path)

    def test_campaign_supersede_drops_member_runs(self):
        with RunStore(":memory:") as store:
            store.insert_campaign("camp", cells=1)
            run_db_id = store.insert_run(
                "camp/loss/seed0", kind="chaos-cell", campaign="camp",
            )
            store.add_epoch(run_db_id, 0, "boot", "boot", 0.0, 0.1)
            assert store.counts()["runs"] == 1
            # Re-inserting the campaign wipes its runs (and, via FK
            # cascade, their children) before the new cells land.
            store.insert_campaign("camp", cells=2)
            store.flush()
            assert store.counts()["runs"] == 0
            assert store.counts()["epochs"] == 0
            assert store.get_campaign("camp")["cells"] == 2


class TestRunCampaign:
    def test_two_cell_campaign_persists_and_reports(self):
        spec = _spec()
        with RunStore(":memory:") as store:
            report = run_campaign(spec, store=store)
            row = store.get_campaign("test-campaign")
            assert row["cells"] == 2
            assert row["completed"] == 2 and row["aborted"] == 0
            assert row["report"]["ok"] is True
            runs = store.campaign_runs("test-campaign")
            assert len(runs) == 2
            for run in runs:
                assert run["kind"] == "chaos-cell"
                assert run["stabilized"] == 1
                # The cell's keys ride beside the census band.
                assert run["extra"]["post_stab_min_holders"] >= 1
                assert run["extra"]["status"] == "completed"
                assert store.epochs_for(run["id"])  # epochs landed
                assert store.disturbances_for(run["id"])  # ops landed
                assert store.samples_for(run["id"])  # observations landed
        assert report["ok"] and report["failed"] == 0
        assert set(report["classes"]) == {"loss", "node-crash"}
        for stats in report["classes"].values():
            assert not math.isnan(stats["p50"])
            assert stats["p50"] <= stats["p99"] <= stats["max"]
        assert any("time-to-restabilize" in line
                   for line in render_campaign_report(report))

    def test_report_rederives_from_store_alone(self):
        spec = _spec()
        with RunStore(":memory:") as store:
            first = run_campaign(spec, store=store)
            again = build_campaign_report(store, "test-campaign")
        assert again == first

    def test_missing_campaign_report_raises(self):
        with RunStore(":memory:") as store:
            with pytest.raises(ValueError, match="no campaign"):
                build_campaign_report(store, "nope")

    def test_ephemeral_campaign_needs_no_store(self):
        report = run_campaign(_spec(name="ephemeral"))
        assert report["campaign"] == "ephemeral"
        assert report["cells"] == 2


@pytest.mark.slow
def test_acceptance_six_cell_grid_with_store_quantiles():
    """ISSUE acceptance: a declarative >=6-cell fault grid runs against
    live rings and the per-fault-class p50/p99 report derives from the
    RunStore's epochs."""
    spec = CampaignSpec(
        name="acceptance-grid",
        faults=(
            FaultConfig(FaultType.LOSS, at=0.2, duration=0.3, severity=0.5),
            FaultConfig(FaultType.PARTITION, at=0.2, duration=0.3,
                        severity=0.3),
            FaultConfig(FaultType.NODE_CRASH, at=0.3),
        ),
        seeds=(3, 5),
        n=4,
        settle=0.8,
        budget=15.0,
        timer_interval=0.05,
        error_budget=0.0,
    )
    assert spec.cells >= 6
    with RunStore(":memory:") as store:
        report = run_campaign(spec, store=store)
        # The store is the source of truth: quantiles recompute from
        # its epochs table, not from in-memory results.
        rederived = build_campaign_report(store, "acceptance-grid")
        assert rederived["classes"] == report["classes"]
        assert store.counts()["campaigns"] == 1
        assert len(store.campaign_runs("acceptance-grid")) == 6
    assert report["ok"]
    assert report["cells"] == 6 and report["failed"] == 0
    assert set(report["classes"]) == {"loss", "partition", "node-crash"}
    for stats in report["classes"].values():
        assert stats["cells"] >= 2
        assert 0.0 <= stats["p50"] <= stats["p99"] <= stats["max"] < 15.0


@pytest.mark.parametrize("args", [
    ["--fault", "loss:0.5:inf"],
    ["--fault", "loss:0.5:nan"],
    ["--fault", "node-crash", "--settle", "inf"],
    ["--spec", "nan.json"],
])
def test_cli_rejects_non_finite_timing_before_booting(
        args, tmp_path, monkeypatch, capsys):
    """Exit 2 through the CLI's spec-error path, before any ring boots
    (the director would otherwise sleep forever)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.json").write_text(
        '{"name": "x", "faults": [{"type": "wedge", "at": NaN}]}')

    def no_boot(*a, **k):
        raise AssertionError("a ring was booted")

    monkeypatch.setattr("repro.chaoslab.run_campaign", no_boot)
    rc = cli.main(["chaos", "campaign", "run", *args,
                   "--seeds", "0", "--n", "4", "--no-store"])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--fault", "node-crash", "--timer-interval", "inf"],
    ["--fault", "node-crash", "--timer-interval", "nan"],
    ["--fault", "node-crash", "--timer-interval", "0"],
    ["--spec", "timing.json"],
])
def test_cli_rejects_bad_ring_timing_before_booting(
        args, tmp_path, monkeypatch, capsys):
    """A timer interval of inf would park every node's refresh timer and
    hang the campaign; every bad ring timing exits 2 before any ring
    boots."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "timing.json").write_text(
        '{"name": "x", "faults": [{"type": "wedge"}], '
        '"stabilize_timeout": Infinity}')

    def no_boot(*a, **k):
        raise AssertionError("a ring was booted")

    monkeypatch.setattr("repro.chaoslab.run_campaign", no_boot)
    rc = cli.main(["chaos", "campaign", "run", *args,
                   "--seeds", "0", "--n", "4", "--no-store"])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
