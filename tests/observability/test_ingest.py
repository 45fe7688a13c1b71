"""Ingestion: live runtime events, and experiment run records."""

import os

from repro.chaoslab import (
    ChaosExperiment,
    FaultConfig,
    FaultType,
    run_experiment,
)
from repro.experiments.parallel import run_experiments_parallel
from repro.experiments.registry import run_experiment_instrumented
from repro.observability.ingest import StoreSubscriber
from repro.observability.store import RunStore
from repro.runtime.harness import live_run
from repro.telemetry import telemetry_session
from repro.telemetry.events import Event

STABILIZE_TIMEOUT = 20.0

MINI_LOSS = FaultConfig(FaultType.LOSS, at=0.2, duration=0.4, severity=0.6)


def test_live_chaos_run_lands_in_store_without_step_detail():
    store = RunStore(":memory:")
    with telemetry_session() as tel:
        subscriber = StoreSubscriber(store, run_id="t-1", session=tel)
        tel.subscribe(subscriber, detail=False)
        # The run-store subscriber must NOT flip the engines into per-step
        # event publishing — that's the whole overhead story.
        assert not tel.step_detail
        run_experiment(ChaosExperiment(
            name="mini_loss", faults=(MINI_LOSS,), algorithm="ssrmin", n=4,
            seed=7, timer_interval=0.05, settle=3.0,
            stabilize_timeout=STABILIZE_TIMEOUT, abort_on_breach=False,
        ))
        subscriber.close()
    store.flush()
    run = store.get_run("t-1")
    assert run["kind"] == "live"
    assert run["algorithm"] == "SSRmin"
    assert run["script"] == "mini_loss"
    assert run["stabilized"] == 1
    assert run["vacancy_instants"] == 0
    epochs = store.epochs_for(run["id"])
    # boot + loss window open + loss-healed boundary, all stabilized.
    assert [e["class"] for e in epochs] == ["boot", "loss", "loss"]
    assert all(e["stabilized_at"] is not None for e in epochs)
    assert len(store.disturbances_for(run["id"])) == 1
    incidents = store.incidents(run["id"])
    # The whole loss window is ONE incident (healed boundary re-opens it).
    assert len(incidents) == 1
    assert incidents[0]["resolved_at"] is not None
    names = {s["name"] for s in store.samples_for(run["id"])}
    assert "live_messages_sent_total" in names
    store.close()


def test_second_run_in_same_session_gets_own_row():
    store = RunStore(":memory:")
    with telemetry_session() as tel:
        subscriber = StoreSubscriber(store, run_id="first", session=tel)
        tel.subscribe(subscriber, detail=False)
        live_run(algorithm="ssrmin", n=4, seed=1, transport="loopback",
                 duration=0.2, timer_interval=0.05,
                 stabilize_timeout=STABILIZE_TIMEOUT)
        live_run(algorithm="ssrmin", n=4, seed=2, transport="loopback",
                 duration=0.2, timer_interval=0.05,
                 stabilize_timeout=STABILIZE_TIMEOUT)
        subscriber.close()
    runs = store.list_runs()
    assert len(runs) == 2
    # The second run derives its id from the run_start payload.
    assert {r["run_id"] for r in runs} == {"first", "live-ssrmin-n4-seed2"}
    store.close()


def test_truncated_run_closes_with_null_stabilized():
    store = RunStore(":memory:")
    subscriber = StoreSubscriber(store, run_id="cut-short")
    subscriber(Event(seq=0, time=0.0, layer="runtime", kind="run_start",
                     payload={"algorithm": "SSRmin", "n": 4, "seed": 0}))
    # No run_end: the session died.  close() keeps the partial row.
    subscriber.close()
    run = store.get_run("cut-short")
    assert run is not None
    assert run["stabilized"] is None
    store.close()


def _counter_totals(record):
    return {
        name: sum(series["value"] for series in family["series"])
        for name, family in record["metrics"]["counters"].items()
    }


def test_run_end_records_the_verdict_with_the_row():
    store = RunStore(":memory:")
    subscriber = StoreSubscriber(store, run_id="verdict")
    subscriber(Event(seq=0, time=0.0, layer="runtime", kind="run_start",
                     payload={"algorithm": "SSRmin", "n": 4, "seed": 0,
                              "initial": "legitimate"}))
    subscriber(Event(seq=1, time=1.0, layer="runtime", kind="run_end",
                     payload={"stabilized": True, "ok": False,
                              "guarantee_violations": [{"epoch_index": 0}],
                              "post_stab_min_holders": 0,
                              "post_stab_max_holders": 2}))
    run = store.get_run("verdict")
    assert run["stabilized"] == 1 and run["violations"] == 1
    assert run["extra"]["ok"] is False
    assert run["extra"]["initial"] == "legitimate"  # run_start's keys stay
    assert (run["extra"]["post_stab_min_holders"],
            run["extra"]["post_stab_max_holders"]) == (0, 2)
    store.close()


def test_experiment_run_records_its_manifest(tmp_path):
    _, trace_path = run_experiment_instrumented(
        "fig02", fast=True, outdir=str(tmp_path))
    with RunStore(str(tmp_path / "store.sqlite")) as store:
        assert [r["run_id"] for r in store.list_runs()] == ["fig02"]
        run = store.get_run("fig02")
        samples = store.samples_for(run["id"])
    record = run["extra"]
    first = record["runs"][0]
    assert run["kind"] == "experiment"
    assert (run["algorithm"], run["n"], run["k"]) == (
        first["algorithm"], first["n"], first["K"])
    assert run["source"] == "experiment"
    assert record["command"] == "python -m repro run fig02 --fast"
    assert record["package"]["name"] == "repro"
    assert record["python"] and record["platform"]
    assert [p["label"] for p in record["phases"]] == ["resolve", "run"]
    assert record["trace"] == {"file": trace_path, "truncated": False,
                               "dropped_events": 0}
    assert (record["fast"], record["match"]) == (True, True)
    assert record["events_total"] > 0
    expected = {k: v for k, v in _counter_totals(record).items() if v}
    assert expected  # fig02 fires rules
    assert {s["name"]: s["value"] for s in samples} == expected
    assert len(samples) == len(expected)
    # The row is the record: the only file besides the store is the trace.
    assert sorted(os.listdir(tmp_path)) == ["fig02", "store.sqlite"]
    assert os.listdir(tmp_path / "fig02") == ["trace.jsonl"]


def test_rerun_supersedes_the_row_and_its_samples(tmp_path):
    run_experiment_instrumented("fig02", fast=True, outdir=str(tmp_path))
    run_experiment_instrumented("fig02", fast=True, outdir=str(tmp_path))
    with RunStore(str(tmp_path / "store.sqlite")) as store:
        assert store.counts()["runs"] == 1
        run = store.get_run("fig02")
        samples = store.samples_for(run["id"])
    assert len(samples) == sum(
        1 for v in _counter_totals(run["extra"]).values() if v)
    assert {s["time"] for s in samples} == {run["wall_seconds"]}


def test_parallel_workers_record_into_one_store(tmp_path):
    # More workers than CI cores, all writing one sqlite file: a write
    # lost to lock contention shows up as a missing row.
    ids = ["lem1", "lem2", "lem3", "lem4", "fig01", "fig02", "fig03", "fig04"]
    results = run_experiments_parallel(
        ids, fast=True, workers=4, telemetry_dir=str(tmp_path))
    assert [r.experiment_id for r in results] == ids
    with RunStore(str(tmp_path / "store.sqlite")) as store:
        rows = store.list_runs()
    assert sorted(r["run_id"] for r in rows) == sorted(ids)
    assert {r["kind"] for r in rows} == {"experiment"}
