"""Sweep engine: batched cells equal cells run alone, resume, reports,
telemetry."""

import json
import os

import pytest

from repro.kernels.batched import run_convergence_cells
from repro.observability.store import RunStore
from repro.sweeps import (
    SweepSpec,
    build_sweep_report,
    render_report,
    render_status,
    resume_sweep,
    run_cells,
    run_sweep,
)
from repro.sweeps.store import SweepStore, sweep_dir

IDENTITY = ("index", "key", "params", "seed", "result")


def _cells(base, name):
    path = os.path.join(sweep_dir(base, name), "cells.jsonl")
    records = [json.loads(line) for line in open(path) if line.strip()]
    return sorted(records, key=lambda r: r["index"])


def _identity(rec):
    return {k: rec[k] for k in IDENTITY}


def test_batched_cells_equal_each_cell_run_alone(tmp_path):
    spec = SweepSpec(name="grid", n_values=(5, 8), seeds=tuple(range(6)),
                     daemons=("bernoulli:0.5", "central"))
    summary = run_sweep(spec, base_dir=str(tmp_path))
    assert summary["mode"] == "batched"
    assert summary["completed"] == spec.total_cells()
    for rec in _cells(str(tmp_path), "grid"):
        assert rec["engine"] == "batched"
        params = rec["params"]
        assert rec["result"] == run_convergence_cells(
            params["n"], [rec["seed"]], params["daemon"])[0]


@pytest.mark.parametrize("spec", [
    SweepSpec(name="conv", n_values=(5, 8), seeds=tuple(range(4)),
              daemons=("bernoulli:0.5", "central")),
    SweepSpec(name="des", kind="des", n_values=(4,), seeds=(0, 1),
              loss_rates=(0.0, 0.2), max_time=4000.0, gap_duration=10.0),
], ids=["convergence", "des"])
def test_run_cells_equals_run_sweep_checkpoints(tmp_path, spec):
    run_sweep(spec, base_dir=str(tmp_path))
    recorded = _cells(str(tmp_path), spec.name)
    assert [r["index"] for r in recorded] == list(range(spec.total_cells()))
    # Wall time is the one field that differs between runs; it is not in
    # the cell's result.
    assert run_cells(spec) == [r["result"] for r in recorded]


def test_resume_runs_only_missing_cells(tmp_path):
    base = str(tmp_path)
    spec = SweepSpec(name="r", n_values=(5,), seeds=tuple(range(8)))
    full = run_sweep(spec, base_dir=base)
    assert full["ran"] == 8

    # Drop half the checkpoints, resume, and check the disjoint re-run.
    path = os.path.join(sweep_dir(base, "r"), "cells.jsonl")
    records = _cells(base, "r")
    kept = [r for r in records if r["index"] < 4]
    with open(path, "w") as fh:
        for rec in kept:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with RunStore(os.path.join(base, "store.sqlite")) as rs:
        row = rs.get_sweep("r")
        rs.reset_sweep_cells(row["id"])
        rs.flush()

    summary = resume_sweep("r", base_dir=base)
    assert summary["skipped"] == 4 and summary["ran"] == 4
    resumed = _cells(base, "r")
    assert [r["index"] for r in resumed] == list(range(8))
    for before, after in zip(records, resumed):
        assert _identity(before) == _identity(after)


def test_open_reads_checkpoints_once(tmp_path, monkeypatch):
    """``SweepStore.create`` reconciles the checkpoints and the engine
    reuses that map; after ``fresh``'s discard the map is empty."""
    base = str(tmp_path)
    spec = SweepSpec(name="once", n_values=(5,), seeds=tuple(range(8)))
    first = run_sweep(spec, base_dir=base)
    records = [_identity(r) for r in _cells(base, "once")]
    reads = []
    completed = SweepStore.completed

    def counted(self):
        reads.append(self.spec.name)
        return completed(self)

    monkeypatch.setattr(SweepStore, "completed", counted)
    again = run_sweep(spec, base_dir=base, resume=True)
    assert reads == ["once"]
    assert (again["skipped"], again["ran"], again["status"]) == (
        8, 0, "completed")
    for key in ("name", "kind", "cells", "completed", "mode", "directory"):
        assert again[key] == first[key]

    fresh = run_sweep(spec, base_dir=base, fresh=True)
    assert reads == ["once", "once"]
    assert (fresh["skipped"], fresh["ran"]) == (0, 8)
    assert [_identity(r) for r in _cells(base, "once")] == records


def test_des_sweep_runs_per_cell(tmp_path):
    spec = SweepSpec(
        name="d", kind="des", n_values=(4,), seeds=(0, 1),
        loss_rates=(0.0, 0.2), max_time=4000.0, gap_duration=10.0,
    )
    summary = run_sweep(spec, base_dir=str(tmp_path))
    assert summary["mode"] == "per-cell"
    assert summary["completed"] == 4
    for rec in _cells(str(tmp_path), "d"):
        assert rec["result"]["stabilized_at"] >= 0.0
        assert rec["result"]["min_tokens"] >= 1


def test_per_cell_wall_seconds_time_each_cell_alone(tmp_path):
    spec = SweepSpec(
        name="w", kind="des", n_values=(4,), seeds=(0, 1),
        loss_rates=(0.0, 0.2), max_time=4000.0, gap_duration=10.0,
    )
    throttle = 0.2
    with RunStore(":memory:") as rs:
        summary = run_sweep(spec, base_dir=str(tmp_path), run_store=rs,
                            throttle=throttle)
    walls = [rec["wall_seconds"] for rec in _cells(str(tmp_path), "w")]
    assert len(walls) == 4 and all(w > 0.0 for w in walls)
    # A cell's clock covers the cell alone: not the cells before it, not
    # the throttle sleep after each one.  Cells run one after another, so
    # their times cannot add up to more than the whole sweep took.
    assert max(walls) < throttle
    assert sum(walls) <= summary["wall_seconds"]


def test_report_is_store_derived(tmp_path):
    base = str(tmp_path)
    spec = SweepSpec(name="rep", n_values=(5, 8), seeds=tuple(range(4)))
    run_sweep(spec, base_dir=base)
    with RunStore(os.path.join(base, "store.sqlite")) as rs:
        report = build_sweep_report(rs, "rep")
        assert report["completed"] == 8
        assert report["metric"] == "steps"
        assert len(report["groups"]) == 2  # one per ring size
        for group in report["groups"]:
            assert group["stats"]["count"] == 4
        # Two ring sizes -> a Theorem-2-style fit is included.
        fit = report["scaling_fit"]
        assert fit["n_values"] == [5, 8]
        assert fit["exponent"] > 0
        text = render_report(report)
        assert "scaling fit" in text and "rep" in text
        assert "8/8 cells" in render_status(rs)
        with pytest.raises(ValueError):
            build_sweep_report(rs, "nope")


def test_progress_events_stream_per_cell(tmp_path):
    from repro.telemetry.session import telemetry_session

    spec = SweepSpec(name="t", n_values=(5,), seeds=(0, 1, 2))
    events = []
    with telemetry_session() as session:
        session.subscribe(events.append)
        run_sweep(spec, base_dir=str(tmp_path))
    progress = [e for e in events if e.kind == "sweep_progress"]
    # One opening event plus one per completed cell.
    assert len(progress) == 4
    assert progress[-1].payload["name"] == "t"
    assert progress[-1].payload["total"] == 3
    assert progress[-1].payload["cell_index"] == 2
