"""SweepStore: durable checkpoints, reconcile, truncated tails, guards,
the line format and the index's commit budget."""

import json
import os

import pytest

from repro.observability.store import RunStore
from repro.sweeps import run_sweep
from repro.sweeps.spec import CellSpec, SweepSpec
from repro.sweeps.store import SweepStore, sweep_dir


def _spec(name="s", seeds=(0, 1, 2)):
    return SweepSpec(name=name, n_values=(5,), seeds=seeds)


def test_record_and_completed_roundtrip(tmp_path):
    base = str(tmp_path)
    with RunStore(":memory:") as rs:
        with SweepStore.create(_spec(), base, rs) as store:
            cells = store.spec.cells()
            store.record(cells[0], {"steps": 7, "converged": True},
                         "batched", 0.001)
            store.record(cells[2], {"steps": 9, "converged": True},
                         "batched", 0.002)
        with SweepStore.create(_spec(), base, rs, resume=True) as store:
            done = store.completed()
            assert sorted(done) == [0, 2]
            assert done[0]["result"] == {"steps": 7, "converged": True}
            assert done[2]["key"] == cells[2].key
        # The sqlite index agrees with the JSONL.
        row = rs.get_sweep("s")
        assert rs.sweep_cell_indexes(row["id"]) == [0, 2]


def test_truncated_tail_dropped_and_repaired(tmp_path):
    base = str(tmp_path)
    path = os.path.join(sweep_dir(base, "s"), "cells.jsonl")
    with RunStore(":memory:") as rs:
        with SweepStore.create(_spec(), base, rs) as store:
            store.record(store.spec.cells()[0],
                         {"steps": 3, "converged": True}, "batched", 0.0)
        with open(path, "a") as fh:
            fh.write('{"index": 1, "key": "half-writ')  # kill mid-write
        with SweepStore.create(_spec(), base, rs, resume=True) as store:
            done = store.completed()
            assert sorted(done) == [0]  # the torn line is dropped
            # Appending after the torn tail starts on a fresh line.
            store.record(store.spec.cells()[1],
                         {"steps": 4, "converged": True}, "batched", 0.0)
        lines = [json.loads(line) for line in open(path)
                 if _parses(line)]
        assert {rec["index"] for rec in lines} == {0, 1}


def _parses(line):
    try:
        json.loads(line)
        return True
    except ValueError:
        return False


def test_completed_repairs_sqlite_from_jsonl(tmp_path):
    base = str(tmp_path)
    with RunStore(":memory:") as rs:
        with SweepStore.create(_spec(), base, rs) as store:
            store.record(store.spec.cells()[1],
                         {"steps": 5, "converged": True}, "batched", 0.0)
            rs.reset_sweep_cells(store.sweep_id)  # simulate lost commits
            rs.flush()
            assert rs.sweep_cell_indexes(store.sweep_id) == []
            assert sorted(store.completed()) == [1]
            assert rs.sweep_cell_indexes(store.sweep_id) == [1]


def test_existing_cells_require_resume_or_fresh(tmp_path):
    base = str(tmp_path)
    with RunStore(":memory:") as rs:
        with SweepStore.create(_spec(), base, rs) as store:
            store.record(store.spec.cells()[0],
                         {"steps": 1, "converged": True}, "batched", 0.0)
        with pytest.raises(ValueError):
            SweepStore.create(_spec(), base, rs)
        with SweepStore.create(_spec(), base, rs, fresh=True) as store:
            assert store.completed() == {}


def test_grid_hash_mismatch_rejected(tmp_path):
    base = str(tmp_path)
    with RunStore(":memory:") as rs:
        SweepStore.create(_spec(seeds=(0, 1)), base, rs).close()
        with pytest.raises(ValueError):
            SweepStore.create(_spec(seeds=(0, 9)), base, rs, resume=True)


def test_attach_falls_back_to_store_row(tmp_path):
    base = str(tmp_path)
    with RunStore(":memory:") as rs:
        SweepStore.create(_spec(), base, rs).close()
        os.remove(os.path.join(sweep_dir(base, "s"), "spec.json"))
        store = SweepStore.attach("s", base, rs)
        assert store.spec == _spec()
        store.close()
        with pytest.raises(ValueError):
            SweepStore.attach("nonexistent", base, rs)


def test_finish_accumulates_wall_and_status(tmp_path):
    base = str(tmp_path)
    with RunStore(":memory:") as rs:
        with SweepStore.create(_spec(), base, rs) as store:
            store.finish(2, 1.5)
            assert rs.get_sweep("s")["status"] == "running"
            store.finish(3, 2.5)
        row = rs.get_sweep("s")
        assert row["status"] == "completed"
        assert row["wall_seconds"] == pytest.approx(4.0)
        assert row["completed"] == 3


def test_recorded_line_is_the_records_sorted_json(tmp_path):
    """Each line is ``json.dumps(record, sort_keys=True)`` byte for byte,
    and the index row holds the same ``params`` and ``result`` text."""
    base = str(tmp_path)
    cells = [
        CellSpec(index=0, key='n=5/"quoted"\\back\tslash/\u00e9\u2603',
                 params={"n": 5, "seed": -7, 'we"ird\n': "\u00fc\x01"},
                 seed=-7),
        CellSpec(index=1, key="n=5/seed=3", params={"n": 5, "seed": 3},
                 seed=3),
    ]
    results = [
        {"steps": 12, "converged": True, "budget": 2100,
         "zero_time": 0.1 + 0.2, "note": "\u00e9\"x\"", "nested": [1.5e-07]},
        {"stabilized_at": None, "min_tokens": 1, "events": -3},
    ]
    walls = [4.2e-05, 1234.56789012]
    with RunStore(":memory:") as rs:
        with SweepStore.create(_spec(), base, rs) as store:
            records = [store.record(c, r, "per-cell", w)
                       for c, r, w in zip(cells, results, walls)]
        path = os.path.join(sweep_dir(base, "s"), "cells.jsonl")
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines == [json.dumps(rec, sort_keys=True) for rec in records]
        assert '"wall_seconds": 4.2e-05}' in lines[0]
        rows = rs.sweep_cells_for(rs.get_sweep("s")["id"])
        texts = rs._conn.execute("SELECT params, result FROM sweep_cells "
                                 "ORDER BY cell_index").fetchall()
    assert [r["cell_key"] for r in rows] == [c.key for c in cells]
    assert [r["seed"] for r in rows] == [-7, 3]
    assert [r["wall_seconds"] for r in rows] == [4.2e-05, 1234.56789]
    assert texts == [(json.dumps(c.params, sort_keys=True),
                      json.dumps(res, sort_keys=True))
                     for c, res in zip(cells, results)]


class _CountingConnection:
    """A sqlite connection that counts its commits."""

    def __init__(self, conn):
        self._conn = conn
        self.commits = 0

    def commit(self):
        self.commits += 1
        self._conn.commit()

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _commits(tmp_path, spec):
    rs = RunStore(str(tmp_path / "store.sqlite"))
    counter = _CountingConnection(rs._conn)
    rs._conn = counter
    try:
        summary = run_sweep(spec, base_dir=str(tmp_path), run_store=rs)
    finally:
        rs.close()
    rows = RunStore(str(tmp_path / "store.sqlite"))
    try:
        indexed = rows.sweep_cell_indexes(rows.get_sweep(spec.name)["id"])
    finally:
        rows.close()
    assert indexed == list(range(spec.total_cells()))
    return summary, counter.commits


def test_one_kernel_group_commits_its_rows_once(tmp_path):
    # Open (the sweep row), the group's 256 rows, finish (the sweep row).
    spec = SweepSpec(name="g", n_values=(5,), seeds=tuple(range(256)))
    summary, commits = _commits(tmp_path, spec)
    assert summary["mode"] == "batched" and summary["ran"] == 256
    assert commits <= 3


def test_per_cell_rows_commit_with_the_finish(tmp_path):
    spec = SweepSpec(name="d", kind="des", n_values=(4,),
                     seeds=tuple(range(8)), max_time=4000.0,
                     gap_duration=10.0)
    summary, commits = _commits(tmp_path, spec)
    assert summary["mode"] == "per-cell" and summary["ran"] == 8
    assert commits <= 2


def test_close_commits_rows_recorded_without_finish(tmp_path):
    path = str(tmp_path / "store.sqlite")
    with RunStore(path) as rs:
        store = SweepStore.create(_spec(), str(tmp_path), rs)
        store.record(store.spec.cells()[2], {"steps": 1}, "batched", 0.0)
        store.close()
        sweep_id = store.sweep_id
        with RunStore(path) as reader:
            assert reader.sweep_cell_indexes(sweep_id) == [2]


def test_recorded_line_bytes_are_pinned(tmp_path):
    """One checkpoint line, byte for byte: keys sorted at every level,
    ASCII escapes, ``null``, and the wall time rounded to microseconds."""
    base = str(tmp_path)
    cell = CellSpec(index=4, key="n=8/loss=0.1/seed=12",
                    params={"seed": 12, "n": 8, "loss": 0.1, "tag": "é"},
                    seed=12)
    result = {"stabilized_at": 41.25, "min_tokens": 1, "events": 903,
              "zero_time": 0.0, "note": None}
    with RunStore(":memory:") as rs:
        with SweepStore.create(_spec(), base, rs) as store:
            store.record(cell, result, "per-cell", 0.0123456789)
    path = os.path.join(sweep_dir(base, "s"), "cells.jsonl")
    with open(path, "rb") as fh:
        assert fh.read() == (
            b'{"engine": "per-cell", "index": 4, '
            b'"key": "n=8/loss=0.1/seed=12", '
            b'"params": {"loss": 0.1, "n": 8, "seed": 12, "tag": "\\u00e9"}, '
            b'"result": {"events": 903, "min_tokens": 1, "note": null, '
            b'"stabilized_at": 41.25, "zero_time": 0.0}, '
            b'"seed": 12, "wall_seconds": 0.012346}\n'
        )
