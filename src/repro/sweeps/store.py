"""The resumable sweep store: per-cell checkpoints + sqlite manifest index.

Week-long sweeps die — machines reboot, schedulers SIGTERM, quotas hit —
so every completed cell is durable the moment it finishes, and indexed
soon after:

* ``<base_dir>/sweeps/<name>/cells.jsonl`` — one appended, flushed JSON
  line per cell (``index``, ``key``, ``params``, ``seed``, ``engine``,
  ``wall_seconds``, ``result``), written before :meth:`SweepStore.record`
  returns.  The append-and-flush discipline means a kill can lose at
  most the line being written; :meth:`completed` tolerates (and drops) a
  truncated tail.
* the :class:`~repro.observability.store.RunStore` ``sweeps`` /
  ``sweep_cells`` tables (schema v3) — the queryable manifest index that
  ``repro sweep status|report`` and the CI assertions read.  Cell rows
  are buffered and written in one statement and one commit per
  :data:`GROUP_CHUNK` cells, and again at :meth:`finish`/:meth:`close`.

The JSONL is the write-ahead source of truth; on open, :meth:`completed`
*reconciles* the two — any cell present in the JSONL but missing from
sqlite (a buffered row lost when the process died) is re-indexed.
Results never change on reconcile: a cell's result is a pure function of
its parameters (see :mod:`repro.sweeps.spec`), which is what makes
re-running only the missing cells bit-identical to an uninterrupted run.

``spec.json`` in the sweep directory pins the grid; attaching with a
different spec (by :meth:`SweepStore.create`) fails on the grid hash
instead of silently mixing two grids' cells.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Dict, List, Optional, Tuple

from repro.observability.store import RunStore
from repro.sweeps.spec import SweepSpec

#: Sweep state machine values recorded in the ``sweeps.status`` column.
STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"

#: Cells per lockstep kernel group (:mod:`repro.sweeps.engine`) and per
#: ``sweep_cells`` transaction.  It bounds the kernel's working arrays at
#: a few ``chunk * max(n)`` arrays (byte-wide counters below ``K = 256``,
#: int64 above; byte-wide handshake and rule codes; one step's uint64
#: coin draws) while amortizing numpy dispatch and sqlite commits.
GROUP_CHUNK = 256

#: ``json.dumps(value, sort_keys=True)`` without building an encoder per
#: call; it writes the same bytes.
_encode = json.JSONEncoder(sort_keys=True).encode


def sweep_dir(base_dir: str, name: str) -> str:
    """The checkpoint directory of a named sweep."""
    return os.path.join(base_dir, "sweeps", name)


def _utcnow() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


class SweepStore:
    """Durable cell checkpoints for one named sweep.

    Construct via :meth:`create` (new or resumed run, spec in hand) or
    :meth:`attach` (status/report paths, spec loaded from disk).  The
    ``run_store`` is borrowed, not owned — callers manage its lifecycle.
    """

    def __init__(self, spec: SweepSpec, base_dir: str, run_store: RunStore):
        self.spec = spec
        self.base_dir = base_dir
        self.directory = sweep_dir(base_dir, spec.name)
        self.run_store = run_store
        self._cells_path = os.path.join(self.directory, "cells.jsonl")
        self._spec_path = os.path.join(self.directory, "spec.json")
        self._append_fh = None
        #: The reconciled :meth:`completed` map :meth:`create` read at
        #: open: the cells a resume keeps (empty after ``fresh``).
        self.resumed: Dict[int, Dict[str, Any]] = {}
        #: ``sweep_cells`` rows recorded but not yet written to sqlite.
        self._rows: List[Tuple[Any, ...]] = []
        os.makedirs(self.directory, exist_ok=True)
        spec_json = spec.to_json()
        if not os.path.isfile(self._spec_path):
            with open(self._spec_path, "w") as fh:
                json.dump(spec_json, fh, indent=2, sort_keys=True)
                fh.write("\n")
        self.sweep_id = run_store.upsert_sweep(
            spec.name,
            spec=spec_json,
            directory=self.directory,
            cells=spec.total_cells(),
            status=STATUS_RUNNING,
        )
        row = run_store.get_sweep(spec.name)
        if not row.get("created_utc"):
            run_store.upsert_sweep(spec.name, created_utc=_utcnow())

    # -- construction --------------------------------------------------------
    @classmethod
    def create(
        cls,
        spec: SweepSpec,
        base_dir: str,
        run_store: RunStore,
        *,
        resume: bool = False,
        fresh: bool = False,
    ) -> "SweepStore":
        """Open a sweep for running ``spec``.

        An existing directory must carry the *same* grid (hash-checked).
        With checkpointed cells already present, the caller must say what
        they mean: ``resume=True`` keeps them, ``fresh=True`` discards
        them, neither is an error.
        """
        path = os.path.join(sweep_dir(base_dir, spec.name), "spec.json")
        existing = cls._load_spec(path)
        if existing is not None and existing.grid_hash() != spec.grid_hash():
            raise ValueError(
                f"sweep {spec.name!r} already exists with a different grid "
                f"(spec {path}); pick a new name or resume/--fresh it"
            )
        store = cls(spec, base_dir, run_store)
        store.resumed = store.completed()
        if store.resumed and not (resume or fresh):
            raise ValueError(
                f"sweep {spec.name!r} has checkpointed cells; pass "
                f"resume=True to continue it or fresh=True to restart"
            )
        if fresh:
            store._discard_cells()
            store.resumed = {}
        return store

    @classmethod
    def attach(
        cls, name: str, base_dir: str, run_store: RunStore
    ) -> "SweepStore":
        """Open an existing sweep by name (spec from disk, else the index)."""
        spec = cls._load_spec(
            os.path.join(sweep_dir(base_dir, name), "spec.json")
        )
        if spec is None:
            row = run_store.get_sweep(name)
            if row is None or not isinstance(row.get("spec"), dict):
                raise ValueError(
                    f"no sweep named {name!r} under {base_dir!r} or in the "
                    f"run store"
                )
            spec = SweepSpec.from_json(row["spec"])
        return cls(spec, base_dir, run_store)

    @staticmethod
    def _load_spec(path: str) -> Optional[SweepSpec]:
        if not os.path.isfile(path):
            return None
        with open(path) as fh:
            return SweepSpec.from_json(json.load(fh))

    # -- cell checkpoints ----------------------------------------------------
    def completed(self) -> Dict[int, Dict[str, Any]]:
        """Reconciled ``{cell_index: record}`` of every durable cell.

        Reads the JSONL checkpoints (dropping an unparseable truncated
        tail line) and the sqlite index, then repairs the index from the
        JSONL where the two diverge.
        """
        self._write_rows()
        records: Dict[int, Dict[str, Any]] = {}
        if os.path.isfile(self._cells_path):
            with open(self._cells_path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # truncated tail from a kill mid-write
                    if "index" in record and "result" in record:
                        records[int(record["index"])] = record
        indexed = set(self.run_store.sweep_cell_indexes(self.sweep_id))
        for index, record in records.items():
            if index not in indexed:
                self._index_cell(record)
        self.run_store.flush()
        # Cells only the index knows about (jsonl lost/pruned) still count.
        if indexed - set(records):
            for row in self.run_store.sweep_cells_for(self.sweep_id):
                idx = int(row["cell_index"])
                if idx not in records:
                    records[idx] = {
                        "index": idx,
                        "key": row.get("cell_key"),
                        "params": row.get("params") or {},
                        "seed": row.get("seed"),
                        "engine": row.get("engine"),
                        "wall_seconds": row.get("wall_seconds"),
                        "result": row.get("result") or {},
                    }
        return records

    def record(
        self,
        cell,
        result: Dict[str, Any],
        engine: str,
        wall_seconds: float,
    ) -> Dict[str, Any]:
        """Durably checkpoint one completed cell.

        The cell's JSONL line is written and flushed before this returns;
        its index row joins the buffer that is committed every
        :data:`GROUP_CHUNK` cells.  ``params`` and ``result`` are encoded
        once each, for the line and the row alike.
        """
        index, seed = int(cell.index), int(cell.seed)
        wall = round(float(wall_seconds), 6)
        params = _encode(cell.params)
        encoded = _encode(result)
        if self._append_fh is None:
            self._open_append()
        # Byte for byte ``json.dumps(record, sort_keys=True)`` of the
        # record returned below.
        self._append_fh.write(
            f'{{"engine": {_json_str(engine)}, "index": {index}, '
            f'"key": {_json_str(cell.key)}, "params": {params}, '
            f'"result": {encoded}, "seed": {seed}, '
            f'"wall_seconds": {wall!r}}}\n'
        )
        self._append_fh.flush()
        self._rows.append(
            (self.sweep_id, index, cell.key, params, seed, engine, wall,
             encoded)
        )
        if len(self._rows) >= GROUP_CHUNK:
            self._write_rows()
            self.run_store.flush()
        return {
            "index": index,
            "key": cell.key,
            "params": cell.params,
            "seed": seed,
            "engine": engine,
            "wall_seconds": wall,
            "result": result,
        }

    def _open_append(self) -> None:
        # A kill mid-write can leave a truncated, newline-less tail;
        # start on a fresh line so the garbage can't swallow the next record.
        needs_newline = False
        if os.path.isfile(self._cells_path):
            with open(self._cells_path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(-1, os.SEEK_END)
                    needs_newline = fh.read(1) != b"\n"
        self._append_fh = open(self._cells_path, "a")
        if needs_newline:
            self._append_fh.write("\n")

    def _index_cell(self, record: Dict[str, Any]) -> None:
        self.run_store.upsert_sweep_cell(
            self.sweep_id,
            int(record["index"]),
            cell_key=record.get("key"),
            params=record.get("params"),
            seed=record.get("seed"),
            engine=record.get("engine"),
            wall_seconds=record.get("wall_seconds"),
            result=record.get("result"),
        )

    def _write_rows(self) -> None:
        """Write the buffered index rows in one statement (uncommitted)."""
        if self._rows:
            self.run_store.upsert_sweep_cells(self._rows)
            self._rows = []

    def _discard_cells(self) -> None:
        self._rows = []
        self.run_store.reset_sweep_cells(self.sweep_id)
        self.run_store.flush()
        if os.path.isfile(self._cells_path):
            os.remove(self._cells_path)

    # -- sweep row -----------------------------------------------------------
    def finish(self, completed: int, wall_seconds: float) -> None:
        """Update the manifest row after a run/resume pass, committing it
        with any buffered cell rows."""
        self._write_rows()
        row = self.run_store.get_sweep(self.spec.name) or {}
        total = self.spec.total_cells()
        self.run_store.upsert_sweep(
            self.spec.name,
            updated_utc=_utcnow(),
            completed=completed,
            status=(
                STATUS_COMPLETED if completed >= total else STATUS_RUNNING
            ),
            wall_seconds=float(row.get("wall_seconds") or 0.0) + wall_seconds,
        )
        self.run_store.flush()

    def close(self) -> None:
        """Commit buffered cell rows and close the JSONL append handle
        (the run store is borrowed: it stays open)."""
        if self._rows:
            self._write_rows()
            self.run_store.flush()
        if self._append_fh is not None:
            self._append_fh.close()
            self._append_fh = None

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "GROUP_CHUNK",
    "STATUS_COMPLETED",
    "STATUS_RUNNING",
    "SweepStore",
    "sweep_dir",
]
