"""The persistent run store: the one record of every run the repo emits.

Every entry point — ``repro run``/``report``/``fuzz run``, ``live
run|chaos``, ``fleet run``, ``top``, chaos campaigns and sweeps — records
its runs here and nowhere else (an opt-in JSONL event trace and a sweep's
``cells.jsonl`` log are the only files beside it).  One sqlite database
(canonically ``runs/store.sqlite``) answers both "what happened in *this*
run" and the operator questions ("p99 time-to-restabilize across last
night's chaos campaigns", "which runs ever dropped the token").  Its
tables:

* ``runs`` — one row per run: live deployments (kind ``live``; a fleet's
  rings are ``<fleet id>/<ring>``), fleet invocations (``fleet``, the
  aggregate report), chaos-campaign cells (``chaos-cell``), registry
  experiments and fuzz campaigns (``experiment``, their run record).
  The run's verdict, ``ok``, sits in ``extra``;
* ``epochs`` — one row per disturbance-to-stabilization interval of a run
  (the :class:`~repro.runtime.health.Epoch` record, plus the disturbance
  class extracted from its label);
* ``disturbances`` — the raw fault feed (chaos ops, crashes, restarts,
  corruptions) with their parameters;
* ``samples`` — named numeric samples (metric totals at run end) for
  ad-hoc SQL analysis;
* ``incidents`` — structured incident records (see
  :mod:`repro.observability.incidents`);
* ``campaigns`` — one row per declarative chaos campaign (see
  :mod:`repro.chaoslab.campaign`), its member runs tagged via
  ``runs.campaign``;
* ``sweeps`` / ``sweep_cells`` — the resumable phase-diagram sweep
  engine's manifest index (:mod:`repro.sweeps.store`): one row per named
  sweep plus one row per completed cell, keyed ``(sweep_id, cell_index)``
  so re-recording a cell upserts instead of duplicating.

Rows arrive either **live** — the
:class:`~repro.observability.ingest.StoreSubscriber` attached to a telemetry
session — or **when the run finishes**, through the other writers of
:mod:`repro.observability.ingest` (a live report, a fleet report, an
experiment's run record).  Reads power ``repro runs list|show|query``,
``repro live status``, ``repro fleet status``, ``repro slo report`` and
the incident listing.

Writes are buffered: the store commits every :data:`COMMIT_EVERY`
mutations and on :meth:`RunStore.flush`/:meth:`RunStore.close`, so a
subscriber in a hot loop costs an in-memory ``INSERT`` per event, not an
fsync.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Schema version stamped into ``PRAGMA user_version``; bump on
#: incompatible changes (the store refuses to open newer schemas).
#: v2: ``campaigns`` table + ``runs.campaign`` column (chaos campaigns).
#: v3: ``sweeps`` + ``sweep_cells`` tables (the resumable sweep engine's
#: manifest index; purely additive, so the migration is just the schema
#: script creating the missing tables).
SCHEMA_VERSION = 3

#: Mutations between commits (a run's worth of events lands in one or two
#: transactions; ``flush()`` forces the tail out).
COMMIT_EVERY = 64

#: Default on-disk location, next to the per-run JSONL trace directories.
DEFAULT_STORE_PATH = os.path.join("runs", "store.sqlite")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY,
    run_id        TEXT NOT NULL UNIQUE,
    kind          TEXT NOT NULL,
    algorithm     TEXT,
    n             INTEGER,
    k             INTEGER,
    seed          INTEGER,
    transport     TEXT,
    script        TEXT,
    started_utc   TEXT,
    wall_seconds  REAL,
    stabilized    INTEGER,
    vacancy_instants INTEGER,
    violations    INTEGER,
    restarts      INTEGER,
    source        TEXT,
    extra         TEXT,
    campaign      TEXT
);
CREATE TABLE IF NOT EXISTS epochs (
    id            INTEGER PRIMARY KEY,
    run_id        INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    idx           INTEGER NOT NULL,
    label         TEXT,
    class         TEXT,
    started_at    REAL,
    stabilized_at REAL,
    time_to_stabilize REAL
);
CREATE TABLE IF NOT EXISTS disturbances (
    id            INTEGER PRIMARY KEY,
    run_id        INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    at            REAL,
    kind          TEXT,
    duration      REAL,
    params        TEXT
);
CREATE TABLE IF NOT EXISTS samples (
    id            INTEGER PRIMARY KEY,
    run_id        INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    time          REAL,
    name          TEXT NOT NULL,
    value         REAL,
    labels        TEXT
);
CREATE TABLE IF NOT EXISTS incidents (
    id            INTEGER PRIMARY KEY,
    run_id        INTEGER REFERENCES runs(id) ON DELETE CASCADE,
    opened_at     REAL,
    resolved_at   REAL,
    kind          TEXT NOT NULL,
    severity      TEXT NOT NULL,
    title         TEXT,
    details       TEXT
);
CREATE TABLE IF NOT EXISTS campaigns (
    id            INTEGER PRIMARY KEY,
    name          TEXT NOT NULL UNIQUE,
    spec          TEXT,
    started_utc   TEXT,
    wall_seconds  REAL,
    cells         INTEGER,
    completed     INTEGER,
    aborted       INTEGER,
    breaches      INTEGER,
    report        TEXT
);
CREATE TABLE IF NOT EXISTS sweeps (
    id            INTEGER PRIMARY KEY,
    name          TEXT NOT NULL UNIQUE,
    spec          TEXT,
    directory     TEXT,
    created_utc   TEXT,
    updated_utc   TEXT,
    cells         INTEGER,
    completed     INTEGER,
    status        TEXT,
    wall_seconds  REAL,
    report        TEXT
);
CREATE TABLE IF NOT EXISTS sweep_cells (
    id            INTEGER PRIMARY KEY,
    sweep_id      INTEGER NOT NULL REFERENCES sweeps(id) ON DELETE CASCADE,
    cell_index    INTEGER NOT NULL,
    cell_key      TEXT,
    params        TEXT,
    seed          INTEGER,
    engine        TEXT,
    wall_seconds  REAL,
    result        TEXT,
    UNIQUE (sweep_id, cell_index)
);
CREATE INDEX IF NOT EXISTS idx_epochs_run ON epochs(run_id);
CREATE INDEX IF NOT EXISTS idx_sweep_cells_sweep ON sweep_cells(sweep_id);
CREATE INDEX IF NOT EXISTS idx_runs_campaign ON runs(campaign);
CREATE INDEX IF NOT EXISTS idx_epochs_class ON epochs(class);
CREATE INDEX IF NOT EXISTS idx_disturbances_run ON disturbances(run_id);
CREATE INDEX IF NOT EXISTS idx_samples_run ON samples(run_id, name);
CREATE INDEX IF NOT EXISTS idx_incidents_run ON incidents(run_id);
"""

#: Columns of ``runs`` settable through :meth:`RunStore.insert_run` /
#: :meth:`RunStore.update_run` (everything except the rowid).
RUN_COLUMNS = (
    "run_id", "kind", "algorithm", "n", "k", "seed", "transport", "script",
    "started_utc", "wall_seconds", "stabilized", "vacancy_instants",
    "violations", "restarts", "source", "extra", "campaign",
)

#: Columns of ``campaigns`` settable through :meth:`RunStore.insert_campaign`.
CAMPAIGN_COLUMNS = (
    "spec", "started_utc", "wall_seconds", "cells", "completed",
    "aborted", "breaches", "report",
)

#: Columns of ``sweeps`` settable through :meth:`RunStore.upsert_sweep`.
SWEEP_COLUMNS = (
    "spec", "directory", "created_utc", "updated_utc", "cells",
    "completed", "status", "wall_seconds", "report",
)

#: Columns of ``sweep_cells`` settable through
#: :meth:`RunStore.upsert_sweep_cell` (besides the identifying pair).
SWEEP_CELL_COLUMNS = (
    "cell_key", "params", "seed", "engine", "wall_seconds", "result",
)

#: The one ``sweep_cells`` write: a row is ``(sweep_id, cell_index,
#: *SWEEP_CELL_COLUMNS)``, and a re-recorded cell replaces its row.
_UPSERT_SWEEP_CELL = (
    "INSERT INTO sweep_cells (sweep_id, cell_index, "
    + ", ".join(SWEEP_CELL_COLUMNS) + ") VALUES ("
    + ", ".join("?" * (2 + len(SWEEP_CELL_COLUMNS))) + ") "
    "ON CONFLICT (sweep_id, cell_index) DO UPDATE SET "
    + ", ".join(f"{c} = excluded.{c}" for c in SWEEP_CELL_COLUMNS)
)


def _jsonify(value: Any) -> Optional[str]:
    """JSON-encode dict/list payload columns (None passes through)."""
    if value is None or isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, default=str)


def _row_to_dict(cursor: sqlite3.Cursor, row: Sequence[Any]) -> Dict[str, Any]:
    out = {desc[0]: value for desc, value in zip(cursor.description, row)}
    for key in ("extra", "params", "labels", "details", "result"):
        if isinstance(out.get(key), str):
            try:
                out[key] = json.loads(out[key])
            except ValueError:
                pass
    return out


class RunStore:
    """One sqlite database of runs, epochs, disturbances, samples, incidents.

    Parameters
    ----------
    path:
        Database file (parent directories are created); ``":memory:"``
        keeps everything in-process (tests, benchmarks).
    """

    def __init__(self, path: str = DEFAULT_STORE_PATH):
        self.path = path
        if path != ":memory:":
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._pending = 0
        self._closed = False
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise RuntimeError(
                f"{path}: store schema v{version} is newer than this "
                f"package understands (v{SCHEMA_VERSION})"
            )
        if version < SCHEMA_VERSION:
            # Column migrations must land before the schema script: its
            # CREATE INDEX statements reference the new columns.
            self._migrate(version)
        self._conn.executescript(_SCHEMA)
        if version < SCHEMA_VERSION:
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        self._conn.commit()

    def _migrate(self, version: int) -> None:
        """In-place upgrades for pre-existing stores (additive only).

        ``executescript`` afterwards creates any missing tables and
        indexes; this handles columns added to tables that predate them.
        """
        if version >= 1:
            # v1 -> v2: runs grew the campaign column.
            existing = {
                row[1] for row in
                self._conn.execute("PRAGMA table_info(runs)").fetchall()
            }
            if "campaign" not in existing:
                self._conn.execute(
                    "ALTER TABLE runs ADD COLUMN campaign TEXT"
                )
        # v2 -> v3 added only the sweeps/sweep_cells tables; the schema
        # script's CREATE TABLE IF NOT EXISTS covers it, nothing to do.

    # -- write plumbing ------------------------------------------------------
    def _execute(self, sql: str, params: Sequence[Any] = ()) -> sqlite3.Cursor:
        cursor = self._conn.execute(sql, params)
        self._pending += 1
        if self._pending >= COMMIT_EVERY:
            self.flush()
        return cursor

    def flush(self) -> None:
        """Commit buffered mutations."""
        if self._pending:
            self._conn.commit()
            self._pending = 0

    def close(self) -> None:
        """Flush and close the connection (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._conn.close()
        self._closed = True

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- runs ----------------------------------------------------------------
    def insert_run(self, run_id: str, kind: str, **columns: Any) -> int:
        """Insert a run row; returns its db id.

        An existing ``run_id`` is superseded: its db id is returned, the
        provided columns overwrite the stale ones and its child rows
        (epochs, disturbances, samples, incidents) are dropped, so
        re-running a named deployment or experiment updates in place
        instead of duplicating.
        """
        unknown = set(columns) - set(RUN_COLUMNS)
        if unknown:
            raise ValueError(f"unknown run columns: {sorted(unknown)}")
        existing = self._conn.execute(
            "SELECT id FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        columns["extra"] = _jsonify(columns.get("extra"))
        if existing is not None:
            run_db_id = int(existing[0])
            for table in ("epochs", "disturbances", "samples", "incidents"):
                self._execute(
                    f"DELETE FROM {table} WHERE run_id = ?", (run_db_id,)
                )
            self.update_run(run_db_id, kind=kind, **columns)
            return run_db_id
        cols = ["run_id", "kind"] + sorted(columns)
        values = [run_id, kind] + [columns[c] for c in sorted(columns)]
        cursor = self._execute(
            f"INSERT INTO runs ({', '.join(cols)}) "
            f"VALUES ({', '.join('?' * len(cols))})",
            values,
        )
        return int(cursor.lastrowid)

    def update_run(self, run_db_id: int, **columns: Any) -> None:
        """Overwrite columns of an existing run row."""
        if not columns:
            return
        unknown = set(columns) - set(RUN_COLUMNS) - {"kind"}
        if unknown:
            raise ValueError(f"unknown run columns: {sorted(unknown)}")
        if "extra" in columns:
            columns["extra"] = _jsonify(columns["extra"])
        keys = sorted(columns)
        self._execute(
            f"UPDATE runs SET {', '.join(f'{k} = ?' for k in keys)} "
            f"WHERE id = ?",
            [columns[k] for k in keys] + [run_db_id],
        )

    def run_db_id(self, run_id: str) -> Optional[int]:
        """Db id of a run by its public ``run_id`` (None if absent)."""
        row = self._conn.execute(
            "SELECT id FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return int(row[0]) if row is not None else None

    def get_run(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Full run row by public ``run_id`` (None if absent)."""
        cursor = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        )
        row = cursor.fetchone()
        return _row_to_dict(cursor, row) if row is not None else None

    def list_runs(
        self,
        kind: Optional[str] = None,
        algorithm: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Run rows, newest first, optionally filtered."""
        sql = "SELECT * FROM runs"
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if algorithm is not None:
            clauses.append("LOWER(algorithm) LIKE ?")
            params.append(f"%{algorithm.lower()}%")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id DESC"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        cursor = self._conn.execute(sql, params)
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    # -- epochs / disturbances / samples ------------------------------------
    def add_epoch(
        self,
        run_db_id: int,
        idx: int,
        label: str,
        cls: str,
        started_at: float,
        stabilized_at: Optional[float] = None,
    ) -> int:
        """Insert one epoch row; returns its db id."""
        ttr = (
            stabilized_at - started_at if stabilized_at is not None else None
        )
        cursor = self._execute(
            "INSERT INTO epochs (run_id, idx, label, class, started_at, "
            "stabilized_at, time_to_stabilize) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (run_db_id, idx, label, cls, started_at, stabilized_at, ttr),
        )
        return int(cursor.lastrowid)

    def stabilize_epoch(
        self, run_db_id: int, idx: int, stabilized_at: float
    ) -> None:
        """Record stabilization of epoch ``idx`` of a run."""
        self._execute(
            "UPDATE epochs SET stabilized_at = ?, "
            "time_to_stabilize = ? - started_at "
            "WHERE run_id = ? AND idx = ?",
            (stabilized_at, stabilized_at, run_db_id, idx),
        )

    def epochs_for(self, run_db_id: int) -> List[Dict[str, Any]]:
        """Epoch rows of one run, in epoch order."""
        cursor = self._conn.execute(
            "SELECT * FROM epochs WHERE run_id = ? ORDER BY idx", (run_db_id,)
        )
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    def epoch_rows(
        self,
        algorithm: Optional[str] = None,
        cls: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Epoch rows joined with their run's identity, store-wide."""
        sql = (
            "SELECT e.*, r.run_id AS run, r.algorithm AS algorithm, "
            "r.kind AS run_kind, r.n AS n FROM epochs e "
            "JOIN runs r ON r.id = e.run_id"
        )
        clauses, params = [], []
        if algorithm is not None:
            clauses.append("LOWER(r.algorithm) LIKE ?")
            params.append(f"%{algorithm.lower()}%")
        if cls is not None:
            clauses.append("e.class = ?")
            params.append(cls)
        if kind is not None:
            clauses.append("r.kind = ?")
            params.append(kind)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY e.run_id, e.idx"
        cursor = self._conn.execute(sql, params)
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    def add_disturbance(
        self,
        run_db_id: int,
        at: float,
        kind: str,
        duration: float = 0.0,
        params: Optional[dict] = None,
    ) -> None:
        """Insert one raw fault-feed row."""
        self._execute(
            "INSERT INTO disturbances (run_id, at, kind, duration, params) "
            "VALUES (?, ?, ?, ?, ?)",
            (run_db_id, at, kind, duration, _jsonify(params)),
        )

    def disturbances_for(self, run_db_id: int) -> List[Dict[str, Any]]:
        """Disturbance rows of one run, in time order."""
        cursor = self._conn.execute(
            "SELECT * FROM disturbances WHERE run_id = ? ORDER BY at",
            (run_db_id,),
        )
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    def add_samples(
        self,
        run_db_id: int,
        samples: Iterable[Tuple[float, str, float, Optional[dict]]],
    ) -> None:
        """Bulk-insert ``(time, name, value, labels)`` sample rows."""
        self._conn.executemany(
            "INSERT INTO samples (run_id, time, name, value, labels) "
            "VALUES (?, ?, ?, ?, ?)",
            [
                (run_db_id, t, name, value, _jsonify(labels))
                for t, name, value, labels in samples
            ],
        )
        self._pending += 1
        if self._pending >= COMMIT_EVERY:
            self.flush()

    def samples_for(
        self, run_db_id: int, name: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Sample rows of one run (optionally one metric name)."""
        sql = "SELECT * FROM samples WHERE run_id = ?"
        params: List[Any] = [run_db_id]
        if name is not None:
            sql += " AND name = ?"
            params.append(name)
        cursor = self._conn.execute(sql + " ORDER BY id", params)
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    # -- incidents -----------------------------------------------------------
    def open_incident(
        self,
        run_db_id: Optional[int],
        opened_at: float,
        kind: str,
        severity: str,
        title: str,
        details: Optional[dict] = None,
    ) -> int:
        """Insert an unresolved incident; returns its db id."""
        cursor = self._execute(
            "INSERT INTO incidents (run_id, opened_at, kind, severity, "
            "title, details) VALUES (?, ?, ?, ?, ?, ?)",
            (run_db_id, opened_at, kind, severity, title, _jsonify(details)),
        )
        return int(cursor.lastrowid)

    def update_incident(
        self,
        incident_id: int,
        resolved_at: Optional[float] = None,
        severity: Optional[str] = None,
        title: Optional[str] = None,
        details: Optional[dict] = None,
        kind: Optional[str] = None,
        reopen: bool = False,
    ) -> None:
        """Resolve, re-open or annotate an incident."""
        sets, params = [], []
        if reopen:
            sets.append("resolved_at = NULL")
        elif resolved_at is not None:
            sets.append("resolved_at = ?")
            params.append(resolved_at)
        if kind is not None:
            sets.append("kind = ?")
            params.append(kind)
        if severity is not None:
            sets.append("severity = ?")
            params.append(severity)
        if title is not None:
            sets.append("title = ?")
            params.append(title)
        if details is not None:
            sets.append("details = ?")
            params.append(_jsonify(details))
        if not sets:
            return
        params.append(incident_id)
        self._execute(
            f"UPDATE incidents SET {', '.join(sets)} WHERE id = ?", params
        )

    def incidents(
        self,
        run_db_id: Optional[int] = None,
        open_only: bool = False,
    ) -> List[Dict[str, Any]]:
        """Incident rows (newest first), optionally one run's / open ones."""
        sql = (
            "SELECT i.*, r.run_id AS run FROM incidents i "
            "LEFT JOIN runs r ON r.id = i.run_id"
        )
        clauses, params = [], []
        if run_db_id is not None:
            clauses.append("i.run_id = ?")
            params.append(run_db_id)
        if open_only:
            clauses.append("i.resolved_at IS NULL")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        cursor = self._conn.execute(sql + " ORDER BY i.id DESC", params)
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    # -- campaigns -----------------------------------------------------------
    def insert_campaign(self, name: str, **columns: Any) -> int:
        """Insert a campaign row; returns its db id.

        An existing campaign of the same name is superseded: its runs
        (matched by ``runs.campaign``) are deleted — cascading to their
        epochs, disturbances, samples and incidents — and the row is
        overwritten, so re-running a named campaign updates in place.
        """
        unknown = set(columns) - set(CAMPAIGN_COLUMNS)
        if unknown:
            raise ValueError(f"unknown campaign columns: {sorted(unknown)}")
        for key in ("spec", "report"):
            if key in columns:
                columns[key] = _jsonify(columns[key])
        existing = self._conn.execute(
            "SELECT id FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if existing is not None:
            self._execute("DELETE FROM runs WHERE campaign = ?", (name,))
            keys = sorted(columns)
            self._execute(
                f"UPDATE campaigns SET "
                f"{', '.join(f'{k} = ?' for k in keys)} WHERE id = ?",
                [columns[k] for k in keys] + [int(existing[0])],
            )
            return int(existing[0])
        cols = ["name"] + sorted(columns)
        values = [name] + [columns[c] for c in sorted(columns)]
        cursor = self._execute(
            f"INSERT INTO campaigns ({', '.join(cols)}) "
            f"VALUES ({', '.join('?' * len(cols))})",
            values,
        )
        return int(cursor.lastrowid)

    def update_campaign(self, name: str, **columns: Any) -> None:
        """Overwrite columns of an existing campaign row."""
        unknown = set(columns) - set(CAMPAIGN_COLUMNS)
        if unknown:
            raise ValueError(f"unknown campaign columns: {sorted(unknown)}")
        if not columns:
            return
        for key in ("spec", "report"):
            if key in columns:
                columns[key] = _jsonify(columns[key])
        keys = sorted(columns)
        self._execute(
            f"UPDATE campaigns SET {', '.join(f'{k} = ?' for k in keys)} "
            f"WHERE name = ?",
            [columns[k] for k in keys] + [name],
        )

    def get_campaign(self, name: str) -> Optional[Dict[str, Any]]:
        """Campaign row by name (None if absent)."""
        cursor = self._conn.execute(
            "SELECT * FROM campaigns WHERE name = ?", (name,)
        )
        row = cursor.fetchone()
        if row is None:
            return None
        out = _row_to_dict(cursor, row)
        for key in ("spec", "report"):
            if isinstance(out.get(key), str):
                try:
                    out[key] = json.loads(out[key])
                except ValueError:
                    pass
        return out

    def list_campaigns(self) -> List[Dict[str, Any]]:
        """Campaign rows, newest first (spec/report left encoded)."""
        cursor = self._conn.execute(
            "SELECT id, name, started_utc, wall_seconds, cells, completed, "
            "aborted, breaches FROM campaigns ORDER BY id DESC"
        )
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    def campaign_runs(self, name: str) -> List[Dict[str, Any]]:
        """Run rows belonging to one campaign, in insertion order."""
        cursor = self._conn.execute(
            "SELECT * FROM runs WHERE campaign = ? ORDER BY id", (name,)
        )
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    # -- sweeps --------------------------------------------------------------
    def upsert_sweep(self, name: str, **columns: Any) -> int:
        """Insert or update a sweep row by name; returns its db id.

        Unlike :meth:`insert_campaign`, an existing row keeps its recorded
        cells — resuming a killed sweep must see them.  Use
        :meth:`reset_sweep_cells` to start a named sweep over.
        """
        unknown = set(columns) - set(SWEEP_COLUMNS)
        if unknown:
            raise ValueError(f"unknown sweep columns: {sorted(unknown)}")
        for key in ("spec", "report"):
            if key in columns:
                columns[key] = _jsonify(columns[key])
        existing = self._conn.execute(
            "SELECT id FROM sweeps WHERE name = ?", (name,)
        ).fetchone()
        if existing is not None:
            sweep_id = int(existing[0])
            if columns:
                keys = sorted(columns)
                self._execute(
                    f"UPDATE sweeps SET "
                    f"{', '.join(f'{k} = ?' for k in keys)} WHERE id = ?",
                    [columns[k] for k in keys] + [sweep_id],
                )
            return sweep_id
        cols = ["name"] + sorted(columns)
        values = [name] + [columns[c] for c in sorted(columns)]
        cursor = self._execute(
            f"INSERT INTO sweeps ({', '.join(cols)}) "
            f"VALUES ({', '.join('?' * len(cols))})",
            values,
        )
        return int(cursor.lastrowid)

    def get_sweep(self, name: str) -> Optional[Dict[str, Any]]:
        """Sweep row by name (None if absent; spec/report decoded)."""
        cursor = self._conn.execute(
            "SELECT * FROM sweeps WHERE name = ?", (name,)
        )
        row = cursor.fetchone()
        if row is None:
            return None
        out = _row_to_dict(cursor, row)
        for key in ("spec", "report"):
            if isinstance(out.get(key), str):
                try:
                    out[key] = json.loads(out[key])
                except ValueError:
                    pass
        return out

    def list_sweeps(self) -> List[Dict[str, Any]]:
        """Sweep rows, newest first (spec/report left encoded)."""
        cursor = self._conn.execute(
            "SELECT id, name, directory, created_utc, updated_utc, cells, "
            "completed, status, wall_seconds FROM sweeps ORDER BY id DESC"
        )
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    def reset_sweep_cells(self, sweep_id: int) -> None:
        """Drop every recorded cell of a sweep (fresh restart of a name)."""
        self._execute(
            "DELETE FROM sweep_cells WHERE sweep_id = ?", (sweep_id,)
        )

    def upsert_sweep_cell(
        self, sweep_id: int, cell_index: int, **columns: Any
    ) -> None:
        """Record one completed cell (idempotent on re-record).

        A one-row :meth:`upsert_sweep_cells`: columns left out are NULL.
        """
        unknown = set(columns) - set(SWEEP_CELL_COLUMNS)
        if unknown:
            raise ValueError(f"unknown sweep cell columns: {sorted(unknown)}")
        for key in ("params", "result"):
            if key in columns:
                columns[key] = _jsonify(columns[key])
        self.upsert_sweep_cells([
            (sweep_id, cell_index)
            + tuple(columns.get(c) for c in SWEEP_CELL_COLUMNS)
        ])

    def upsert_sweep_cells(self, rows: Sequence[Sequence[Any]]) -> None:
        """Record completed cells in one statement (one buffered mutation).

        Each row is ``(sweep_id, cell_index, *SWEEP_CELL_COLUMNS)`` with
        ``params`` and ``result`` already JSON text; a re-recorded
        ``(sweep_id, cell_index)`` replaces its row.
        """
        self._conn.executemany(_UPSERT_SWEEP_CELL, rows)
        self._pending += 1
        if self._pending >= COMMIT_EVERY:
            self.flush()

    def sweep_cells_for(self, sweep_id: int) -> List[Dict[str, Any]]:
        """Recorded cell rows of one sweep, in grid order."""
        cursor = self._conn.execute(
            "SELECT * FROM sweep_cells WHERE sweep_id = ? ORDER BY cell_index",
            (sweep_id,),
        )
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]

    def sweep_cell_indexes(self, sweep_id: int) -> List[int]:
        """Just the completed cell indexes (the resume set), ascending."""
        return [
            int(row[0]) for row in self._conn.execute(
                "SELECT cell_index FROM sweep_cells WHERE sweep_id = ? "
                "ORDER BY cell_index", (sweep_id,)
            )
        ]

    # -- ad-hoc queries ------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Row counts per table (the ``repro runs list`` footer)."""
        out = {}
        for table in ("runs", "epochs", "disturbances", "samples",
                      "incidents", "campaigns", "sweeps", "sweep_cells"):
            out[table] = int(self._conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0])
        return out

    def query(self, sql: str, params: Sequence[Any] = ()) -> List[Dict[str, Any]]:
        """Run one read-only SELECT (``repro runs query``).

        Anything that is not a single SELECT statement is rejected — the
        store's write path stays the typed API above.
        """
        stripped = sql.lstrip().lower()
        if not (stripped.startswith("select") or stripped.startswith("with")):
            raise ValueError("only SELECT queries are allowed")
        self.flush()
        cursor = self._conn.execute(sql, params)
        return [_row_to_dict(cursor, row) for row in cursor.fetchall()]


__all__ = [
    "CAMPAIGN_COLUMNS",
    "COMMIT_EVERY",
    "DEFAULT_STORE_PATH",
    "RUN_COLUMNS",
    "RunStore",
    "SCHEMA_VERSION",
    "SWEEP_CELL_COLUMNS",
    "SWEEP_COLUMNS",
]
