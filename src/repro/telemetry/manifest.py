"""Run records: what ran and how, for the run store.

An instrumented experiment run or fuzz campaign is summarised by one
record: the package version, the algorithm / ring-size / daemon / seed
descriptors observed on the event bus, the wall-clock phase splits from
:class:`~repro.analysis.profiling.Stopwatch`, a full metrics snapshot and
the path of the JSONL trace (when one was asked for).
:func:`~repro.observability.ingest.ingest_manifest` records it as the
run's row in the sqlite run store; ``repro runs show <id>`` prints it.
Any table in EXPERIMENTS.md can then be regenerated from its row alone:
``python -m repro run <experiment_id>`` with the recorded version
reproduces it bit-for-bit (experiments are seeded).
"""

from __future__ import annotations

import platform
import sys
import time
from typing import Optional, Sequence, Tuple

from repro.telemetry.session import TelemetrySession

#: Record schema version; bump on incompatible field changes.
MANIFEST_SCHEMA = 1


def _package_version() -> str:
    from repro import __version__  # runtime import avoids a package cycle

    return __version__


def build_manifest(
    session: TelemetrySession,
    experiment_id: Optional[str] = None,
    command: Optional[str] = None,
    phases: Sequence[Tuple[str, float]] = (),
    trace_file: Optional[str] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble a JSON-able run record from a finished session.

    Parameters
    ----------
    session:
        The telemetry session the run executed under.
    experiment_id:
        Registry id (``fig13``, ``thm2``, ...), when applicable.
    command:
        The reproducing command line (e.g. ``python -m repro run fig13``).
    phases:
        Wall-clock splits, typically ``Stopwatch.splits``.
    trace_file:
        Path of the run's JSONL trace (None when none was written).
    extra:
        Free-form additions (verdicts, parameters).
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "experiment_id": experiment_id,
        "command": command,
        "created_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(session.started_at)
        ),
        "package": {"name": "repro", "version": _package_version()},
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "wall_seconds": session.wall_seconds,
        "phases": [
            {"label": label, "seconds": seconds} for label, seconds in phases
        ],
        "runs": list(session.run_descriptors),
        "events_total": session.events_total,
        "trace": {
            "file": trace_file,
            "truncated": session.trace_truncated,
            "dropped_events": session.trace_dropped_events,
        },
        "metrics": session.registry.snapshot(),
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest
