"""JSONL trace export and import.

A trace is one :class:`~repro.telemetry.events.Event` per line, in ``seq``
order, written incrementally as events are published.  Payload values that
are not natively JSON-able (numpy scalars, state namedtuples, arbitrary
objects) are coerced conservatively: numeric types to numbers, sequences
elementwise, everything else to ``repr`` — a trace write must never crash
the run it is observing.

Long sweeps can emit millions of engine step events; the writer therefore
accepts a ``max_events`` cap.  Truncation is *never silent*: the writer
remembers how many events were dropped and the run record keeps it.
"""

from __future__ import annotations

import json
from typing import IO, Iterator, List, Optional, Union

from repro.telemetry.events import Event

#: Default cap on events written to one trace file (~100s of MB of JSONL).
DEFAULT_MAX_TRACE_EVENTS = 1_000_000


def _coerce(value):
    """Best-effort conversion of an arbitrary payload value to JSON types."""
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _coerce(v) for k, v in value.items()}
    return repr(value)


class JsonlTraceWriter:
    """Incremental JSONL writer with a non-silent event cap."""

    def __init__(
        self,
        path: str,
        max_events: Optional[int] = DEFAULT_MAX_TRACE_EVENTS,
    ):
        self.path = path
        self.max_events = max_events
        self.written = 0
        self.dropped = 0
        self._fh: Optional[IO[str]] = open(path, "w")

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def write(self, event: Event) -> None:
        """Append one event (dropped and counted once past the cap)."""
        if self._fh is None:
            raise ValueError(f"trace writer for {self.path} already closed")
        if self.max_events is not None and self.written >= self.max_events:
            self.dropped += 1
            return
        self._fh.write(json.dumps(event.to_json(), default=_coerce))
        self._fh.write("\n")
        self.written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_events(path: str, events) -> int:
    """Write an iterable of events to ``path``; returns the count written."""
    with JsonlTraceWriter(path, max_events=None) as writer:
        for event in events:
            writer.write(event)
        return writer.written


def iter_trace(source: Union[str, IO[str]]) -> Iterator[Event]:
    """Yield events from a JSONL trace file (path or open handle).

    Blank lines are skipped; malformed lines raise :class:`ValueError`
    with the offending line number.
    """
    if isinstance(source, str):
        with open(source) as fh:
            yield from iter_trace(fh)
        return
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield Event.from_json(json.loads(line))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"bad trace line {lineno}: {exc}") from exc


def read_trace(path: str) -> List[Event]:
    """Load a whole trace into memory (small traces / tests)."""
    return list(iter_trace(path))
