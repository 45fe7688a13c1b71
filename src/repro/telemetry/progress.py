"""Live progress emission from the event stream.

A :class:`ProgressEmitter` subscribes to a telemetry session (or any bus)
and periodically prints a one-line status — steps/second, message volume,
and the current token census — so long sweeps (``repro report
--parallel``) no longer run blind.  Emission is wall-clock throttled; the
per-event cost between emissions is a few integer updates.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Optional, TextIO

from repro.telemetry.events import Event


class ProgressEmitter:
    """Throttled textual progress reporter; subscribe it to a bus/session.

    Parameters
    ----------
    label:
        Prefix distinguishing concurrent emitters (e.g. the experiment id
        in a parallel sweep).
    interval:
        Minimum wall-clock seconds between emitted lines.
    stream:
        Output stream (default stderr, keeping stdout clean for results).
    clock:
        Injectable time source (tests pass a fake).
    """

    def __init__(
        self,
        label: str = "",
        interval: float = 2.0,
        stream: Optional[TextIO] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.label = label
        self.interval = interval
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.steps = 0
        self.messages = 0
        self.events = 0
        self.census: Optional[List[int]] = None
        self.emitted = 0
        self._started = clock()
        self._last_emit = self._started
        self._last_steps = 0

    # The emitter *is* the subscriber callable.
    def __call__(self, event: Event) -> None:
        self.events += 1
        if event.kind == "step":
            self.steps += 1
        elif event.kind == "send":
            self.messages += 1
        elif event.kind == "census":
            holders = event.payload.get("holders")
            if holders is not None:
                self.census = list(holders)
        now = self.clock()
        if now - self._last_emit >= self.interval:
            self.emit(now)

    def emit(self, now: Optional[float] = None) -> None:
        """Write one progress line immediately."""
        now = self.clock() if now is None else now
        window = max(now - self._last_emit, 1e-9)
        rate = (self.steps - self._last_steps) / window
        census = (
            "census=" + ",".join(str(h) for h in self.census)
            if self.census is not None
            else "census=?"
        )
        prefix = f"[progress{' ' + self.label if self.label else ''}]"
        self.stream.write(
            f"{prefix} {self.steps} steps ({rate:.0f}/s), "
            f"{self.messages} msgs, {self.events} events, {census}\n"
        )
        self.stream.flush()
        self.emitted += 1
        self._last_emit = now
        self._last_steps = self.steps
