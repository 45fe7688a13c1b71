"""Wall-clock phase timing for experiment runs.

:class:`Stopwatch` is a context-manager timer with named splits; the
experiment registry records its splits in each run record.  Performance
claims are measured by the repository benchmark (``perfbench/``), not here.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple


class Stopwatch:
    """Wall-clock timer usable as a context manager.

    Example::

        with Stopwatch() as sw:
            run_simulation()
            sw.split("simulate")
            analyze()
            sw.split("analyze")
        print(sw.splits)
    """

    def __init__(self) -> None:
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        #: Named split points: (label, seconds since previous split).
        self.splits: List[Tuple[str, float]] = []
        self._last: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self.start = self._last = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()

    def split(self, label: str) -> float:
        """Record the time since the previous split; returns it."""
        if self._last is None:
            raise RuntimeError("stopwatch not started")
        now = time.perf_counter()
        delta = now - self._last
        self.splits.append((label, delta))
        self._last = now
        return delta

    @property
    def elapsed(self) -> float:
        """Total seconds between enter and exit (or now, if still running)."""
        if self.start is None:
            raise RuntimeError("stopwatch not started")
        return (self.end or time.perf_counter()) - self.start
