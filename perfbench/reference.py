"""Fixed reference loops that gauge the host's speed during a run.

The test host is a 2-vCPU VM on a shared machine, and its speed drifts:
the median time of the same work moved by up to 40 % between runs a
minute apart, in CPU time as much as in wall time, so it is not only time
slicing.  A run therefore times a reference loop after every unit of work
and reports its times scaled by ``nominal / median(loop time)``, i.e. as
seconds on a host that runs the loop in its nominal time.  A faster or
slower program moves the unit times; a faster or slower host moves the
unit times and the loop's alike, and the scale takes it back out.

Vectorised numpy code and interpreter-bound code do not speed up or slow
down by the same factor when the host does, so there are two loops, and
each workload is gauged by the one that does its kind of work.  Neither
calls anything in the program:

* ``numpy``: a few numpy operations per step on a 256 x 64 int grid, as
  the batched convergence kernel makes;
* ``python``: tuples through a heap and a dict, as the DES engine, the
  model checker and the live runtime do.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter, process_time
from typing import Callable, Dict, List, Tuple

import numpy as np


def numpy_loop() -> int:
    """About 9 ms of numpy work on a small int grid."""
    x = (np.arange(256 * 64).reshape(256, 64) * 7) % 65
    h = x & 3
    acc = 0
    for _ in range(40):
        left = np.roll(x, 1, axis=1)
        right = np.roll(x, -1, axis=1)
        moved = (x != left) & (h > 0) | (right == x)
        x = np.where(moved, left, x + 1) % 65
        h = (h + moved) & 3
        acc += int(moved.sum(axis=1).cumsum()[-1])
    return acc


def python_loop() -> int:
    """About 10 ms of interpreter work on tuples, a heap and a dict."""
    heap, table = [], {}
    acc = 0
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 6001, i, (i & 7, i >> 3)))
        key = (i & 511, i & 3)
        table[key] = table.get(key, 0) + i
    while heap:
        acc += heapq.heappop(heap)[1]
    return acc + len(table)


#: Each loop and its nominal time: a typical median of the loop on the
#: test host (2-vCPU Xeon VM, CPython 3.11, numpy), measured once.  The
#: nominal time sets only the scale of the reported times.
LOOPS: Dict[str, Tuple[Callable[[], int], float]] = {
    "numpy": (numpy_loop, 0.0085),
    "python": (python_loop, 0.0100),
}


class HostGauge:
    """One loop's times over a run, and the scale they give."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._loop, self.nominal = LOOPS[kind]
        self._loop()  # the first call pays numpy's lazy set-up
        self.walls: List[float] = []
        self.cpus: List[float] = []

    def sample(self, calls: int = 1) -> None:
        """Time ``calls`` loops, outside any timed unit."""
        for _ in range(calls):
            w0, c0 = perf_counter(), process_time()
            self._loop()
            self.walls.append(perf_counter() - w0)
            self.cpus.append(process_time() - c0)

    def scale(self) -> Tuple[float, float]:
        """``(wall, cpu)`` factors from this host's seconds to reference
        seconds: the nominal time over the loop's median times."""
        return (self.nominal / statistics.median(self.walls),
                self.nominal / statistics.median(self.cpus))
