"""Packed kernel for Dijkstra's K-state ring — the second kernel instance.

Proof that the kernel contract generalizes beyond SSRmin: one flat ``x``
vector, rule resolution in a single comparison per process (``D1`` at the
bottom, ``D2`` elsewhere), and the same closed-neighborhood incremental
enabled-set maintenance.  A write at ``i`` can only flip the guards of
``i`` and ``i+1`` (each guard reads ``x_i`` and its predecessor), a strict
subset of the closed neighborhood the contract allows.

The cyclic boundary counter ``diff_edges`` gates legitimacy exactly as in
the SSRmin kernel: legitimate vectors have 0 (all equal — immediately
legitimate) or 2 boundaries (the ``(x+1, ..., x+1, x, ..., x)`` staircase,
verified in closed form only then).
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.kernels.rule_table import DIJKSTRA_RULE_NAMES
from repro.kernels.successor import next_x
from repro.simulation.fastpath.kernel import FastKernel

__all__ = ["DIJKSTRA_RULE_NAMES", "DijkstraKernel"]


class DijkstraKernel(FastKernel):
    """Fast kernel for :class:`repro.algorithms.dijkstra.DijkstraKState`."""

    rule_names = DIJKSTRA_RULE_NAMES

    def __init__(self, algorithm):
        self.algorithm = algorithm
        self.n = algorithm.n
        self.K = algorithm.K
        self._x = [0] * self.n
        self._rule = [0] * self.n
        self._enabled_set: set = set()
        self._enabled_cache: Tuple[int, ...] | None = None
        self._diff_edges = 0
        self.key_base = self.K
        self.key_weights = [
            self.K ** (self.n - 1 - i) for i in range(self.n)
        ]

    # -- loading / exporting -------------------------------------------------
    def load(self, config: Any) -> None:
        n, x = self.n, self._x
        for i in range(n):
            x[i] = config[i]
        self._reindex()

    def load_key(self, key: int) -> None:
        x, K = self._x, self.K
        for i in range(self.n - 1, -1, -1):
            key, x[i] = divmod(key, K)
        self._reindex()

    def unpack_key(self, key: int) -> Tuple[int, ...]:
        n, K = self.n, self.K
        xs = [0] * n
        for i in range(n - 1, -1, -1):
            key, xs[i] = divmod(key, K)
        return tuple(xs)

    def _reindex(self) -> None:
        n, x = self.n, self._x
        self._diff_edges = sum(1 for i in range(n) if x[i] != x[i - 1])
        rule, enabled = self._rule, self._enabled_set
        enabled.clear()
        x_last = x[n - 1]
        for i in range(n):
            if i == 0:
                r = 1 if x[0] == x_last else 0
            else:
                r = 2 if x[i] != x[i - 1] else 0
            rule[i] = r
            if r:
                enabled.add(i)
        self._enabled_cache = None

    def export(self) -> Tuple[int, ...]:
        return tuple(self._x)

    def native_state(self, i: int) -> int:
        return self._x[i]

    # -- enabledness ---------------------------------------------------------
    def enabled(self) -> Tuple[int, ...]:
        cache = self._enabled_cache
        if cache is None:
            cache = self._enabled_cache = tuple(sorted(self._enabled_set))
        return cache

    def rule_id(self, i: int) -> int:
        return self._rule[i]

    # -- stepping ------------------------------------------------------------
    def update(self, i: int) -> int:
        if self._rule[i] == 0:
            raise ValueError(f"process {i} is not enabled")
        # Shared C_i arithmetic (cyclic predecessor: x[-1] for the bottom).
        return next_x(self._x[i - 1], i, self.K)

    def apply(self, selection: Sequence[int]) -> None:
        n, K = self.n, self.K
        x, rule = self._x, self._rule
        selected = set(selection)
        if not selected:
            raise ValueError("daemon must select a non-empty set of processes")
        writes = []
        for i in selected:
            if rule[i] == 0:
                raise ValueError(f"process {i} is not enabled")
            writes.append((i, next_x(x[i - 1], i, K)))
        edges = set()
        for i, _ in writes:
            edges.add(i)
            edges.add((i + 1) % n)
        old_edges = sum(1 for e in edges if x[e] != x[e - 1])
        for i, nx in writes:
            x[i] = nx
        self._diff_edges += sum(1 for e in edges if x[e] != x[e - 1]) - old_edges

        # A write at i touches the guards of i and i+1 only.
        dirty = set()
        for i in selected:
            dirty.add(i)
            dirty.add((i + 1) % n)
        enabled = self._enabled_set
        x_last = x[n - 1]
        for j in dirty:
            if j == 0:
                r = 1 if x[0] == x_last else 0
            else:
                r = 2 if x[j] != x[j - 1] else 0
            if r != rule[j]:
                rule[j] = r
            if r:
                enabled.add(j)
            else:
                enabled.discard(j)
        self._enabled_cache = None

    # -- predicates ----------------------------------------------------------
    def is_legitimate(self) -> bool:
        de = self._diff_edges
        if de == 0:
            return True
        if de != 2:
            return False
        x, n, K = self._x, self.n, self.K
        if x[0] == x[n - 1]:
            return False
        for b in range(1, n):
            if x[b] != x[b - 1]:
                return x[0] == (x[b] + 1) % K
        raise AssertionError("diff_edges == 2 but no interior boundary")

    def privileged(self) -> Tuple[int, ...]:
        """Token holders == enabled processes for Dijkstra's ring."""
        return self.enabled()

    # -- state keys ----------------------------------------------------------
    def key(self) -> int:
        k = 0
        for v in self._x:
            k = k * self.K + v
        return k

    def pack_key(self, config: Any) -> int:
        k = 0
        for v in config:
            k = k * self.K + v
        return k

    def digit(self, state: int) -> int:
        return state

    def shift_key(self, key: int, c: int) -> int:
        K = self.K
        out = 0
        for w in reversed(self.key_weights):
            key, d = divmod(key, K)
            out += ((d + c) % K) * w
        return out

    # -- key arrays ----------------------------------------------------------
    def key_moves(self, keys: Any) -> Tuple[Any, Any, Any]:
        """D1/D2 and the closed form of
        :func:`~repro.algorithms.dijkstra.is_dijkstra_legitimate` on keys."""
        import numpy as np

        from repro.kernels.batched import _primary, batched_commands

        X = self._digits(keys)
        enabled = _primary(X)
        weights = np.asarray(self.key_weights, dtype=np.int64)
        deltas = np.where(enabled, batched_commands(X, self.K) - X, 0) * weights
        # Legitimate: a (possibly empty) prefix at x_{n-1} + 1, the rest
        # at x_{n-1}.
        step = np.logical_and.accumulate(X == (X[:, -1:] + 1) % self.K, axis=1)
        legit = (step | (X == X[:, -1:])).all(axis=1)
        return legit, enabled, deltas

    def canonical_keys(self, keys: Any) -> Any:
        import numpy as np

        X = self._digits(keys)
        shifted = (X - X[:, :1]) % self.K
        return shifted @ np.asarray(self.key_weights, dtype=np.int64)
