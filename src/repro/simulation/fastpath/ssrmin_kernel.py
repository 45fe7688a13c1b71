"""Packed SSRmin kernel: flat ``x``/``h`` vectors + the shared rule table.

Local states pack into two parallel lists: the Dijkstra counter ``x_i`` and
the 2-bit handshake code ``h_i = 2*rts_i + tra_i``.  The five prioritized
SSRmin guards (Algorithm 3) collapse into the 128-entry
:data:`repro.kernels.rule_table.RULE_TABLE` indexed by
``(G_i, h_{i-1}, h_i, h_{i+1})`` — owned by the shared kernel layer
(:mod:`repro.kernels`) and consumed identically by this kernel, the
message-passing codec and the batched numpy backend.  Each table lookup
computes ``G_i`` exactly once, versus up to three recomputations per
process on the naive path; rule *execution* and the ``C_i`` successor
arithmetic delegate to :mod:`repro.kernels.successor`, the one copy both
fastpaths share.

Two cheap counters make the legitimacy test near-O(1) on the hot path:

* ``diff_edges`` — cyclic x-boundary count ``|{i : x_i != x_{i-1 mod n}}|``;
  a legitimate x-vector has 0 (all equal) or 2 (one staircase step plus the
  wraparound), so anything else rejects immediately;
* ``nonzero_h`` — processes with a non-quiet handshake; Definition 1 allows
  exactly 1 or 2.

Both are maintained incrementally under :meth:`apply`, so the full O(n)
shape verification only runs on configurations that already look converged.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.core.state import Configuration, StateTuple
from repro.kernels.packing import ssrmin_word_bound
from repro.kernels.rule_table import (
    SSRMIN_RULE_NAMES,
    build_rule_table as _build_rule_table,
)
from repro.kernels.rule_table import RULE_TABLE
from repro.kernels.successor import execute_ssrmin_word, next_x
from repro.simulation.fastpath.kernel import FastKernel

# Re-exported module globals: the kernel methods below resolve RULE_TABLE
# through *this* module's namespace at call time, so tests that
# monkeypatch ``ssrmin_kernel.RULE_TABLE`` (mutation smoke, differential
# fuzzer witnesses) keep injecting divergences exactly as before the
# table moved to :mod:`repro.kernels.rule_table`.
__all__ = ["RULE_TABLE", "SSRMIN_RULE_NAMES", "SSRminKernel"]


class SSRminKernel(FastKernel):
    """Fast kernel for :class:`repro.core.ssrmin.SSRmin`."""

    rule_names = SSRMIN_RULE_NAMES

    def __init__(self, algorithm):
        self.algorithm = algorithm
        self.n = algorithm.n
        self.K = algorithm.K
        n = self.n
        self._x = [0] * n
        self._h = [0] * n
        self._rule = [0] * n
        self._enabled_set: set = set()
        self._enabled_cache: Tuple[int, ...] | None = None
        self._diff_edges = 0
        self._nonzero_h = 0
        self.key_base = ssrmin_word_bound(self.K)
        self.key_weights = [
            self.key_base ** (n - 1 - i) for i in range(n)
        ]

    # -- loading / exporting -------------------------------------------------
    def load(self, config: Any) -> None:
        n, x, h = self.n, self._x, self._h
        states = config.states if isinstance(config, Configuration) else config
        for i in range(n):
            xi, rts, tra = states[i]
            x[i] = xi
            h[i] = (rts << 1) | tra
        self._reindex()

    def load_key(self, key: int) -> None:
        x, h, base = self._x, self._h, self.key_base
        for i in range(self.n - 1, -1, -1):
            key, d = divmod(key, base)
            x[i] = d >> 2
            h[i] = d & 3
        self._reindex()

    def unpack_key(self, key: int) -> Configuration:
        n, base = self.n, self.key_base
        states = [None] * n
        for i in range(n - 1, -1, -1):
            key, d = divmod(key, base)
            states[i] = (d >> 2, (d >> 1) & 1, d & 1)
        return Configuration.from_states(tuple(states))

    def _reindex(self) -> None:
        """Rebuild counters and the enabled set from the packed vectors —
        one full pass computing ``G_i`` exactly once per process."""
        n, x, h = self.n, self._x, self._h
        self._diff_edges = sum(1 for i in range(n) if x[i] != x[i - 1])
        self._nonzero_h = sum(1 for v in h if v)
        rule, table = self._rule, RULE_TABLE
        enabled = self._enabled_set
        enabled.clear()
        x_last = x[n - 1]
        for i in range(n):
            g = (x[i] == x_last) if i == 0 else (x[i] != x[i - 1])
            r = table[(g << 6) | (h[i - 1] << 4) | (h[i] << 2) | h[(i + 1) % n]]
            rule[i] = r
            if r:
                enabled.add(i)
        self._enabled_cache = None

    def export(self) -> Configuration:
        x, h = self._x, self._h
        return Configuration.from_states(
            tuple((x[i], h[i] >> 1, h[i] & 1) for i in range(self.n))
        )

    def native_state(self, i: int) -> StateTuple:
        hi = self._h[i]
        return (self._x[i], hi >> 1, hi & 1)

    # -- enabledness ---------------------------------------------------------
    def enabled(self) -> Tuple[int, ...]:
        cache = self._enabled_cache
        if cache is None:
            cache = self._enabled_cache = tuple(sorted(self._enabled_set))
        return cache

    def rule_id(self, i: int) -> int:
        return self._rule[i]

    # -- stepping ------------------------------------------------------------
    def update(self, i: int) -> StateTuple:
        r = self._rule[i]
        if r == 0:
            raise ValueError(f"process {i} is not enabled")
        # Delegate to the shared packed-word executor (the cyclic
        # predecessor word: ``x[i-1]`` is ``x[n-1]`` for the bottom).
        x, h = self._x, self._h
        word = execute_ssrmin_word(
            r, (x[i] << 2) | h[i], (x[i - 1] << 2) | h[i - 1], i, self.K
        )
        return (word >> 2, (word >> 1) & 1, word & 1)

    def apply(self, selection: Sequence[int]) -> None:
        n, K = self.n, self.K
        x, h, rule = self._x, self._h, self._rule
        selected = set(selection)
        if not selected:
            raise ValueError("daemon must select a non-empty set of processes")
        # Commands are computed from the OLD state (composite atomicity).
        writes = []
        for i in selected:
            r = rule[i]
            if r == 0:
                raise ValueError(f"process {i} is not enabled")
            if r == 1:
                writes.append((i, -1, 2))
            elif r == 3:
                writes.append((i, -1, 1))
            elif r == 5:
                writes.append((i, -1, 0))
            else:  # R2 / R4: x <- C_i (shared successor arithmetic)
                writes.append((i, next_x(x[i - 1], i, K), 0))

        # Incremental counter maintenance: compare the touched x-edges and
        # handshake entries before/after the simultaneous writes.
        edges = set()
        for i, nx, _ in writes:
            if nx >= 0:
                edges.add(i)
                edges.add((i + 1) % n)
        old_edges = sum(1 for e in edges if x[e] != x[e - 1])
        old_nz = sum(1 for i, _, _ in writes if h[i])
        for i, nx, nh in writes:
            if nx >= 0:
                x[i] = nx
            h[i] = nh
        self._diff_edges += sum(1 for e in edges if x[e] != x[e - 1]) - old_edges
        self._nonzero_h += sum(1 for i, _, _ in writes if h[i]) - old_nz

        # Neighborhood invalidation: only {i-1, i, i+1 : i in S} can change.
        dirty = set()
        for i in selected:
            dirty.add((i - 1) % n)
            dirty.add(i)
            dirty.add((i + 1) % n)
        table, enabled = RULE_TABLE, self._enabled_set
        x_last = x[n - 1]
        for j in dirty:
            g = (x[j] == x_last) if j == 0 else (x[j] != x[j - 1])
            r = table[(g << 6) | (h[j - 1] << 4) | (h[j] << 2) | h[(j + 1) % n]]
            if r != rule[j]:
                rule[j] = r
            if r:
                enabled.add(j)
            else:
                enabled.discard(j)
        self._enabled_cache = None

    # -- predicates ----------------------------------------------------------
    def _primary_position(self) -> int:
        """Token position of the (pre-validated) legitimate x-vector."""
        if self._diff_edges == 0:
            return 0
        x, n = self._x, self.n
        for b in range(1, n):
            if x[b] != x[b - 1]:
                return b
        raise AssertionError("diff_edges == 2 but no interior boundary")

    def _x_part_legitimate(self) -> bool:
        """Dijkstra-legitimacy of the x-vector, counter-gated."""
        de = self._diff_edges
        if de == 0:
            return True
        if de != 2:
            return False
        x, n, K = self._x, self.n, self.K
        if x[0] == x[n - 1]:
            # The wraparound edge must be one of the two boundaries.
            return False
        b = self._primary_position()
        return x[0] == (x[b] + 1) % K

    def dijkstra_legitimate(self) -> bool:
        """Legitimacy of the embedded Dijkstra ring (the Lemma 6/8 phase-1
        milestone tracked by :func:`repro.simulation.convergence.converge`)."""
        return self._x_part_legitimate()

    def is_legitimate(self) -> bool:
        nz = self._nonzero_h
        if nz not in (1, 2) or not self._x_part_legitimate():
            return False
        h, pos = self._h, self._primary_position()
        if nz == 1:
            # Shape <0.1> or <1.0> at the token position, quiet elsewhere.
            return h[pos] in (1, 2)
        # Shape <1.0> at pos, <0.1> at its successor, quiet elsewhere.
        return h[pos] == 2 and h[(pos + 1) % self.n] == 1

    def privileged(self) -> Tuple[int, ...]:
        x, h, n = self._x, self._h, self.n
        x_last = x[n - 1]
        out = []
        for i in range(n):
            g = (x[i] == x_last) if i == 0 else (x[i] != x[i - 1])
            if g:
                out.append(i)
                continue
            hi = h[i]
            # tra_i = 1, or rts_i = 1 with a quiet successor.
            if (hi & 1) or ((hi & 2) and h[(i + 1) % n] == 0):
                out.append(i)
        return tuple(out)

    # -- state keys ----------------------------------------------------------
    def key(self) -> int:
        x, h, base = self._x, self._h, self.K << 2
        k = 0
        for i in range(self.n):
            k = k * base + ((x[i] << 2) | h[i])
        return k

    def pack_key(self, config: Any) -> int:
        states = config.states if isinstance(config, Configuration) else config
        base = self.key_base
        k = 0
        for xi, rts, tra in states:
            k = k * base + ((xi << 2) | (rts << 1) | tra)
        return k

    def digit(self, state: StateTuple) -> int:
        x, rts, tra = state
        return (x << 2) | (rts << 1) | tra

    def shift_key(self, key: int, c: int) -> int:
        base, K = self.key_base, self.K
        out = 0
        for w in reversed(self.key_weights):
            key, d = divmod(key, base)
            out += (((((d >> 2) + c) % K) << 2) | (d & 3)) * w
        return out

    # -- key arrays ----------------------------------------------------------
    def key_moves(self, keys: Any) -> Tuple[Any, Any, Any]:
        """The batched kernel's guards, commands and Definition 1 on keys.

        Rules are gathered from this module's ``RULE_TABLE`` as it is at
        call time, like :meth:`_reindex`.
        """
        import numpy as np

        from repro.kernels.batched import (
            _NEXT_H,
            _SETS_X,
            _neighbours,
            _primary,
            batched_commands,
            batched_legitimate,
        )

        D = self._digits(keys)
        X, H = D >> 2, D & 3
        Hp, Hs = _neighbours(H)
        G = _primary(X).view(np.uint8)
        rule = np.frombuffer(RULE_TABLE, dtype=np.uint8)[
            (G << 6) | (Hp << 4) | (H << 2) | Hs]
        new_x = np.where(_SETS_X[rule], batched_commands(X, self.K), X)
        new_d = (new_x << 2) | _NEXT_H[(rule << 2) | H]
        deltas = (new_d - D) * np.asarray(self.key_weights, dtype=np.int64)
        return batched_legitimate(X, H, self.K), rule != 0, deltas

    def canonical_keys(self, keys: Any) -> Any:
        import numpy as np

        D = self._digits(keys)
        X = D >> 2
        D = (((X - X[:, :1]) % self.K) << 2) | (D & 3)
        return D @ np.asarray(self.key_weights, dtype=np.int64)
