"""Batched numpy backend over the shared rule table.

The one batched SSRmin engine: the rule-table gather, the vectorized
legitimacy/privilege predicates, the command vector and the lockstep
step loop, over the *same* :data:`~repro.kernels.rule_table.RULE_TABLE`
the scalar engines resolve rules with.

All functions take states as ``(trials, n)`` integer arrays: ``X`` holds
the Dijkstra counters (any integer dtype that holds ``K``; the step loop
keeps them in uint8 when ``K < 256`` and in int64 otherwise), ``H`` the
2-bit handshake codes (any integer dtype; the step loop uses uint8).

:func:`run_convergence_cells` is the sweep engine's vectorized cell
executor: it advances one *homogeneous group* of convergence cells (same
``n``, ``K``, daemon, budget — only seeds differ) in lockstep.  Its
randomness is counter-based (:mod:`repro.kernels.prng`), which makes each
cell's trajectory a pure function of its own seed: running a cell alone
or inside any group produces bit-identical results, the property the
resumable sweep store leans on.  The step loop works on live lanes only:

* a lane leaves every per-lane array in the step after it first
  satisfies Definition 1 (its step count is written back by its original
  index).  Every legitimate configuration enables exactly one process
  (Figure 4's inchworm moves one process at a time), so the configuration
  reached at step ``k`` is checked at the start of step ``k + 1``, and
  only on lanes with one enabled process (the central step reads each
  lane's count off its pick, the parallel steps off the rule array they
  compute anyway) whose ``x_0`` is ``x_{n-1}`` or ``x_{n-1} + 1``, as in
  every staircase.  The lanes left after the budget's last step are
  checked once more;
* under the central daemon, which moves one process per lane per step,
  each process's rule-table index (:func:`_rule_indices`) persists across
  steps in place of the handshake array.  A move at column ``j`` writes
  only ``x_j`` and ``h_j``, so it reads ``x`` and the indices at
  ``j - 1 .. j + 1`` alone and rewrites those three indices with byte
  operations and 128-entry tables indexed by the mover's index; ``H`` is
  derived from the indices only where it is read (the retirement check,
  the check after the budget's last step, the yielded configurations);
* the synchronous and Bernoulli daemons move many processes per step and
  recompute every guard of the live lanes, over byte-wide counters
  whenever ``K < 256``; Bernoulli coins are decided on the hashed words
  in integers (:func:`~repro.kernels.prng.keyed_coins`);
* the per-seed half of every PRNG key is hashed once per run, and the
  lanes' row offsets are rebuilt only when lanes retire.

:func:`advance_configurations` runs the same step loop from given
configurations instead of seeded random ones, with the same keyed draws
and no retirement (ext4 watches Theorem 1's band on it).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.daemon_families import DAEMON_FAMILIES, parse_daemon
from repro.kernels.prng import (
    coin_bound,
    grid_integers,
    keyed_coins,
    keyed_uniforms,
    lane_mixes,
    step_keys,
    stream_keys,
)
from repro.kernels.rule_table import RULE_TABLE

#: The 128-entry guard-resolution table as a numpy LUT.
RULE_LUT = np.frombuffer(RULE_TABLE, dtype=np.uint8)

#: Handshake code after a step, indexed ``(rule << 2) | h``: R1 leaves
#: ``<1.0>``, R3 ``<0.1>``, R2/R4/R5 ``<0.0>``; rule 0 (no move) keeps ``h``.
_NEXT_H = np.array([h if new is None else new
                    for new in (None, 2, 0, 1, 0, 0) for h in range(4)],
                   dtype=np.uint8)
#: Rules whose command also sets ``x_i <- C_i`` (R2 and R4).
_SETS_X = np.array([False, False, True, False, True, False])

#: Rule-table indices ``(G << 6) | (h_pred << 4) | (h_own << 2) | h_succ``.
_INDICES = np.arange(128)
#: A move by the process at index ``i``: its new handshake code, and
#: whether its command also sets ``x`` (1 for R2 and R4).
_MOVE_H = _NEXT_H[RULE_LUT * 4 + ((_INDICES >> 2) & 3)]
_MOVE_SETS = _SETS_X[RULE_LUT].view(np.uint8)
#: Its own index after the move: the new ``h`` in place of the old one,
#: and ``G`` cleared by R2 and R4, whose ``x <- C`` passes the primary
#: token on.
_MOVE_OWN = ((_INDICES & 0x33) | (_MOVE_H << 2)
             | (_INDICES & 64) * (1 - _MOVE_SETS)).astype(np.uint8)
#: ``RULE_LUT != 0``: whether the process at an index is enabled.
_ENABLED = RULE_LUT != 0

#: PRNG stream ids (:func:`repro.kernels.prng.grid_uniforms` coordinates).
STREAM_INIT_X = 0
STREAM_INIT_H = 1
STREAM_COINS = 2
STREAM_PICK = 3


def _primary(X: np.ndarray) -> np.ndarray:
    """``G_i`` per process: ``x_i != x_{i-1}``, and ``x_0 == x_{n-1}``."""
    G = np.empty(X.shape, dtype=bool)
    np.not_equal(X[:, 1:], X[:, :-1], out=G[:, 1:])
    np.equal(X[:, 0], X[:, -1], out=G[:, 0])
    return G


def _neighbours(H: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(H_{i-1}, H_{i+1})`` around the ring."""
    return (np.concatenate((H[:, -1:], H[:, :-1]), axis=1),
            np.concatenate((H[:, 1:], H[:, :1]), axis=1))


def _rule_indices(X: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Each process's index into the shared rule table (uint8 for uint8 H).

    ``(G << 6) | (h_pred << 4) | (h_own << 2) | h_succ``; the shifts are
    byte-wide multiplications, which numpy runs several times faster.
    """
    Hp, Hs = _neighbours(H)
    return (_primary(X).view(np.uint8) * 64) | (Hp * 16) | (H * 4) | Hs


def batched_guards(X: np.ndarray, H: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(G, rule)`` arrays; rule (uint8) in {0 (none), 1..5} after priority.

    One gather through the shared rule table replaces five separate
    guard masks + a ``np.select`` cascade.
    """
    I = _rule_indices(X, H)
    return I >= 64, RULE_LUT.take(I)


def batched_commands(X: np.ndarray, K: int) -> np.ndarray:
    """The command vector ``C_i`` per trial, from the *current* ``X``.

    The batched form of :func:`repro.kernels.successor.next_x`: the
    bottom column gets ``X[:, n-1] + 1 mod K``, everyone else a copy of
    the predecessor column (composite atomicity: all from the old state).
    """
    return np.concatenate(((X[:, -1:] + 1) % K, X[:, :-1]), axis=1)


def batched_privileged_counts(X: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Privileged processes per trial (vectorized token predicates).

    Mirrors :meth:`repro.core.ssrmin.SSRmin.privileged`: a process is
    privileged iff it holds the primary token (``G_i``) or the secondary
    token (``tra_i = 1`` or ``rts_i = 1`` with a quiet successor).
    """
    _, Hs = _neighbours(H)
    rts = H >= 2
    tra = (H % 2) == 1
    secondary = tra | (rts & (Hs == 0))
    return (_primary(X) | secondary).sum(axis=1)


def batched_legitimate(X: np.ndarray, H: np.ndarray, K: int) -> np.ndarray:
    """Boolean mask of trials currently in a legitimate configuration.

    The batched form of Definition 1 (same predicate as
    :func:`repro.kernels.packing.ssrmin_words_legitimate`): the x-vector
    is a Dijkstra staircase with token position ``pos`` and the handshake
    vector is one of the three shapes anchored at ``pos``.
    """
    trials, n = X.shape

    interior_diff = X[:, 1:] != X[:, :-1]  # (trials, n-1)
    nb = interior_diff.sum(axis=1)

    # A staircase has no interior boundary (token at 0) or one, at b
    # (token at b), where the wraparound steps: X[0] == X[n-1] + 1 (mod
    # K).  X[b-1] and X[b] equal X[0] and X[n-1], so that is also the
    # step X[b-1] == X[b] + 1 at b.
    d1 = (nb == 1) & (X[:, 0] == (X[:, n - 1] + 1) % K)
    pos = np.where(d1, interior_diff.argmax(axis=1) + 1, 0)  # first diff
    dijkstra_ok = (nb == 0) | d1

    # Handshake shapes relative to pos: <0.1> or <1.0> at pos alone, or
    # <1.0> at pos and <0.1> at its successor.
    rows = np.arange(trials)
    h_pos = H[rows, pos]
    h_succ = H[rows, (pos + 1) % n]
    nonzero = np.count_nonzero(H, axis=1)
    shape_ab = (nonzero == 1) & ((h_pos == 1) | (h_pos == 2))
    shape_c = (nonzero == 2) & (h_pos == 2) & (h_succ == 1)
    return dijkstra_ok & (shape_ab | shape_c)


def _enabled_positions(
        enabled: np.ndarray,
        starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(positions, first, count)`` of the True entries of each row.

    ``enabled`` is (rows, n) boolean and ``starts`` the flat offsets
    ``0, n, .., rows * n``.  ``positions`` are the flat indices of the
    True entries in row-major order, ``first`` each row's first entry in
    ``positions`` and ``count`` its number of entries, found by cutting
    ``positions`` at the row starts without python loops.
    """
    positions = enabled.reshape(-1).nonzero()[0]
    bounds = positions.searchsorted(starts)
    first = bounds[:-1]
    return positions, first, bounds[1:] - first


def _pick(positions: np.ndarray, first: np.ndarray, count: np.ndarray,
          u: np.ndarray) -> np.ndarray:
    """Flat index of the ``floor(u * count)``-th enabled process per row.

    Takes :func:`_enabled_positions`' output for rows with at least one
    enabled process (an SSRmin configuration always has one) and one
    uniform per row.  A uniform is at most ``1 - 2**-53``, so
    ``u * count`` rounds to below ``count`` for every count under
    ``2**53``.
    """
    return positions.take(first + (u * count).astype(np.int64))


#: Steps of ``STREAM_PICK`` uniforms (central picks, Bernoulli fallbacks)
#: and of ``STREAM_COINS`` keys hashed per PRNG call: one ``lanes x 32``
#: hash in place of 32 small ones.
_BLOCK = 32


class _Lanes:
    """The live lanes of one group: state, rules and per-seed keys.

    Row ``r`` is the cell at original index ``cell[r]``.  Given a
    ``steps`` array, :meth:`step` first retires the lanes that satisfy
    Definition 1, dropping their rows from every per-lane array, so each
    move works on live lanes only; draws are keyed by seed, never by row,
    so dropping rows leaves every other lane's trajectory unchanged.
    """

    #: Per-lane arrays, indexed by row.
    FIELDS = ("cell", "X", "H", "I", "pick", "coins", "picks", "coin_keys",
              "rule", "enabled")

    def __init__(self, X: np.ndarray, H: np.ndarray, seeds: np.ndarray,
                 K: int, kind: str, p: float) -> None:
        self.K, self.kind = K, kind
        lanes, n = X.shape
        self.cell = np.arange(lanes)
        # Counters are below K, so K < 256 fits them in a byte (x + 1
        # included), and every step reads and writes an eighth as much.
        # Both arrays are copies: the step loop writes them in place.
        self.X = X.astype(np.uint8 if K < 256 else np.int64)
        self.H = H.astype(np.uint8)
        self._row_offsets()
        self.lane0 = lane_mixes(1)
        self.lanes_n = lane_mixes(n)
        self.pick = stream_keys(seeds, STREAM_PICK)
        self.coins = self.bound = None
        if kind == "bernoulli":
            self.coins = stream_keys(seeds, STREAM_COINS)
            self.bound = coin_bound(p)
        self.picks = self.coin_keys = None
        self.picks_from = self.coin_keys_from = -_BLOCK  # nothing drawn yet
        self.I = self.rule = self.enabled = None
        if kind == "central":
            # The rule-table indices replace the handshakes, which are
            # their bits 2..3.  ``enabled`` mirrors ``RULE_LUT[I] != 0``:
            # the pick's nonzero is several times faster on booleans.
            self.I = _rule_indices(self.X, self.H)
            self.H = None
            self.enabled = _ENABLED.take(self.I)
            # Per-column tables of a move at column j: its columns
            # j - 1 .. j + 1 (one row each), whether j is the bottom and
            # whether j + 1 is.
            columns = np.arange(n)
            self.window = (columns + np.arange(-1, 2)[:, None]) % n
            self.bottom = (columns == 0).view(np.uint8)
            self.top = columns == n - 1

    def _row_offsets(self) -> None:
        """The flat offsets of the rows: ``starts`` (one past the end
        included) and ``base``."""
        lanes, n = self.X.shape
        self.starts = np.arange(0, (lanes + 1) * n, n)
        self.base = self.starts[:-1]

    def configurations(self, rows: Optional[np.ndarray] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """``(X, H)`` of the given ``rows`` of the live lanes, or of all.

        Central lanes derive ``H`` from their rule-table indices; other
        arrays are copies with ``rows`` and the lanes' own without.
        """
        X, H = self.X, self.H if self.I is None else self.I
        if rows is not None:
            X, H = X.take(rows, axis=0), H.take(rows, axis=0)
        if self.I is not None:
            H = (H >> 2) & 3
        return X, H

    def _retire(self, rows: np.ndarray, steps: np.ndarray, k: int) -> bool:
        """Record as ``k`` and drop the ``rows`` that satisfy Definition 1;
        returns whether any did."""
        if rows.size:
            # A staircase's x_0 is x_{n-1}, or x_{n-1} + 1 mod K: two
            # columns reject most candidates before the full check.
            first, last = self.X[:, 0].take(rows), self.X[:, -1].take(rows)
            succ = last + 1
            succ %= self.K
            rows = rows[(first == last) | (first == succ)]
        if rows.size:
            rows = rows[batched_legitimate(*self.configurations(rows),
                                           self.K)]
        if not rows.size:
            return False
        steps[self.cell[rows]] = k
        keep = np.ones(len(self.cell), dtype=bool)
        keep[rows] = False
        for name in self.FIELDS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])
        self._row_offsets()
        return True

    def step(self, k: int, steps: Optional[np.ndarray] = None) -> None:
        """Daemon step ``k`` on every live lane.

        Given ``steps``, the lanes whose configuration (the one step
        ``k - 1`` reached) satisfies Definition 1 are first recorded there
        as ``k - 1`` and retired.  Every legitimate configuration enables
        exactly one process, so only lanes with one are checked.
        """
        if self.kind == "central":
            self._central_step(k, steps)
        else:
            self._parallel_step(k, steps)

    def _pick_uniforms(self, k: int) -> np.ndarray:
        """Each lane's ``STREAM_PICK`` uniform at step ``k``, drawn for
        :data:`_BLOCK` steps at a time."""
        if k >= self.picks_from + _BLOCK:
            keys = step_keys(self.pick, range(k, k + _BLOCK))
            self.picks = keyed_uniforms(keys.ravel(), self.lane0).reshape(
                keys.shape)
            self.picks_from = k
        return self.picks[:, k - self.picks_from]

    def _coin_keys(self, k: int) -> np.ndarray:
        """Each lane's ``STREAM_COINS`` key at step ``k``, hashed for
        :data:`_BLOCK` steps at a time."""
        if k >= self.coin_keys_from + _BLOCK:
            self.coin_keys = step_keys(self.coins, range(k, k + _BLOCK))
            self.coin_keys_from = k
        return self.coin_keys[:, k - self.coin_keys_from]

    def _central_step(self, k: int, steps: Optional[np.ndarray]) -> None:
        """One move per lane, then only the moved neighbourhood.

        A move at column ``j`` writes ``x_j`` and ``h_j``, and ``G_{j-1}``
        reads ``x_{j-1}`` and ``x_{j-2}``, so only the indices at
        ``j - 1 .. j + 1`` change: each takes the new ``h_j``, ``I_j``
        loses ``G`` after R2 or R4, and ``I_{j+1}`` gets ``G`` anew.
        """
        positions, first, count = _enabled_positions(self.enabled,
                                                     self.starts)
        if steps is not None and self._retire((count == 1).nonzero()[0],
                                              steps, k - 1):
            if not self.cell.size:
                return
            positions, first, count = _enabled_positions(self.enabled,
                                                         self.starts)
        X, I, base = self.X, self.I, self.base
        at_j = _pick(positions, first, count, self._pick_uniforms(k))
        j = at_j - base
        flat = self.window.take(j, axis=1)
        flat += base
        x = X.take(flat)  # rows x_{j-1}, x_j, x_{j+1}
        w = I.take(flat)  # rows I_{j-1}, I_j, I_{j+1}
        own = w[1]
        h = _MOVE_H.take(own)

        # x_j' = x_j + (C_j - x_j) * sets, exact in uint8 wraparound too
        # because both values are below K; C_j is the predecessor's x,
        # plus one mod K at the bottom.
        c = x[0] + self.bottom.take(j)
        c %= self.K
        c -= x[1]
        c *= _MOVE_SETS.take(own)
        c += x[1]
        # Assigning through flat views is about twice as fast as ``put``.
        X.reshape(-1)[at_j] = c
        w[0] &= 0xFC
        w[0] |= h
        w[1] = _MOVE_OWN.take(own)
        # G_{j+1} is x_{j+1} != x_j', except that G_0 is x_0 == x_{n-1}.
        g = x[2] != c
        g ^= self.top.take(j)
        w[2] &= 0x0F
        w[2] |= h * 16
        w[2] |= g.view(np.uint8) * 64
        I.reshape(-1)[flat] = w
        self.enabled.reshape(-1)[flat] = _ENABLED.take(w)

    def _parallel_step(self, k: int, steps: Optional[np.ndarray]) -> None:
        """One synchronous or Bernoulli step: every guard, every lane."""
        # The rules live on the lanes for this step so that retiring drops
        # their rows too.
        self.rule = RULE_LUT.take(_rule_indices(self.X, self.H))
        # A byte-wide count is twice as fast as ``count_nonzero``; from
        # n = 256 on it wraps, which only adds candidates that the exact
        # check rejects.
        if steps is not None and self._retire(
                ((self.rule != 0).sum(axis=1, dtype=np.uint8) == 1)
                .nonzero()[0], steps, k - 1):
            if not self.cell.size:
                return
        X, H, rule = self.X, self.H, self.rule
        fire = rule
        if self.kind == "bernoulli":
            fire = rule * keyed_coins(self._coin_keys(k), self.lanes_n,
                                      self.bound)
            # A lane whose coins all missed moves one enabled process.
            empty = (~fire.any(axis=1)).nonzero()[0]
            if empty.size:
                n = X.shape[1]
                starts = np.arange(0, (empty.size + 1) * n, n)
                j = _pick(*_enabled_positions(rule[empty] != 0, starts),
                          self._pick_uniforms(k)[empty]) % n
                fire[empty, j] = rule[empty, j]
        # x_i <- C_i where R2 or R4 fires (``_SETS_X[fire]`` as two
        # compares, which are cheaper than its gather): an xor select,
        # which numpy runs several times faster than ``np.where`` on
        # byte-wide arrays.
        moved = batched_commands(X, self.K)
        moved ^= X
        moved *= (fire == 2) | (fire == 4)
        moved ^= X
        self.X = moved
        self.H = _NEXT_H.take((fire * 4) | H)


def _check_instance(n: int, K: Optional[int]) -> int:
    """Validate an SSRmin(n, K) instance; ``K`` defaults to ``n + 1``."""
    if n < 3:
        raise ValueError(f"SSRmin requires n >= 3, got {n}")
    K = n + 1 if K is None else K
    if K <= n:
        raise ValueError(f"K must exceed n (got K={K}, n={n})")
    return K


def advance_configurations(
    X: np.ndarray,
    H: np.ndarray,
    seeds: Sequence[int],
    daemon: str = "bernoulli:0.5",
    *,
    K: Optional[int] = None,
    steps: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Advance given configurations ``steps`` daemon steps in lockstep.

    Row ``r`` of ``(X, H)`` moves under the daemon decisions keyed by
    ``(seeds[r], stream, k)`` — the draws :func:`run_convergence_cells`
    makes for that seed's cell at step ``k`` — whether or not it is
    legitimate.  Yields the configurations ``(X, H)`` after each step
    ``k = 1 .. steps``.  ``X`` is the step loop's own array (uint8 when
    ``K < 256``, else int64), valid until the next step; so is ``H``
    (uint8), except under the central daemon, whose lanes keep rule-table
    indices and derive a fresh ``H`` from them for each yield.  The
    caller's inputs are never written.
    """
    X = np.asarray(X, dtype=np.int64)
    H = np.asarray(H, dtype=np.uint8)
    K = _check_instance(X.shape[1], K)
    kind, p = parse_daemon(daemon)
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if X.shape != H.shape or seeds.shape != X.shape[:1]:
        raise ValueError("X, H and seeds must agree in shape")
    if X.size and (X.min() < 0 or X.max() >= K):
        raise ValueError(f"counters must lie in [0, {K})")
    lanes = _Lanes(X, H, seeds, K, kind, p)
    for k in range(1, steps + 1):
        lanes.step(k)
        yield lanes.configurations()


def run_convergence_cells(
    n: int,
    seeds: Sequence[int],
    daemon: str = "bernoulli:0.5",
    *,
    K: Optional[int] = None,
    budget: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Advance one homogeneous group of convergence cells in lockstep.

    Each seed is one cell: states initialize from counter-based draws of
    that seed alone, every daemon decision at step ``k`` hashes
    ``(seed, stream, k)`` — so the returned
    ``{"steps", "converged", "budget"}`` rows are invariant under group
    composition (the per-cell execution path calls this with a single
    seed and must agree bitwise).

    ``steps`` is the number of daemon steps until the configuration first
    satisfied Definition 1 (``-1`` with ``converged=False`` if the budget
    — default ``60 n^2 + 600``, the Theorem-2 envelope with slack — runs
    out, which would falsify Lemma 6).
    """
    K = _check_instance(n, K)
    kind, p = parse_daemon(daemon)
    budget = 60 * n * n + 600 if budget is None else int(budget)
    seeds = np.asarray(list(seeds), dtype=np.int64)
    cells = len(seeds)

    X = grid_integers(seeds, STREAM_INIT_X, 0, n, K)
    H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4).astype(np.uint8)

    steps = np.full(cells, -1, dtype=np.int64)
    lanes = _Lanes(X, H, seeds, K, kind, p)
    for k in range(1, budget + 1):
        if not lanes.cell.size:
            break
        lanes.step(k, steps)
    else:
        # The lanes left after the budget's last step (every lane under a
        # zero budget) have not been checked since it.
        steps[lanes.cell[batched_legitimate(*lanes.configurations(), K)]] = (
            budget)

    return [
        {"steps": int(steps[c]), "converged": bool(steps[c] >= 0),
         "budget": budget}
        for c in range(cells)
    ]


__all__ = [
    "DAEMON_FAMILIES",
    "RULE_LUT",
    "STREAM_COINS",
    "STREAM_INIT_H",
    "STREAM_INIT_X",
    "STREAM_PICK",
    "advance_configurations",
    "batched_commands",
    "batched_guards",
    "batched_legitimate",
    "batched_privileged_counts",
    "parse_daemon",
    "run_convergence_cells",
]
