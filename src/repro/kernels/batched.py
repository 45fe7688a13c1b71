"""Batched numpy backend over the shared rule table.

The one batched SSRmin engine: the rule-table gather, the vectorized
legitimacy/privilege predicates, the command vector and the lockstep
step loop, over the *same* :data:`~repro.kernels.rule_table.RULE_TABLE`
the scalar engines resolve rules with.

All functions take states as ``(trials, n)`` integer arrays: ``X`` holds
the Dijkstra counters (int64: ``K`` has no upper bound), ``H`` the 2-bit
handshake codes (any integer dtype; the step loop uses uint8).

:func:`run_convergence_cells` is the sweep engine's vectorized cell
executor: it advances one *homogeneous group* of convergence cells (same
``n``, ``K``, daemon, budget — only seeds differ) in lockstep.  Its
randomness is counter-based (:mod:`repro.kernels.prng`), which makes each
cell's trajectory a pure function of its own seed: running a cell alone
or inside any group produces bit-identical results, the property the
resumable sweep store leans on.  The step loop works on live lanes only:

* a lane leaves every per-lane array in the step it first satisfies
  Definition 1 (its step count is written back by its original index);
* each lane keeps its interior x-boundary count ``nb`` and nonzero
  handshake count ``nz``, and Definition 1 is evaluated only on lanes
  with ``nb <= 1`` and ``nz`` in ``{1, 2}``;
* under the central daemon, which moves one process per lane per step,
  the rule array persists across steps and only the guards next to the
  moved column, and the counts' terms at it, are recomputed;
* the synchronous and Bernoulli daemons move many processes per step and
  recompute every guard of the live lanes;
* the per-seed half of every PRNG key is hashed once per run.

:func:`advance_configurations` runs the same step loop from given
configurations instead of seeded random ones, with the same keyed draws
and no retirement (ext4 watches Theorem 1's band on it).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.prng import (
    grid_integers,
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


def _rules(G: np.ndarray, Hp: np.ndarray, H: np.ndarray,
           Hs: np.ndarray) -> np.ndarray:
    """Rule codes (uint8, 0 = none) from guard inputs of any shape.

    One gather through the shared rule table, indexed
    ``(G << 6) | (h_pred << 4) | (h_own << 2) | h_succ``.
    """
    return np.take(RULE_LUT,
                   (G.view(np.uint8) << 6) | (Hp << 4) | (H << 2) | Hs)


def batched_guards(X: np.ndarray, H: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(G, rule)`` arrays; rule (uint8) in {0 (none), 1..5} after priority.

    One gather through the shared rule table replaces five separate
    guard masks + a ``np.select`` cascade.
    """
    G = _primary(X)
    Hp, Hs = _neighbours(H)
    return G, _rules(G, Hp, H, Hs)


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

    # All-equal: token at position 0.
    d0 = nb == 0

    # Single interior boundary at b: X[b-1] == X[b] + 1 (mod K) and the
    # wraparound also steps: X[0] == X[n-1] + 1 (mod K).
    d1 = nb == 1
    boundary = interior_diff.argmax(axis=1) + 1  # first diff
    rows = np.arange(trials)
    step_ok = X[rows, boundary - 1] == (X[rows, boundary] + 1) % K
    wrap_ok = X[:, 0] == (X[:, n - 1] + 1) % K
    d1 = d1 & step_ok & wrap_ok

    pos = np.where(d1, boundary, 0)
    dijkstra_ok = d0 | d1

    # Handshake shapes relative to pos.
    h_pos = H[rows, pos]
    h_succ = H[rows, (pos + 1) % n]
    nonzero = (H != 0).sum(axis=1)
    shape_a = (nonzero == 1) & (h_pos == 1)          # <0.1> at pos
    shape_b = (nonzero == 1) & (h_pos == 2)          # <1.0> at pos
    shape_c = (nonzero == 2) & (h_pos == 2) & (h_succ == 1)
    return dijkstra_ok & (shape_a | shape_b | shape_c)


# -- daemon families ---------------------------------------------------------

#: Daemon-family axis values the convergence runner understands.
DAEMON_FAMILIES = ("synchronous", "central", "bernoulli")


def parse_daemon(spec: str) -> Tuple[str, float]:
    """``"synchronous" | "central" | "bernoulli:<p>"`` -> (kind, p)."""
    if spec == "synchronous":
        return "synchronous", 1.0
    if spec == "central":
        return "central", 0.0
    if spec.startswith("bernoulli:"):
        p = float(spec.split(":", 1)[1])
        if not 0.0 < p <= 1.0:
            raise ValueError(f"bernoulli parameter must be in (0, 1], got {p}")
        return "bernoulli", p
    raise ValueError(
        f"unknown daemon family {spec!r}; expected one of "
        f"'synchronous', 'central', 'bernoulli:<p>'"
    )


def _pick(enabled: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Flat index of the ``floor(u * count)``-th enabled process per row.

    ``enabled`` is (rows, n) boolean with at least one True per row (an
    SSRmin configuration always has an enabled process), ``u`` (rows,)
    uniforms.  The enabled positions in row-major order, cut at each
    row's first entry, land on the chosen process without python loops.
    """
    rows, n = enabled.shape
    positions = np.flatnonzero(enabled)
    bounds = np.searchsorted(positions, np.arange(0, (rows + 1) * n, n))
    first = bounds[:-1]
    count = bounds[1:] - first
    target = np.minimum((u * count).astype(np.int64), count - 1)
    return positions[first + target]


#: Window offsets around a central-daemon move at column ``j``: the
#: guards at ``j - 1 .. j + 1`` read ``x`` at ``j - 2 .. j + 1`` and
#: ``h`` at ``j - 2 .. j + 2``.
_WINDOW = np.arange(-2, 3)

#: Steps of ``STREAM_PICK`` uniforms (central picks, Bernoulli fallbacks)
#: drawn per PRNG call: one ``lanes x 32`` hash in place of 32 small ones.
_PICK_BLOCK = 32


class _Lanes:
    """The live lanes of one group: state, counts and per-seed keys.

    Row ``r`` is the cell at original index ``cell[r]``.  :meth:`retire`
    drops converged rows from every per-lane array, so each step works
    on live lanes only; draws are keyed by seed, never by row, so
    dropping rows leaves every other lane's trajectory unchanged.
    """

    #: Per-lane arrays, indexed by row.
    FIELDS = ("cell", "X", "H", "nb", "nz", "pick", "coins", "picks",
              "rule", "enabled")

    def __init__(self, X: np.ndarray, H: np.ndarray, seeds: np.ndarray,
                 cell: np.ndarray, K: int, kind: str, p: float) -> None:
        self.K, self.kind, self.p = K, kind, p
        self.cell = cell
        self.X = X[cell]
        self.H = H[cell]
        self.recount()
        self.lane0 = lane_mixes(1)
        self.lanes_n = lane_mixes(X.shape[1])
        self.pick = stream_keys(seeds[cell], STREAM_PICK)
        self.coins = (stream_keys(seeds[cell], STREAM_COINS)
                      if kind == "bernoulli" else None)
        self.picks = None
        self.picks_from = -_PICK_BLOCK  # nothing drawn yet
        self.rule = self.enabled = None
        if kind == "central":
            # ``enabled`` mirrors ``rule != 0``: the pick's flatnonzero is
            # several times faster on booleans than on rule codes.
            self.rule = batched_guards(self.X, self.H)[1]
            self.enabled = self.rule != 0

    def recount(self) -> None:
        """Interior x-boundaries and nonzero handshakes, counted in full."""
        self.nb = np.count_nonzero(self.X[:, 1:] != self.X[:, :-1], axis=1)
        self.nz = np.count_nonzero(self.H, axis=1)

    def retire(self, steps: np.ndarray, k: int) -> None:
        """Record and drop the lanes legitimate after step ``k``.

        A legitimate configuration has at most one interior x-boundary and
        one or two nonzero handshakes, so only lanes whose counts allow it
        are given to :func:`batched_legitimate`.
        """
        nb, nz = self.nb, self.nz
        rows = np.flatnonzero((nb <= 1) & (nz >= 1) & (nz <= 2))
        if not rows.size:
            return
        rows = rows[batched_legitimate(self.X[rows], self.H[rows], self.K)]
        if not rows.size:
            return
        steps[self.cell[rows]] = k
        keep = np.ones(len(self.cell), dtype=bool)
        keep[rows] = False
        for name in self.FIELDS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])

    def step(self, k: int) -> None:
        """Daemon step ``k`` on every live lane."""
        if self.kind == "central":
            self._central_step(k)
        else:
            self._parallel_step(k)

    def _pick_uniforms(self, k: int) -> np.ndarray:
        """Each lane's ``STREAM_PICK`` uniform at step ``k``, drawn for
        :data:`_PICK_BLOCK` steps at a time."""
        if k >= self.picks_from + _PICK_BLOCK:
            keys = step_keys(self.pick, range(k, k + _PICK_BLOCK))
            self.picks = keyed_uniforms(keys.ravel(), self.lane0).reshape(
                keys.shape)
            self.picks_from = k
        return self.picks[:, k - self.picks_from]

    def _central_step(self, k: int) -> None:
        """One move per lane, then only the moved neighbourhood.

        Only column ``j`` changes, so only the guards at ``j - 1 .. j + 1``
        and the counts' terms at ``j`` are recomputed.
        """
        X, H, rule = self.X, self.H, self.rule
        lanes, n = X.shape
        base = np.arange(0, lanes * n, n)
        at_j = _pick(self.enabled, self._pick_uniforms(k))
        cols = (at_j - base)[:, None] + _WINDOW
        cols %= n
        flat = cols + base[:, None]
        Xw = np.take(X, flat[:, :4])
        Hw = np.take(H, flat)
        r = np.take(rule, at_j)

        # C_j: the predecessor's x, or x_{n-1} + 1 at the bottom.
        x_left = Xw[:, 1]
        c = np.where(cols[:, 2] == 0, (x_left + 1) % self.K, x_left)
        x_new = np.where(np.take(_SETS_X, r), c, Xw[:, 2])
        h_new = np.take(_NEXT_H, (r << 2) | Hw[:, 2])

        # Swap column j's terms of both counts: the pairs (j-1, j) and
        # (j, j+1) are interior unless their right column is 0.
        interior = cols[:, 2:4] != 0
        self.nb -= ((Xw[:, 2:] != Xw[:, 1:3]) & interior).sum(axis=1)
        self.nz -= Hw[:, 2] != 0
        Xw[:, 2] = x_new
        Hw[:, 2] = h_new
        D = Xw[:, 1:] != Xw[:, :-1]  # pairs (j-2, j-1), (j-1, j), (j, j+1)
        self.nb += (D[:, 1:] & interior).sum(axis=1)
        self.nz += h_new != 0

        np.put(X, at_j, x_new)
        np.put(H, at_j, h_new)
        # G_i is x_i != x_{i-1}, except that G_0 is x_0 == x_{n-1}.
        new = _rules(D ^ (cols[:, 1:4] == 0), Hw[:, :3], Hw[:, 1:4],
                     Hw[:, 2:])
        np.put(rule, flat[:, 1:4], new)
        np.put(self.enabled, flat[:, 1:4], new != 0)

    def _parallel_step(self, k: int) -> None:
        """One synchronous or Bernoulli step: every guard, every lane."""
        X, H = self.X, self.H
        _, rule = batched_guards(X, H)
        fire = rule
        if self.kind == "bernoulli":
            coins = keyed_uniforms(step_keys(self.coins, [k])[:, 0],
                                   self.lanes_n)
            fire = rule * (coins < self.p)
            # A lane whose coins all missed moves one enabled process.
            empty = np.flatnonzero(~fire.any(axis=1))
            if empty.size:
                u = self._pick_uniforms(k)[empty]
                j = _pick(rule[empty] != 0, u) % X.shape[1]
                fire[empty, j] = rule[empty, j]
        sets_x = np.take(_SETS_X, fire)
        self.X = np.where(sets_x, batched_commands(X, self.K), X)
        self.H = np.take(_NEXT_H, (fire << 2) | H)
        self.recount()


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
    ``k = 1 .. steps``; the arrays are the step loop's own, valid until
    the next step, and the caller's inputs are never written.
    """
    X = np.asarray(X, dtype=np.int64)
    H = np.asarray(H, dtype=np.uint8)
    K = _check_instance(X.shape[1], K)
    kind, p = parse_daemon(daemon)
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if X.shape != H.shape or seeds.shape != X.shape[:1]:
        raise ValueError("X, H and seeds must agree in shape")
    lanes = _Lanes(X, H, seeds, np.arange(len(seeds)), K, kind, p)
    for k in range(1, steps + 1):
        lanes.step(k)
        yield lanes.X, lanes.H


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
    legit = batched_legitimate(X, H, K)
    steps[legit] = 0
    lanes = _Lanes(X, H, seeds, np.flatnonzero(~legit), K, kind, p)
    for k in range(1, budget + 1):
        if not lanes.cell.size:
            break
        lanes.step(k)
        lanes.retire(steps, k)

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
