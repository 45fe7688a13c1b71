"""The explicit state graph every model check reads.

A :class:`StateGraph` holds one transition system's whole transition
relation in flat arrays:

* dense integer ids ``0 .. size - 1``;
* :attr:`~StateGraph.legit` — one byte per id;
* :attr:`~StateGraph.offsets` (``array('q')``, ``size + 1`` entries) and
  :attr:`~StateGraph.targets` (``array('i')``) — compressed sparse rows:
  the successors of id ``v`` are ``targets[offsets[v]:offsets[v + 1]]``.

:meth:`TransitionSystem.graph
<repro.verification.transition_system.TransitionSystem.graph>` builds it
on the first check and memoises it, so the closure report, the worst case
and the witness share one enumeration of the space and one
:meth:`~StateGraph.valuation`.  The valuation works on the arrays as
numpy views: level rounds give every id its longest-path height, with
O(ids) extra memory and no reverse graph, and when the rounds stall a
walk along first waiting successors names the illegitimate cycle that a
depth-first search in id order meets first.

Two builders number the ids:

* :class:`QuotientGraph` (a packed kernel over the default configuration
  space): ids are the packed keys of the orbit representatives under the
  x-shift (:meth:`~repro.simulation.fastpath.kernel.FastKernel.shift_key`).
  Adding ``c`` mod K to every x commutes with every transition, keeps
  legitimacy and fixes no configuration, so every orbit has exactly K
  members, the representatives (``x_0 = 0``) are the keys ``range(R)`` with
  ``R = key_base ** n // K``, and a successor key maps to its id by
  :meth:`~repro.simulation.fastpath.kernel.FastKernel.canonical_key`.
  Values, legitimacy and cycles carry over orbit by orbit, so the graph is
  K times smaller and every count scales back by exactly K.  Its rows are
  built in numpy array passes, and numpy is imported only then.
* :class:`EnumeratedGraph` (the naive path, the oracle): ids are
  enumeration indices of ``ts.states()``, then any successor outside that
  space in discovery order; no quotient.

Both keep the order ``ts.states()`` enumerates in: :meth:`~StateGraph.expand`
lists configuration keys in that order, and the first id of maximal value
is the first such configuration (each representative is the smallest key of
its orbit, and packed keys ascend in enumeration order).
"""

from __future__ import annotations

import abc
import functools
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Ids per numpy block: :class:`QuotientGraph` builds this many
#: representatives per array pass, and :meth:`StateGraph.valuation` and
#: :func:`first_outside` scan this many rows per block, so a block's
#: temporaries stay a few MB beside the graph.
CHUNK = 8192


class StateGraph(abc.ABC):
    """Dense ids, legitimacy bytes and CSR successors of a transition system.

    Attributes
    ----------
    legit:
        ``legit[v]`` is 1 iff id ``v`` is legitimate.
    offsets, targets:
        The successor rows (see the module docstring).
    enumerated:
        Ids ``[0, enumerated)`` stand for the configurations of
        ``ts.states()``; later ids (naive path only) are successors outside
        that space.
    orbit:
        Configurations each id stands for (K on the quotient, else 1).
    """

    orbit = 1

    def __init__(self) -> None:
        self.legit = bytearray()
        self.offsets = array("q", [0])
        self.targets = array("i")
        self.enumerated = 0
        self._valuation: Optional[Tuple[Any, Optional[List[int]]]] = None

    @abc.abstractmethod
    def id_of(self, key: Any) -> int:
        """The id of the configuration with this key."""

    @abc.abstractmethod
    def key_of(self, v: int) -> Any:
        """The key of the configuration id ``v`` is numbered by."""

    @abc.abstractmethod
    def expand(self, ids: Sequence[int]) -> List[Any]:
        """Keys of every configuration the ascending ``ids`` stand for, in
        ``ts.states()`` order."""

    @property
    def state_count(self) -> int:
        """Configurations of ``ts.states()``."""
        return self.enumerated * self.orbit

    @property
    def legitimate_count(self) -> int:
        """Legitimate configurations of ``ts.states()``."""
        return self.legit.count(1, 0, self.enumerated) * self.orbit

    def arrays(self) -> Tuple[Any, Any, Any]:
        """numpy views of :attr:`legit` (bool), :attr:`offsets` (int64) and
        :attr:`targets` (int32); nothing is copied."""
        import numpy as np

        return (np.frombuffer(self.legit, dtype=bool),
                np.frombuffer(self.offsets, dtype=np.int64),
                np.frombuffer(self.targets, dtype=np.int32))

    def valuation(self) -> Tuple[Optional[array], Optional[List[int]]]:
        """``(value, None)``, or ``(None, cycle)`` if convergence fails.

        ``value[v]`` is the exact number of steps to Lambda from ``v`` when
        the daemon maximises it: 0 on legitimate ids, else ``1 + max`` over
        the successors (1 with none).  ``cycle`` is an illegitimate cycle
        ``[v_0, ..., v_0]`` of ids.  Memoised.

        The values are longest-path heights, found in numpy level rounds.
        Legitimate ids start valued; round ``r`` values ``r`` every waiting
        (illegitimate, unvalued) id whose successors were all valued
        before round ``r``, which is exactly ``1 + max`` over them.  Each
        waiting id keeps a cursor on its first successor not yet valued;
        a round rescans (:func:`first_outside`) only the rows whose cursor
        target is now valued, and all of them against the valued mask as
        it stood when the round began.  Extra memory is O(ids); no reverse
        graph is built.

        A round that values nothing leaves exactly the ids that reach an
        illegitimate cycle, each with a successor among them.  The cycle
        returned is the first one a depth-first search over the
        illegitimate ids meets, taking roots in id order and successors in
        row order.  That search finds nothing below a valued id and never
        backtracks from a waiting one, so it walks from the smallest
        waiting id along each id's first waiting successor until an id
        repeats; the walk is all that runs here.
        """
        if self._valuation is not None:
            return self._valuation
        import numpy as np

        legit, offsets, targets = self.arrays()
        value = array("i", bytes(4 * len(legit)))
        heights = np.frombuffer(value, dtype=np.int32)
        valued = legit.copy()
        wait = (~valued).nonzero()[0].astype(np.int32)
        cursor = offsets[wait]
        # Round 1 scans every waiting row from its start.
        scan = np.arange(len(wait))
        level = 0
        while len(wait):
            level += 1
            finished = np.empty(len(scan), dtype=bool)
            for lo in range(0, len(scan), CHUNK):
                block = scan[lo:lo + CHUNK]
                stops = offsets.take(wait.take(block) + 1)
                cursor[block] = moved = first_outside(
                    cursor.take(block), stops, targets, valued)
                finished[lo:lo + CHUNK] = moved == stops
            done = wait.take(scan[finished])
            if not len(done):
                break
            # Only now, after every block of the round, do they count as
            # valued.
            heights[done] = level
            valued[done] = True
            # Over every waiting id, [] and not take: [] casts an int32
            # index array in small buffers, take copies it whole as intp.
            keep = ~valued[wait]
            wait = wait[keep]
            cursor = cursor[keep]
            scan = valued[targets.take(cursor)].nonzero()[0]
        else:
            self._valuation = (value, None)
            return self._valuation
        walk: Dict[int, int] = {}
        v = int(wait[0])
        while v not in walk:
            walk[v] = len(walk)
            row = targets[offsets[v]:offsets[v + 1]]
            v = int(row[np.argmin(valued[row])])  # first waiting successor
        self._valuation = (None, list(walk)[walk[v]:] + [v])
        return self._valuation


def first_outside(starts: Any, stops: Any, targets: Any, inside: Any) -> Any:
    """Per row segment ``targets[starts[i]:stops[i]]`` (int64 numpy arrays
    of positions), the position of its first target ``t`` with
    ``inside[t]`` false, or ``stops[i]`` when there is none.

    Runs ``CHUNK`` segments at a time, so its temporaries stay
    O(``CHUNK`` × row width) whatever the graph's size.
    """
    import numpy as np

    out = stops.copy()
    for lo in range(0, len(starts), CHUNK):
        begin = starts[lo:lo + CHUNK]
        lengths = stops[lo:lo + CHUNK] - begin
        ends = lengths.cumsum()
        heads = ends - lengths
        shift = begin - heads
        flat = shift.repeat(lengths)
        flat += np.arange(len(flat))
        misses = (~inside.take(targets.take(flat))).nonzero()[0]
        first = np.concatenate((misses, ends[-1:]))[misses.searchsorted(heads)]
        out[lo:lo + CHUNK] = shift + np.minimum(first, ends)
    return out


class QuotientGraph(StateGraph):
    """The Z_K quotient under the x-shift; ids are representative keys.

    Built in numpy array passes over ``CHUNK`` representatives at a time,
    with the same rows :meth:`TransitionSystem._succ_keys_from_loaded
    <repro.verification.transition_system.TransitionSystem._succ_keys_from_loaded>`
    gives key by key.  :meth:`FastKernel.key_moves
    <repro.simulation.fastpath.kernel.FastKernel.key_moves>` yields each
    row's legitimacy, enabled set and per-process key deltas.  Rows are
    grouped by their enabled set and the members whose delta is 0; every
    row of a group has the same daemon selections, one 0/1 column each,
    so its successors are ``key + deltas @ selections``.  Deltas are
    digits at distinct positions, each smaller than ``key_base``, so two
    selections reach the same key exactly when they agree on their
    members with a non-zero delta: keeping the first selection of each
    such support, in ``nonempty_subsets`` order, is the per-key
    ``dict.fromkeys`` de-duplication.
    """

    def __init__(self, ts: Any, kernel: Any) -> None:
        super().__init__()
        import numpy as np

        self._kernel = kernel
        self.orbit = kernel.K
        size = kernel.key_weights[0] * kernel.key_base // kernel.K
        self.enumerated = size
        n = len(kernel.key_weights)
        bits = 1 << np.arange(n, dtype=np.int64)
        for lo in range(0, size, CHUNK):
            keys = np.arange(lo, min(lo + CHUNK, size), dtype=np.int64)
            legit, enabled, deltas = kernel.key_moves(keys)
            zero = enabled & (deltas == 0)
            group = (enabled @ bits << n) | (zero @ bits)
            order = np.argsort(group, kind="stable")
            ordered = group[order]
            cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
            members = np.split(order, cuts)
            matrices = [_selection_matrix(code, n, ts.max_selection)
                        for code in ordered[np.concatenate(([0], cuts))]
                        .tolist()]
            counts = np.empty(len(keys), dtype=np.int64)
            counts[order] = np.repeat([m.shape[1] for m in matrices],
                                      [len(rows) for rows in members])
            ends = np.cumsum(counts)
            out = np.empty(ends[-1], dtype=np.int64)
            for rows, matrix in zip(members, matrices):
                width = matrix.shape[1]
                if width:
                    block = deltas[rows] @ matrix
                    block += keys[rows, None]
                    out[(ends[rows] - width)[:, None] + np.arange(width)] = block
            # Keys below ``size`` are representatives already.
            moved = out >= size
            out[moved] = kernel.canonical_keys(out[moved])
            self.legit += legit.astype(np.uint8).tobytes()
            self.offsets.frombytes((ends + len(self.targets)).tobytes())
            self.targets.frombytes(out.astype(np.int32).tobytes())

    def id_of(self, key: int) -> int:
        return self._kernel.canonical_key(key)

    def key_of(self, v: int) -> int:
        return v

    def expand(self, ids: Sequence[int]) -> List[int]:
        shift = self._kernel.shift_key
        return sorted(shift(v, c) for v in ids for c in range(self.orbit))


@functools.lru_cache(maxsize=4096)
def _selection_matrix(group: int, n: int, max_selection: Optional[int]) -> Any:
    """The daemon selections of one :class:`QuotientGraph` row group.

    ``group`` holds the enabled set in bits ``n .. 2n - 1`` and its
    zero-delta members in bits ``0 .. n - 1``.  Column ``j`` of the
    ``(n, s)`` 0/1 matrix is the ``j``-th selection, in
    ``nonempty_subsets`` order, whose non-zero-delta members no earlier
    selection has.  The matrix depends on nothing else, so graphs of one
    ring size and daemon share it; it is read-only for that reason.
    """
    import numpy as np

    from repro.verification.transition_system import nonempty_subsets

    enabled = tuple(i for i in range(n) if group >> (n + i) & 1)
    first: Dict[int, Tuple[int, ...]] = {}
    for subset in nonempty_subsets(enabled, max_selection):
        first.setdefault(sum(1 << i for i in subset) & ~group, subset)
    matrix = np.array([[i in subset for subset in first.values()]
                       for i in range(n)], dtype=np.int64)
    matrix.setflags(write=False)
    return matrix


class EnumeratedGraph(StateGraph):
    """Ids are enumeration indices of ``ts.states()``; no quotient."""

    def __init__(self, ts: Any) -> None:
        super().__init__()
        self._keys = keys = [ts._key(c) for c in ts.states()]
        self.enumerated = len(keys)
        self._index = index = {k: v for v, k in enumerate(keys)}
        legit, offsets, targets = self.legit, self.offsets, self.targets
        v = 0
        while v < len(keys):
            legit.append(ts.is_legitimate_key(keys[v]))
            for s in ts.successor_keys_for(keys[v]):
                t = index.get(s)
                if t is None:
                    t = index[s] = len(keys)
                    keys.append(s)
                targets.append(t)
            offsets.append(len(targets))
            v += 1

    def id_of(self, key: Any) -> int:
        return self._index[key]

    def key_of(self, v: int) -> Any:
        return self._keys[v]

    def expand(self, ids: Sequence[int]) -> List[Any]:
        return [self._keys[v] for v in ids]
