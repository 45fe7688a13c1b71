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
:meth:`~StateGraph.valuation`.

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
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: :meth:`StateGraph.valuation` colours: not yet reached, valued (every
#: legitimate id starts here with value 0), and on the DFS stack.
_NEW, _VALUED, _ACTIVE = 0, 1, 2


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

    def valuation(self) -> Tuple[Optional[array], Optional[List[int]]]:
        """``(value, None)``, or ``(None, cycle)`` if convergence fails.

        ``value[v]`` is the exact number of steps to Lambda from ``v`` when
        the daemon maximises it: 0 on legitimate ids, else ``1 + max`` over
        the successors (1 with none).  ``cycle`` is an illegitimate cycle
        ``[v_0, ..., v_0]`` of ids.  One depth-first search over the
        illegitimate ids with an explicit stack (no recursion), memoised.
        """
        if self._valuation is not None:
            return self._valuation
        legit, offsets, targets = self.legit, self.offsets, self.targets
        size = len(legit)
        value = array("i", bytes(4 * size))
        colour = bytearray(legit)
        for root in range(size):
            if colour[root]:
                continue
            colour[root] = _ACTIVE
            value[root] = 1
            stack = [root]
            cursors = [offsets[root]]
            while stack:
                v = stack[-1]
                i = cursors[-1]
                end = offsets[v + 1]
                best = value[v]
                while i < end:
                    w = targets[i]
                    c = colour[w]
                    if c == _VALUED:
                        if value[w] >= best:
                            best = value[w] + 1
                    elif c == _NEW:
                        break
                    else:
                        self._valuation = (None, stack[stack.index(w):] + [w])
                        return self._valuation
                    i += 1
                else:
                    value[v] = best
                    colour[v] = _VALUED
                    stack.pop()
                    cursors.pop()
                    continue
                # Descend into w; v's cursor stays on w, so v takes w's
                # value when it resumes.
                value[v] = best
                cursors[-1] = i
                colour[w] = _ACTIVE
                value[w] = 1
                stack.append(w)
                cursors.append(offsets[w])
        self._valuation = (value, None)
        return self._valuation


#: Representative keys per array pass of :class:`QuotientGraph`: a pass's
#: temporaries stay a few MB, small beside the graph it appends to.
CHUNK = 8192


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
        selections: Dict[int, Any] = {}
        for lo in range(0, size, CHUNK):
            keys = np.arange(lo, min(lo + CHUNK, size), dtype=np.int64)
            legit, enabled, deltas = kernel.key_moves(keys)
            zero = enabled & (deltas == 0)
            group = (enabled @ bits << n) | (zero @ bits)
            order = np.argsort(group, kind="stable")
            ordered = group[order]
            cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
            members = np.split(order, cuts)
            matrices = []
            for code in ordered[np.concatenate(([0], cuts))].tolist():
                if code not in selections:
                    selections[code] = _selection_matrix(
                        code, n, ts.max_selection)
                matrices.append(selections[code])
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


def _selection_matrix(group: int, n: int, max_selection: Optional[int]) -> Any:
    """The daemon selections of one :class:`QuotientGraph` row group.

    ``group`` holds the enabled set in bits ``n .. 2n - 1`` and its
    zero-delta members in bits ``0 .. n - 1``.  Column ``j`` of the
    ``(n, s)`` 0/1 matrix is the ``j``-th selection, in
    ``nonempty_subsets`` order, whose non-zero-delta members no earlier
    selection has.
    """
    import numpy as np

    from repro.verification.transition_system import nonempty_subsets

    enabled = tuple(i for i in range(n) if group >> (n + i) & 1)
    first: Dict[int, Tuple[int, ...]] = {}
    for subset in nonempty_subsets(enabled, max_selection):
        first.setdefault(sum(1 << i for i in subset) & ~group, subset)
    return np.array([[i in subset for subset in first.values()]
                     for i in range(n)], dtype=np.int64)


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
