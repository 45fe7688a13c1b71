"""The incremental own-view token census of a CST ring.

Theorem 3 is a statement about one quantity: whether some node holds a
token in its *own* view — its state plus its possibly stale neighbour
caches (Definition 3's ``h_i``).  Checking it alongside Theorem 4's entry
condition takes three facts about the ring at every instant:

* the **holder mask** — bit ``i`` set iff ``h_i`` holds on node ``i``'s
  own view;
* the **stale-entry count** — cache entries that differ from the cached
  neighbour's current state (Definition 2: zero means coherent);
* the **legitimacy** of the true configuration, memoised until a state
  changes.

:class:`Census` keeps all three under single-node changes, so an update
costs O(1) and legitimacy is evaluated only when a reader asks for it.  It
never looks inside a value: it compares values with ``==``/``!=`` and its
owner supplies the semantics.  The packed DES
(:class:`~repro.messagepassing.fastpath.network.FastCSTNetwork`) feeds it
packed ints with its codec's predicates; the live
:class:`~repro.runtime.health.HealthMonitor` feeds it native states, which
may lie outside the packed domain after a fault.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``holds(own, cpred, csucc, i)``: the own-view token predicate of node ``i``.
Holds = Callable[[Any, Any, Any, int], bool]
#: ``legit(states)``: legitimacy of the true configuration.
Legit = Callable[[Sequence[Any]], bool]


class Census:
    """Holder mask, stale-entry count and legitimacy of one ring.

    ``p[i]`` is node ``i``'s state, ``cp[i]`` and ``cs[i]`` its cached
    predecessor and successor values.  Owners change them through the
    setters, one call per change; after writing the lists directly (a bulk
    load) they call :meth:`recount`.  Every slot starts at ``0``.

    Parameters
    ----------
    n:
        Ring size.
    holds:
        The own-view token predicate; must return a ``bool``.
    legit:
        Legitimacy of the true configuration, given the state list.
    bidirectional:
        Whether nodes cache their successor (SSRmin) or only their
        predecessor (Dijkstra).  On a unidirectional ring ``cs`` is never
        compared, and ``holds`` always receives ``cs[i]`` as loaded.
    """

    def __init__(self, n: int, holds: Holds, legit: Legit,
                 bidirectional: bool = True):
        self.n = n
        self.bidirectional = bidirectional
        self._holds = holds
        self._legit = legit
        self.p: List[Any] = [0] * n
        self.cp: List[Any] = [0] * n
        self.cs: List[Any] = [0] * n
        #: Neighbour indices: ``pred[i] == (i - 1) % n``, ``succ[i] ==
        #: (i + 1) % n``.
        self.pred = [(i - 1) % n for i in range(n)]
        self.succ = [(i + 1) % n for i in range(n)]
        self._hold = [False] * n
        #: Bit ``i`` set iff node ``i`` holds a token in its own view.
        self.mask = 0
        #: Cache entries that differ from the neighbour's current state.
        self.stale = 0
        self._legitimate: Optional[bool] = None
        self._memo: Dict[int, Tuple[int, ...]] = {}

    # -- single-node changes -------------------------------------------------
    # Each setter writes its update out in full: on the DES hot path a
    # shared helper call costs more than the bookkeeping itself.
    def set_state(self, i: int, v: Any) -> None:
        """Node ``i``'s state is now ``v``."""
        p = self.p
        old = p[i]
        if v == old:
            return
        p[i] = v
        self._legitimate = None
        c = self.cp[self.succ[i]]
        if c == old:
            self.stale += 1
        elif c == v:
            self.stale -= 1
        if self.bidirectional:
            c = self.cs[self.pred[i]]
            if c == old:
                self.stale += 1
            elif c == v:
                self.stale -= 1
        h = self._holds(v, self.cp[i], self.cs[i], i)
        if h != self._hold[i]:
            self._hold[i] = h
            self.mask ^= 1 << i

    def set_pred_cache(self, i: int, v: Any) -> None:
        """Node ``i``'s cached predecessor value is now ``v``."""
        cp = self.cp
        old = cp[i]
        if v == old:
            return
        cp[i] = v
        t = self.p[self.pred[i]]
        if old == t:
            self.stale += 1
        elif v == t:
            self.stale -= 1
        h = self._holds(self.p[i], v, self.cs[i], i)
        if h != self._hold[i]:
            self._hold[i] = h
            self.mask ^= 1 << i

    def set_succ_cache(self, i: int, v: Any) -> None:
        """Node ``i``'s cached successor value is now ``v`` (bidirectional
        rings only)."""
        cs = self.cs
        old = cs[i]
        if v == old:
            return
        cs[i] = v
        t = self.p[self.succ[i]]
        if old == t:
            self.stale += 1
        elif v == t:
            self.stale -= 1
        h = self._holds(self.p[i], self.cp[i], v, i)
        if h != self._hold[i]:
            self._hold[i] = h
            self.mask ^= 1 << i

    def recount(self) -> None:
        """Recompute every fact from the lists (after a bulk load)."""
        p, cp, cs = self.p, self.cp, self.cs
        holds, hold = self._holds, self._hold
        pred, succ = self.pred, self.succ
        bidir = self.bidirectional
        mask = stale = 0
        for i in range(self.n):
            h = hold[i] = holds(p[i], cp[i], cs[i], i)
            if h:
                mask |= 1 << i
            stale += cp[i] != p[pred[i]]
            if bidir:
                stale += cs[i] != p[succ[i]]
        self.mask = mask
        self.stale = stale
        self._legitimate = None

    # -- readings ------------------------------------------------------------
    def legitimate(self) -> bool:
        """Legitimacy of the true configuration (memoised until a state
        changes)."""
        legit = self._legitimate
        if legit is None:
            legit = self._legitimate = bool(self._legit(self.p))
        return legit

    def count(self) -> int:
        """Number of own-view token holders."""
        return self.mask.bit_count()

    def holders(self) -> Tuple[int, ...]:
        """Own-view token holders in index order (memoised per mask)."""
        mask = self.mask
        memo = self._memo
        t = memo.get(mask)
        if t is None:
            if len(memo) > 4096:
                memo.clear()
            t = memo[mask] = tuple(
                i for i in range(self.n) if mask >> i & 1
            )
        return t


__all__ = ["Census", "Holds", "Legit"]
