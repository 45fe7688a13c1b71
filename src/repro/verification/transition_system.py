"""Explicit-state transition systems over an algorithm's full state space.

For small instances the configuration space ``|Q|^n`` is enumerable (e.g.
SSRmin with ``n=4, K=5`` has ``(4*5)^4 = 160,000`` configurations).  A
:class:`TransitionSystem` materializes successors on demand and memoizes
them, supporting both daemon semantics:

* ``"central"`` — successors via each single enabled process;
* ``"distributed"`` — successors via every non-empty subset of enabled
  processes (optionally capped at ``max_selection`` to bound fan-out; the cap
  is reported so callers know when coverage is partial).

Configurations are identified by their hashable normal forms.  With a
:mod:`~repro.simulation.fastpath` kernel available, keys are *packed ints*
(collision-free base-``|Q|`` encodings — cheaper to hash and compare than
tuples-of-tuples), and successor generation computes each enabled command
**once** per configuration and reuses it across all daemon selections
(the naive path re-evaluates guards for every subset).

The per-configuration methods (:meth:`~TransitionSystem.successors`,
:meth:`~TransitionSystem.successor_keys_for`,
:meth:`~TransitionSystem.is_legitimate`, ...) memoise per key; the model
checker instead reads :meth:`~TransitionSystem.graph`, the whole space as
one array-backed :class:`~repro.verification.state_graph.StateGraph`, built
on first use — the Z_K quotient under the x-shift on the packed-kernel
path, so SSRmin n=5, K=6 (7.96M configurations) is 1.33M representatives.
"""

from __future__ import annotations

import itertools
from itertools import repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.algorithms.base import RingAlgorithm
from repro.simulation.fastpath import resolve_kernel
from repro.verification.state_graph import (
    EnumeratedGraph,
    QuotientGraph,
    StateGraph,
)


def nonempty_subsets(
    items: Tuple[int, ...], max_size: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """All non-empty subsets of ``items``, optionally size-capped."""
    top = len(items) if max_size is None else min(max_size, len(items))
    for r in range(1, top + 1):
        yield from itertools.combinations(items, r)


class TransitionSystem:
    """Lazy explicit-state transition system for one algorithm instance.

    Parameters
    ----------
    algorithm:
        The algorithm; must have finite :meth:`local_state_space`.
    daemon:
        ``"central"`` or ``"distributed"``.
    max_selection:
        For the distributed daemon, the largest selection size explored;
        ``None`` explores all subsets (exponential in the enabled count —
        fine here because self-stabilizing ring algorithms rarely have many
        simultaneously enabled processes in small instances).
    use_fastpath:
        Use ``algorithm.fast_kernel()`` when it provides one (the default);
        ``False`` selects the naive path.
    """

    def __init__(
        self,
        algorithm: RingAlgorithm,
        daemon: str = "distributed",
        max_selection: Optional[int] = None,
        use_fastpath: bool = True,
    ):
        if daemon not in ("central", "distributed"):
            raise ValueError(f"daemon must be 'central' or 'distributed', got {daemon!r}")
        self.algorithm = algorithm
        self.daemon = daemon
        self.max_selection = 1 if daemon == "central" else max_selection
        self._kernel = resolve_kernel(algorithm, use_fastpath)
        self._succ_cache: Dict[Any, Tuple[Any, ...]] = {}
        self._succ_keys: Dict[Any, Tuple[Any, ...]] = {}
        self._succ_cfgs: Dict[Any, Tuple[Any, ...]] = {}
        self._legit_cache: Dict[Any, bool] = {}
        self._graph: Optional[StateGraph] = None

    # -- state enumeration ----------------------------------------------------
    def states(self) -> Iterator[Any]:
        """Every configuration in the space (|Q|^n values)."""
        return self.algorithm.configuration_space()

    def _default_space(self) -> bool:
        """Whether :meth:`states` is the full product space ``Q^n``."""
        return (type(self.algorithm).configuration_space
                is RingAlgorithm.configuration_space)

    def state_count(self) -> int:
        """|Q|^n for the default configuration space.

        Algorithms overriding :meth:`configuration_space` (e.g. restricted
        sub-spaces) are counted by iteration.
        """
        try:
            q = self.algorithm.state_count_per_process()
            # Trust the product form only for the default space.
            if self._default_space():
                return q ** self.algorithm.n
        except (TypeError, NotImplementedError):
            # state_count_per_process needs a materializable local state
            # space; fall through to counting by iteration.
            pass
        return sum(1 for _ in self.states())

    def graph(self) -> StateGraph:
        """The explicit state graph of :meth:`states`, built on first use.

        The Z_K quotient (:class:`~repro.verification.state_graph.QuotientGraph`)
        when a packed kernel runs the default space, else the enumerated
        graph.  Construction stays O(1); the model checker's first call
        pays for the graph and every later check reads it.
        """
        if self._graph is None:
            if self._kernel is not None and self._default_space():
                self._graph = QuotientGraph(self, self._kernel)
            else:
                self._graph = EnumeratedGraph(self)
        return self._graph

    # -- successors -------------------------------------------------------------
    def successors(self, config: Any) -> Tuple[Any, ...]:
        """Distinct successor configurations under the chosen daemon."""
        key = self._key(config)
        cached = self._succ_cfgs.get(key)
        if cached is None:
            cached = tuple(c for _, c in self.successor_items(config, key))
            self._succ_cfgs[key] = cached
        return cached

    def successor_items(
        self, config: Any, key: Optional[Any] = None
    ) -> Tuple[Tuple[Any, Any], ...]:
        """Distinct successors as ``(key, configuration)`` pairs.

        Handing keys out with the successors spares callers that index by
        key (:meth:`reachable_from`, the naive state graph) re-packing a
        configuration they already hold.  ``key`` may be passed when the
        caller has already computed it.
        """
        if key is None:
            key = self._key(config)
        cached = self._succ_cache.get(key)
        if cached is not None:
            return cached
        if self._kernel is not None:
            out = self._successor_items_fast(config, key)
        else:
            out = self._successor_items_naive(config)
        self._succ_cache[key] = out
        self._succ_keys.setdefault(key, tuple(k for k, _ in out))
        return out

    def successor_keys(
        self, config: Any, key: Optional[Any] = None
    ) -> Tuple[Any, ...]:
        """Distinct successor *keys* only — no configurations materialized.

        Graph building, orbit expansion and witness walks never look
        inside a successor, only at its identity and legitimacy, so on the
        fast path this skips building the tuples-of-tuples configuration
        objects entirely.  Configurations are recovered on demand via
        :meth:`config_for_key`.
        """
        if key is None:
            key = self._key(config)
        cached = self._succ_keys.get(key)
        if cached is not None:
            return cached
        if self._kernel is not None:
            self._kernel.load(config)
            self._seed_legitimacy(key)
            out = self._succ_keys_from_loaded(key)
        else:
            out = tuple(k for k, _ in self.successor_items(config, key))
        self._succ_keys[key] = out
        return out

    def successor_keys_for(self, key: Any) -> Tuple[Any, ...]:
        """:meth:`successor_keys` addressed purely by key.

        On the fast path the kernel decodes the key directly into its
        packed vectors (:meth:`~repro.simulation.fastpath.kernel.FastKernel.load_key`);
        the naive path reconstructs the configuration first.
        """
        cached = self._succ_keys.get(key)
        if cached is not None:
            return cached
        if self._kernel is not None:
            self._kernel.load_key(key)
            self._seed_legitimacy(key)
            out = self._succ_keys_from_loaded(key)
        else:
            out = tuple(
                k for k, _ in self.successor_items(self.config_for_key(key), key)
            )
        self._succ_keys[key] = out
        return out

    def _seed_legitimacy(self, key: Any) -> None:
        """Memoise the loaded configuration's legitimacy (counter-gated,
        near O(1)) under ``key``."""
        if key not in self._legit_cache:
            self._legit_cache[key] = self._kernel.is_legitimate()

    def _succ_keys_from_loaded(self, key: Any) -> Tuple[Any, ...]:
        """Successor keys of the kernel's loaded configuration.

        Each enabled command is evaluated once; every selection's key then
        falls out of digit-delta integer arithmetic on ``key``
        (``sum(subset, key)``): subsets of the per-process deltas come in
        the same order as subsets of the enabled set, and a repeated key
        (an enabled command that leaves its state unchanged) is kept once,
        first occurrence first.  Nothing is memoised.  The state graph's
        array passes (:class:`~repro.verification.state_graph.QuotientGraph`)
        build these rows for every representative at once, entry for entry.
        """
        kernel = self._kernel
        enabled = kernel.enabled()
        if not enabled:
            return ()
        digit = kernel.digit
        weights = kernel.key_weights
        deltas = tuple(
            (digit(kernel.update(i)) - digit(kernel.native_state(i)))
            * weights[i]
            for i in enabled
        )
        return tuple(dict.fromkeys(map(
            sum, nonempty_subsets(deltas, self.max_selection), repeat(key))))

    def config_for_key(self, key: Any) -> Any:
        """The algorithm-native configuration a key encodes.

        Fast path: arithmetic decode (inverse of ``pack_key``).  Naive
        path: keys *are* the configuration's normal-form state tuple, so
        :meth:`~repro.algorithms.base.RingAlgorithm.normalize_configuration`
        rebuilds the native type.
        """
        if self._kernel is not None:
            return self._kernel.unpack_key(key)
        return self.algorithm.normalize_configuration(key)

    def _successor_items_naive(
        self, config: Any
    ) -> Tuple[Tuple[Any, Any], ...]:
        enabled = self.algorithm.enabled_processes(config)
        succs: List[Tuple[Any, Any]] = []
        seen = set()
        for sel in nonempty_subsets(enabled, self.max_selection):
            nxt = self.algorithm.step(config, sel)
            k = self._key(nxt)
            if k not in seen:
                seen.add(k)
                succs.append((k, nxt))
        return tuple(succs)

    def _successor_items_fast(
        self, config: Any, key: Any
    ) -> Tuple[Tuple[Any, Any], ...]:
        """Kernel-backed successor generation.

        Loads ``config`` once, computes every enabled process's command
        once, then derives each selection's successor *key* by integer
        digit-delta arithmetic on the loaded key — no guard re-evaluation
        and no re-packing per subset; configurations are only materialized
        for keys not seen before.  The load also yields the configuration's
        own legitimacy (counter-gated, near O(1)), which seeds the
        :meth:`is_legitimate` memo for free.
        """
        kernel = self._kernel
        kernel.load(config)
        self._seed_legitimacy(key)
        enabled = kernel.enabled()
        if not enabled:
            return ()
        base = kernel.native_states(config)
        digit = kernel.digit
        weights = kernel.key_weights
        updates = {}
        delta = {}
        for i in enabled:
            updates[i] = up = kernel.update(i)
            delta[i] = (digit(up) - digit(base[i])) * weights[i]
        wrap = kernel.wrap_states
        succs: List[Tuple[Any, Any]] = []
        seen = set()
        for sel in nonempty_subsets(enabled, self.max_selection):
            k = key
            for i in sel:
                k += delta[i]
            if k not in seen:
                seen.add(k)
                states = list(base)
                for i in sel:
                    states[i] = updates[i]
                succs.append((k, wrap(tuple(states))))
        return tuple(succs)

    def is_deadlocked(self, config: Any) -> bool:
        """True iff no process is enabled."""
        if self._kernel is not None:
            self._kernel.load(config)
            return not self._kernel.enabled()
        return not self.algorithm.enabled_processes(config)

    def is_legitimate(self, config: Any, key: Optional[Any] = None) -> bool:
        """Memoized legitimacy test keyed like :meth:`successors`.

        The model checker asks this for the same configuration along many
        paths; memoization turns the repeated O(n) predicate into one dict
        probe per revisit.  ``key`` may be passed when already known.
        """
        if key is None:
            key = self._key(config)
        cached = self._legit_cache.get(key)
        if cached is None:
            cached = self.algorithm.is_legitimate(config)
            self._legit_cache[key] = cached
        return cached

    def is_legitimate_key(self, key: Any) -> bool:
        """:meth:`is_legitimate` addressed purely by key.

        Usually a dict hit — successor generation seeds the memo for every
        configuration it loads.  On a miss the fast path decodes the key
        into the kernel (no configuration object); the naive path rebuilds
        the configuration.
        """
        cached = self._legit_cache.get(key)
        if cached is None:
            if self._kernel is not None:
                self._kernel.load_key(key)
                cached = self._kernel.is_legitimate()
            else:
                cached = self.algorithm.is_legitimate(self.config_for_key(key))
            self._legit_cache[key] = cached
        return cached

    def _key(self, config: Any) -> Any:
        """Hashable identity of ``config`` (packed int on the fast path)."""
        if self._kernel is not None:
            return self._kernel.pack_key(config)
        states = getattr(config, "states", None)
        return states if states is not None else config

    # -- reachability -----------------------------------------------------------
    def reachable_from(self, initial: Iterable[Any]) -> Dict[Any, Any]:
        """BFS closure: map ``key -> configuration`` reachable from ``initial``."""
        frontier = list(initial)
        seen: Dict[Any, Any] = {self._key(c): c for c in frontier}
        while frontier:
            nxt_frontier = []
            for c in frontier:
                for k, s in self.successor_items(c):
                    if k not in seen:
                        seen[k] = s
                        nxt_frontier.append(s)
            frontier = nxt_frontier
        return seen
