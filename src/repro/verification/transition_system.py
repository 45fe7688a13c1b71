"""Explicit-state transition systems over an algorithm's full state space.

For small instances the configuration space ``|Q|^n`` is enumerable (e.g.
SSRmin with ``n=4, K=5`` has ``(4*5)^4 = 160,000`` configurations).  A
:class:`TransitionSystem` generates successors on demand under either
daemon semantics:

* ``"central"`` — successors via each single enabled process;
* ``"distributed"`` — successors via every non-empty subset of enabled
  processes (optionally capped at ``max_selection`` to bound fan-out, in
  which case only part of the daemon's choices are covered).

Configurations are identified by hashable keys.  With a
:mod:`~repro.simulation.fastpath` kernel available, keys are *packed ints*
(collision-free base-``|Q|`` encodings — cheaper to hash and compare than
tuples-of-tuples) and each enabled command is computed **once** per
configuration, every daemon selection's key following by integer
arithmetic; the naive path, the oracle, keys a configuration by its
normal-form state tuple and steps the algorithm once per selection.

:meth:`~TransitionSystem.successor_keys_for` is the one successor
generator, with one body per path.  The other per-configuration methods
(:meth:`~TransitionSystem.successors`,
:meth:`~TransitionSystem.is_legitimate`,
:meth:`~TransitionSystem.reachable_from`, ...) derive from it and
:meth:`~TransitionSystem.config_for_key`, and none of them memoises.  The
model checker reads :meth:`~TransitionSystem.graph` instead, the whole
space as one array-backed
:class:`~repro.verification.state_graph.StateGraph`, built on first use —
the Z_K quotient under the x-shift on the packed-kernel path, so SSRmin
n=5, K=6 (7.96M configurations) is 1.33M representatives.
"""

from __future__ import annotations

import itertools
from itertools import repeat
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

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
    def successor_keys_for(self, key: Any) -> Tuple[Any, ...]:
        """Distinct successor keys of the configuration ``key`` encodes.

        Selections come in :func:`nonempty_subsets` order of the enabled
        set, and a key two selections reach (an enabled command that leaves
        its state unchanged) is kept once, at its first occurrence.

        The packed path decodes the key into the kernel
        (:meth:`~repro.simulation.fastpath.kernel.FastKernel.load_key`),
        evaluates each enabled command once and adds each selection's
        per-process digit deltas to ``key``;
        :class:`~repro.verification.state_graph.QuotientGraph` builds these
        rows for every representative at once, entry for entry.  The naive
        path steps :meth:`config_for_key` through every selection.
        """
        kernel = self._kernel
        if kernel is None:
            alg = self.algorithm
            config = self.config_for_key(key)
            selections = nonempty_subsets(
                alg.enabled_processes(config), self.max_selection)
            return tuple(dict.fromkeys(
                self._key(alg.step(config, sel)) for sel in selections))
        kernel.load_key(key)
        digit = kernel.digit
        weights = kernel.key_weights
        deltas = tuple(
            (digit(kernel.update(i)) - digit(kernel.native_state(i)))
            * weights[i]
            for i in kernel.enabled()
        )
        return tuple(dict.fromkeys(map(
            sum, nonempty_subsets(deltas, self.max_selection), repeat(key))))

    def successor_keys(self, config: Any) -> Tuple[Any, ...]:
        """:meth:`successor_keys_for` of a configuration.

        Configurations are recovered on demand via :meth:`config_for_key`.
        """
        return self.successor_keys_for(self._key(config))

    def successors(self, config: Any) -> Tuple[Any, ...]:
        """Distinct successor configurations under the chosen daemon."""
        return tuple(map(self.config_for_key, self.successor_keys(config)))

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

    def is_deadlocked(self, config: Any) -> bool:
        """True iff no process is enabled."""
        if self._kernel is not None:
            self._kernel.load(config)
            return not self._kernel.enabled()
        return not self.algorithm.enabled_processes(config)

    def is_legitimate(self, config: Any) -> bool:
        """:meth:`is_legitimate_key` of a configuration."""
        return self.is_legitimate_key(self._key(config))

    def is_legitimate_key(self, key: Any) -> bool:
        """Legitimacy of the configuration ``key`` encodes.

        The fast path decodes the key into the kernel (no configuration
        object) and reads its counter-gated predicate; the naive path asks
        the algorithm about :meth:`config_for_key`.
        """
        kernel = self._kernel
        if kernel is None:
            return self.algorithm.is_legitimate(self.config_for_key(key))
        kernel.load_key(key)
        return kernel.is_legitimate()

    def _key(self, config: Any) -> Any:
        """Hashable identity of ``config`` (packed int on the fast path)."""
        if self._kernel is not None:
            return self._kernel.pack_key(config)
        states = getattr(config, "states", None)
        return states if states is not None else config

    # -- reachability -----------------------------------------------------------
    def reachable_from(self, initial: Iterable[Any]) -> Dict[Any, Any]:
        """BFS closure: map ``key -> configuration`` reachable from ``initial``."""
        seen: Dict[Any, Any] = {self._key(c): c for c in initial}
        frontier = list(seen)
        while frontier:
            fresh = []
            for key in frontier:
                for k in self.successor_keys_for(key):
                    if k not in seen:
                        seen[k] = self.config_for_key(k)
                        fresh.append(k)
            frontier = fresh
        return seen
