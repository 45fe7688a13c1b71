"""Cache coherence (paper Definition 2) and incoherence classification.

A transformed system is *cache-coherent* when every node's cache holds the
latest value of each neighbour's state.  Non-silent algorithms like SSRmin
alternate coherence and incoherence forever; the paper classifies
incoherence as *good* (arising along an execution that started legitimate and
coherent — exactly the transient periods of Theorem 3) or *bad* (anything
else, e.g. right after transient faults).  :class:`CoherenceTracker` watches
a network and records when coherence first holds together with legitimacy —
the precondition after which Theorem 3's guarantee applies forever.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.messagepassing.network import MessagePassingNetwork


def stale_entries(nodes: Sequence) -> List[Tuple[int, int]]:
    """All ``(node, neighbor)`` pairs whose cache entry is stale.

    Operates on any collection of node-like objects exposing ``index``,
    ``state`` and ``cache`` (DES :class:`~repro.messagepassing.node.CSTNode`
    collections and the live runtime's server-held nodes alike); the
    collection must be indexable by process index.
    """
    out = []
    for node in nodes:
        for k, cached in node.cache.items():
            if cached != nodes[k].state:
                out.append((node.index, k))
    return out


def is_cache_coherent(network: MessagePassingNetwork) -> bool:
    """Definition 2: every cache entry equals the neighbour's current state."""
    return not stale_entries(network.nodes)


def incoherent_entries(
    network: MessagePassingNetwork,
) -> List[Tuple[int, int]]:
    """All ``(node, neighbor)`` pairs whose cache entry is stale."""
    return stale_entries(network.nodes)


class CoherenceTracker:
    """Polls a network for the "legitimate + coherent" entry condition.

    Theorem 4's statement: from arbitrary states and arbitrary caches, the
    system eventually reaches a configuration that is legitimate *with*
    cache coherence, after which the 1..2-token guarantee of Theorem 3 holds
    forever.  Call :meth:`poll` between run slices; the first time both
    conditions hold, :attr:`stabilized_at` is recorded.
    """

    def __init__(self, network: MessagePassingNetwork):
        self.network = network
        self._stabilized_at: Optional[float] = None
        # The packed engine maintains staleness incrementally and evaluates
        # this exact condition natively at every observation point; reading
        # its latch is O(1), so no per-observe Python callback is needed.
        self._native = bool(getattr(network, "native_stabilization", False))
        if self._native:
            # A tracker only reports condition-holds from its construction
            # onward (the reference registers its observer here); clear any
            # historical latch so the engine re-records from now.
            if network.stabilized_time() is not None:
                network.reset_stabilization()
        else:
            # Event-driven checking: the network calls us at every state/
            # cache change, so coherent instants between run slices are not
            # missed (they are fleeting in a non-silent system).
            network.observers.append(lambda net: self.poll())

    @property
    def stabilized_at(self) -> Optional[float]:
        """Simulation time at which legitimacy + coherence first held.

        On the packed engine this reads the native latch, so it updates
        mid-run exactly like the reference's observer-driven attribute.
        """
        if self._stabilized_at is None and self._native:
            self._stabilized_at = self.network.stabilized_time()
        return self._stabilized_at

    @stabilized_at.setter
    def stabilized_at(self, value: Optional[float]) -> None:
        self._stabilized_at = value

    def poll(self) -> bool:
        """Check the condition now; returns whether it has *ever* held."""
        if self.stabilized_at is not None:
            return True
        if self._native:
            # The latch (read above) covers every observation point; polls
            # can also land *between* observation points, where the
            # reference checks the condition directly.
            if self.network.stabilization_condition_now():
                self._stabilized_at = self.network.queue.now
                return True
            return False
        alg = self.network.algorithm
        config = alg.normalize_configuration(self.network.true_configuration())
        if alg.is_legitimate(config) and is_cache_coherent(self.network):
            self._stabilized_at = self.network.queue.now
            return True
        return False

    def run_until_stabilized(
        self,
        slice_duration: float = 1.0,
        max_time: float = 10_000.0,
    ) -> float:
        """Advance the network until the entry condition holds.

        Returns the stabilization time; raises :class:`RuntimeError` if
        ``max_time`` elapses first (which would falsify Lemma 9 for this
        run's parameters), and :class:`ValueError` for a non-positive
        ``slice_duration``, which would never advance the clock.
        """
        if not slice_duration > 0.0:
            raise ValueError(
                f"slice_duration must be > 0, got {slice_duration}")
        if not self.network._started:
            self.network.start()
        self.poll()
        while self.stabilized_at is None:
            if self.network.queue.now >= max_time:
                raise RuntimeError(
                    f"no legitimate+coherent configuration within t={max_time}"
                )
            self.network.run(slice_duration)
            self.poll()
        return self.stabilized_at
