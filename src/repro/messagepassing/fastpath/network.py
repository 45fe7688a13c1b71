"""The packed CST/DES engine: a drop-in ``MessagePassingNetwork``.

:class:`FastCSTNetwork` subclasses the reference network and keeps its
*entire object graph* — real :class:`~repro.messagepassing.node.CSTNode`
and :class:`~repro.messagepassing.links.Link` instances, the shared
:class:`~repro.messagepassing.des.EventQueue`, the telemetry bus — as a
facade, while the run loop executes on flat packed arrays:

* node states / neighbour caches: small ints via the algorithm's
  :class:`~repro.messagepassing.fastpath.codecs.MPCodec`;
* links: parallel arrays of busy flags, coalesced pending slots,
  precompiled delay samplers and statistics counters;
* events: packed tuples on a flat :class:`~.wheel.EventWheel`;
* observation: own-view token holders, cache staleness and the
  legitimate+coherent entry condition, kept by the shared incremental
  :class:`~repro.kernels.census.Census` over the packed arrays.

**Fidelity contract.**  The engine consumes the network's single seeded
``random.Random`` in exactly the reference order (per transmission: loss
draw, optional duplication draw, delay draw; per timer arming: one
``uniform(0, jitter)``; per pending action: one dwell draw) and assigns
event sequence numbers from the facade queue's own counter, so the
``(time, seq)`` total order — and therefore every timeline record, census,
statistic and stabilization time — is bit-identical to the reference DES.
The differential suite in ``tests/messagepassing/test_mp_fastpath.py``
and the golden-trace replay enforce this record-for-record.

**Facade synchronization.**  Node ``state`` and ``cache`` entries are
mirrored *eagerly* (one interned write per change), so observers and
coherence checks that read the object graph mid-run see exact values.
Link flags/statistics, node counters and ``queue.executed`` are synced at
every run-slice boundary; external mutations of the facade between slices
(fault injection helpers, tests poking ``delay_model`` or outages) are
folded back into the packed arrays by a re-pack at the next ``run()``.

External events scheduled on the facade ``EventQueue`` are drained into
the wheel as ``PYCALL`` entries, preserving their ``(time, seq)`` slots.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algorithms.base import RingAlgorithm
from repro.kernels.census import Census
from repro.messagepassing.des import EventQueue
from repro.messagepassing.fastpath.codecs import MPCodec
from repro.messagepassing.fastpath.wheel import ACT, ARRIVE, PYCALL, TIMER, EventWheel
from repro.messagepassing.links import (
    DelayModel,
    ExponentialDelay,
    FixedDelay,
    Link,
    Message,
    UniformDelay,
)
from repro.messagepassing.network import MessagePassingNetwork
from repro.messagepassing.node import CSTNode

#: Sampler kinds produced by :func:`_compile_sampler`.
_FIXED, _UNIFORM, _EXPO, _GENERIC = 0, 1, 2, 3


def _compile_sampler(model: Optional[DelayModel]) -> Tuple[int, float, float, Any]:
    """Flatten a delay model into ``(kind, a, b, fallback)``.

    Exact-type checks only: a subclass overriding ``sample`` must keep its
    own draw discipline, so it goes through the generic arm.
    """
    if model is None:
        return (_FIXED, 0.0, 0.0, None)
    t = type(model)
    if t is FixedDelay:
        return (_FIXED, model.delay, 0.0, model)
    if t is UniformDelay:
        return (_UNIFORM, model.low, model.high, model)
    if t is ExponentialDelay:
        return (_EXPO, model.floor, 1.0 / model.mean, model)
    return (_GENERIC, 0.0, 0.0, model)


class FastCSTNetwork(MessagePassingNetwork):
    """Packed-engine CST network, draw-identical to the reference DES.

    Built by :func:`~repro.messagepassing.network.build_cst_network` when
    the algorithm provides an :class:`MPCodec` and the fastpath is enabled;
    never constructed directly by experiment code.
    """

    #: Capability flag probed by :class:`~repro.messagepassing.coherence.
    #: CoherenceTracker`: the engine records the legitimate+coherent entry
    #: condition natively at every observation point.
    native_stabilization = True

    def __init__(
        self,
        algorithm: RingAlgorithm,
        nodes: List[CSTNode],
        queue: EventQueue,
        timer_interval: float,
        timer_jitter: float,
        rng: random.Random,
        token_predicate: Callable[[CSTNode], bool],
        codec: MPCodec,
    ):
        super().__init__(
            algorithm, nodes, queue, timer_interval, timer_jitter, rng,
            token_predicate,
        )
        self.codec = codec
        self._wheel = EventWheel()
        n = len(nodes)
        self._n = n
        self._bidir = codec.bidirectional
        #: Simulation time at which legitimate + cache-coherent first held
        #: at an observation point (None until it does).
        self._stab_time: Optional[float] = None
        #: Holder mask at the last timeline record (None before the first);
        #: int comparison replaces the reference's tuple-equality coalescing.
        self._last_mask: Optional[int] = None

        # -- node arrays ---------------------------------------------------
        self._census = Census(n, codec.holds_token, codec.is_legitimate,
                              codec.bidirectional)
        self._p = self._census.p     # packed own states
        self._cp = self._census.cp   # packed predecessor-cache values
        self._cs = self._census.cs   # packed successor-cache values (bidir)
        self._pending_act = [False] * n
        self._rules_executed = [0] * n
        self._messages_received = [0] * n
        self._timer_fires = [0] * n
        self._chatty = [bool(node.chatty) for node in nodes]
        self._dwell = _compile_sampler(nodes[0].dwell_model)
        self._has_dwell = nodes[0].dwell_model is not None

        # -- link arrays (same construction order as the facade dicts) -----
        self._lid: Dict[Tuple[int, int], int] = {}
        self._links: List[Link] = []
        self._l_src: List[int] = []
        self._l_dst: List[int] = []
        self._l_slot: List[int] = []       # 0: feeds dst's pred cache, 1: succ
        self._out_lids: List[List[int]] = [[] for _ in range(n)]
        for node in nodes:
            for dst, link in node.links.items():
                lid = len(self._links)
                self._lid[(node.index, dst)] = lid
                self._links.append(link)
                self._l_src.append(node.index)
                self._l_dst.append(dst)
                self._l_slot.append(0 if node.index == (dst - 1) % n else 1)
                self._out_lids[node.index].append(lid)
        m = len(self._links)
        self._l_busy = [False] * m
        self._l_pending = [0] * m
        self._l_has_pending = [False] * m
        self._l_sent = [0] * m
        self._l_delivered = [0] * m
        self._l_lost = [0] * m
        self._l_coalesced = [0] * m
        self._l_duplicated = [0] * m
        self._l_loss = [0.0] * m
        self._l_dup = [0.0] * m
        self._l_outage = [0.0] * m
        self._l_sampler: List[Tuple[int, float, float, Any]] = [
            (_FIXED, 0.0, 0.0, None)
        ] * m

        self._sync_in()

    # -- packing helpers ---------------------------------------------------
    def _pack_state(self, state: Any, what: str) -> int:
        packed = self.codec.try_pack(state)
        if packed is None:
            raise ValueError(
                f"{what} {state!r} is outside the packed domain of "
                f"{type(self.algorithm).__name__}; rebuild the network with "
                "use_fastpath=False to simulate out-of-domain values"
            )
        return packed

    def _sync_in(self) -> None:
        """Fold the facade object graph back into the packed arrays.

        Runs at ``start()`` and at every ``run()`` entry, so facade-level
        mutations between slices (tests, fault scripts) are honoured
        exactly as the reference engine would honour them.
        """
        n, nodes = self._n, self.nodes
        p, cp, cs = self._p, self._cp, self._cs
        pack = self._pack_state
        for i in range(n):
            node = nodes[i]
            p[i] = pack(node.state, f"state of node {i}")
            pred, succ = (i - 1) % n, (i + 1) % n
            if pred in node.cache:
                cp[i] = pack(node.cache[pred], f"cache[{pred}] of node {i}")
            if self._bidir and succ in node.cache:
                cs[i] = pack(node.cache[succ], f"cache[{succ}] of node {i}")
        for lid, link in enumerate(self._links):
            self._l_loss[lid] = link.loss_probability
            self._l_dup[lid] = getattr(link, "duplicate_probability", 0.0)
            self._l_outage[lid] = link.outage_until
            sampler = self._l_sampler[lid]
            if sampler[3] is not link.delay_model:
                self._l_sampler[lid] = _compile_sampler(link.delay_model)
        self._census.recount()

    def _sync_out(self) -> None:
        """Mirror engine-side flags/counters back onto the facade objects."""
        unpack = self.codec.unpack
        for lid, link in enumerate(self._links):
            link.busy = self._l_busy[lid]
            if self._l_has_pending[lid]:
                link.pending = Message(
                    self._l_src[lid], unpack(self._l_pending[lid])
                )
                link._has_pending = True
            else:
                link.pending = None
                link._has_pending = False
            link.sent = self._l_sent[lid]
            link.delivered = self._l_delivered[lid]
            link.lost = self._l_lost[lid]
            link.coalesced = self._l_coalesced[lid]
            link.duplicated = self._l_duplicated[lid]
        for i, node in enumerate(self.nodes):
            node.rules_executed = self._rules_executed[i]
            node.messages_received = self._messages_received[i]
            node.timer_fires = self._timer_fires[i]
            node._action_pending = self._pending_act[i]

    # -- observation -------------------------------------------------------
    def token_holders(self) -> Tuple[int, ...]:
        """Own-view holder set, from the incrementally maintained bits."""
        return self._census.holders()

    def observe(self) -> None:
        """Reference-point observation on packed state.

        Mirrors the base class exactly — timeline record (coalesced),
        census publish when the bus is live, observer callbacks — plus the
        native legitimate+coherent stabilization check, evaluated at
        precisely the reference's observation points.
        """
        census = self._census
        mask = census.mask
        if mask != self._last_mask:
            # The reference records unconditionally and lets the timeline
            # coalesce on tuple equality; comparing masks first is the same
            # decision without materializing the tuple.
            self.timeline.record(self.queue.now, census.holders())
            self._last_mask = mask
        if self.bus._subscribers:
            self.bus.publish("network", "census", self.queue.now,
                             holders=list(census.holders()))
        if self.observers:
            for callback in self.observers:
                callback(self)
        if (self._stab_time is None and census.stale == 0
                and census.legitimate()):
            self._stab_time = self.queue.now

    def stabilized_time(self) -> Optional[float]:
        """First observation-point time at which the network was legitimate
        with coherent caches, or ``None`` (the Theorem 4 entry condition,
        tracked natively so no per-event Python callback is needed)."""
        return self._stab_time

    def reset_stabilization(self) -> None:
        """Re-arm the native stabilization latch.

        A :class:`~repro.messagepassing.coherence.CoherenceTracker`
        constructed mid-life (after fault injection, say) must only report
        condition-holds *from its construction onward* — exactly what the
        reference observer-based tracker sees — so it clears the historical
        latch and lets the next observation re-record.
        """
        self._stab_time = None

    def stabilization_condition_now(self) -> bool:
        """Whether legitimate + cache-coherent holds at this instant.

        The poll-time (non-observation-point) check the reference tracker
        performs directly on the object graph; O(1) from the census, plus
        one legitimacy pass on packed state when a state has changed.
        """
        census = self._census
        return census.stale == 0 and census.legitimate()

    # -- engine primitives -------------------------------------------------
    def _transmit(self, lid: int, packed: int) -> None:
        self._l_busy[lid] = True
        self._l_sent[lid] += 1
        bus = self.bus
        if bus._subscribers:
            bus.publish("network", "send", self.queue.now,
                        src=self._l_src[lid], dst=self._l_dst[lid],
                        state=self.codec.unpack(packed))
        rng = self.rng
        lost = (
            rng.random() < self._l_loss[lid]
            or self.queue.now < self._l_outage[lid]
        )
        flags = 1 if lost else 0
        dup = self._l_dup[lid]
        if dup > 0.0 and rng.random() < dup:
            flags |= 2
            self._l_duplicated[lid] += 1
        kind, a, b, model = self._l_sampler[lid]
        if kind == _FIXED:
            delay = a
        elif kind == _UNIFORM:
            # Inlined random.Random.uniform — bit-identical by definition.
            delay = a + (b - a) * rng.random()
        elif kind == _EXPO:
            delay = a + rng.expovariate(b)
        else:
            delay = model.sample(rng)
        heappush(
            self._wheel.heap,
            (self.queue.now + delay, next(self.queue._seq), ARRIVE,
             lid, packed, flags),
        )

    def _broadcast(self, i: int) -> None:
        packed = self._p[i]
        busy, has_pending = self._l_busy, self._l_has_pending
        for lid in self._out_lids[i]:
            if busy[lid]:
                if has_pending[lid]:
                    self._l_coalesced[lid] += 1
                self._l_pending[lid] = packed
                has_pending[lid] = True
            else:
                self._transmit(lid, packed)

    def _consider(self, i: int) -> None:
        if self._pending_act[i]:
            return
        if not self.codec.rule_id(self._p[i], self._cp[i], self._cs[i], i):
            return
        self._pending_act[i] = True
        kind, a, b, model = self._dwell
        rng = self.rng
        if kind == _FIXED:
            dwell = a
        elif kind == _UNIFORM:
            dwell = a + (b - a) * rng.random()
        elif kind == _EXPO:
            dwell = a + rng.expovariate(b)
        else:
            dwell = model.sample(rng)
        heappush(
            self._wheel.heap,
            (self.queue.now + dwell, next(self.queue._seq), ACT, i, 0, 0),
        )

    def _set_state(self, i: int, packed: int) -> None:
        """Write a node's state and maintain every incremental structure,
        then observe (the reference's ``on_state_change`` point)."""
        self._census.set_state(i, packed)
        self.nodes[i].state = self.codec.unpack(packed)
        self.observe()

    def _try_execute(self, i: int) -> bool:
        codec = self.codec
        own = self._p[i]
        rid = codec.rule_id(own, self._cp[i], self._cs[i], i)
        if not rid:
            return False
        new = codec.execute(rid, own, self._cp[i], self._cs[i], i)
        self._rules_executed[i] += 1
        if new != own:
            self._set_state(i, new)
        return True

    def _deliver(self, lid: int, packed: int) -> None:
        """One message delivery: the reference ``make_deliver`` +
        ``CSTNode.on_receive`` path on packed state."""
        dst = self._l_dst[lid]
        src = self._l_src[lid]
        self._messages_received[dst] += 1
        if self._l_slot[lid] == 0:
            self._census.set_pred_cache(dst, packed)
        else:
            self._census.set_succ_cache(dst, packed)
        self.nodes[dst].cache[src] = self.codec.unpack(packed)
        if not self._has_dwell:
            changed = self._try_execute(dst)
            if self._chatty[dst] or changed:
                self._broadcast(dst)
        else:
            if self._chatty[dst]:
                self._broadcast(dst)
            self._consider(dst)
        self.observe()

    def _arm_timer_fast(self, i: int) -> None:
        # interval + uniform(0, jitter); ``0.0 + (j - 0.0) * r == j * r``
        # exactly for j >= 0, so the inlined form is draw-identical.
        delay = self.timer_interval + self.timer_jitter * self.rng.random()
        heappush(
            self._wheel.heap,
            (self.queue.now + delay, next(self.queue._seq), TIMER, i, 0, 0),
        )

    def _drain_facade_queue(self) -> None:
        """Move externally scheduled facade events onto the wheel,
        preserving their ``(time, seq)`` slots."""
        fq = self.queue._heap
        if fq:
            heap = self._wheel.heap
            while fq:
                ev = heappop(fq)
                heappush(heap, (ev.time, ev.seq, PYCALL, ev.action, 0, 0))

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Reference-identical startup on the packed engine."""
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        self._sync_in()
        self.bus.publish(
            "network", "net_start", self.queue.now,
            engine=type(self).__name__,
            algorithm=type(self.algorithm).__name__,
            n=self._n,
            K=getattr(self.algorithm, "K", None),
            seed=self.seed,
            timer_interval=self.timer_interval,
            timer_jitter=self.timer_jitter,
        )
        self.observe()
        for i in range(self._n):
            self._arm_timer_fast(i)
            self._broadcast(i)
        self.observe()

    def run(self, duration: float, max_events: Optional[int] = None) -> None:
        """Advance simulated time by ``duration`` on the packed engine."""
        if not self._started:
            self.start()
        else:
            self._sync_in()
        self._run_until(self.queue.now + duration, max_events)
        self.timeline.finish(self.queue.now)

    def _run_until(self, t_end: float, max_events: Optional[int]) -> int:
        self._drain_facade_queue()
        heap = self._wheel.heap
        queue = self.queue
        bus = self.bus
        subs = bus._subscribers
        unpack = self.codec.unpack
        l_src, l_dst = self._l_src, self._l_dst
        l_busy = self._l_busy
        l_has_pending = self._l_has_pending
        l_pending = self._l_pending
        count = 0
        while heap and heap[0][0] <= t_end:
            entry = heappop(heap)
            time_ = entry[0]
            queue.now = time_
            code = entry[2]
            if code == ARRIVE:
                lid = entry[3]
                packed = entry[4]
                flags = entry[5]
                l_busy[lid] = False
                if flags & 1:
                    self._l_lost[lid] += 1
                    if subs:
                        bus.publish("network", "loss", time_,
                                    src=l_src[lid], dst=l_dst[lid],
                                    state=unpack(packed))
                else:
                    copies = 2 if flags & 2 else 1
                    for _ in range(copies):
                        self._l_delivered[lid] += 1
                        if subs:
                            bus.publish("network", "deliver", time_,
                                        src=l_src[lid], dst=l_dst[lid],
                                        state=unpack(packed))
                        self._deliver(lid, packed)
                # Pump the coalesced payload if delivery left the link free.
                if l_has_pending[lid] and not l_busy[lid]:
                    pkt = l_pending[lid]
                    l_has_pending[lid] = False
                    self._transmit(lid, pkt)
            elif code == ACT:
                i = entry[3]
                self._pending_act[i] = False
                self._try_execute(i)
                self._broadcast(i)
                self._consider(i)
            elif code == TIMER:
                i = entry[3]
                if subs:
                    bus.publish("network", "timer", time_,
                                src=i, dst=i, state=None)
                self._timer_fires[i] += 1
                self._broadcast(i)
                if self._has_dwell:
                    self._consider(i)
                self._arm_timer_fast(i)
            else:  # PYCALL — externally scheduled facade event
                entry[3]()
                self._drain_facade_queue()
            count += 1
            if max_events is not None and count > max_events:
                queue.executed += count
                self._sync_out()
                raise RuntimeError(
                    f"exceeded max_events={max_events} before t={t_end}"
                )
        queue.now = max(queue.now, t_end)
        queue.executed += count
        self._sync_out()
        return count

    # -- fault injection (packed mirrors of the base hooks) ------------------
    def corrupt_node(self, index: int, new_state: Any) -> None:
        """Transient fault: overwrite a node's state (caches stay stale)."""
        node = self.nodes[index]
        packed = self._pack_state(new_state, f"state of node {index}")
        node.state = new_state
        self._census.set_state(index, packed)
        # The reference fires on_state_change unconditionally, which lands
        # in the network's observe; mirror that observation point.
        self.observe()

    def corrupt_cache(self, index: int, neighbor: int, value: Any) -> None:
        """Transient fault: overwrite one cache entry."""
        node = self.nodes[index]
        if neighbor not in node.cache:
            raise ValueError(f"node {index} has no cache entry for {neighbor}")
        packed = self._pack_state(
            value, f"cache[{neighbor}] of node {index}"
        )
        node.cache[neighbor] = value
        if neighbor == (index - 1) % self._n:
            self._census.set_pred_cache(index, packed)
        else:
            self._census.set_succ_cache(index, packed)
        self.observe()

    def fail_link(self, a: int, b: int, duration: float) -> None:
        """Bidirectional outage window, mirrored into the packed arrays."""
        try:
            super().fail_link(a, b, duration)
        finally:
            for key in ((a, b), (b, a)):
                lid = self._lid.get(key)
                if lid is not None:
                    self._l_outage[lid] = self._links[lid].outage_until


__all__ = ["FastCSTNetwork"]
