"""The packed CST/DES engine: a drop-in ``MessagePassingNetwork``.

:class:`FastCSTNetwork` subclasses the reference network and keeps its
*entire object graph* — real :class:`~repro.messagepassing.node.CSTNode`
and :class:`~repro.messagepassing.links.Link` instances, the shared
:class:`~repro.messagepassing.des.EventQueue`, the telemetry bus — as a
facade, while the run loop executes on flat packed arrays:

* node states / neighbour caches: small ints via the algorithm's
  :class:`~repro.messagepassing.fastpath.codecs.MPCodec`, with each node's
  rule id memoised until its state or caches change;
* links: busy flags and coalesced packed payloads; delay law, loss,
  duplication, outages and statistics live on the facade links;
* events: packed tuples ``(time, seq, code, a, b, c)`` on a binary heap,
  dispatched by one loop whose arms inline the broadcast, the cache write,
  the dwell check and the observation;
* observation: own-view token holders, cache staleness and the
  legitimate+coherent entry condition, kept by the shared incremental
  :class:`~repro.kernels.census.Census` over the packed arrays.  Most
  deliveries repeat a cached value, so the loop observes only where a
  census fact may have changed, or where someone listens (see
  :meth:`FastCSTNetwork._watching`).

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
Busy flags, pending payloads and ``queue.executed`` are synced at every
run-slice boundary.  Direct writes to facade states or caches are folded
back at the next ``run()`` and after every externally scheduled event
(drained onto the heap as ``PYCALL`` entries in their ``(time, seq)``
slots); the fold compares each entry by identity with the object the
engine last wrote, so an untouched boundary costs O(n).
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.algorithms.base import RingAlgorithm
from repro.kernels.census import Census
from repro.messagepassing.des import EventQueue
from repro.messagepassing.fastpath.codecs import MPCodec
from repro.messagepassing.links import Link, Message, UniformDelay
from repro.messagepassing.network import MessagePassingNetwork
from repro.messagepassing.node import CSTNode

#: Dispatch codes of packed heap entries ``(time, seq, code, a, b, c)``.
#: Tuples compare on ``(time, seq)`` first and ``seq`` is unique, so the
#: heap order is the reference queue's order.
ARRIVE = 0   #: (time, seq, ARRIVE, link_id, packed_payload, flags)
ACT = 1      #: (time, seq, ACT, node_index, 0, 0)
TIMER = 2    #: (time, seq, TIMER, node_index, 0, 0)
PYCALL = 3   #: (time, seq, PYCALL, callable, 0, 0) — drained external events

#: Delivery repetitions of an arrival (bit 1 of its flags: duplicated).
_ONCE, _TWICE = (0,), (0, 1)

#: Placeholder for "no facade object seen yet" (forces the first fold).
_UNSEEN = object()


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
        #: Pending packed events, a binary heap.
        self._heap: List[tuple] = []
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
        #: Memoised ``codec.rule_id`` of every node's local view.
        self._rid = [0] * n
        #: Facade objects last written or folded: ``nodes[i].state`` and
        #: the predecessor / successor cache entries.
        self._seen_p: List[Any] = [_UNSEEN] * n
        self._seen_cp: List[Any] = [_UNSEEN] * n
        self._seen_cs: List[Any] = [_UNSEEN] * n
        self._pending_act = [False] * n
        self._chatty = [bool(node.chatty) for node in nodes]
        self._has_dwell = nodes[0].dwell_model is not None

        # -- link arrays (same construction order as the facade dicts) -----
        # Delay law, loss, duplication and outage are read from the facade
        # links, and statistics counted on them, as the reference does; the
        # engine owns the busy flags and the packed pending payloads.
        self._links: List[Link] = []
        self._l_src: List[int] = []
        self._l_dst: List[int] = []
        self._l_slot: List[int] = []       # 0: feeds dst's pred cache, 1: succ
        self._out_lids: List[List[int]] = [[] for _ in range(n)]
        for node in nodes:
            for dst, link in node.links.items():
                lid = len(self._links)
                self._links.append(link)
                self._l_src.append(node.index)
                self._l_dst.append(dst)
                self._l_slot.append(0 if node.index == (dst - 1) % n else 1)
                self._out_lids[node.index].append(lid)
        m = len(self._links)
        self._l_busy = [False] * m
        #: Coalesced packed payload waiting on a busy link, or None.
        self._l_pending: List[Optional[int]] = [None] * m
        self._transmit = self._make_transmit()

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

        Runs at construction, at every ``run()`` entry and after every
        externally scheduled event, so facade-level mutations (tests, fault
        scripts) are honoured exactly as the reference engine would honour
        them.  A state or cache entry is re-packed only when it is not the
        object the engine last wrote; after any re-pack the census is
        recounted and every rule id recomputed.
        """
        n, nodes = self._n, self.nodes
        p, cp, cs = self._p, self._cp, self._cs
        seen_p, seen_cp, seen_cs = self._seen_p, self._seen_cp, self._seen_cs
        pred, succ = self._census.pred, self._census.succ
        bidir = self._bidir
        pack = self._pack_state
        dirty = False
        for i in range(n):
            node = nodes[i]
            state = node.state
            if state is not seen_p[i]:
                p[i] = pack(state, f"state of node {i}")
                seen_p[i] = state
                dirty = True
            cache = node.cache
            k = pred[i]
            value = cache.get(k, seen_cp[i])
            if value is not seen_cp[i]:
                cp[i] = pack(value, f"cache[{k}] of node {i}")
                seen_cp[i] = value
                dirty = True
            if bidir:
                k = succ[i]
                value = cache.get(k, seen_cs[i])
                if value is not seen_cs[i]:
                    cs[i] = pack(value, f"cache[{k}] of node {i}")
                    seen_cs[i] = value
                    dirty = True
        if dirty:
            self._census.recount()
            rule_id, rid = self.codec.rule_id, self._rid
            for i in range(n):
                rid[i] = rule_id(p[i], cp[i], cs[i], i)

    def _sync_out(self) -> None:
        """Mirror engine-side flags back onto the facade objects."""
        unpack = self.codec.unpack
        # Every delivered copy is one message received by the link's
        # destination, so the per-node count is a sum over in-links.
        received = [0] * self._n
        for lid, link in enumerate(self._links):
            received[self._l_dst[lid]] += link.delivered
            link.busy = self._l_busy[lid]
            pending = self._l_pending[lid]
            link._has_pending = pending is not None
            link.pending = (None if pending is None
                            else Message(self._l_src[lid], unpack(pending)))
        for i, node in enumerate(self.nodes):
            node.messages_received = received[i]
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

    def _watching(self) -> bool:
        """Whether every observation point must observe, changed or not:
        while a bus subscriber or an observer is attached, or the latch is
        unset although the entry condition holds.  Otherwise observing
        after no change of holders, staleness or states does nothing."""
        census = self._census
        return bool(
            self.bus._subscribers or self.observers
            or (self._stab_time is None and census.stale == 0
                and census.legitimate())
        )

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

    # -- engine helpers ----------------------------------------------------
    def _make_transmit(self) -> Callable[[int, int], None]:
        """Build the transmit helper over the engine's arrays.

        It runs once per transmission, the engine's most frequent call, so
        it reads the arrays from closure cells rather than instance
        attributes.  The bound lists are only ever mutated in place.
        """
        links, l_busy = self._links, self._l_busy
        l_src, l_dst = self._l_src, self._l_dst
        heap, queue, seq = self._heap, self.queue, self.queue._seq
        bus, unpack = self.bus, self.codec.unpack
        subs = bus._subscribers
        rng = self.rng
        random_ = rng.random

        def transmit(lid: int, packed: int) -> None:
            """Put ``packed`` on idle link ``lid``: loss, duplication and
            delay draws in the reference order, then one ``ARRIVE``."""
            l_busy[lid] = True
            link = links[lid]
            link.sent += 1
            now = queue.now
            if subs:
                bus.publish("network", "send", now, src=l_src[lid],
                            dst=l_dst[lid], state=unpack(packed))
            flags = 1 if (random_() < link.loss_probability
                          or now < link.outage_until) else 0
            dup = link.duplicate_probability
            if dup > 0.0 and random_() < dup:
                flags |= 2
                link.duplicated += 1
            model = link.delay_model
            if type(model) is UniformDelay:
                # Inlined UniformDelay.sample (random.Random.uniform), the
                # sweeps' law; exact type, as a subclass may draw otherwise.
                delay = model.low + (model.high - model.low) * random_()
            else:
                delay = model.sample(rng)
            heappush(heap,
                     (now + delay, next(seq), ARRIVE, lid, packed, flags))

        return transmit

    def _consider(self, i: int) -> None:
        """Schedule node ``i``'s dwell action.  Callers check first that
        its memoised rule is enabled and no action is pending."""
        self._pending_act[i] = True
        dwell = self.nodes[i].dwell_model.sample(self.rng)
        queue = self.queue
        heappush(self._heap,
                 (queue.now + dwell, next(queue._seq), ACT, i, 0, 0))

    def _drain_facade_queue(self) -> None:
        """Move externally scheduled facade events onto the heap,
        preserving their ``(time, seq)`` slots."""
        fq = self.queue._heap
        if fq:
            heap = self._heap
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
        queue = self.queue
        for i in range(self._n):
            # interval + uniform(0, jitter); ``0.0 + (j - 0.0) * r == j * r``
            # exactly for j >= 0, so the inlined form is draw-identical.
            delay = self.timer_interval + self.timer_jitter * self.rng.random()
            heappush(self._heap,
                     (queue.now + delay, next(queue._seq), TIMER, i, 0, 0))
            # The initial announcement; every link is idle before it.
            for lid in self._out_lids[i]:
                self._transmit(lid, self._p[i])
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
        """Dispatch every event with ``time <= t_end``; returns the count.

        One body over local bindings.  Each arm is the reference handler
        on packed state: ``ARRIVE`` is ``Link._arrive`` + ``make_deliver``
        + ``CSTNode.on_receive``, ``ACT`` is ``CSTNode._act``, ``TIMER`` is
        the network's timer closure + ``CSTNode.on_timer``.
        """
        self._drain_facade_queue()
        heap = self._heap
        queue = self.queue
        seq = queue._seq
        random_ = self.rng.random
        bus = self.bus
        subs = bus._subscribers
        codec = self.codec
        unpack, rule_id, execute = codec.unpack, codec.rule_id, codec.execute
        census = self._census
        p, cp, cs, rids = self._p, self._cp, self._cs, self._rid
        seen_p, seen_cp, seen_cs = self._seen_p, self._seen_cp, self._seen_cs
        nodes = self.nodes
        pending = self._pending_act
        chatty = self._chatty
        has_dwell = self._has_dwell
        out_lids = self._out_lids
        l_src, l_dst, l_slot = self._l_src, self._l_dst, self._l_slot
        l_busy = self._l_busy
        l_pending = self._l_pending
        links = self._links
        transmit = self._transmit
        consider = self._consider
        observe = self.observe
        interval, jitter = self.timer_interval, self.timer_jitter
        watch = self._watching()
        count = 0
        while heap and heap[0][0] <= t_end:
            time_, _, code, a, b, flags = heappop(heap)
            queue.now = time_
            if code == ARRIVE:
                l_busy[a] = False
                link = links[a]
                if flags & 1:
                    link.lost += 1
                    if subs:
                        bus.publish("network", "loss", time_, src=l_src[a],
                                    dst=l_dst[a], state=unpack(b))
                else:
                    i = l_dst[a]
                    for _ in _TWICE if flags & 2 else _ONCE:
                        link.delivered += 1
                        if subs:
                            bus.publish("network", "deliver", time_,
                                        src=l_src[a], dst=i, state=unpack(b))
                        # Cache write: only a new value moves a census fact
                        # or the rule id.
                        changed = False
                        if l_slot[a]:
                            if b != cs[i]:
                                census.set_succ_cache(i, b)
                                seen_cs[i] = value = unpack(b)
                                nodes[i].cache[l_src[a]] = value
                                rids[i] = rule_id(p[i], cp[i], b, i)
                                changed = True
                        elif b != cp[i]:
                            census.set_pred_cache(i, b)
                            seen_cp[i] = value = unpack(b)
                            nodes[i].cache[l_src[a]] = value
                            rids[i] = rule_id(p[i], b, cs[i], i)
                            changed = True
                        if has_dwell:
                            fire = chatty[i]
                        else:
                            # The literal reading executes inline.
                            fire = rids[i]
                            if fire:
                                own = p[i]
                                new = execute(fire, own, cp[i], cs[i], i)
                                nodes[i].rules_executed += 1
                                if new != own:
                                    census.set_state(i, new)
                                    nodes[i].state = seen_p[i] = unpack(new)
                                    rids[i] = rule_id(new, cp[i], cs[i], i)
                                    changed = True
                                    if watch:
                                        observe()
                            fire = fire or chatty[i]
                        if fire:
                            # Broadcast: transmit on idle links, coalesce on
                            # busy ones.
                            own = p[i]
                            for lid in out_lids[i]:
                                if l_busy[lid]:
                                    if l_pending[lid] is not None:
                                        links[lid].coalesced += 1
                                    l_pending[lid] = own
                                else:
                                    transmit(lid, own)
                        if has_dwell and rids[i] and not pending[i]:
                            consider(i)
                        if changed or watch:
                            observe()
                # Pump the coalesced payload if delivery left the link free.
                own = l_pending[a]
                if own is not None and not l_busy[a]:
                    l_pending[a] = None
                    transmit(a, own)
            elif code != PYCALL:
                # ACT (a dwell expired) or TIMER: node a acts or counts a
                # tick, announces its state, and reconsiders its rule.
                if code == ACT:
                    pending[a] = False
                    fire = rids[a]
                    if fire:
                        own = p[a]
                        new = execute(fire, own, cp[a], cs[a], a)
                        nodes[a].rules_executed += 1
                        if new != own:
                            census.set_state(a, new)
                            nodes[a].state = seen_p[a] = unpack(new)
                            rids[a] = rule_id(new, cp[a], cs[a], a)
                            observe()
                else:
                    if subs:
                        bus.publish("network", "timer", time_,
                                    src=a, dst=a, state=None)
                    nodes[a].timer_fires += 1
                own = p[a]
                for lid in out_lids[a]:
                    if l_busy[lid]:
                        if l_pending[lid] is not None:
                            links[lid].coalesced += 1
                        l_pending[lid] = own
                    else:
                        transmit(lid, own)
                if has_dwell and rids[a] and not pending[a]:
                    consider(a)
                if code == TIMER:
                    # Re-arm: now + (interval + uniform(0, jitter)), grouped
                    # as the reference groups it (float sums do not
                    # associate).
                    heappush(heap, (time_ + (interval + jitter * random_()),
                                    next(seq), TIMER, a, 0, 0))
            else:  # PYCALL: an externally scheduled facade event
                a()
                self._drain_facade_queue()
                self._sync_in()
                watch = self._watching()
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
        node.state = self._seen_p[index] = new_state
        self._census.set_state(index, packed)
        self._rid[index] = self.codec.rule_id(
            packed, self._cp[index], self._cs[index], index)
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
            self._seen_cp[index] = value
            self._census.set_pred_cache(index, packed)
        else:
            self._seen_cs[index] = value
            self._census.set_succ_cache(index, packed)
        self._rid[index] = self.codec.rule_id(
            self._p[index], self._cp[index], self._cs[index], index)
        self.observe()


__all__ = ["FastCSTNetwork"]
