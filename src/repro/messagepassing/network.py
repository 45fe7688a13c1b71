"""The transformed (message-passing) system: nodes + links + run loop.

:func:`build_cst_network` applies the CST transform to any
:class:`~repro.algorithms.base.RingAlgorithm`: one :class:`CSTNode` per
process, two directed :class:`Link`\\ s per ring edge, periodic state timers
with jitter, and a :class:`TokenTimeline` that re-evaluates every node's
own-view token predicate after every event that can change an own-view
(state changes *and* cache updates).

Timer jitter matters: the transformation literature ([5], [17]) notes that
convergence of transformed non-silent algorithms needs "some randomization
factor in execution timing"; jittered timers provide it.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import RingAlgorithm
from repro.messagepassing.des import EventQueue
from repro.messagepassing.links import DelayModel, FixedDelay, Link
from repro.messagepassing.node import CSTNode
from repro.messagepassing.timeline import TokenTimeline
from repro.ring.topology import RingTopology
from repro.telemetry.events import EventBus
from repro.telemetry.session import current_session


class MessagePassingNetwork:
    """A running CST deployment of one algorithm instance.

    Build via :func:`build_cst_network`; then :meth:`run` advances simulated
    time while the token timeline and statistics accumulate.
    """

    def __init__(
        self,
        algorithm: RingAlgorithm,
        nodes: List[CSTNode],
        queue: EventQueue,
        timer_interval: float,
        timer_jitter: float,
        rng: random.Random,
        token_predicate: Callable[[CSTNode], bool],
    ):
        self.algorithm = algorithm
        self.nodes = nodes
        self.queue = queue
        self.timer_interval = timer_interval
        self.timer_jitter = timer_jitter
        self.rng = rng
        self.token_predicate = token_predicate
        self.timeline = TokenTimeline()
        self._started = False
        #: Callbacks invoked at every observation point (state/cache change);
        #: used by CoherenceTracker for exact event-driven checks.
        self.observers: List[Callable[["MessagePassingNetwork"], None]] = []
        #: Seed the network was built from (set by :func:`build_cst_network`;
        #: recorded in run records).
        self.seed: Optional[int] = None
        # -- telemetry -----------------------------------------------------
        # Every network owns a structured event bus; link sends/deliveries/
        # losses, timer fires and token censuses are published into it.
        # MessageTrace subscribes here, and an ambient telemetry session
        # (when active) shares its sequencer and ingests the same stream.
        tel = current_session()
        self.bus = EventBus(sequence=tel.sequence if tel is not None else None)
        if tel is not None:
            tel.attach_bus(self.bus)
        for node in self.nodes:
            for dst, link in node.links.items():
                self._instrument_link(link, node.index, dst)

    def _instrument_link(self, link: Any, src: int, dst: int) -> None:
        """Point a link's observer hook at this network's event bus.

        Wireless transmitter adapters share the ``send`` protocol but not
        the observer hook; setting the attribute is harmless there.
        """
        bus = self.bus
        queue = self.queue

        def observe(kind: str, payload: Any, _src=src, _dst=dst) -> None:
            bus.publish("network", kind, queue.now,
                        src=_src, dst=_dst, state=payload[1])

        link.observer = observe

    # -- observation -----------------------------------------------------------
    def token_holders(self) -> Tuple[int, ...]:
        """Nodes holding a token in their *own cached view* (h_i of Def. 3)."""
        return tuple(
            node.index for node in self.nodes if self.token_predicate(node)
        )

    def true_configuration(self) -> Tuple[Any, ...]:
        """The vector of actual node states (omniscient observer)."""
        return tuple(node.state for node in self.nodes)

    def true_token_holders(self) -> Tuple[int, ...]:
        """Token holders evaluated on *true* states (the state-reading h)."""
        return self.algorithm.privileged(
            self.algorithm.normalize_configuration(self.true_configuration())
        )

    def observe(self) -> None:
        """Record the current own-view holder set on the timeline."""
        holders = self.token_holders()
        self.timeline.record(self.queue.now, holders)
        if self.bus.active:
            self.bus.publish("network", "census", self.queue.now,
                             holders=list(holders))
        for callback in self.observers:
            callback(self)

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Record the initial observation and arm every node's timer."""
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        self.bus.publish(
            "network", "net_start", self.queue.now,
            engine=type(self).__name__,
            algorithm=type(self.algorithm).__name__,
            n=len(self.nodes),
            K=getattr(self.algorithm, "K", None),
            seed=self.seed,
            timer_interval=self.timer_interval,
            timer_jitter=self.timer_jitter,
        )
        self.observe()
        for node in self.nodes:
            self._arm_timer(node)
            # Initial state announcement so neighbours' caches heal even
            # before the first timer (Algorithm 4 keeps nodes chatty).
            node.broadcast_state()
        self.observe()

    def _arm_timer(self, node: CSTNode) -> None:
        delay = self.timer_interval + self.rng.uniform(0.0, self.timer_jitter)

        def fire() -> None:
            if self.bus.active:
                self.bus.publish("network", "timer", self.queue.now,
                                 src=node.index, dst=node.index, state=None)
            node.on_timer()
            self._arm_timer(node)

        self.queue.schedule(delay, fire, label=f"timer{node.index}")

    def run(self, duration: float, max_events: Optional[int] = None) -> None:
        """Advance simulated time by ``duration``."""
        if not self._started:
            self.start()
        self.queue.run_until(self.queue.now + duration, max_events=max_events)
        self.timeline.finish(self.queue.now)

    # -- fault injection hooks -------------------------------------------------
    def corrupt_node(self, index: int, new_state: Any) -> None:
        """Transient fault: overwrite a node's state (caches stay stale)."""
        node = self.nodes[index]
        old = node.state
        node.state = new_state
        if node.on_state_change is not None:
            node.on_state_change(node, old, new_state)

    def corrupt_cache(self, index: int, neighbor: int, value: Any) -> None:
        """Transient fault: overwrite one cache entry."""
        node = self.nodes[index]
        if neighbor not in node.cache:
            raise ValueError(f"node {index} has no cache entry for {neighbor}")
        node.cache[neighbor] = value
        self.observe()

    def fail_link(self, a: int, b: int, duration: float) -> None:
        """Take the (a, b) link down in BOTH directions for ``duration``.

        Models a temporary radio outage / partition of one ring edge
        starting now; messages sent into the outage window are lost, and the
        periodic CST timers re-establish caches once it heals.
        """
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        until = self.queue.now + duration
        try:
            self.nodes[a].links[b].set_outage(until)
            self.nodes[b].links[a].set_outage(until)
        except KeyError:
            raise ValueError(f"({a}, {b}) is not a ring edge") from None

    # -- statistics --------------------------------------------------------
    def message_stats(self) -> Dict[str, int]:
        """Aggregate link statistics over the whole network."""
        sent = delivered = lost = coalesced = duplicated = 0
        for node in self.nodes:
            for link in node.links.values():
                sent += link.sent
                delivered += link.delivered
                lost += link.lost
                coalesced += link.coalesced
                duplicated += getattr(link, "duplicated", 0)
        return {
            "sent": sent,
            "delivered": delivered,
            "lost": lost,
            "coalesced": coalesced,
            "duplicated": duplicated,
        }


def build_cst_network(
    algorithm: RingAlgorithm,
    initial_states: Sequence[Any],
    *,
    delay_model: Optional[DelayModel] = None,
    loss_probability: float = 0.0,
    timer_interval: float = 5.0,
    timer_jitter: float = 1.0,
    seed: int = 0,
    initial_caches: Optional[Dict[int, Dict[int, Any]]] = None,
    token_predicate: Optional[Callable[[CSTNode], bool]] = None,
    dwell_model: Optional[DelayModel] = FixedDelay(0.5),
    link_delay_overrides: Optional[Dict[tuple, DelayModel]] = None,
    duplicate_probability: float = 0.0,
    use_fastpath: bool = True,
) -> MessagePassingNetwork:
    """Apply the CST transform (Algorithm 4) and wire up the network.

    Parameters
    ----------
    algorithm:
        The state-reading algorithm to transform.
    initial_states:
        Initial ``q_i`` per node (arbitrary — self-stabilization's job).
    delay_model:
        Per-message transmission delay (default ``FixedDelay(1.0)``).
    loss_probability:
        Bernoulli per-message loss.
    timer_interval, timer_jitter:
        Periodic state-refresh cadence; actual period is
        ``interval + U(0, jitter)`` re-drawn each firing.
    seed:
        Master seed for delays, losses, jitter and dwell.
    initial_caches:
        Optional ``{node: {neighbor: state}}`` — arbitrary (possibly
        incoherent) initial cache contents, Theorem 4's starting condition.
    token_predicate:
        Override of the own-view token predicate (the abl1 ablation passes
        the weak ``tra``-only condition here); default
        :meth:`CSTNode.holds_token`.
    dwell_model:
        Critical-section dwell between enabledness and rule execution (see
        :mod:`repro.messagepassing.node`); ``None`` executes rules inline in
        the receive handler.
    link_delay_overrides:
        Optional ``{(src, dst): DelayModel}`` giving individual link
        directions their own delay distribution — heterogeneous networks
        (one slow radio, asymmetric paths).  Unlisted directions use
        ``delay_model``.
    duplicate_probability:
        Bernoulli per-message duplication: a duplicated transmission is
        delivered twice at its (single) arrival instant, modelling a
        link-layer retransmit race without violating capacity one.
    use_fastpath:
        Build the packed message-passing engine
        (:class:`~repro.messagepassing.fastpath.network.FastCSTNetwork`)
        when possible (the default); ``False`` selects the reference DES.
        The packed engine is only used when the algorithm provides an
        ``mp_codec()`` and no custom ``token_predicate`` is installed —
        otherwise the reference object-graph engine is built, silently.
    """
    n = algorithm.n
    if len(initial_states) != n:
        raise ValueError(f"need {n} initial states, got {len(initial_states)}")
    delay_model = delay_model or FixedDelay(1.0)
    rng = random.Random(seed)
    queue = EventQueue()
    predicate = token_predicate or (lambda node: node.holds_token())

    network_ref: List[Optional[MessagePassingNetwork]] = [None]

    def state_changed(node: CSTNode, old: Any, new: Any) -> None:
        net = network_ref[0]
        if net is not None:
            net.observe()

    # CST caches the state of every process a node must *read*, and sends
    # its own state to every process that reads it.  The algorithm's ring
    # topology encodes both: bidirectional algorithms (SSRmin — its rules
    # and token predicates read both neighbours) cache and message both
    # directions; unidirectional ones (Dijkstra's SSToken reads only the
    # predecessor) need half the links and half the messages.
    ring = getattr(algorithm, "ring", None)
    if ring is not None:
        readable_of = ring.readable_neighbors
        recipients_of = ring.message_neighbors
    else:  # pragma: no cover - all shipped algorithms carry a ring
        readable_of = lambda i: ((i - 1) % n, (i + 1) % n)
        recipients_of = lambda i: ((i - 1) % n, (i + 1) % n)

    nodes: List[CSTNode] = []
    for i in range(n):
        cache_init = (initial_caches or {}).get(i)
        nodes.append(
            CSTNode(
                index=i,
                algorithm=algorithm,
                neighbors=readable_of(i),
                initial_state=initial_states[i],
                initial_cache=cache_init,
                on_state_change=state_changed,
                scheduler=queue.schedule,
                dwell_model=dwell_model,
                rng=rng,
            )
        )

    # Directed links: i -> j for every reader j of i's state, capacity one.
    def make_deliver(receiver: CSTNode):
        def deliver(payload: Any) -> None:
            sender, state = payload
            receiver.on_receive(sender, state)
            net = network_ref[0]
            if net is not None:
                # Cache updates can flip the receiver's own-view predicate
                # (and, for SSRmin, only the receiver's — predicates read
                # own state + caches only).
                net.observe()

        return deliver

    overrides = link_delay_overrides or {}
    for i in range(n):
        for j in recipients_of(i):
            nodes[i].links[j] = Link(
                queue=queue,
                deliver=make_deliver(nodes[j]),
                delay_model=overrides.get((i, j), delay_model),
                loss_probability=loss_probability,
                rng=rng,
                label=f"{i}->{j}",
                duplicate_probability=duplicate_probability,
            )

    # Engine dispatch: the packed fastpath needs a codec, the *default*
    # token predicate (custom predicates — the abl1 ablation — read facade
    # nodes arbitrarily), and every initial state/cache inside the packed
    # domain.  Anything else silently keeps the reference engine.
    codec = None
    if token_predicate is None:
        from repro.messagepassing.fastpath import resolve_mp_codec

        codec = resolve_mp_codec(algorithm, use_fastpath)
        if codec is not None and codec.bidirectional and n < 3:
            codec = None

    net: Optional[MessagePassingNetwork] = None
    if codec is not None:
        from repro.messagepassing.fastpath.network import FastCSTNetwork

        try:
            net = FastCSTNetwork(
                algorithm=algorithm,
                nodes=nodes,
                queue=queue,
                timer_interval=timer_interval,
                timer_jitter=timer_jitter,
                rng=rng,
                token_predicate=predicate,
                codec=codec,
            )
        except ValueError:
            # Out-of-domain initial state or cache value: the packed
            # encoding cannot represent it, so run the reference engine.
            net = None
    if net is None:
        net = MessagePassingNetwork(
            algorithm=algorithm,
            nodes=nodes,
            queue=queue,
            timer_interval=timer_interval,
            timer_jitter=timer_jitter,
            rng=rng,
            token_predicate=predicate,
        )
    net.seed = seed
    network_ref[0] = net
    return net
