"""RingSupervisor: boots, monitors, heals and drains a live CST ring.

The supervisor owns everything one deployment needs:

* the **transport** (loopback, or UDP through a one-ring mux view,
  optionally chaos-wrapped);
* one :class:`~repro.runtime.server.RingNodeServer` per process;
* the **liveness watchdog** — a task that scans every server each
  ``watchdog_interval`` seconds and restarts any node whose heartbeat
  task died or whose last activity is older than ``wedge_timeout``,
  with per-node exponential backoff (restart storms on a sick host
  would otherwise amplify the outage);
* the **health monitor** (:mod:`repro.runtime.health`) notified at every
  state change, delivery and timer fire;
* **telemetry** — a structured event bus (layer ``runtime``) attached to
  the ambient :mod:`repro.telemetry` session, per-node metrics flushed
  into the session registry at teardown, and a run-report dict whose
  ``health`` block (with the verdict ``ok``) closes the run's row in the
  run store.

Restart semantics are deliberately brutal: a restarted node comes back
with an *arbitrary* (seeded-random) state and self-referential caches —
exactly the adversarial initial condition of Theorem 4 — and the ring
must re-stabilize around it.  That is the whole point of deploying a
self-stabilizing algorithm: the supervisor never needs state snapshots
or coordinated recovery.
"""

from __future__ import annotations

import asyncio
import math
import random
from typing import Any, Dict, List, Optional, Union

from repro.algorithms.base import RingAlgorithm
from repro.messagepassing.links import DelayModel, FixedDelay
from repro.runtime.chaos import ChaosDirector, ChaosScript
from repro.runtime.health import HealthMonitor
from repro.runtime.server import RingNodeServer
from repro.runtime.transport import (
    ChaosTransport,
    LoopbackTransport,
    MuxUdpTransport,
    Transport,
)
from repro.runtime.wire import Wire, make_wire
from repro.telemetry.events import EventBus
from repro.telemetry.session import current_session


def _build_transport(spec: Union[str, Transport], n: int) -> Transport:
    """``loopback``, or a UDP ring: a one-ring mux whose ``n`` sockets
    give every node its own (``udp-batch`` coalesces per socket)."""
    if isinstance(spec, Transport):
        return spec
    if spec == "loopback":
        return LoopbackTransport()
    if spec in ("udp", "udp-batch"):
        mux = MuxUdpTransport(sockets=n, batch=spec == "udp-batch")
        return mux.view(0, n)
    raise ValueError(f"unknown transport {spec!r} (loopback, udp, udp-batch)")


class RingSupervisor:
    """Deploys one algorithm instance as a live asyncio ring.

    Parameters
    ----------
    algorithm:
        The (already CST-transformable) ring algorithm to deploy.
    transport:
        ``"loopback"``, ``"udp"``, ``"udp-batch"``, or a ready
        :class:`Transport` (e.g. a fleet mux :class:`~repro.runtime.
        transport.RingView`).
    chaos:
        Wrap the transport in a :class:`ChaosTransport` (needed to run
        scripts with transport fault windows).
    wire:
        ``"json"``, ``"binary"``, or a ready :class:`~repro.runtime.wire.
        Wire`.  Installed on the (innermost) transport before boot; the
        binary format requires the algorithm to expose a packed
        ``mp_codec()``.  A peer speaking the other format triggers a
        structured ``wire_fallback`` incident on the event bus instead of
        an error.
    initial:
        ``"legitimate"`` starts from a legitimate configuration with
        coherent caches (Theorem 3's hypothesis); ``"random"`` from
        uniformly random states and self-referential caches (Theorem 4's);
        or pass an explicit list of local states.
    seed:
        Master seed: derives per-node RNGs, the fault-value RNG and the
        chaos transport RNG.
    timer_interval, timer_jitter, dwell, min_gap:
        Real-time cadences (seconds); see :class:`RingNodeServer`.
        ``timer_interval`` must be finite and positive (else
        :class:`ValueError`).
    watchdog_interval, wedge_timeout:
        Liveness scan period and the no-activity threshold that counts as
        wedged.  ``wedge_timeout`` defaults to ``6 * timer_interval``.
    backoff_base, backoff_cap:
        Exponential restart backoff: ``base * 2**(consecutive-1)``, capped.
    """

    def __init__(
        self,
        algorithm: RingAlgorithm,
        transport: Union[str, Transport] = "loopback",
        chaos: bool = False,
        wire: Union[str, Wire] = "json",
        initial: Union[str, List[Any]] = "legitimate",
        seed: int = 0,
        timer_interval: float = 0.2,
        timer_jitter: float = 0.1,
        dwell: Optional[DelayModel] = None,
        min_gap: float = 0.005,
        watchdog_interval: float = 0.1,
        wedge_timeout: Optional[float] = None,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        chatty: bool = False,
    ):
        if not (math.isfinite(timer_interval) and timer_interval > 0):
            raise ValueError("timer_interval must be finite and positive, "
                             f"got {timer_interval}")
        self.algorithm = algorithm
        self.n = algorithm.n
        self.seed = seed
        self.rng = random.Random(seed)
        #: Fault-value RNG (corrupt-state/corrupt-cache draws), separate
        #: stream so chaos values don't perturb node jitter sequences.
        self.fault_rng = random.Random(seed ^ 0x5EED)
        self.timer_interval = timer_interval
        self.timer_jitter = timer_jitter
        self.dwell = dwell if dwell is not None else FixedDelay(
            max(0.01, timer_interval / 10)
        )
        self.min_gap = min_gap
        self.watchdog_interval = watchdog_interval
        self.wedge_timeout = (
            wedge_timeout if wedge_timeout is not None
            else 6 * timer_interval
        )
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.chatty = chatty

        base = _build_transport(transport, self.n)
        self.transport_name = (
            transport if isinstance(transport, str) else type(base).__name__
        )
        # The wire lives on the innermost transport (where encode/decode
        # happen); the ring id comes from the transport when it has one
        # (a fleet mux view), else 0.
        if isinstance(wire, Wire):
            self.wire = wire
        else:
            self.wire = make_wire(
                wire,
                algorithm=algorithm,
                ring_id=getattr(base, "ring_id", 0),
                on_fallback=self._wire_fallback,
            )
        base.set_wire(self.wire)
        self.chaos: Optional[ChaosTransport] = (
            ChaosTransport(base, seed=seed ^ 0xC4A05) if chaos else None
        )
        self.transport: Transport = self.chaos if chaos else base

        self.initial = initial
        self.servers: List[RingNodeServer] = []
        self.health: HealthMonitor = None  # type: ignore[assignment]
        self._t0 = 0.0
        self._watchdog_task: Optional[asyncio.Task] = None
        self._handles: List[asyncio.TimerHandle] = []
        self._backoff: Dict[int, int] = {}
        self._next_restart_at: Dict[int, float] = {}
        self._booted = False
        self._last_census: Optional[int] = None
        self.total_restarts = 0
        self.crashes_requested = 0

        tel = current_session()
        self.bus = EventBus(sequence=tel.sequence if tel is not None else None)
        if tel is not None:
            tel.attach_bus(self.bus)

    # -- clock / telemetry ---------------------------------------------------
    def clock(self) -> float:
        """Seconds since boot (monotonic)."""
        return asyncio.get_running_loop().time() - self._t0

    def publish(self, kind: str, **payload) -> None:
        """Emit a runtime-layer event on the bus at the current run time."""
        self.bus.publish("runtime", kind, self.clock(), **payload)

    def track_handle(self, handle: asyncio.TimerHandle) -> None:
        """Register a timer handle for cancellation at shutdown."""
        self._handles.append(handle)

    def _wire_fallback(self, peer: int, received: str) -> None:
        """Structured incident: a peer speaks the other wire format.

        Fired once per peer by the wire's sniffing decoder — the mixed-
        version ring keeps running, but operators (and the run store's
        incident table) see the negotiation happen.
        """
        self.publish(
            "wire_fallback",
            node=peer,
            spoken=self.wire.format,
            received=received,
        )

    # -- boot ----------------------------------------------------------------
    def _initial_states(self) -> List[Any]:
        if isinstance(self.initial, str):
            if self.initial == "legitimate":
                from repro.messagepassing.cst import legitimate_initial_states

                return legitimate_initial_states(self.algorithm)
            if self.initial == "random":
                return list(self.algorithm.random_configuration(self.rng))
            raise ValueError(
                f"initial must be 'legitimate', 'random' or a state list, "
                f"got {self.initial!r}"
            )
        return list(self.initial)

    def _make_server(
        self, i: int, state: Any, cache: Optional[Dict[int, Any]]
    ) -> RingNodeServer:
        return RingNodeServer(
            index=i,
            algorithm=self.algorithm,
            transport=self.transport,
            initial_state=state,
            initial_cache=cache,
            timer_interval=self.timer_interval,
            timer_jitter=self.timer_jitter,
            dwell_model=self.dwell,
            min_gap=self.min_gap,
            rng=random.Random(self.rng.getrandbits(64)),
            on_event=self._node_event,
            chatty=self.chatty,
        )

    async def boot(self) -> None:
        """Bind the transport, build and start every node, arm the watchdog."""
        if self._booted:
            raise RuntimeError("supervisor already booted")
        self._booted = True
        loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        await self.transport.start()

        states = self._initial_states()
        caches: List[Optional[Dict[int, Any]]] = [None] * self.n
        if self.initial == "legitimate":
            from repro.messagepassing.cst import coherent_caches

            coherent = coherent_caches(states, self.n)
            caches = [coherent[i] for i in range(self.n)]

        self.health = HealthMonitor(
            self.algorithm, lambda: [s.node for s in self.servers], self.clock
        )
        # Epoch lifecycle onto the bus: the run-store ingester and the
        # `repro top` dashboard consume these live.
        self.health.on_epoch_open = lambda index, epoch: self.publish(
            "epoch_open", index=index, label=epoch.label,
            started_at=epoch.started_at,
        )
        self.health.on_epoch_stabilized = lambda index, epoch: self.publish(
            "epoch_stabilized", index=index, label=epoch.label,
            stabilized_at=epoch.stabilized_at,
            time_to_stabilize=epoch.time_to_stabilize,
        )
        # The record's "time" key would collide with the bus timestamp
        # parameter; republish it as "at".
        self.health.on_violation = lambda record: self.publish(
            "violation",
            **{("at" if k == "time" else k): v for k, v in record.items()},
        )
        self.servers = [
            self._make_server(i, states[i], caches[i]) for i in range(self.n)
        ]
        self.publish(
            "run_start",
            algorithm=type(self.algorithm).__name__,
            n=self.n,
            K=getattr(self.algorithm, "K", None),
            seed=self.seed,
            transport=self.transport_name,
            chaos=self.chaos is not None,
            wire=self.wire.format,
            timer_interval=self.timer_interval,
            initial=self.initial if isinstance(self.initial, str) else "explicit",
        )
        for server in self.servers:
            server.start()
            self.publish("node_start", node=server.index)
        self.health.notify()
        self._watchdog_task = loop.create_task(
            self._watchdog_loop(), name="ring-watchdog"
        )

    # -- node events ---------------------------------------------------------
    def _node_event(self, kind: str, **fields) -> None:
        node = fields["node"]
        if kind == "state_change":
            self.publish("state_change", node=node,
                         new=list(fields["new"])
                         if isinstance(fields["new"], tuple)
                         else fields["new"])
        # Looked up per call (not cached as a bound method) so that a
        # wrapper installed on ``HealthMonitor.notify`` sees every event.
        self.health.notify(self.servers[node].node)
        census = self.health.census
        if census.mask != self._last_census:
            self._last_census = census.mask
            if self.bus.active:
                self.publish("census", holders=list(census.holders()),
                             legitimate=census.legitimate(),
                             coherent=census.stale == 0)

    # -- the liveness watchdog -----------------------------------------------
    async def _watchdog_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.watchdog_interval)
            now = loop.time()
            for i, server in enumerate(self.servers):
                wedged = server.running and (
                    not server.alive
                    or now - server.last_activity > self.wedge_timeout
                )
                dead = not server.running
                if not (wedged or dead):
                    self._backoff.pop(i, None)
                    continue
                due = self._next_restart_at.get(i, 0.0)
                if now < due:
                    continue
                self._restart(i, reason="wedged" if wedged else "dead")

    def _restart(self, i: int, reason: str) -> None:
        """Replace server ``i`` with a fresh arbitrary-state incarnation."""
        loop = asyncio.get_running_loop()
        old = self.servers[i]
        restarts = old.restarts + 1
        old.crash()
        consecutive = self._backoff.get(i, 0) + 1
        self._backoff[i] = consecutive
        backoff = min(
            self.backoff_base * (2 ** (consecutive - 1)), self.backoff_cap
        )
        self._next_restart_at[i] = loop.time() + backoff
        state = self.algorithm.random_local_state(self.fault_rng)
        server = self._make_server(i, state, None)
        server.restarts = restarts
        self.servers[i] = server
        self.total_restarts += 1
        server.start()
        # A restart is a transient fault from the ring's point of view.
        self.health.note_disturbance(f"restart-{i}")
        self.health.notify(server.node)
        self.publish("node_restart", node=i, reason=reason,
                     backoff=backoff, restarts=restarts)

    # -- fault entry points (chaos director / tests / operators) -------------
    def kill(self, i: int) -> None:
        """``kill -9`` node ``i``; the watchdog will restart it."""
        self.crashes_requested += 1
        self.servers[i].crash()
        self.health.note_disturbance(f"crash-{i}")
        self.publish("node_crash", node=i)

    def wedge(self, i: int) -> None:
        """Silently hang node ``i``: its heartbeat dies but the process
        still looks alive (deliveries keep landing).  The liveness
        watchdog must detect the missing activity and restart it — the
        fault ``repro.chaoslab``'s ``wedge`` FaultType compiles to."""
        server = self.servers[i]
        if server._timer_task is not None:
            server._timer_task.cancel()
        self.health.note_disturbance(f"wedge-{i}")
        self.publish("fault", fault="wedge", node=i)

    def corrupt_state(self, i: int, value: Any = None) -> None:
        """Transient fault: overwrite node ``i``'s local state."""
        if value is None:
            value = self.algorithm.random_local_state(self.fault_rng)
        node = self.servers[i].node
        old = node.state
        node.state = value
        self.health.note_disturbance(f"corrupt-state-{i}")
        self.publish("fault", fault="corrupt-state", node=i)
        if node.on_state_change is not None:
            node.on_state_change(node, old, value)

    def corrupt_cache(self, i: int, neighbor: int, value: Any = None) -> None:
        """Transient fault: overwrite one cache entry of node ``i``."""
        if value is None:
            value = self.algorithm.random_local_state(self.fault_rng)
        node = self.servers[i].node
        if neighbor not in node.cache:
            raise ValueError(f"node {i} has no cache entry for {neighbor}")
        node.cache[neighbor] = value
        self.health.note_disturbance(f"corrupt-cache-{i}")
        self.publish("fault", fault="corrupt-cache", node=i, neighbor=neighbor)
        self.health.notify(node)

    # -- run modes -----------------------------------------------------------
    async def run_for(self, duration: float) -> None:
        """Let the ring run for ``duration`` seconds."""
        if not self._booted:
            await self.boot()
        await asyncio.sleep(duration)

    async def run_chaos(self, script: ChaosScript) -> None:
        """Execute a chaos script to completion (boots if needed)."""
        if not self._booted:
            await self.boot()
        director = ChaosDirector(script, self)
        self.publish("chaos_script", **script.to_json())
        await director.run()

    async def wait_stabilized(
        self, timeout: float, poll: float = 0.02
    ) -> float:
        """Block until the current epoch stabilizes; returns the latency.

        Raises :class:`TimeoutError` when ``timeout`` elapses first.
        """
        if not self._booted:
            await self.boot()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not self.health.stabilized:
            if loop.time() >= deadline:
                raise TimeoutError(
                    f"ring did not stabilize within {timeout:.1f}s "
                    f"(epoch {self.health.current_epoch.label!r})"
                )
            await asyncio.sleep(poll)
        return self.health.current_epoch.time_to_stabilize  # type: ignore

    # -- teardown ------------------------------------------------------------
    async def shutdown(self) -> None:
        """Graceful drain: watchdog off, nodes drained, transport closed."""
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        for server in self.servers:
            await server.drain()
        # One grace tick so already-queued deliveries land before close.
        await asyncio.sleep(0)
        await self.transport.close()
        self._flush_metrics()
        self.publish("run_end", restarts=self.total_restarts,
                     **self.report()["health"])

    def _flush_metrics(self) -> None:
        """Write per-node counters into the ambient session registry."""
        tel = current_session()
        if tel is None:
            return
        reg = tel.registry
        for server in self.servers:
            stats = server.stats()
            labels = {"node": server.index}
            reg.counter("live_rules_executed_total",
                        "rules executed by live nodes").inc(
                stats["rules_executed"], **labels)
            reg.counter("live_messages_sent_total",
                        "datagrams sent by live nodes").inc(
                stats["sent"], **labels)
            reg.counter("live_messages_received_total",
                        "datagrams received by live nodes").inc(
                stats["messages_received"], **labels)
            reg.counter("live_timer_fires_total",
                        "interval-timer fires on live nodes").inc(
                stats["timer_fires"], **labels)
        reg.counter("live_node_restarts_total",
                    "watchdog-initiated node restarts").inc(
            self.total_restarts)

    # -- reporting -----------------------------------------------------------
    def report(self) -> dict:
        """JSON-able run report.

        Its ``health`` block also rides on the ``run_end`` event, which is
        how the run store's row gets its health columns and verdict; a
        finished report can be recorded with
        :func:`~repro.observability.ingest.ingest_live_report`.
        """
        per_node = {str(s.index): s.stats() for s in self.servers}
        transport_stats: Dict[str, Any] = (
            self.chaos.stats() if self.chaos is not None
            else self.transport.stats()
        )
        return {
            "algorithm": type(self.algorithm).__name__,
            "n": self.n,
            "K": getattr(self.algorithm, "K", None),
            "seed": self.seed,
            "transport": self.transport_name,
            "chaos": self.chaos is not None,
            "wire": self.wire.stats(),
            "timer_interval": self.timer_interval,
            "wall_clock": self.clock() if self._booted else 0.0,
            "restarts": self.total_restarts,
            "crashes_requested": self.crashes_requested,
            "health": self.health.to_json() if self.health else {},
            "nodes": per_node,
            "transport_stats": transport_stats,
        }

    @property
    def ok(self) -> bool:
        """Healthy: stabilized after the last disturbance, guarantee held."""
        return self.health is not None and self.health.ok
