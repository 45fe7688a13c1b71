"""Pluggable datagram transports for the live asyncio ring.

Three implementations share one tiny contract (:class:`Transport`):

* :class:`LoopbackTransport` — in-process delivery through the event loop.
  Every message still round-trips the wire format, so loopback runs
  exercise the exact serialization path UDP uses, just without sockets.
* :class:`MuxUdpTransport` — the one UDP transport: N rings multiplexed
  over a pool of localhost sockets (OS-assigned ports, so parallel test
  runs never collide).  Frames carry a ``ring_id`` in their header; the
  mux demultiplexes incoming datagrams to per-ring :class:`RingView`
  facades, each of which is a full :class:`Transport` a
  :class:`~repro.runtime.supervisor.RingSupervisor` can own.  A single
  UDP ring is a one-ring mux with one socket per node.  With
  ``batch=True`` frames posted in the same event-loop tick toward the
  same socket coalesce into one datagram
  (:func:`~repro.runtime.wire.pack_batch`), amortizing syscalls under
  load.
* :class:`ChaosTransport` — a decorator over either of the above that
  injects loss, extra delay, duplication, reorder and partitions from a
  seeded RNG; the knobs are mutable so a
  :class:`~repro.runtime.chaos.ChaosScript` can open and close fault
  windows while the ring runs.

Serialization is delegated to a per-transport :class:`~repro.runtime.
wire.Wire` (installed by the supervisor; defaults to JSON).  Per-node
wire overrides (:meth:`Transport.set_wire` with ``node=``) model
mixed-version rings: each node encodes with its own wire while the ring's
default wire decodes everything by sniffing, recording per-peer fallbacks.

Delivery is always *asynchronous with respect to the sender*: a send never
invokes the receiver's handler on the sender's stack (loopback uses
``call_soon``), mirroring real network decoupling and keeping CST's
receive-handler recursion bounded.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.runtime.wire import (
    MAX_BATCH_FRAMES,
    Wire,
    WireError,
    frame_format,
    pack_batch,
    parse_binary_header,
    parse_json_frame,
    split_frames,
)

#: ``deliver(sender, state)`` — a node's ingress callback.
Deliver = Callable[[int, Any], None]


class Transport:
    """Abstract point-to-point datagram transport between node indices."""

    def __init__(self, wire: Optional[Wire] = None) -> None:
        self._receivers: Dict[int, Deliver] = {}
        #: Default serializer (decode side + encode for nodes without an
        #: override).  Supervisors install the real one before boot.
        self.wire: Wire = wire if wire is not None else Wire("json")
        self._node_wires: Dict[int, Wire] = {}
        # -- statistics -----------------------------------------------------
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    # -- wire management -----------------------------------------------------
    def set_wire(self, wire: Wire, node: Optional[int] = None) -> None:
        """Install the ring's serializer, or a per-node encode override.

        ``node=None`` replaces the default wire (used to decode everything
        and to encode for nodes without an override).  ``node=i`` makes
        node ``i`` *speak* a different format — a mixed-version ring.
        """
        if node is None:
            self.wire = wire
        else:
            self._node_wires[node] = wire

    def wire_for(self, src: int) -> Wire:
        """The wire node ``src`` encodes with."""
        return self._node_wires.get(src, self.wire)

    # -- Transport contract --------------------------------------------------
    def register(self, index: int, deliver: Deliver) -> None:
        """Attach (or replace) the ingress callback for ``index``.

        Re-registration is how a restarted node takes over its identity —
        datagrams in flight toward a dead node are delivered to the new
        incarnation or dropped, never to the old object.
        """
        self._receivers[index] = deliver

    def unregister(self, index: int) -> None:
        """Detach ``index``; its datagrams are dropped until re-registered."""
        self._receivers.pop(index, None)

    async def start(self) -> None:
        """Bring the transport up (bind sockets, ...)."""

    def post(self, src: int, dst: int, state: Any) -> None:
        """Fire-and-forget one ``<state, q>`` message (synchronous API).

        Called from CST link ports inside the event loop; implementations
        must not block and must not deliver on the caller's stack.
        """
        raise NotImplementedError

    async def close(self) -> None:
        """Tear the transport down; in-flight messages may be dropped."""

    def stats(self) -> Dict[str, int]:
        """Delivery counters (decorators extend with their own)."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
        }

    # -- helpers for implementations ---------------------------------------
    def _handoff(self, dst: int, data: bytes) -> None:
        """Decode and deliver a received datagram to the ``dst`` callback."""
        deliver = self._receivers.get(dst)
        if deliver is None:
            self.dropped += 1
            return
        try:
            frames = self.wire.decode(data)
        except WireError:
            # A malformed datagram is treated as lost; the periodic CST
            # timer re-sends the state anyway (self-stabilization absorbs
            # arbitrary channel garbage).
            self.dropped += 1
            return
        for src, frame_dst, state in frames:
            if frame_dst is not None and frame_dst != dst:
                # Misrouted frame inside a batch; count it as lost rather
                # than delivering to the wrong node.
                self.dropped += 1
                continue
            self.delivered += 1
            deliver(src, state)


class LoopbackTransport(Transport):
    """In-process transport: encode, hop through the event loop, decode."""

    def __init__(self, wire: Optional[Wire] = None) -> None:
        super().__init__(wire)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    def post(self, src: int, dst: int, state: Any) -> None:
        if self._closed or self._loop is None:
            return
        self.sent += 1
        data = self.wire_for(src).encode(src, dst, state)
        self._loop.call_soon(self._handoff, dst, data)

    async def close(self) -> None:
        self._closed = True


# -- UDP: rings multiplexed over a socket pool --------------------------------

class _MuxDatagramProtocol(asyncio.DatagramProtocol):
    """One shared fleet socket; everything routes through the owner."""

    def __init__(self, owner: "MuxUdpTransport"):
        self.owner = owner

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.owner._ingress(data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        # ICMP errors are indistinguishable from loss for a
        # self-stabilizing ring.
        pass


class RingView(Transport):
    """One ring's :class:`Transport` facade over a shared fleet mux.

    A supervisor owns a view exactly like it owns a private transport;
    ``start``/``close`` acquire and release the underlying mux with
    refcounting, so the last ring out turns off the sockets.
    """

    def __init__(self, mux: "MuxUdpTransport", ring_id: int, n: int):
        # Even the default wire must stamp this ring's id, or frames from
        # bare views (no set_wire yet) would all demux to ring 0.
        super().__init__(wire=Wire("json", ring_id=ring_id))
        self.mux = mux
        #: Stamped into frames; supervisors build their wire from this.
        self.ring_id = ring_id
        self.n = n
        self._started = False

    async def start(self) -> None:
        if not self._started:
            self._started = True
            await self.mux.acquire()

    def post(self, src: int, dst: int, state: Any) -> None:
        if not self._started:
            return
        self.sent += 1
        data = self.wire_for(src).encode(src, dst, state)
        self.mux.send_frame(self.ring_id, dst, data)

    async def close(self) -> None:
        if self._started:
            self._started = False
            await self.mux.release(self.ring_id)


class MuxUdpTransport:
    """N rings multiplexed over a shared pool of UDP sockets.

    The mux binds ``sockets`` sockets *total* and addresses ``(ring_id,
    node)`` pairs to the home socket ``(ring_id + node) % sockets``, so a
    one-ring mux with ``sockets=n`` gives every node its own socket (the
    ``udp`` and ``udp-batch`` transports of
    :class:`~repro.runtime.supervisor.RingSupervisor`).  Incoming
    datagrams are demultiplexed by the ``ring_id`` stamped in every frame
    header (binary: one struct read; JSON: the ``"r"`` key) and handed to
    the owning :class:`RingView`, whose wire performs the real decode.

    Batching is on by default: all frames leaving in one event-loop tick
    toward the same destination socket coalesce into one datagram —
    across rings, which is the fleet's syscall amortization.
    """

    def __init__(
        self, host: str = "127.0.0.1", sockets: int = 1, batch: bool = True
    ):
        self.host = host
        self.num_sockets = max(1, int(sockets))
        self.batch = batch
        self._sockets: List[asyncio.DatagramTransport] = []
        self._addrs: List[Tuple[str, int]] = []
        self._views: Dict[int, RingView] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pending: Dict[int, List[bytes]] = {}
        self._flush_scheduled = False
        self._refs = 0
        self._started = False
        self._closed = False
        # -- statistics -----------------------------------------------------
        self.frames_out = 0
        self.frames_in = 0
        self.datagrams_out = 0
        self.datagrams_in = 0
        self.unroutable = 0

    # -- view lifecycle ------------------------------------------------------
    def view(self, ring_id: int, n: int) -> RingView:
        """Create the :class:`Transport` facade for ring ``ring_id``."""
        if ring_id in self._views:
            raise ValueError(f"ring {ring_id} already has a view")
        v = RingView(self, ring_id, n)
        self._views[ring_id] = v
        return v

    async def acquire(self) -> None:
        """Refcount a view in; first acquirer brings the socket pool up."""
        self._refs += 1
        await self.start()

    async def release(self, ring_id: int) -> None:
        """Refcount a view out; the last release closes the sockets."""
        self._views.pop(ring_id, None)
        self._refs -= 1
        if self._refs <= 0:
            await self.close()

    # -- socket pool ---------------------------------------------------------
    async def start(self) -> None:
        """Bind the shared socket pool (idempotent)."""
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        self._loop = loop
        for _ in range(self.num_sockets):
            transport, _ = await loop.create_datagram_endpoint(
                lambda: _MuxDatagramProtocol(self),
                local_addr=(self.host, 0),
            )
            self._sockets.append(transport)
            sockname = transport.get_extra_info("sockname")
            self._addrs.append((self.host, sockname[1]))

    async def close(self) -> None:
        """Tear down the socket pool and drop any unsent batches."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        for transport in self._sockets:
            transport.close()
        self._sockets.clear()
        await asyncio.sleep(0)

    @property
    def started(self) -> bool:
        """Whether the shared socket pool is currently up."""
        return self._started and not self._closed

    def _home(self, ring_id: int, node: int) -> int:
        """Deterministic home-socket index for a ``(ring, node)`` pair."""
        return (ring_id + node) % self.num_sockets

    # -- egress --------------------------------------------------------------
    def send_frame(self, ring_id: int, dst: int, frame: bytes) -> None:
        """Route one encoded frame toward ``(ring_id, dst)``'s home socket."""
        if self._closed or not self._started:
            return
        self.frames_out += 1
        home = self._home(ring_id, dst)
        if not self.batch:
            self.datagrams_out += 1
            self._sockets[home].sendto(frame, self._addrs[home])
            return
        self._pending.setdefault(home, []).append(frame)
        if not self._flush_scheduled and self._loop is not None:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        pending, self._pending = self._pending, {}
        if self._closed:
            return
        for home, frames in pending.items():
            sock, addr = self._sockets[home], self._addrs[home]
            for i in range(0, len(frames), MAX_BATCH_FRAMES):
                self.datagrams_out += 1
                sock.sendto(pack_batch(frames[i:i + MAX_BATCH_FRAMES]), addr)

    # -- ingress -------------------------------------------------------------
    def _ingress(self, data: bytes) -> None:
        self.datagrams_in += 1
        try:
            for frame in split_frames(data):
                # Codec-free routing parse: ring + destination only.  The
                # owning view's wire re-parses for the actual state (cheap
                # for binary — one struct read — and JSON is the slow
                # path by definition).
                if frame_format(frame) == "binary":
                    ring_id, _src, dst, _seq, _w = parse_binary_header(frame)
                else:
                    ring_id, _src, dst, _state = parse_json_frame(frame)
                view = self._views.get(ring_id)
                if view is None or dst is None:
                    self.unroutable += 1
                    continue
                self.frames_in += 1
                view._handoff(dst, frame)
        except WireError:
            self.unroutable += 1

    def stats(self) -> Dict[str, int]:
        """Fleet-level counters (per-ring counters live on the views)."""
        return {
            "sockets": self.num_sockets,
            "batched": int(self.batch),
            "frames_out": self.frames_out,
            "frames_in": self.frames_in,
            "datagrams_out": self.datagrams_out,
            "datagrams_in": self.datagrams_in,
            "unroutable": self.unroutable,
        }


class ChaosTransport(Transport):
    """Fault-injecting decorator over another transport.

    All knobs start neutral (no chaos); a chaos script opens fault windows
    by mutating them and closes the windows by restoring the defaults.
    Randomness is drawn from one seeded RNG, so a given script + seed
    injects the same loss/duplication decisions run after run.
    """

    def __init__(self, inner: Transport, seed: int = 0):
        super().__init__()
        self.inner = inner
        self.rng = random.Random(seed)
        # -- fault knobs ----------------------------------------------------
        #: Bernoulli per-message loss probability.
        self.loss_p = 0.0
        #: Extra per-message latency window ``[low, high]`` seconds.
        self.delay_range: Optional[Tuple[float, float]] = None
        #: Probability a message is sent twice.
        self.duplicate_p = 0.0
        #: Probability a message is held back ``reorder_jitter`` seconds
        #: (later messages overtake it — reordering).
        self.reorder_p = 0.0
        self.reorder_jitter = 0.05
        #: Directed edges currently cut (``(src, dst)``).
        self.cut_edges: Set[Tuple[int, int]] = set()
        # -- statistics -----------------------------------------------------
        self.injected_losses = 0
        self.injected_duplicates = 0
        self.injected_delays = 0
        self.blocked_by_partition = 0
        self._handles: List[asyncio.TimerHandle] = []
        self._closed = False

    # -- Transport contract (register/start/close proxy to inner) ----------
    def set_wire(self, wire: Wire, node: Optional[int] = None) -> None:
        # Serialization happens at the inner transport's post/handoff; the
        # chaos layer manipulates native (src, dst, state) triples only.
        self.inner.set_wire(wire, node)

    def wire_for(self, src: int) -> Wire:
        return self.inner.wire_for(src)

    def register(self, index: int, deliver: Deliver) -> None:
        self.inner.register(index, deliver)

    def unregister(self, index: int) -> None:
        self.inner.unregister(index)

    async def start(self) -> None:
        await self.inner.start()

    async def close(self) -> None:
        self._closed = True
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        await self.inner.close()

    # -- fault windows -------------------------------------------------------
    def cut(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Partition: cut the given edges in *both* directions."""
        for a, b in edges:
            self.cut_edges.add((a, b))
            self.cut_edges.add((b, a))

    def heal(self, edges: Optional[Iterable[Tuple[int, int]]] = None) -> None:
        """Restore cut edges (all of them when ``edges`` is None)."""
        if edges is None:
            self.cut_edges.clear()
            return
        for a, b in edges:
            self.cut_edges.discard((a, b))
            self.cut_edges.discard((b, a))

    def calm(self) -> None:
        """Reset every knob to the neutral (no chaos) position."""
        self.loss_p = 0.0
        self.delay_range = None
        self.duplicate_p = 0.0
        self.reorder_p = 0.0
        self.cut_edges.clear()

    # -- the data path -------------------------------------------------------
    def post(self, src: int, dst: int, state: Any) -> None:
        if self._closed:
            return
        self.sent += 1
        if (src, dst) in self.cut_edges:
            self.blocked_by_partition += 1
            return
        if self.loss_p > 0.0 and self.rng.random() < self.loss_p:
            self.injected_losses += 1
            return
        copies = 1
        if self.duplicate_p > 0.0 and self.rng.random() < self.duplicate_p:
            self.injected_duplicates += 1
            copies = 2
        delay = 0.0
        if self.delay_range is not None:
            delay += self.rng.uniform(*self.delay_range)
        if self.reorder_p > 0.0 and self.rng.random() < self.reorder_p:
            delay += self.rng.uniform(0.0, self.reorder_jitter)
        for _ in range(copies):
            if delay > 0.0:
                self.injected_delays += 1
                self._later(delay, src, dst, state)
            else:
                self.inner.post(src, dst, state)

    def _later(self, delay: float, src: int, dst: int, state: Any) -> None:
        loop = asyncio.get_running_loop()
        handle = loop.call_later(delay, self.inner.post, src, dst, state)
        self._handles.append(handle)
        # Bound the handle list: drop completed handles opportunistically.
        if len(self._handles) > 256:
            self._handles = [h for h in self._handles if not h.cancelled()
                             and h.when() > loop.time()]

    # -- statistics ----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Chaos counters plus the inner transport's delivery counters."""
        return {
            "sent": self.sent,
            "inner_sent": self.inner.sent,
            "delivered": self.inner.delivered,
            "dropped": self.inner.dropped,
            "injected_losses": self.injected_losses,
            "injected_duplicates": self.injected_duplicates,
            "injected_delays": self.injected_delays,
            "blocked_by_partition": self.blocked_by_partition,
        }
