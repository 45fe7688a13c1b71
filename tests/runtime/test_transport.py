"""Unit tests for the live transports and the wire format."""

import asyncio

import pytest

from repro.runtime.supervisor import _build_transport
from repro.runtime.transport import (
    ChaosTransport,
    LoopbackTransport,
    RingView,
)
from repro.runtime.wire import WireError, decode_message, encode_message


# -- wire format --------------------------------------------------------------

def test_wire_roundtrip_tuple_state():
    sender, state = 3, (2, (1, 0), (0, 1))
    assert decode_message(encode_message(sender, state)) == (sender, state)


def test_wire_roundtrip_int_state():
    assert decode_message(encode_message(0, 7)) == (0, 7)


@pytest.mark.parametrize("garbage", [
    b"", b"not json", b"[1,2]", b'{"v": 999, "s": 0, "q": 1}',
    b'{"v": 1, "q": 1}', b'{"v": 1, "s": "zero", "q": 1}',
])
def test_wire_rejects_garbage(garbage):
    with pytest.raises(WireError):
        decode_message(garbage)


# -- loopback -----------------------------------------------------------------

def _collect(transport, indices):
    """Register recording receivers; returns {index: [(sender, state)]}."""
    inbox = {i: [] for i in indices}

    def receiver(i):
        return lambda sender, state: inbox[i].append((sender, state))

    for i in indices:
        transport.register(i, receiver(i))
    return inbox


def test_loopback_delivers_between_registered_nodes():
    async def scenario():
        transport = LoopbackTransport()
        await transport.start()
        inbox = _collect(transport, [0, 1])
        transport.post(0, 1, (1, (0, 0), (0, 0)))
        transport.post(1, 0, 5)
        await asyncio.sleep(0)  # one loop tick: call_soon deliveries land
        await transport.close()
        return inbox, transport.stats()

    inbox, stats = asyncio.run(scenario())
    assert inbox[1] == [(0, (1, (0, 0), (0, 0)))]
    assert inbox[0] == [(1, 5)]
    assert stats["sent"] == 2 and stats["delivered"] == 2


def test_loopback_drops_for_unregistered_destination():
    async def scenario():
        transport = LoopbackTransport()
        await transport.start()
        _collect(transport, [0])
        transport.post(0, 9, 1)
        await asyncio.sleep(0)
        await transport.close()
        return transport.stats()

    stats = asyncio.run(scenario())
    assert stats["delivered"] == 0 and stats["dropped"] == 1


# -- udp: a one-ring mux view -------------------------------------------------

@pytest.mark.parametrize("spec", ["udp", "udp-batch"])
def test_udp_ring_is_a_one_ring_mux_with_a_socket_per_node(spec):
    view = _build_transport(spec, 3)
    assert isinstance(view, RingView)
    assert view.ring_id == 0
    assert view.mux.num_sockets == 3
    assert view.mux.batch is (spec == "udp-batch")
    # Every node of the ring is homed on its own socket.
    assert sorted(view.mux._home(0, node) for node in range(3)) == [0, 1, 2]


def test_udp_delivers_over_localhost_sockets():
    async def scenario():
        transport = _build_transport("udp", 3)
        await transport.start()
        inbox = _collect(transport, [0, 1, 2])
        transport.post(0, 1, (3, (1, 1), (0, 0)))
        transport.post(2, 0, (1, (0, 1), (1, 0)))
        for _ in range(50):
            await asyncio.sleep(0.01)
            if inbox[1] and inbox[0]:
                break
        await transport.close()
        return inbox

    inbox = asyncio.run(scenario())
    assert inbox[1] == [(0, (3, (1, 1), (0, 0)))]
    assert inbox[0] == [(2, (1, (0, 1), (1, 0)))]


# -- chaos decorator ----------------------------------------------------------

def test_chaos_full_loss_drops_everything():
    async def scenario():
        chaos = ChaosTransport(LoopbackTransport(), seed=1)
        await chaos.start()
        inbox = _collect(chaos, [0, 1])
        chaos.loss_p = 1.0
        for _ in range(10):
            chaos.post(0, 1, 7)
        await asyncio.sleep(0)
        await chaos.close()
        return inbox, chaos.stats()

    inbox, stats = asyncio.run(scenario())
    assert inbox[1] == []
    assert stats["injected_losses"] == 10
    assert stats["delivered"] == 0


def test_chaos_duplicate_delivers_twice():
    async def scenario():
        chaos = ChaosTransport(LoopbackTransport(), seed=1)
        await chaos.start()
        inbox = _collect(chaos, [0, 1])
        chaos.duplicate_p = 1.0
        chaos.post(0, 1, 7)
        await asyncio.sleep(0.01)
        await chaos.close()
        return inbox, chaos.stats()

    inbox, stats = asyncio.run(scenario())
    assert inbox[1] == [(0, 7), (0, 7)]
    assert stats["injected_duplicates"] == 1


def test_chaos_partition_cut_and_heal():
    async def scenario():
        chaos = ChaosTransport(LoopbackTransport(), seed=1)
        await chaos.start()
        inbox = _collect(chaos, [0, 1])
        chaos.cut([(0, 1)])  # cuts both directions
        chaos.post(0, 1, 1)
        chaos.post(1, 0, 2)
        await asyncio.sleep(0)
        blocked = dict(chaos.stats())
        chaos.heal([(0, 1)])
        chaos.post(0, 1, 3)
        await asyncio.sleep(0)
        await chaos.close()
        return inbox, blocked

    inbox, blocked = asyncio.run(scenario())
    assert blocked["blocked_by_partition"] == 2
    assert inbox[1] == [(0, 3)]
    assert inbox[0] == []


def test_chaos_calm_resets_all_knobs():
    async def scenario():
        chaos = ChaosTransport(LoopbackTransport(), seed=1)
        await chaos.start()
        inbox = _collect(chaos, [0, 1])
        chaos.loss_p = 1.0
        chaos.duplicate_p = 1.0
        chaos.cut([(0, 1)])
        chaos.calm()
        chaos.post(0, 1, 42)
        await asyncio.sleep(0)
        await chaos.close()
        return inbox

    inbox = asyncio.run(scenario())
    assert inbox[1] == [(0, 42)]


def test_chaos_delay_window_defers_delivery():
    async def scenario():
        chaos = ChaosTransport(LoopbackTransport(), seed=1)
        await chaos.start()
        inbox = _collect(chaos, [0, 1])
        chaos.delay_range = (0.03, 0.05)
        chaos.post(0, 1, 9)
        await asyncio.sleep(0)
        immediate = list(inbox[1])
        await asyncio.sleep(0.1)
        await chaos.close()
        return immediate, inbox[1], chaos.stats()

    immediate, eventual, stats = asyncio.run(scenario())
    assert immediate == []
    assert eventual == [(0, 9)]
    assert stats["injected_delays"] == 1


# -- send-side batching -------------------------------------------------------

def test_udp_batch_coalesces_datagrams():
    from repro.core.ssrmin import SSRmin
    from repro.runtime.wire import make_wire

    async def scenario():
        transport = _build_transport("udp-batch", 2)
        transport.set_wire(make_wire("binary", algorithm=SSRmin(5, 6)))
        await transport.start()
        inbox = _collect(transport, [0, 1])
        for i in range(20):
            transport.post(0, 1, (i % 6, (0, 0), (0, 0)))
        for _ in range(100):
            await asyncio.sleep(0.01)
            if len(inbox[1]) >= 20:
                break
        await transport.close()
        return inbox, transport.mux.stats()

    inbox, stats = asyncio.run(scenario())
    assert len(inbox[1]) == 20
    assert [s for _, s in inbox[1]] == [
        (i % 6, (0, 0), (0, 0)) for i in range(20)
    ]
    assert stats["batched"]
    # 20 same-tick posts to one peer coalesce into far fewer datagrams.
    assert stats["datagrams_out"] < 20


def test_udp_unbatched_sends_one_datagram_per_message():
    async def scenario():
        transport = _build_transport("udp", 2)
        await transport.start()
        inbox = _collect(transport, [0, 1])
        for i in range(5):
            transport.post(0, 1, i)
        for _ in range(100):
            await asyncio.sleep(0.01)
            if len(inbox[1]) >= 5:
                break
        await transport.close()
        return transport.stats(), transport.mux.stats()

    stats, mux = asyncio.run(scenario())
    assert stats["sent"] == stats["delivered"] == 5
    assert not mux["batched"]
    assert mux["datagrams_out"] == 5


# -- fleet mux ----------------------------------------------------------------

def test_mux_routes_frames_to_their_own_ring():
    from repro.runtime.transport import MuxUdpTransport

    async def scenario():
        mux = MuxUdpTransport(sockets=2, batch=True)
        ring_a = mux.view(0, 3)
        ring_b = mux.view(1, 3)
        inbox_a = _collect(ring_a, [0, 1, 2])
        inbox_b = _collect(ring_b, [0, 1, 2])
        await ring_a.start()
        await ring_b.start()
        ring_a.post(0, 1, "for-ring-a")
        ring_b.post(0, 1, "for-ring-b")
        for _ in range(100):
            await asyncio.sleep(0.01)
            if inbox_a[1] and inbox_b[1]:
                break
        stats = mux.stats()
        await ring_a.close()
        await ring_b.close()
        return inbox_a, inbox_b, stats

    inbox_a, inbox_b, stats = asyncio.run(scenario())
    # Same node indices on both rings, no cross-ring leakage.
    assert inbox_a[1] == [(0, "for-ring-a")]
    assert inbox_b[1] == [(0, "for-ring-b")]
    assert stats["sockets"] == 2
    assert stats["frames_in"] == 2
    assert stats["unroutable"] == 0


def test_mux_refcounts_socket_lifecycle():
    from repro.runtime.transport import MuxUdpTransport

    async def scenario():
        mux = MuxUdpTransport(sockets=1)
        ring_a = mux.view(0, 2)
        ring_b = mux.view(1, 2)
        await ring_a.start()
        await ring_b.start()
        await ring_a.close()   # pool must survive the first release
        alive_after_one = mux.started
        await ring_b.close()   # last release tears the sockets down
        return alive_after_one, mux.started

    alive_after_one, alive_after_both = asyncio.run(scenario())
    assert alive_after_one is True
    assert alive_after_both is False


def test_chaos_proxies_wire_to_inner_transport():
    from repro.core.ssrmin import SSRmin
    from repro.runtime.wire import make_wire

    inner = LoopbackTransport()
    chaos = ChaosTransport(inner, seed=1)
    wire = make_wire("binary", algorithm=SSRmin(5, 6))
    chaos.set_wire(wire)
    assert inner.wire is wire
    assert chaos.wire_for(0) is wire
    per_node = make_wire("json", algorithm=SSRmin(5, 6))
    chaos.set_wire(per_node, node=2)
    assert chaos.wire_for(2) is per_node
    assert chaos.wire_for(0) is wire
