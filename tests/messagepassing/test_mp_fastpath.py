"""Differential suite for the packed message-passing fastpath.

Four layers of evidence that :class:`FastCSTNetwork` is the reference DES:

* **codec vs rule set** — exhaustive agreement of the packed local-view
  semantics (guard resolution, command execution, the own-view token
  predicate) with the reference ``RuleSet`` over *every* packable local
  view, for both shipped algorithms;
* **full-run lockstep** — seeded end-to-end runs under loss, random
  delays, duplication, slicing, transient corruption and link outages
  produce bit-identical observables (token timeline, states, caches,
  message statistics, event counts, final RNG state) on both engines;
* **golden traces** — the frozen fig13 corpus replays record-for-record
  on the packed engine and on the reference engine;
* **dispatch boundaries** — ``use_fastpath=False`` (the one engine switch)
  builds the reference engine, and out-of-scope setups (custom token
  predicates, codec-less algorithms, tiny bidirectional rings, unpackable
  states) silently keep it.

Whole-run comparisons that go through code with no ``use_fastpath``
argument (the fig13 golden run, sweep cells) select the reference engine
by taking away SSRmin's packed codec (``mp_codec`` returning ``None``).
"""

import json
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.messagepassing.coherence import CoherenceTracker
from repro.messagepassing.cst import (
    coherent_caches,
    legitimate_initial_states,
    transformed,
    transformed_from_chaos,
)
from repro.messagepassing.fastpath.codecs import DijkstraMPCodec, SSRminMPCodec
from repro.messagepassing.fastpath.network import FastCSTNetwork
from repro.messagepassing.links import ExponentialDelay, UniformDelay
from repro.messagepassing.network import build_cst_network
from repro.telemetry import telemetry_session


def fingerprint(net):
    """Everything two equivalent runs must agree on."""
    return {
        "timeline": tuple(net.timeline.points),
        "states": tuple(net.true_configuration()),
        "caches": tuple(
            tuple(sorted(node.cache.items())) for node in net.nodes
        ),
        "stats": net.message_stats(),
        "executed": net.queue.executed,
        "now": net.queue.now,
        "rng": net.rng.getstate(),
        "counters": tuple(
            (node.rules_executed, node.messages_received, node.timer_fires)
            for node in net.nodes
        ),
    }


def use_reference_engine(monkeypatch):
    """Take away SSRmin's packed codec: every SSRmin network is reference."""
    monkeypatch.setattr(SSRmin, "mp_codec", lambda self: None)


def net_engines(session):
    """The network classes that ran under ``session`` (from ``net_start``)."""
    return {d["engine"] for d in session.run_descriptors
            if d["kind"] == "net_start"}


def assert_lockstep(fast, ref):
    assert isinstance(fast, FastCSTNetwork)
    assert not isinstance(ref, FastCSTNetwork)
    fp_fast, fp_ref = fingerprint(fast), fingerprint(ref)
    for key in fp_ref:
        assert fp_fast[key] == fp_ref[key], f"diverged on {key}"


# ---------------------------------------------------------------------------
# codec vs reference rule set, exhaustively
# ---------------------------------------------------------------------------

def _exhaustive_codec_check(alg, codec, bidirectional):
    n = alg.n
    domain = range(codec.K << 2) if bidirectional else range(codec.K)
    succ_domain = domain
    for i in range(n):
        pred, succ = (i - 1) % n, (i + 1) % n
        for own in domain:
            for cpred in domain:
                for csucc in succ_domain:
                    view = [None] * n
                    view[i] = codec.unpack(own)
                    view[pred] = codec.unpack(cpred)
                    view[succ] = codec.unpack(csucc)
                    rid = codec.rule_id(own, cpred, csucc, i)
                    rule = alg.enabled_rule(view, i)
                    if rid:
                        assert rule is not None, (i, view)
                        assert codec.rule_names[rid] == rule.name, (i, view)
                        assert (
                            codec.unpack(codec.execute(rid, own, cpred, csucc, i))
                            == rule.execute(view, i)
                        ), (i, view)
                    else:
                        assert rule is None, (i, view)
                    assert (
                        codec.holds_token(own, cpred, csucc, i)
                        == alg.node_holds_token(view, i)
                    ), (i, view)


def test_ssrmin_codec_matches_rules_exhaustively():
    """All (own, cpred, csucc, i) packed local views at n=3, K=4."""
    alg = SSRmin(3, 4)
    _exhaustive_codec_check(alg, SSRminMPCodec(alg), bidirectional=True)


def test_dijkstra_codec_matches_rules_exhaustively():
    alg = DijkstraKState(3, 4)
    _exhaustive_codec_check(alg, DijkstraMPCodec(alg), bidirectional=False)


def test_codec_try_pack_rejects_out_of_domain():
    codec = SSRminMPCodec(SSRmin(5, 6))
    assert codec.try_pack((0, 0, 0)) == 0
    for bad in ((6, 0, 0), (-1, 1, 0), (0, 2, 0), "junk", None, (0, 0)):
        assert codec.try_pack(bad) is None
    dcodec = DijkstraMPCodec(DijkstraKState(5, 6))
    assert dcodec.try_pack(3) == 3
    for bad in (6, -1, "x", None, 2.5):
        assert dcodec.try_pack(bad) is None


@given(st.integers(0, 5), st.integers(0, 1), st.integers(0, 1))
def test_ssrmin_pack_roundtrip(x, rts, tra):
    codec = SSRminMPCodec(SSRmin(5, 6))
    state = (x, rts, tra)
    assert codec.unpack(codec.pack(state)) == state
    assert codec.try_pack(state) == codec.pack(state)


@given(st.integers(0, 7))
def test_dijkstra_pack_roundtrip(x):
    codec = DijkstraMPCodec(DijkstraKState(7, 8))
    assert codec.unpack(codec.pack(x)) == x


# ---------------------------------------------------------------------------
# full-run lockstep: fast engine vs reference, same seeds
# ---------------------------------------------------------------------------

def _both(builder, **kwargs):
    fast = builder(use_fastpath=True, **kwargs)
    ref = builder(use_fastpath=False, **kwargs)
    return fast, ref


@pytest.mark.parametrize("loss", [0.0, 0.3])
def test_lockstep_ssrmin_chaos_with_loss(loss):
    fast, ref = _both(
        transformed_from_chaos, algorithm=SSRmin(6, 7), seed=11,
        loss_probability=loss,
    )
    for net in (fast, ref):
        net.run(120.0)
    assert_lockstep(fast, ref)


def test_lockstep_ssrmin_legitimate_uniform_delay_sliced():
    fast, ref = _both(
        transformed, algorithm=SSRmin(5, 6), seed=3,
        delay_model=UniformDelay(0.5, 1.5),
    )
    for _ in range(7):
        for net in (fast, ref):
            net.run(13.0)
        assert_lockstep(fast, ref)


def test_lockstep_dijkstra_exponential_delay():
    fast, ref = _both(
        transformed_from_chaos, algorithm=DijkstraKState(6, 7), seed=5,
        delay_model=ExponentialDelay(0.2, 1.0), loss_probability=0.1,
    )
    for net in (fast, ref):
        net.run(150.0)
    assert_lockstep(fast, ref)


def test_lockstep_under_duplication():
    alg = SSRmin(5, 6)
    states = legitimate_initial_states(alg)

    def builder(use_fastpath):
        return build_cst_network(
            alg, states, initial_caches=coherent_caches(states, alg.n),
            duplicate_probability=0.2, loss_probability=0.1, seed=17,
            use_fastpath=use_fastpath,
        )

    fast, ref = _both(builder)
    for net in (fast, ref):
        net.run(150.0)
    assert_lockstep(fast, ref)
    assert fast.message_stats()["duplicated"] > 0


def test_lockstep_through_corruption_and_outage():
    fast, ref = _both(transformed, algorithm=SSRmin(5, 6), seed=9)
    for net in (fast, ref):
        net.run(30.0)
        net.corrupt_node(2, (3, 1, 1))
        net.corrupt_cache(1, 2, (0, 0, 1))
        net.fail_link(0, 1, 15.0)
        net.run(60.0)
    assert_lockstep(fast, ref)


def test_lockstep_literal_reading_under_loss_and_duplication():
    """``dwell_model=None``: rules execute inline in the delivery arm."""
    alg = SSRmin(5, 6)
    states = legitimate_initial_states(alg)

    def builder(use_fastpath):
        return build_cst_network(
            alg, states, initial_caches=coherent_caches(states, alg.n),
            dwell_model=None, delay_model=ExponentialDelay(1.0),
            loss_probability=0.2, duplicate_probability=0.2, seed=29,
            use_fastpath=use_fastpath,
        )

    fast, ref = _both(builder)
    for net in (fast, ref):
        net.run(150.0)
    assert_lockstep(fast, ref)
    stats = fast.message_stats()
    assert stats["duplicated"] > 0 and stats["lost"] > 0
    assert sum(node.rules_executed for node in fast.nodes) > 0


def test_lockstep_faults_scheduled_mid_slice():
    """Facade events on the shared queue run between packed events."""
    fast, ref = _both(transformed, algorithm=SSRmin(5, 6), seed=31)
    for net in (fast, ref):
        net.run(10.0)
        net.queue.schedule(
            3.25, lambda net=net: net.corrupt_node(3, (1, 1, 0)))
        net.queue.schedule(
            7.5, lambda net=net: net.corrupt_cache(2, 1, (4, 0, 1)))
        net.run(40.0)
    assert_lockstep(fast, ref)
    assert 13.25 in {point.time for point in fast.timeline.points}


def test_lockstep_direct_facade_writes_mid_slice():
    """A scheduled event that assigns facade state and cache entries
    directly takes effect at once, as on the reference engine."""
    fast, ref = _both(transformed, algorithm=SSRmin(5, 6), seed=33)

    def scribble(net):
        net.nodes[4].cache[0] = (2, 0, 0)
        net.nodes[1].state = (5, 0, 1)

    for net in (fast, ref):
        net.run(10.0)
        net.queue.schedule(4.5, lambda net=net: scribble(net))
        net.run(40.0)
    assert_lockstep(fast, ref)


def test_second_tracker_after_a_fault_matches():
    """A tracker built mid-life re-arms the native latch
    (``reset_stabilization``) and reports the next stabilization."""
    fast, ref = _both(transformed_from_chaos, algorithm=SSRmin(5, 6),
                      seed=37)
    times = []
    for net in (fast, ref):
        first = CoherenceTracker(net).run_until_stabilized(slice_duration=5.0)
        net.run(10.0)
        x = net.nodes[2].state[0]
        net.corrupt_node(2, ((x + 3) % 6, 1, 1))
        tracker = CoherenceTracker(net)
        assert tracker.stabilized_at is None
        times.append((first, tracker.run_until_stabilized(slice_duration=5.0)))
    assert times[0] == times[1]
    first, second = times[0]
    assert second > first + 10.0
    assert_lockstep(fast, ref)


def test_tracker_built_while_the_condition_holds_matches():
    """Built on a legitimate, coherent network whose latch is already set,
    a tracker reports the next observation point, not a later change."""
    fast, ref = _both(transformed, algorithm=SSRmin(5, 6), seed=47)
    times = []
    for net in (fast, ref):
        net.start()
        tracker = CoherenceTracker(net)
        net.run(5.0)
        times.append(tracker.stabilized_at)
    assert times[0] == times[1]
    assert 0.0 < times[0] < 5.0


def test_max_events_guard_trips_identically():
    fast, ref = _both(transformed_from_chaos, algorithm=SSRmin(6, 7), seed=41)
    for net in (fast, ref):
        with pytest.raises(RuntimeError, match="max_events=777"):
            net.run(500.0, max_events=777)
    assert fast.queue.executed == 778
    assert_lockstep(fast, ref)


def test_bus_streams_match_with_a_subscriber():
    """A subscriber sees the same send/deliver/loss/timer/census stream."""
    fast, ref = _both(transformed_from_chaos, algorithm=SSRmin(5, 6),
                      seed=43, loss_probability=0.2,
                      duplicate_probability=0.2)
    streams = []
    for net in (fast, ref):
        events = []
        net.bus.subscribe(events.append)
        net.run(80.0)
        records = [event.to_json() for event in events]
        for record in records:
            if record["kind"] == "net_start":
                record["payload"].pop("engine")
        streams.append(records)
    assert streams[0] == streams[1]
    kinds = {record["kind"] for record in streams[0]}
    assert {"send", "deliver", "loss", "timer", "census"} <= kinds
    assert_lockstep(fast, ref)


def test_lockstep_token_observables_mid_run():
    fast, ref = _both(transformed_from_chaos, algorithm=SSRmin(5, 6), seed=23)
    for _ in range(10):
        for net in (fast, ref):
            net.run(7.0)
        assert fast.token_holders() == ref.token_holders()
        assert fast.true_token_holders() == ref.true_token_holders()


# ---------------------------------------------------------------------------
# golden traces replay under both engines
# ---------------------------------------------------------------------------

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


@pytest.mark.parametrize("enabled", [True, False])
def test_fig13_golden_replays_under_both_engines(enabled, monkeypatch):
    from repro.experiments.golden import FIG13_FILE, fig13_timeline_records, read_jsonl

    frozen = read_jsonl(os.path.join(CORPUS, FIG13_FILE))
    if not enabled:
        use_reference_engine(monkeypatch)
    with telemetry_session() as session:
        fresh = [json.loads(json.dumps(r, sort_keys=True))
                 for r in fig13_timeline_records()]
    assert fresh == frozen
    assert net_engines(session) == {
        "FastCSTNetwork" if enabled else "MessagePassingNetwork"}


# ---------------------------------------------------------------------------
# dispatch boundaries
# ---------------------------------------------------------------------------

def test_codecless_algorithm_keeps_reference_engine():
    from repro.algorithms.base import RingAlgorithm

    class Plain(DijkstraKState):
        def mp_codec(self):
            return RingAlgorithm.mp_codec(self)

    net = transformed(Plain(4, 5))
    assert not isinstance(net, FastCSTNetwork)


def test_custom_token_predicate_keeps_reference_engine():
    alg = SSRmin(4, 5)
    states = legitimate_initial_states(alg)
    net = build_cst_network(
        alg, states, token_predicate=lambda node: node.state[2] == 1,
    )
    assert not isinstance(net, FastCSTNetwork)


def test_unpackable_initial_state_falls_back():
    alg = SSRmin(4, 5)
    states = legitimate_initial_states(alg)
    states[1] = (99, 0, 0)  # outside the K-domain: reference handles it
    net = build_cst_network(alg, states, use_fastpath=True)
    assert not isinstance(net, FastCSTNetwork)


# ---------------------------------------------------------------------------
# projection: packed guard resolution equals the reference path
# ---------------------------------------------------------------------------

def test_projection_codec_agrees_with_reference_path():
    from repro.messagepassing.projection import SynchronousCSTProjection

    alg = SSRmin(5, 6)
    rng = random.Random(31)
    for _ in range(25):
        states = list(alg.random_configuration(rng))
        packed = SynchronousCSTProjection(alg, states)
        plain = SynchronousCSTProjection(alg, states)
        plain._codec = None
        # random channel-phase perturbations on both shadows
        for _ in range(3):
            op = rng.randrange(3)
            src = rng.randrange(alg.n)
            dst = (src + rng.choice((-1, 1))) % alg.n
            for proj in (packed, plain):
                if op == 0:
                    proj.deliver_stale(src, dst)
                elif op == 1:
                    proj.deliver_current(src, dst, copies=2)
                else:
                    proj.corrupt_cache(dst, src, states[(src + 1) % alg.n])
        assert packed.enabled() == plain.enabled()
        assert packed.own_view_holders() == plain.own_view_holders()
        for i in range(alg.n):
            assert packed.rule_name(i) == plain.rule_name(i)
        if packed.enabled():
            pick = [packed.enabled()[0]]
            packed.apply(pick)
            plain.apply(pick)
            assert packed.states() == plain.states()


# ---------------------------------------------------------------------------
# Theorem-4 loss sweeps (repro.sweeps ``des`` cells)
# ---------------------------------------------------------------------------

def test_sweep_grid_order_and_engine_independence(monkeypatch):
    from dataclasses import replace

    from repro.sweeps import SweepSpec, run_cells

    grid = SweepSpec(name="grid", kind="des", n_values=(4,),
                     loss_rates=(0.0, 0.2), seeds=(0, 1), gap_duration=20.0)
    # run_thm4's fast-mode grid; its rows are a pure function of these cells.
    thm4 = SweepSpec(name="thm4", kind="des", n_values=(5,),
                     loss_rates=(0.0, 0.1, 0.3), seeds=(100, 101, 102),
                     slice_duration=5.0, max_time=20_000.0, gap_duration=100.0)

    def run(spec):
        with telemetry_session() as session:
            cells = run_cells(spec)
        return cells, net_engines(session)

    fast = {spec.name: run(spec) for spec in (grid, thm4)}
    # Grid order: each result is its cell run on its own.
    for cell, result in zip(grid.cells(), fast["grid"][0]):
        alone = replace(grid, loss_rates=(cell.params["loss"],),
                        seeds=(cell.seed,))
        assert run_cells(alone) == [result]

    use_reference_engine(monkeypatch)
    for spec in (grid, thm4):
        cells, engines = run(spec)
        assert engines == {"MessagePassingNetwork"}
        assert fast[spec.name] == (cells, {"FastCSTNetwork"})
