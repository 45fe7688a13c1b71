"""Telemetry sessions end to end: network bridge, MessageTrace parity,
trace files and run manifests."""

import os
import random

from repro.core.ssrmin import SSRmin
from repro.daemons.distributed import BernoulliDaemon
from repro.messagepassing.cst import transformed
from repro.messagepassing.links import UniformDelay
from repro.messagepassing.trace import MessageTrace
from repro.simulation.convergence import converge
from repro.telemetry import (
    TraceStats,
    current_session,
    read_trace,
    telemetry_session,
)


def run_lossy_network(trace_path=None, seed=2, loss=0.1, horizon=60.0):
    """One seeded lossy CST run under a session, with a MessageTrace."""
    with telemetry_session(trace_path=trace_path) as session:
        alg = SSRmin(5, 6)
        net = transformed(alg, seed=seed, loss_probability=loss,
                          delay_model=UniformDelay(0.5, 1.5))
        mtrace = MessageTrace().attach(net)
        net.run(horizon)
    return session, net, mtrace


class TestAmbientContext:
    def test_no_session_by_default(self):
        assert current_session() is None

    def test_nesting_restores_outer(self):
        with telemetry_session() as outer:
            assert current_session() is outer
            with telemetry_session() as inner:
                assert current_session() is inner
            assert current_session() is outer
        assert current_session() is None


class TestNetworkBridge:
    def test_session_counters_match_link_statistics(self):
        session, net, _ = run_lossy_network()
        stats = net.message_stats()
        assert stats["lost"] > 0
        reg = session.registry
        assert reg.get("messages_sent_total").total() == stats["sent"]
        assert reg.get("messages_delivered_total").total() == stats["delivered"]
        assert reg.get("messages_lost_total").total() == stats["lost"]
        assert reg.get("timer_fires_total").total() > 0

    def test_net_start_descriptor_recorded(self):
        session, _, _ = run_lossy_network(seed=5)
        descriptors = [d for d in session.run_descriptors
                       if d["kind"] == "net_start"]
        assert len(descriptors) == 1
        d = descriptors[0]
        assert d["n"] == 5
        assert d["K"] == 6
        assert d["seed"] == 5
        assert d["engine"] == "FastCSTNetwork"
        with telemetry_session() as reference:
            transformed(SSRmin(5, 6), seed=5, use_fastpath=False).run(1.0)
        (ref,) = [d for d in reference.run_descriptors
                  if d["kind"] == "net_start"]
        assert ref["engine"] == "MessagePassingNetwork"


class TestMessageTraceParity:
    """MessageTrace (bus subscriber) and the session trace must agree."""

    def test_counts_match_on_same_seeded_run(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        session, net, mtrace = run_lossy_network(trace_path=trace_path)
        replay = TraceStats.from_file(trace_path)
        for kind in ("send", "deliver", "loss", "timer"):
            assert replay.messages.get(kind, 0) == len(mtrace.of_kind(kind)), kind
        assert replay.messages["loss"] > 0
        assert replay.messages["timer"] > 0
        stats = net.message_stats()
        assert replay.messages["send"] == stats["sent"]
        assert replay.messages["deliver"] == stats["delivered"]
        assert replay.messages["loss"] == stats["lost"]

    def test_detached_trace_without_session(self):
        # MessageTrace works standalone: network buses exist regardless of
        # whether a telemetry session is active.
        alg = SSRmin(5, 6)
        net = transformed(alg, seed=3, delay_model=UniformDelay(0.5, 1.5))
        mtrace = MessageTrace().attach(net)
        net.run(30.0)
        stats = net.message_stats()
        assert len(mtrace.of_kind("send")) == stats["sent"]
        assert len(mtrace.of_kind("deliver")) == stats["delivered"]


class TestTraceFile:
    def test_trace_file_is_seq_monotonic_and_complete(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        session, _, _ = run_lossy_network(trace_path=trace_path)
        events = read_trace(trace_path)
        assert len(events) == session.events_total
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_cap_records_dropped_events(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        with telemetry_session(trace_path=trace_path,
                               max_trace_events=10) as session:
            alg = SSRmin(5, 6)
            net = transformed(alg, seed=1,
                              delay_model=UniformDelay(0.5, 1.5))
            net.run(30.0)
        assert session.trace_truncated
        assert session.trace_dropped_events == session.events_total - 10
        assert len(read_trace(trace_path)) == 10

    def test_extra_subscribers_see_network_events(self):
        kinds = []
        with telemetry_session() as session:
            session.subscribe(lambda e: kinds.append(e.kind))
            alg = SSRmin(5, 6)
            net = transformed(alg, seed=4,
                              delay_model=UniformDelay(0.5, 1.5))
            net.run(20.0)
        assert "net_start" in kinds
        assert "send" in kinds
        assert "deliver" in kinds


class TestConvergenceInstrumentation:
    def test_convergence_histogram_observed(self):
        alg = SSRmin(5, 6)
        rng = random.Random(0)
        with telemetry_session() as session:
            results = [
                converge(alg, BernoulliDaemon(0.5, seed=s),
                         alg.random_configuration(rng))
                for s in range(16)
            ]
        hist = session.registry.get("convergence_steps")
        assert hist is not None
        assert hist.count(engine="scalar") == 16
        assert session.registry.get("steps_total").total() == sum(
            r.steps for r in results)


class TestInstrumentedExperiment:
    def test_manifest_and_trace_written(self, tmp_path):
        from repro.experiments.registry import run_experiment_instrumented
        from repro.observability.store import RunStore

        result, trace_path = run_experiment_instrumented(
            "fig04", fast=True, outdir=str(tmp_path), trace=True)
        assert result.match
        assert trace_path == str(tmp_path / "fig04" / "trace.jsonl")
        with RunStore(str(tmp_path / "store.sqlite")) as store:
            run = store.get_run("fig04")
        record = run["extra"]
        assert record["schema"] == 1
        assert record["command"] == "python -m repro run fig04 --fast"
        assert [p["label"] for p in record["phases"]] == ["resolve", "run"]
        assert record["fast"] is True
        assert record["match"] is True
        assert record["trace"]["file"] == trace_path
        assert not record["trace"]["truncated"]
        replay = TraceStats.from_file(trace_path)
        assert replay.events_total == record["events_total"]
        assert replay.seq_monotonic

    def test_manifest_only_when_trace_disabled(self, tmp_path):
        from repro.experiments.registry import run_experiment_instrumented
        from repro.observability.store import RunStore

        _, trace_path = run_experiment_instrumented(
            "lem1", fast=True, outdir=str(tmp_path), trace=False)
        assert trace_path is None
        assert os.listdir(tmp_path) == ["store.sqlite"]
        with RunStore(str(tmp_path / "store.sqlite")) as store:
            assert store.get_run("lem1")["extra"]["match"] is True
