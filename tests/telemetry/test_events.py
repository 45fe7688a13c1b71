"""Event bus semantics and event ordering across engine steps."""

import itertools

from repro.core.ssrmin import SSRmin
from repro.daemons.distributed import SynchronousDaemon
from repro.simulation.engine import SharedMemorySimulator
from repro.telemetry import Event, EventBus, telemetry_session


class TestEventBus:
    def test_publish_without_subscribers_returns_none(self):
        bus = EventBus()
        assert bus.publish("engine", "step", 1.0) is None
        assert not bus.active

    def test_publish_fans_out(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        event = bus.publish("network", "send", 2.5, src=0, dst=1)
        assert bus.active
        assert seen == [event]
        assert event.layer == "network"
        assert event.kind == "send"
        assert event.time == 2.5
        assert event.payload == {"src": 0, "dst": 1}

    def test_seq_increments_per_event(self):
        bus = EventBus()
        bus.subscribe(lambda e: None)
        a = bus.publish("engine", "step", 0.0)
        b = bus.publish("engine", "step", 1.0)
        assert b.seq == a.seq + 1

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        fn = bus.subscribe(seen.append)
        bus.unsubscribe(fn)
        bus.publish("engine", "step", 0.0)
        assert seen == []
        bus.unsubscribe(fn)  # no-op on absent subscriber

    def test_shared_sequencer_interleaves_monotonically(self):
        seq = itertools.count()
        bus_a, bus_b = EventBus(sequence=seq), EventBus(sequence=seq)
        seen = []
        bus_a.subscribe(seen.append)
        bus_b.subscribe(seen.append)
        bus_a.publish("engine", "step", 0.0)
        bus_b.publish("network", "send", 0.1)
        bus_a.publish("engine", "step", 1.0)
        seqs = [e.seq for e in seen]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_event_json_round_trip(self):
        event = Event(7, 3.25, "batch", "batch_step", {"step": 7, "active": 3})
        assert Event.from_json(event.to_json()) == event


class TestEngineEventOrdering:
    def run_engine(self, max_steps=40):
        events = []
        with telemetry_session() as session:
            session.subscribe(events.append)
            alg = SSRmin(5, 6)
            sim = SharedMemorySimulator(alg, SynchronousDaemon())
            result = sim.run(alg.initial_configuration(),
                             max_steps=max_steps, record=False)
        return events, result, session

    def test_seq_strictly_monotonic_across_steps(self):
        events, _, _ = self.run_engine()
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_run_start_precedes_steps_precede_run_end(self):
        events, _, _ = self.run_engine()
        kinds = [e.kind for e in events if e.layer == "engine"]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert all(k in ("step", "census") for k in kinds[1:-1])

    def test_run_start_names_the_engine(self):
        for use_fastpath, engine in ((True, "packed"), (False, "naive")):
            with telemetry_session() as session:
                alg = SSRmin(5, 6)
                sim = SharedMemorySimulator(alg, SynchronousDaemon(),
                                            use_fastpath=use_fastpath)
                sim.run(alg.initial_configuration(), max_steps=5,
                        record=False)
            (start,) = [d for d in session.run_descriptors
                        if d["kind"] == "run_start"]
            assert start["engine"] == engine

    def test_step_events_carry_moves(self):
        events, result, _ = self.run_engine()
        steps = [e for e in events if e.kind == "step"]
        assert len(steps) == result.steps
        for e in steps:
            for move in e.payload["moves"]:
                proc, rule = move
                assert 0 <= proc < 5
                assert rule in ("R1", "R2", "R3", "R4", "R5")

    def test_step_times_monotonic(self):
        events, _, _ = self.run_engine()
        times = [e.time for e in events if e.kind == "step"]
        assert times == sorted(times)

    def test_session_counters_match_events(self):
        events, result, session = self.run_engine()
        steps_total = session.registry.get("steps_total")
        assert steps_total is not None
        assert steps_total.total() == result.steps
        rule_fired = session.registry.get("rule_fired_total")
        moves = sum(len(e.payload["moves"])
                    for e in events if e.kind == "step")
        assert rule_fired.total() == moves
