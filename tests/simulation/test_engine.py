"""Unit tests for the shared-memory simulation engine."""

import os
import random
import subprocess
import sys

import pytest

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.daemons.distributed import RandomSubsetDaemon, SynchronousDaemon
from repro.daemons.replay import ReplayDaemon
from repro.simulation.engine import SharedMemorySimulator
from repro.simulation.monitors import Monitor


class TestRun:
    def test_rejects_negative_budget(self, ssrmin5):
        sim = SharedMemorySimulator(ssrmin5, SynchronousDaemon())
        with pytest.raises(ValueError):
            sim.run(ssrmin5.initial_configuration(), max_steps=-1)

    def test_zero_steps(self, ssrmin5):
        sim = SharedMemorySimulator(ssrmin5, SynchronousDaemon())
        result = sim.run(ssrmin5.initial_configuration(), max_steps=0)
        assert result.steps == 0
        assert len(result.execution) == 1

    def test_records_execution(self, ssrmin5):
        sim = SharedMemorySimulator(ssrmin5, SynchronousDaemon())
        result = sim.run(ssrmin5.initial_configuration(), max_steps=10)
        assert result.steps == 10
        assert len(result.execution) == 11
        assert result.execution.final == result.final_config

    def test_record_false_keeps_no_execution(self, ssrmin5):
        sim = SharedMemorySimulator(ssrmin5, SynchronousDaemon())
        result = sim.run(ssrmin5.initial_configuration(), max_steps=5,
                         record=False)
        assert result.execution is None

    def test_stop_when_predicate(self, ssrmin5):
        sim = SharedMemorySimulator(ssrmin5, RandomSubsetDaemon(seed=0))
        init = ssrmin5.random_configuration(random.Random(0))
        result = sim.run(init, max_steps=10_000,
                         stop_when=ssrmin5.is_legitimate)
        assert result.stopped_by_predicate
        assert ssrmin5.is_legitimate(result.final_config)

    def test_stop_when_checked_on_initial(self, ssrmin5):
        sim = SharedMemorySimulator(ssrmin5, SynchronousDaemon())
        init = ssrmin5.initial_configuration()
        result = sim.run(init, max_steps=100, stop_when=ssrmin5.is_legitimate)
        assert result.steps == 0 and result.stopped_by_predicate

    def test_no_deadlock_for_ssrmin(self, ssrmin5):
        """Lemma 4: SSRmin runs never deadlock."""
        sim = SharedMemorySimulator(ssrmin5, RandomSubsetDaemon(seed=1))
        for seed in range(5):
            init = ssrmin5.random_configuration(random.Random(seed))
            result = sim.run(init, max_steps=500, record=False)
            assert not result.deadlocked

    def test_daemon_reset_called_per_run(self, ssrmin5):
        daemon = ReplayDaemon([0])
        sim = SharedMemorySimulator(ssrmin5, daemon)
        init = ssrmin5.initial_configuration()
        sim.run(init, max_steps=1)
        # Without reset this second run would raise IndexError.
        sim.run(init, max_steps=1)

    def test_normalizes_raw_initial(self, ssrmin5):
        sim = SharedMemorySimulator(ssrmin5, SynchronousDaemon())
        raw = [(0, 0, 1)] + [(0, 0, 0)] * 4
        result = sim.run(raw, max_steps=1)
        from repro.core.state import Configuration

        assert isinstance(result.final_config, Configuration)

    def test_run_legitimate_lap_returns_rotated_anchor(self, ssrmin5):
        sim = SharedMemorySimulator(ssrmin5, SynchronousDaemon())
        result = sim.run_legitimate_lap(ssrmin5.initial_configuration(0), laps=1)
        assert result.final_config.states == \
            ssrmin5.initial_configuration(1).states


class TestMonitors:
    def test_monitor_sees_every_transition(self, ssrmin5):
        class Counter(Monitor):
            def __init__(self):
                self.starts = 0
                self.steps = 0
                self.finishes = 0

            def on_start(self, config):
                self.starts += 1

            def on_step(self, step, config, moves, next_config):
                self.steps += 1

            def on_finish(self, config):
                self.finishes += 1

        mon = Counter()
        sim = SharedMemorySimulator(ssrmin5, SynchronousDaemon(), monitors=[mon])
        sim.run(ssrmin5.initial_configuration(), max_steps=7)
        assert (mon.starts, mon.steps, mon.finishes) == (1, 7, 1)

    def test_moves_carry_rule_names(self, ssrmin5):
        sim = SharedMemorySimulator(ssrmin5, SynchronousDaemon())
        result = sim.run(ssrmin5.initial_configuration(), max_steps=3)
        rules = [m.rule for step in result.execution.moves for m in step]
        assert rules == ["R1", "R3", "R2"]

    def test_deterministic_replay_across_engines(self):
        alg = DijkstraKState(5, 6)
        init = alg.random_configuration(random.Random(9))
        r1 = SharedMemorySimulator(alg, RandomSubsetDaemon(seed=3)).run(
            init, max_steps=50
        )
        r2 = SharedMemorySimulator(alg, RandomSubsetDaemon(seed=3)).run(
            init, max_steps=50
        )
        assert r1.execution.configurations == r2.execution.configurations


def test_simulation_package_does_not_import_numpy():
    """The scalar engines need no numpy; only the batched kernel does."""
    code = ("import sys, repro.simulation, repro.simulation.fastpath\n"
            "assert 'numpy' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir,
                                     os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
