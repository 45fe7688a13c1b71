"""End-to-end pipeline tests crossing several subsystems at once.

Each test exercises a realistic user workflow that touches three or more
subpackages — the seams unit tests cannot reach.
"""

import random

import pytest

from repro.analysis.census import census_execution
from repro.analysis.fairness import starvation_report
from repro.analysis.scaling import fit_power_law
from repro.analysis.tracefmt import format_trace
from repro.apps.mutex import CriticalSectionService
from repro.core.ssrmin import SSRmin
from repro.daemons.distributed import RandomSubsetDaemon
from repro.daemons.replay import ReplayDaemon
from repro.faults.injection import FaultInjector
from repro.messagepassing.cst import transformed
from repro.messagepassing.links import UniformDelay
from repro.messagepassing.trace import MessageTrace
from repro.simulation.engine import SharedMemorySimulator
from repro.simulation.serialize import load_execution, save_execution
from repro.verification.properties import (
    check_convergence_property,
    check_mutual_inclusion_property,
)


class TestRecordAnalyzeReplayPipeline:
    def test_full_loop(self, tmp_path):
        """simulate -> analyze -> serialize -> reload -> replay -> verify."""
        alg = SSRmin(6, 7)
        init = alg.random_configuration(random.Random(42))
        sim = SharedMemorySimulator(alg, RandomSubsetDaemon(seed=42))
        result = sim.run(init, max_steps=600,
                         stop_when=alg.is_legitimate)
        execution = result.execution

        # Analysis layer over the recorded run.
        census = census_execution(execution, alg.n)
        assert census.lemma5_holds
        fairness = starvation_report(execution, alg)
        total_moves = sum(len(step) for step in execution.moves)
        assert sum(fairness.selections.values()) == total_moves
        assert check_convergence_property(execution.configurations, alg)
        assert check_mutual_inclusion_property(execution.configurations, alg)

        # Persist and reload.
        path = tmp_path / "run.json"
        save_execution(execution, str(path),
                       algorithm_name="SSRmin", parameters={"n": 6, "K": 7},
                       configuration_class="Configuration")
        restored, meta = load_execution(str(path))
        assert meta["parameters"]["n"] == 6

        # Replay bit-exactly and render the trace.
        replay = SharedMemorySimulator(alg, ReplayDaemon(restored.selections()))
        replayed = replay.run(restored.initial, max_steps=restored.steps)
        assert [c.states for c in replayed.execution.configurations] == [
            c.states for c in restored.configurations
        ]
        text = format_trace(alg, replayed.execution.slice(0, 5))
        assert text.splitlines()[0].startswith("Step")


class TestFaultedNetworkServicePipeline:
    def test_service_survives_injected_faults(self):
        """camera service + message trace + fault injection + recovery."""
        alg = SSRmin(5, 6)
        net = transformed(alg, seed=7, delay_model=UniformDelay(0.5, 1.5))
        trace = MessageTrace().attach(net)
        service = CriticalSectionService(net)

        net.run(60.0)
        injector = FaultInjector(alg, seed=8)
        injector.hit_network_state(net, count=2)
        injector.hit_network_cache(net, count=2)
        net.run(300.0)

        # Messages flowed and obeyed the substrate discipline.
        assert trace.per_direction_fifo()
        assert trace.of_kind("deliver")

        # Service kept running: sessions exist for every node and the late
        # stretch of the run has full overlap again.
        counts = service.session_counts()
        assert all(counts[i] > 0 for i in range(5))
        late = [s for s in service.closed_sessions() if s.start > 200.0]
        assert late, "no sessions after recovery window"

    def test_timeline_and_service_agree(self):
        """Two independent observers of the same network must agree on
        total privileged time."""
        alg = SSRmin(5, 6)
        net = transformed(alg, seed=9, delay_model=UniformDelay(0.5, 1.5))
        service = CriticalSectionService(net)
        net.run(200.0)
        net.timeline.finish(net.queue.now)

        timeline_total = sum(
            (b - a) * len(h) for a, b, h in net.timeline.intervals()
        )
        service_total = sum(service.occupancy(i) for i in range(5))
        # Open sessions at the end account for any shortfall.
        open_time = sum(
            net.queue.now - s.start
            for per in service.sessions.values()
            for s in per
            if s.open
        )
        assert timeline_total == pytest.approx(service_total + open_time,
                                               rel=1e-6)


class TestScalingPipeline:
    def test_batch_sweep_to_fit(self):
        """batched sweep -> summary -> power-law fit, end to end."""
        from repro.analysis.statistics import summarize
        from repro.sweeps import SweepSpec, run_cells

        ns = (6, 12, 24)
        spec = SweepSpec(name="fit", n_values=ns, seeds=tuple(range(150)))
        cells = run_cells(spec)
        assert all(c["converged"] for c in cells)
        means = [
            summarize([c["steps"] for c in cells[i * 150:(i + 1) * 150]]).mean
            for i in range(len(ns))
        ]
        fit = fit_power_law(ns, means)
        assert 0.5 <= fit.exponent <= 2.2
        assert fit.r_squared > 0.9
