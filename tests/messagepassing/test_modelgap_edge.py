"""Edge-case tests for model-gap evaluation semantics."""

import pytest

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.messagepassing.cst import transformed
from repro.messagepassing.links import UniformDelay
from repro.messagepassing.modelgap import GapReport, evaluate_gap


class TestGapReportSemantics:
    def test_tolerant_iff_zero_time_zero(self):
        for seed, alg in ((0, SSRmin(5, 6)), (1, DijkstraKState(5, 6))):
            net = transformed(alg, seed=seed,
                              delay_model=UniformDelay(0.5, 1.5))
            rep = evaluate_gap(net, duration=100.0)
            assert rep.tolerant == (rep.zero_time == 0.0)

    def test_zero_time_equals_interval_sum(self):
        net = transformed(DijkstraKState(5, 6), seed=2)
        rep = evaluate_gap(net, duration=100.0)
        assert rep.zero_time == pytest.approx(
            sum(b - a for a, b in rep.zero_intervals)
        )

    def test_counts_bound_interval_counts(self):
        net = transformed(SSRmin(5, 6), seed=3)
        rep = evaluate_gap(net, duration=80.0)
        assert rep.min_count <= rep.max_count

    def test_sampling_produces_requested_cadence(self):
        net = transformed(SSRmin(5, 6), seed=4)
        rep = evaluate_gap(net, duration=30.0, sample_observations=True,
                           sample_every=3.0)
        assert len(rep.observations) == 10
        times = [o.time for o in rep.observations]
        assert times == sorted(times)

    @pytest.mark.parametrize("warm, duration, every, count", [
        (0.0, 1.0, 0.1, 10),
        (0.0, 40.0, 0.8, 50),
        (2.5, 10.0, 3.0, 4),
    ])
    def test_sampling_takes_whole_steps_and_ends_exactly(
            self, warm, duration, every, count):
        """Sample times are start + j * every, the last exactly start +
        duration: summing slice lengths would drift (0.1 ten times is not
        1.0) into a sliver slice and an extra sample."""
        net = transformed(SSRmin(5, 6), seed=8)
        net.run(warm)
        rep = evaluate_gap(net, duration=duration, sample_observations=True,
                           sample_every=every)
        want = [warm + j * every for j in range(1, count)] + [warm + duration]
        assert [o.time for o in rep.observations] == want
        assert net.queue.now == warm + duration

    def test_sampling_rejects_non_positive_cadence(self):
        net = transformed(SSRmin(5, 6), seed=9)
        with pytest.raises(ValueError, match="sample_every"):
            evaluate_gap(net, duration=5.0, sample_observations=True,
                         sample_every=0.0)
        assert not net._started

    def test_observations_empty_without_sampling(self):
        net = transformed(SSRmin(5, 6), seed=5)
        rep = evaluate_gap(net, duration=20.0)
        assert rep.observations == []

    def test_runs_on_prestarted_network(self):
        net = transformed(SSRmin(5, 6), seed=6)
        net.start()
        net.run(10.0)
        rep = evaluate_gap(net, duration=50.0)
        assert rep.duration == 50.0


class TestCrossAlgorithmContrast:
    def test_ssrmin_strictly_dominates_sstoken_coverage(self):
        """The headline comparison, as a single number: SSRmin's coverage
        is strictly higher than transformed SSToken's for matched setups."""
        results = {}
        for name, alg in (("ssrmin", SSRmin(5, 6)),
                          ("sstoken", DijkstraKState(5, 6))):
            net = transformed(alg, seed=7, delay_model=UniformDelay(0.5, 1.5))
            net.run(200.0)
            net.timeline.finish(net.queue.now)
            results[name] = net.timeline.coverage_fraction()
        assert results["ssrmin"] == 1.0
        assert results["sstoken"] < 0.7
