"""Unit tests for cache coherence (Definition 2) and the tracker."""

import pytest

from repro.core.ssrmin import SSRmin
from repro.messagepassing.coherence import (
    CoherenceTracker,
    incoherent_entries,
    is_cache_coherent,
)
from repro.messagepassing.cst import transformed, transformed_from_chaos


class TestCoherencePredicate:
    def test_coherent_start(self):
        net = transformed(SSRmin(5, 6), seed=0)
        assert is_cache_coherent(net)
        assert incoherent_entries(net) == []

    def test_incoherent_after_corruption(self):
        net = transformed(SSRmin(5, 6), seed=0)
        net.start()
        net.corrupt_cache(0, 1, (5, 1, 1))
        assert not is_cache_coherent(net)
        assert (0, 1) in incoherent_entries(net)

    def test_incoherence_alternates_in_non_silent_execution(self):
        """The paper: non-silent algorithms alternate coherence and
        incoherence forever — both states occur along a run."""
        net = transformed(SSRmin(5, 6), seed=1)
        net.start()
        seen = set()
        for _ in range(200):
            net.run(0.5)
            seen.add(is_cache_coherent(net))
            if seen == {True, False}:
                break
        assert seen == {True, False}


class TestCoherenceTracker:
    def test_immediate_on_clean_start(self):
        net = transformed(SSRmin(5, 6), seed=2)
        tracker = CoherenceTracker(net)
        t = tracker.run_until_stabilized(max_time=100.0)
        assert t == pytest.approx(0.0, abs=1.0)

    def test_stabilizes_from_chaos(self):
        net = transformed_from_chaos(SSRmin(5, 6), seed=3)
        tracker = CoherenceTracker(net)
        t = tracker.run_until_stabilized(slice_duration=5.0, max_time=20_000)
        assert t >= 0.0
        assert tracker.stabilized_at == t

    def test_stabilizes_despite_loss(self):
        net = transformed_from_chaos(SSRmin(5, 6), seed=4,
                                     loss_probability=0.25)
        tracker = CoherenceTracker(net)
        t = tracker.run_until_stabilized(slice_duration=5.0, max_time=20_000)
        assert t >= 0.0

    @pytest.mark.parametrize("slice_duration", [0.0, -1.0])
    def test_non_positive_slice_rejected(self, slice_duration):
        """A slice that never advances the clock would loop forever."""
        net = transformed_from_chaos(SSRmin(5, 6), seed=3)
        tracker = CoherenceTracker(net)
        with pytest.raises(ValueError, match="slice_duration"):
            tracker.run_until_stabilized(slice_duration=slice_duration)

    def test_event_driven_detection(self):
        """The tracker hooks network observations, so fleeting coherent
        instants between polls are caught."""
        net = transformed_from_chaos(SSRmin(5, 6), seed=5)
        tracker = CoherenceTracker(net)
        net.start()
        # Run in large slices; only the observer hook can catch the instant.
        for _ in range(400):
            net.run(25.0)
            if tracker.stabilized_at is not None:
                break
        assert tracker.stabilized_at is not None
