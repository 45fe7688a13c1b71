"""Unit tests for the experiment-phase stopwatch."""

import pytest

from repro.analysis.profiling import Stopwatch


class TestStopwatch:
    def test_elapsed_positive(self):
        with Stopwatch() as sw:
            sum(range(1000))
        assert sw.elapsed > 0

    def test_splits_accumulate(self):
        with Stopwatch() as sw:
            sum(range(1000))
            a = sw.split("first")
            sum(range(1000))
            b = sw.split("second")
        assert [label for label, _ in sw.splits] == ["first", "second"]
        assert a >= 0 and b >= 0
        assert sw.elapsed >= a + b

    def test_unstarted_raises(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            _ = sw.elapsed
        with pytest.raises(RuntimeError):
            sw.split("x")
