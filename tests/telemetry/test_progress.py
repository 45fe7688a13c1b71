"""ProgressEmitter: throttling, rates and census, with fake clock/stream."""

import io

import pytest

from repro.telemetry import Event, ProgressEmitter


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def step_event(seq, step):
    return Event(seq, float(step), "engine", "step",
                 {"step": step, "moves": [[0, "R1"]]})


class TestProgressEmitter:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ProgressEmitter(interval=0)

    def test_throttled_by_wall_clock(self):
        clock, stream = FakeClock(), io.StringIO()
        emitter = ProgressEmitter(label="x", interval=2.0,
                                  stream=stream, clock=clock)
        for i in range(5):
            emitter(step_event(i, i))
        assert emitter.emitted == 0  # clock never advanced
        clock.now = 2.0
        emitter(step_event(5, 5))
        assert emitter.emitted == 1

    def test_rate_is_steps_per_window(self):
        clock, stream = FakeClock(), io.StringIO()
        emitter = ProgressEmitter(interval=1.0, stream=stream, clock=clock)
        for i in range(10):
            emitter(step_event(i, i))
        clock.now = 2.0
        emitter(step_event(10, 10))
        line = stream.getvalue()
        # 11 steps in a 2-second window -> 6/s after rounding
        assert "11 steps (6/s)" in line

    def test_counts_messages_and_census(self):
        clock, stream = FakeClock(), io.StringIO()
        emitter = ProgressEmitter(label="fig13", interval=1.0,
                                  stream=stream, clock=clock)
        emitter(Event(0, 0.0, "network", "send", {"src": 0, "dst": 1}))
        emitter(Event(1, 0.5, "network", "census", {"holders": [2, 4]}))
        clock.now = 1.0
        emitter(Event(2, 1.0, "network", "deliver", {"src": 0, "dst": 1}))
        line = stream.getvalue()
        assert line.startswith("[progress fig13]")
        assert "1 msgs" in line
        assert "census=2,4" in line

    def test_unknown_census_renders_question_mark(self):
        clock, stream = FakeClock(), io.StringIO()
        emitter = ProgressEmitter(interval=1.0, stream=stream, clock=clock)
        emitter.emit()
        assert "census=?" in stream.getvalue()
