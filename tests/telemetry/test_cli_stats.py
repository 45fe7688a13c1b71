"""CLI: `repro run` telemetry (store row + trace) and the `repro stats`
replay."""

import os

from repro.cli import main
from repro.observability.store import RunStore
from repro.telemetry import Event, write_events


class TestRunTelemetry:
    def test_run_writes_artifacts_and_stats_replays(self, tmp_path, capsys):
        outdir = str(tmp_path / "runs")
        assert main(["run", "lem1", "--fast",
                     "--telemetry-dir", outdir]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        trace = os.path.join(outdir, "lem1", "trace.jsonl")
        assert os.path.exists(trace)
        # The store and the trace are the whole record.
        assert sorted(os.listdir(outdir)) == ["lem1", "store.sqlite"]
        assert os.listdir(os.path.join(outdir, "lem1")) == ["trace.jsonl"]

        assert main(["stats", trace]) == 0
        out = capsys.readouterr().out
        assert "seq monotonic: True" in out

        # `runs show` prints what ran, from the row alone.
        assert main(["runs", "show", "lem1", "--store",
                     os.path.join(outdir, "store.sqlite")]) == 0
        out = capsys.readouterr().out
        assert "experiment: lem1" in out
        assert "command:    python -m repro run lem1 --fast" in out
        assert "version:    repro " in out and "created:    " in out
        assert "wall time:  " in out and "  phase run: " in out
        assert f"trace:      {trace}\n" in out

    def test_no_trace_flag(self, tmp_path, capsys):
        outdir = str(tmp_path / "runs")
        assert main(["run", "lem1", "--fast", "--telemetry-dir", outdir,
                     "--no-trace"]) == 0
        out = capsys.readouterr().out
        assert "trace.jsonl" not in out
        assert os.listdir(outdir) == ["store.sqlite"]
        with RunStore(os.path.join(outdir, "store.sqlite")) as store:
            assert store.get_run("lem1")["extra"]["trace"]["file"] is None

    def test_no_telemetry_flag(self, tmp_path, capsys):
        outdir = str(tmp_path / "runs")
        assert main(["run", "lem1", "--fast", "--telemetry-dir", outdir,
                     "--no-telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" not in out
        assert not os.path.exists(os.path.join(outdir, "lem1"))


    def test_batched_kernel_run_leaves_a_record(self, tmp_path, capsys):
        """ext4 runs on the batched kernel; its trace and store row still
        say what ran and how many steps it took."""
        outdir = str(tmp_path / "runs")
        assert main(["run", "ext4", "--fast",
                     "--telemetry-dir", outdir]) == 0
        capsys.readouterr()
        assert main(["stats", os.path.join(outdir, "ext4",
                                           "trace.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "events: 0" not in out
        assert "engine/run_start=3" in out
        assert "engine=batched" in out
        with RunStore(os.path.join(outdir, "store.sqlite")) as store:
            metrics = store.get_run("ext4")["extra"]["metrics"]
        steps = metrics["counters"]["steps_total"]["series"]
        histogram = metrics["histograms"]["convergence_steps"]["series"]
        assert histogram[0]["labels"] == {"engine": "batched"}
        assert histogram[0]["value"]["count"] == 3 * 200
        assert steps[0]["value"] == histogram[0]["value"]["sum"] > 0
        assert main(["runs", "show", "ext4", "--store",
                     os.path.join(outdir, "store.sqlite")]) == 0
        out = capsys.readouterr().out
        assert "steps_total = " in out
        assert "  engine/run_start: {" in out and "'batched'" in out


class TestStatsCommand:
    def test_non_monotonic_trace_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        write_events(path, [
            Event(1, 0.0, "engine", "step", {"step": 0, "moves": []}),
            Event(0, 1.0, "engine", "step", {"step": 1, "moves": []}),
        ])
        assert main(["stats", path]) == 1
        assert "seq monotonic: False" in capsys.readouterr().out
