"""Unit tests for the command-line interface."""

import os

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig04" in out and "thm2" in out and "ext4" in out


class TestRun:
    def test_run_single_experiment(self, tmp_path, capsys):
        assert main(["run", "lem1", "--fast",
                     "--telemetry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out
        assert "lem1" in out

    def test_run_multiple(self, tmp_path, capsys):
        assert main(["run", "lem1", "fig02", "--fast",
                     "--telemetry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("REPRODUCED") == 2

    def test_unknown_experiment_raises(self, tmp_path):
        with pytest.raises(KeyError):
            main(["run", "nope", "--telemetry-dir", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    def test_no_telemetry_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "lem1", "--fast", "--no-telemetry"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestReport:
    def test_report_writes_file(self, tmp_path, capsys):
        # Restrict to a cheap subset via direct generate_report to keep the
        # test fast; the CLI path itself is exercised with one experiment.
        from repro.experiments.report import generate_report

        path = tmp_path / "EXP.md"
        text = generate_report(path=str(path), fast=True,
                               experiment_ids=["lem1", "fig03"])
        assert path.exists()
        assert path.read_text() == text
        assert "lem1" in text and "fig03" in text
        assert "2/2 experiments reproduced" in text


class TestDemo:
    def test_demo_renders(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "3.0.1PS/1" in out       # Figure 4 first cell
        assert "node  0" in out         # timeline strip
        assert "graceful-handover" in out


class TestArgparse:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestVerify:
    def test_ssrmin_passes(self, capsys):
        assert main(["verify", "ssrmin", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "SELF-STABILIZING" in out
        assert "worst-case convergence steps" in out

    def test_small_k_dijkstra_fails_with_nonzero_exit(self, capsys):
        assert main(["verify", "dijkstra", "-n", "3", "-K", "2"]) == 1
        out = capsys.readouterr().out
        assert "NOT self-stabilizing" in out

    def test_four_state(self, capsys):
        assert main(["verify", "four-state", "-n", "3"]) == 0

    def test_central_daemon_option(self, capsys):
        assert main(["verify", "dijkstra", "-n", "3", "--daemon",
                     "central"]) == 0
