"""Every registered experiment must reproduce its paper claim (fast mode).

This is the suite-level statement of deliverable (d): all figures, theorems
and ablations regenerate with the paper's shape.
"""

import pytest

from repro.experiments.registry import list_experiments, run_experiment

# thm2/thm4/abl2 take a few seconds even in fast mode; still worth running.
ALL_IDS = list_experiments()


@pytest.mark.parametrize("eid", ALL_IDS)
def test_experiment_reproduces(eid):
    result = run_experiment(eid, fast=True)
    assert result.match, result.render()


def test_fig04_trace_is_exact():
    """The strictest check: Figure 4 byte-for-byte (cells)."""
    from repro.experiments.runners_figures import FIG4_EXPECTED, run_fig04

    result = run_fig04(fast=True)
    assert result.match
    assert len(FIG4_EXPECTED) == 16
    assert [row[1:] for row in result.rows] == FIG4_EXPECTED


def test_results_have_tables():
    for eid in ("fig01", "thm1", "abl3"):
        result = run_experiment(eid, fast=True)
        assert result.rows, f"{eid} produced no table rows"
        assert result.header


def test_ext4_unconverged_ring_size_fails_cleanly(monkeypatch):
    """A ring size whose cells run out of budget keeps its row and turns
    the verdict into a mismatch; no power law is fitted without it."""
    import repro.sweeps
    from repro.experiments.runners_extensions import run_ext4

    real = repro.sweeps.run_cells

    def stalled(spec, **kwargs):
        return [
            {"steps": -1, "converged": False, "budget": 1}
            if cell.params["n"] == 16 else result
            for cell, result in zip(spec.cells(), real(spec, **kwargs))
        ]

    monkeypatch.setattr(repro.sweeps, "run_cells", stalled)
    result = run_ext4(fast=True)
    assert not result.match
    assert [row[0] for row in result.rows] == ["8", "16", "32"]
    assert result.rows[1][1:5] == ["0/200", "-", "-", "-"]
    assert "did not converge" in result.measured
