"""First-class phase-diagram sweeps over the unified kernel layer.

The package is the one sweep path: every seeds × n × loss (or daemon)
grid, Theorem 4's loss sweep included, runs through its engine:

* :mod:`repro.sweeps.spec` — typed grid specifications
  (n × loss × delay × duplication × daemon-family) with deterministic
  cell identity;
* :mod:`repro.sweeps.engine` — one execution per cell kind: convergence
  cells batched (homogeneous cell groups vectorized through
  :mod:`repro.kernels.batched`, per-cell-seed determinism making each
  cell equal to its run alone), DES cells one task per cell;
  :func:`run_sweep` checkpoints each cell, :func:`run_cells` returns them;
* :mod:`repro.sweeps.store` — resumable checkpoints: JSONL write-ahead
  cells plus the RunStore's v3 ``sweeps``/``sweep_cells`` manifest index;
* :mod:`repro.sweeps.report` — store-derived aggregation and the
  Theorem-2 scaling re-fit.

CLI surface: ``repro sweep run|resume|status|report``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sweeps.engine": ("resume_sweep", "run_cells", "run_sweep"),
    "repro.sweeps.report": (
        "build_sweep_report", "render_report", "render_status",
    ),
    "repro.sweeps.spec": ("CellSpec", "SweepSpec"),
    "repro.sweeps.store": ("SweepStore", "sweep_dir"),
})
