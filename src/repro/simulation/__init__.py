"""State-reading / composite-atomicity simulation (paper section 2.1).

* :mod:`repro.simulation.engine` — the step loop: daemon selects, processes
  move atomically, monitors observe.
* :mod:`repro.simulation.execution` — recorded executions (configurations +
  moves), replayable and renderable as Figure-4 style traces.
* :mod:`repro.simulation.monitors` — pluggable observers: token counts,
  legitimacy, per-rule censuses (Lemma 5's W135/W24 partition), mutual
  inclusion / (l,k)-critical-section checking.
* :mod:`repro.simulation.convergence` — run-until-legitimate drivers and
  convergence-time measurement.
* :mod:`repro.simulation.initial` — initial-configuration generators
  (random, perturbed-legitimate, crafted worst-case-flavoured patterns).

The batched numpy engine that advances thousands of SSRmin instances in
lockstep is :mod:`repro.kernels.batched`; this package does not import numpy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simulation.engine": ("SharedMemorySimulator", "SimulationResult"),
    "repro.simulation.execution": ("Execution", "Move"),
    "repro.simulation.monitors": (
        "Monitor", "TokenCountMonitor", "LegitimacyMonitor",
        "RuleCensusMonitor", "CriticalSectionMonitor", "InvariantViolation",
    ),
    "repro.simulation.convergence": (
        "converge", "convergence_steps", "ConvergenceResult",
    ),
    "repro.simulation.serialize": ("save_execution", "load_execution"),
})
