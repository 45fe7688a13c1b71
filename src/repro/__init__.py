"""repro — reproduction of Kakugawa, Kamei & Katayama's SSRmin.

A self-stabilizing token circulation with **graceful handover** on
bidirectional ring networks (IPDPSW/APDCM 2021; IJNC 12(1), 2022).

Public API highlights
---------------------
* :class:`repro.core.SSRmin` — the mutual-inclusion algorithm (Algorithm 3).
* :class:`repro.algorithms.DijkstraKState` — Dijkstra's K-state token ring
  ``SSToken`` (Algorithm 1), the substrate.
* :mod:`repro.daemons` — central / distributed / adversarial schedulers.
* :class:`repro.simulation.SharedMemorySimulator` — the state-reading,
  composite-atomicity execution model.
* :mod:`repro.messagepassing` — discrete-event message-passing execution via
  the cached sensornet transform (CST, Algorithm 4), with model-gap analysis.
* :mod:`repro.verification` — exhaustive model checking of closure,
  convergence and deadlock-freedom for small instances.
* :mod:`repro.experiments` — runners regenerating every figure and
  theorem-level claim in the paper.

Quickstart
----------
>>> from repro import SSRmin, SharedMemorySimulator
>>> from repro.daemons import RandomSubsetDaemon
>>> alg = SSRmin(n=5)
>>> sim = SharedMemorySimulator(alg, RandomSubsetDaemon(seed=1))
>>> result = sim.run(alg.initial_configuration(), max_steps=15)
>>> alg.is_legitimate(result.final_config)
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.ssrmin": ("SSRmin",),
    "repro.core.state": ("Configuration", "SSRminState"),
    "repro.algorithms.dijkstra": ("DijkstraKState",),
    "repro.simulation.engine": ("SharedMemorySimulator",),
}, defined=("__version__",))
