"""Experiment harness: one runner per paper figure / theorem / ablation.

Every experiment in DESIGN.md's per-experiment index is a function returning
an :class:`~repro.experiments.registry.ExperimentResult` (a titled table plus
the paper-claim-vs-measured verdict).  The registry maps experiment ids
(``fig04``, ``thm2``, ...) to runners; the CLI and the benchmarks call
through it, and :mod:`repro.experiments.report` renders EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.registry": (
        "ExperimentResult", "REGISTRY", "get_experiment", "run_experiment",
        "list_experiments",
    ),
    "repro.experiments.parallel": ("run_experiments_parallel",),
})
