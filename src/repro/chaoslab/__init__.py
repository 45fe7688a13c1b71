"""Declarative chaos campaigns over live rings.

The chaos lab runs plans written in :mod:`repro.runtime.chaos`'s fault
vocabulary (the :class:`FaultType` taxonomy and :class:`FaultConfig`,
compiled down to ``ChaosOp``\\ s; re-exported here):

* :mod:`repro.chaoslab.observe` — :class:`ObservationPoint`\\ s sampling
  the paper's predicates at epoch boundaries;
* :mod:`repro.chaoslab.experiment` — one fault plan against one live
  ring, with the ``pending → running → completed | aborted`` lifecycle
  and abort-on-invariant-breach;
* :mod:`repro.chaoslab.scheduler` — sequential or process-pool execution
  of experiment batches;
* :mod:`repro.chaoslab.campaign` — ``seeds × faults`` grids, RunStore
  persistence (``campaigns`` table), and per-fault-class p50/p99
  restabilization reports;
* :mod:`repro.chaoslab.testing` — the :func:`resilience_test` pytest
  decorator.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaoslab.campaign": (
        "CampaignSpec", "build_campaign_report", "load_campaign_spec",
        "persist_experiment", "render_campaign_report", "run_campaign",
    ),
    "repro.chaoslab.experiment": (
        "ChaosExperiment", "ExperimentResult", "ExperimentStatus",
        "execute_experiment", "run_experiment",
    ),
    "repro.chaoslab.observe": (
        "EntryConditionPoint", "Observation", "ObservationContext",
        "ObservationHarness", "ObservationPoint", "PredicatePoint",
        "RestabilizeBudgetPoint", "TokenCensusPoint", "VacancyPoint",
        "default_points",
    ),
    "repro.chaoslab.scheduler": ("ExperimentScheduler",),
    "repro.chaoslab.testing": ("resilience_test",),
    "repro.runtime.chaos": (
        "WINDOW_TYPES", "FaultConfig", "FaultType", "parse_fault_flag",
    ),
})
