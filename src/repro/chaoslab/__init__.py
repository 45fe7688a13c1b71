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

from repro.chaoslab.campaign import (
    CampaignSpec,
    build_campaign_report,
    load_campaign_spec,
    persist_experiment,
    render_campaign_report,
    run_campaign,
)
from repro.chaoslab.experiment import (
    ChaosExperiment,
    ExperimentResult,
    ExperimentStatus,
    execute_experiment,
    run_experiment,
)
from repro.chaoslab.observe import (
    EntryConditionPoint,
    Observation,
    ObservationContext,
    ObservationHarness,
    ObservationPoint,
    PredicatePoint,
    RestabilizeBudgetPoint,
    TokenCensusPoint,
    VacancyPoint,
    default_points,
)
from repro.chaoslab.scheduler import ExperimentScheduler
from repro.chaoslab.testing import resilience_test
from repro.runtime.chaos import (
    WINDOW_TYPES,
    FaultConfig,
    FaultType,
    parse_fault_flag,
)

__all__ = [
    "CampaignSpec",
    "ChaosExperiment",
    "EntryConditionPoint",
    "ExperimentResult",
    "ExperimentScheduler",
    "ExperimentStatus",
    "FaultConfig",
    "FaultType",
    "Observation",
    "ObservationContext",
    "ObservationHarness",
    "ObservationPoint",
    "PredicatePoint",
    "RestabilizeBudgetPoint",
    "TokenCensusPoint",
    "VacancyPoint",
    "WINDOW_TYPES",
    "build_campaign_report",
    "default_points",
    "execute_experiment",
    "load_campaign_spec",
    "parse_fault_flag",
    "persist_experiment",
    "render_campaign_report",
    "resilience_test",
    "run_campaign",
    "run_experiment",
]
