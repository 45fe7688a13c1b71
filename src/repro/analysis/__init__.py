"""Analysis utilities: statistics, scaling fits, rule censuses, trace tables.

* :mod:`repro.analysis.statistics` — summary statistics with confidence
  intervals (numpy-backed).
* :mod:`repro.analysis.scaling` — log-log power-law fits for the
  convergence-time-vs-n study (Theorem 2's O(n^2)).
* :mod:`repro.analysis.census` — Lemma 5 / Lemma 8 rule-execution censuses
  (W135/W24 bookkeeping, 3n-run bound checks).
* :mod:`repro.analysis.tracefmt` — Figure-1/4-style execution tables.
* :mod:`repro.analysis.rounds` — round-complexity accounting (ext2).
* :mod:`repro.analysis.superstabilization` — single-fault recovery and
  safety-predicate studies (ext1).
* :mod:`repro.analysis.service` — critical-section service fairness (ext3).
* :mod:`repro.analysis.profiling` — the stopwatch that times experiment
  phases.
* :mod:`repro.analysis.fairness` — schedule starvation analysis (how unfair
  was the daemon, really).
* :mod:`repro.analysis.distributions` — two-sample statistical tests for
  comparing step/time distributions (:func:`compare_distributions` needs
  scipy, which only the ``test`` extra installs).
"""

from repro.analysis.statistics import Summary, summarize
from repro.analysis.scaling import PowerLawFit, fit_power_law
from repro.analysis.census import CensusReport, census_execution
from repro.analysis.tracefmt import format_trace, format_token_movement
from repro.analysis.rounds import RoundCounter, measure_rounds
from repro.analysis.superstabilization import (
    SuperstabilizationReport,
    study_single_fault,
)
from repro.analysis.service import ServiceMonitor, service_report, jain_fairness
from repro.analysis.profiling import Stopwatch
from repro.analysis.fairness import FairnessReport, starvation_report
from repro.analysis.distributions import (
    DistributionComparison,
    compare_distributions,
    effect_size,
)

__all__ = [
    "Summary",
    "summarize",
    "PowerLawFit",
    "fit_power_law",
    "CensusReport",
    "census_execution",
    "format_trace",
    "format_token_movement",
    "RoundCounter",
    "measure_rounds",
    "SuperstabilizationReport",
    "study_single_fault",
    "ServiceMonitor",
    "service_report",
    "jain_fairness",
    "Stopwatch",
    "FairnessReport",
    "starvation_report",
    "DistributionComparison",
    "compare_distributions",
    "effect_size",
]
