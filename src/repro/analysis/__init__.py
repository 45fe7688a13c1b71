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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.statistics": ("Summary", "summarize"),
    "repro.analysis.scaling": ("PowerLawFit", "fit_power_law"),
    "repro.analysis.census": ("CensusReport", "census_execution"),
    "repro.analysis.tracefmt": ("format_trace", "format_token_movement"),
    "repro.analysis.rounds": ("RoundCounter", "measure_rounds"),
    "repro.analysis.superstabilization": (
        "SuperstabilizationReport", "study_single_fault",
    ),
    "repro.analysis.service": (
        "ServiceMonitor", "service_report", "jain_fairness",
    ),
    "repro.analysis.profiling": ("Stopwatch",),
    "repro.analysis.fairness": ("FairnessReport", "starvation_report"),
    "repro.analysis.distributions": (
        "DistributionComparison", "compare_distributions", "effect_size",
    ),
})
