"""Conformance harness: differential oracle, fuzzer, shrinker, corpus.

The three executable models of this repository — the reference guard-walk
engine, the packed fastpath kernels, and the CST message-passing transform
— must agree step for step.  This package makes that a checked property:

* :mod:`~repro.verification.conformance.oracle` — lockstep execution of
  one ``(configuration, schedule, fault script)`` through all models with
  per-step equality and invariant checks;
* :mod:`~repro.verification.conformance.fuzzer` — seeded adversarial
  campaigns over random instances, four daemon families and concrete
  fault scripts;
* :mod:`~repro.verification.conformance.shrink` — delta-debugging
  minimization of failing witnesses;
* :mod:`~repro.verification.conformance.witness` — the deterministic
  JSONL repro format replayed by ``pytest tests/corpus``;
* :mod:`~repro.verification.conformance.seeds` — builders for the
  checked-in corpus.

CLI: ``python -m repro fuzz run|shrink|replay|seed-corpus``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.verification.conformance.oracle": (
        "TOKEN_BOUNDS", "ConformanceReport", "Divergence", "LockstepOracle",
    ),
    "repro.verification.conformance.fuzzer": (
        "DAEMON_FAMILIES", "CampaignResult", "DivergenceRecord", "Scenario",
        "generate_scenario", "make_daemon", "run_fuzz_campaign", "run_trial",
    ),
    "repro.verification.conformance.shrink": ("ShrinkStats", "shrink_witness"),
    "repro.verification.conformance.witness": (
        "ReplayOutcome", "Witness", "build_algorithm", "corpus_files",
        "replay_witness_file",
    ),
    "repro.verification.conformance.seeds": ("seed_corpus",),
})
