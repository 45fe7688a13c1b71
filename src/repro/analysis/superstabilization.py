"""Empirical superstabilization study (paper section 1.2's related work).

A *superstabilizing* algorithm is self-stabilizing and additionally keeps a
safety predicate while recovering from a single transient fault applied to a
legitimate configuration (references [4, 15] of the paper; the paper lists
replacing Dijkstra's ring with a superstabilizing one as future work).

SSRmin is not claimed superstabilizing, but its single-fault behaviour is
interesting empirically: does the mutual-inclusion predicate ">= 1 token"
survive a one-process corruption?  :func:`study_single_fault` measures, over
many random (legitimate configuration, fault, schedule) triples:

* whether the ">= 1 privileged process" passive safety predicate held at
  every configuration during recovery;
* the recovery length in steps;
* the largest transient token count observed (burst above the 1..2 band).

The ``ext1`` experiment reports the resulting table — an honest
*beyond-paper* data point rather than a claimed theorem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.core.ssrmin import SSRmin
from repro.simulation.engine import SharedMemorySimulator
from repro.simulation.initial import perturbed_legitimate
from repro.simulation.monitors import TokenCountMonitor


@dataclass
class SingleFaultRecord:
    """One single-fault recovery trial."""

    recovery_steps: int
    safety_held: bool
    max_token_count: int
    min_token_count: int


@dataclass
class SuperstabilizationReport:
    """Aggregate over all trials of :func:`study_single_fault`."""

    records: List[SingleFaultRecord]

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def safety_fraction(self) -> float:
        """Fraction of trials where >= 1 token held throughout recovery."""
        return sum(r.safety_held for r in self.records) / self.trials

    @property
    def max_recovery(self) -> int:
        return max(r.recovery_steps for r in self.records)

    @property
    def mean_recovery(self) -> float:
        return sum(r.recovery_steps for r in self.records) / self.trials

    @property
    def worst_burst(self) -> int:
        """Largest transient token count seen across all trials."""
        return max(r.max_token_count for r in self.records)


def study_single_fault(
    algorithm: SSRmin,
    daemon_factory,
    trials: int,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> SuperstabilizationReport:
    """Measure single-fault recoveries.

    Parameters
    ----------
    algorithm:
        The SSRmin instance under study.
    daemon_factory:
        ``(algorithm, trial_seed) -> Daemon``.
    trials:
        Number of (legitimate config, fault, schedule) samples.
    seed:
        Master seed.
    max_steps:
        Per-trial recovery budget (default: the Theorem-2 regime).
    """
    n = algorithm.n
    budget = max_steps if max_steps is not None else 60 * n * n + 600
    records: List[SingleFaultRecord] = []
    for t in range(trials):
        rng = random.Random(seed + t)
        config = perturbed_legitimate(algorithm, rng, faults=1)
        tokens = TokenCountMonitor(algorithm, only_when_legitimate=False)
        result = SharedMemorySimulator(
            algorithm, daemon_factory(algorithm, seed + t), monitors=[tokens]
        ).run(config, max_steps=budget, stop_when=algorithm.is_legitimate,
              record=False)
        if result.deadlocked:
            raise RuntimeError("deadlock during single-fault recovery")
        if not result.stopped_by_predicate:
            raise RuntimeError(f"trial {t} exhausted the recovery budget")
        lo, hi = tokens.min_count(), tokens.max_count()
        records.append(
            SingleFaultRecord(
                recovery_steps=result.steps,
                safety_held=lo >= 1,
                max_token_count=hi,
                min_token_count=lo,
            )
        )
    return SuperstabilizationReport(records=records)
