"""Model-gap tolerance (paper Definition 3, Theorem 3).

The *model gap* is the behavioural difference between an algorithm in the
state-reading model and its CST transform in the message-passing model.
Definition 3 formalizes tolerance through two function layers:

* ``h_i(q_i, q_{i-1}, q_{i+1})`` — a per-node observation; for SSRmin,
  "node ``v_i`` holds a token";
* ``h(h_0, ..., h_{n-1})`` — a system-wide aggregate; for SSRmin,
  "at least one node holds a token" (we track the stronger aggregate
  ``1 <= count <= 2`` of Theorem 3).

The algorithm is model-gap tolerant iff, along every execution from a
legitimate configuration with cache coherence, ``h`` evaluated on *cached*
neighbour views equals ``h`` evaluated on *true* neighbour states.

:func:`evaluate_gap` runs a transformed network and compares the two
evaluations at every change-point; :func:`gap_report` summarizes zero-token
time, count bounds and any tolerance violations — the machinery behind the
fig11/fig12/fig13 and abl1 benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.messagepassing.network import MessagePassingNetwork
from repro.messagepassing.timeline import TokenTimeline


@dataclass
class GapObservation:
    """One comparison instant between cached-view and true-state aggregates."""

    time: float
    cached_holders: Tuple[int, ...]
    true_holders: Tuple[int, ...]

    @property
    def aggregate_matches(self) -> bool:
        """Definition 3's equation for h = 'at least one token exists'."""
        return bool(self.cached_holders) == bool(self.true_holders)


@dataclass
class GapReport:
    """Summary of a model-gap evaluation run.

    Attributes
    ----------
    duration:
        Simulated time covered.
    zero_time:
        Total time the *cached-view* aggregate showed zero tokens — positive
        zero_time is exactly the token extinction of Figures 11-12.
    zero_intervals:
        The maximal extinction intervals.
    min_count, max_count:
        Bounds on simultaneous cached-view holders (Theorem 3: 1..2 for
        SSRmin from legitimate+coherent starts).
    observations:
        Sampled :class:`GapObservation` comparisons (empty when sampling is
        disabled).
    tolerant:
        Whether the "at least one token" aggregate held at every
        change-point, i.e. no extinction was observed.
    """

    duration: float
    zero_time: float
    zero_intervals: List[Tuple[float, float]]
    min_count: int
    max_count: int
    observations: List[GapObservation]
    tolerant: bool


def evaluate_gap(
    network: MessagePassingNetwork,
    duration: float,
    sample_observations: bool = False,
    sample_every: float = 1.0,
    warmup: float = 0.0,
) -> GapReport:
    """Run ``network`` for ``duration`` and report the model-gap behaviour.

    Parameters
    ----------
    network:
        A built (not necessarily started) CST network.
    duration:
        Simulated time to run.
    sample_observations:
        Also collect cached-vs-true aggregate comparisons every
        ``sample_every`` time units (slower; used by the Definition-3 tests);
        the last comparison is at exactly the end of the run.  Raises
        :class:`ValueError` for a non-positive ``sample_every``.
    warmup:
        Ignore the interval ``[0, warmup)`` in the statistics (used when the
        start is not legitimate+coherent and the claim only applies after
        stabilization).
    """
    if sample_observations and not sample_every > 0.0:
        raise ValueError(f"sample_every must be > 0, got {sample_every}")
    observations: List[GapObservation] = []
    if not network._started:
        network.start()
    if sample_observations:
        # One slice per whole step, each ending at start + j * sample_every
        # and the last at exactly start + duration.  A step count within
        # 1e-9 of an integer is whole, so float noise in the ratio adds no
        # sliver slice at the end.
        start = network.queue.now
        steps = 0 if duration <= 0 else max(
            1, math.ceil(duration / sample_every - 1e-9))
        for j in range(1, steps + 1):
            end = start + (duration if j == steps else j * sample_every)
            network.run(end - network.queue.now)
            observations.append(
                GapObservation(
                    time=network.queue.now,
                    cached_holders=network.token_holders(),
                    true_holders=network.true_token_holders(),
                )
            )
    else:
        network.run(duration)

    timeline = network.timeline
    zero = [
        (max(a, warmup), b)
        for a, b in timeline.zero_intervals()
        if b > warmup
    ]
    zero_time = sum(b - a for a, b in zero)
    lo, hi = timeline.count_bounds(from_time=warmup)
    return GapReport(
        duration=duration,
        zero_time=zero_time,
        zero_intervals=zero,
        min_count=lo,
        max_count=hi,
        observations=observations,
        tolerant=zero_time == 0.0,
    )


def definition3_holds(
    observations: Sequence[GapObservation],
) -> bool:
    """Whether the sampled Definition-3 equation held at every sample."""
    return all(o.aggregate_matches for o in observations)
