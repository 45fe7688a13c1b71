"""Model checking self-stabilization on explicit transition systems.

:func:`check_self_stabilization` verifies, by exhaustive enumeration:

* **no deadlock** (Lemma 4): every configuration has a successor;
* **closure** (Lemma 1): successors of legitimate configurations are
  legitimate;
* **convergence** (Lemma 6): the *illegitimate* subgraph is acyclic — i.e.
  there is no infinite execution avoiding the legitimate set, no matter what
  the (unfair, distributed) daemon chooses;
* **worst-case convergence steps** (Theorem 2's quantity, exactly): the
  longest path through the illegitimate region, which equals the value of
  the game where the daemon maximizes time-to-Lambda.

Every check reads one memoised
:class:`~repro.verification.state_graph.StateGraph` per transition system
(on the packed-kernel path, the Z_K quotient under the x-shift) and its one
valuation: numpy level rounds that value each illegitimate id
``1 + max(successor values)``, legitimate successors contributing 0, or
stall on ids that reach an illegitimate cycle, which the valuation then
names by the walk a depth-first search over the illegitimate ids takes.
Deadlocks and closure leaks are numpy scans of the graph's arrays.  The
report, :func:`worst_case_convergence_steps` and
:func:`worst_case_witness` all read that valuation; the witness and the
reported cycle step from a configuration to the successor at a row
position, so no walk maps successor keys back to ids.  What they report is
what the full enumeration gives — full-space counts, deadlocks and closure
violations expanded to whole orbits, a cycle lifted into a real cycle of
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.verification.state_graph import first_outside
from repro.verification.transition_system import TransitionSystem


@dataclass
class StabilizationReport:
    """Result of an exhaustive self-stabilization check.

    Attributes
    ----------
    state_count:
        Number of configurations examined.
    legitimate_count:
        Size of the legitimate set Lambda.
    deadlocks:
        Configurations with no enabled process (empty for a correct ring).
    closure_violations:
        ``(legitimate config, illegitimate successor)`` pairs (empty = Lemma 1
        holds).
    illegitimate_cycle:
        A cycle through illegitimate configurations if one exists (None =
        Lemma 6 holds).
    worst_case_steps:
        Exact maximum steps-to-Lambda over all configurations and daemon
        strategies; ``None`` if convergence fails.
    convergence_checked:
        Whether the cycle/longest-path analysis actually ran
        (``compute_worst_case=True``); without it, convergence is unknown
        and :attr:`self_stabilizing` refuses to claim success.
    """

    state_count: int
    legitimate_count: int
    deadlocks: List[Any]
    closure_violations: List[Tuple[Any, Any]]
    illegitimate_cycle: Optional[List[Any]]
    worst_case_steps: Optional[int]
    convergence_checked: bool = True

    @property
    def self_stabilizing(self) -> bool:
        """True iff no deadlocks, closure holds, convergence verified to hold.

        Also requires a non-empty legitimate set — an algorithm whose Lambda
        is empty vacuously satisfies closure but cannot converge to it.
        """
        return (
            self.convergence_checked
            and self.legitimate_count > 0
            and not self.deadlocks
            and not self.closure_violations
            and self.illegitimate_cycle is None
        )

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        verdict = "SELF-STABILIZING" if self.self_stabilizing else "NOT self-stabilizing"
        lines = [
            f"{verdict}: {self.state_count} configurations, "
            f"{self.legitimate_count} legitimate",
            f"  deadlocks: {len(self.deadlocks)}",
            f"  closure violations: {len(self.closure_violations)}",
            f"  illegitimate cycle: "
            f"{'none' if self.illegitimate_cycle is None else len(self.illegitimate_cycle)}",
        ]
        if self.worst_case_steps is not None:
            lines.append(f"  worst-case convergence steps: {self.worst_case_steps}")
        return "\n".join(lines)


def _report_cycle(ts: TransitionSystem, cycle: List[int]) -> List[Any]:
    """An illegitimate cycle of ids lifted into a cycle of configurations.

    Follows, from the first id's own configuration, the concrete successor
    at the row position of the next id (its first occurrence in the row),
    around the cycle of ids until the start configuration recurs (at most
    K rounds on the quotient, one without it).  A row lists its id's
    successors in :meth:`~repro.verification.transition_system.TransitionSystem.successor_keys_for`
    order for every configuration the id stands for, because the x-shift
    commutes with successor order.
    """
    graph = ts.graph()
    offsets, targets = graph.offsets, graph.targets
    start = key = graph.key_of(cycle[0])
    path = [key]
    while True:
        for v, nxt in zip(cycle, cycle[1:]):
            row = targets[offsets[v]:offsets[v + 1]]
            key = ts.successor_keys_for(key)[row.index(nxt)]
            path.append(key)
        if key == start:
            return [ts.config_for_key(k) for k in path]


def _values(ts: TransitionSystem) -> Any:
    """The graph's valuation; raises AssertionError on an illegitimate cycle."""
    value, cycle = ts.graph().valuation()
    if cycle is not None:
        raise AssertionError(
            "algorithm does not converge: illegitimate cycle of length "
            f"{len(_report_cycle(ts, cycle))}"
        )
    return value


def _worst(value: Any) -> int:
    """The largest value (0 for no ids), as a Python int."""
    import numpy as np

    return int(np.frombuffer(value, dtype=np.int32).max(initial=0))


def check_self_stabilization(
    ts: TransitionSystem, compute_worst_case: bool = True
) -> StabilizationReport:
    """Run the full exhaustive check on a transition system.

    Reads the memoised :meth:`~repro.verification.transition_system.TransitionSystem.graph`
    once for deadlocks and closure and (optionally) its valuation for
    convergence + worst case.  Deadlocks (empty rows) and closure leaks
    (legitimate rows with an illegitimate target) are found in numpy over
    the graph's arrays, reading only the legitimate rows for closure, and
    reported for every configuration (whole orbits on the quotient), in
    enumeration order.
    """
    import numpy as np

    graph = ts.graph()
    legit, offsets, targets = graph.arrays()
    ids = graph.enumerated
    dead = np.flatnonzero(offsets[1:ids + 1] == offsets[:ids]).tolist()
    rows = np.flatnonzero(legit[:ids])
    stops = offsets[rows + 1]
    leaking = rows[
        first_outside(offsets[rows], stops, targets, legit) < stops].tolist()

    deadlocks: List[Any] = []
    for key in graph.expand(dead):
        config = ts.config_for_key(key)
        if not ts.is_deadlocked(config):
            raise AssertionError(
                "successor computation inconsistent with enabledness")
        deadlocks.append(config)
    closure_violations: List[Tuple[Any, Any]] = [
        (ts.config_for_key(key), ts.config_for_key(sk))
        for key in graph.expand(leaking)
        for sk in ts.successor_keys_for(key)
        if not graph.legit[graph.id_of(sk)]
    ]

    worst: Optional[int] = None
    cycle: Optional[List[Any]] = None
    if compute_worst_case:
        value, cycle_ids = graph.valuation()
        if cycle_ids is None:
            worst = _worst(value)
        else:
            cycle = _report_cycle(ts, cycle_ids)

    return StabilizationReport(
        state_count=graph.state_count,
        legitimate_count=graph.legitimate_count,
        deadlocks=deadlocks,
        closure_violations=closure_violations,
        illegitimate_cycle=cycle,
        worst_case_steps=worst,
        convergence_checked=compute_worst_case,
    )


def worst_case_convergence_steps(ts: TransitionSystem) -> int:
    """Exact adversarial convergence time; raises if convergence fails."""
    return _worst(_values(ts))


def worst_case_witness(ts: TransitionSystem) -> List[Any]:
    """An exact worst-case execution: the longest path into Lambda.

    Returns the configuration sequence ``[gamma_0, ..., gamma_T]`` where
    ``gamma_0`` maximizes the adversarial steps-to-Lambda, every transition
    is a legal daemon choice, and ``gamma_T`` is the first legitimate
    configuration.  This is the *ground truth* the heuristic
    :class:`~repro.daemons.adversarial.AdversarialDaemon` approximates.

    ``gamma_0`` is the configuration of the first id of maximal value
    (the first such configuration in enumeration order), and each step
    takes the first value-maximising successor in
    :meth:`~repro.verification.transition_system.TransitionSystem.successor_keys_for`
    order: the successor at the row position of the first maximal target
    value, since a row lists its successors in that order for every
    configuration its id stands for.  Values come from the graph's
    valuation (raises AssertionError on an illegitimate cycle).
    """
    import numpy as np

    graph = ts.graph()
    value = _values(ts)
    offsets, targets = graph.offsets, graph.targets
    v = int(np.argmax(np.frombuffer(value, dtype=np.int32)[:graph.enumerated]))
    key = graph.key_of(v)
    path = [key]
    while not graph.legit[v]:
        row = [value[t] for t in targets[offsets[v]:offsets[v + 1]]]
        j = row.index(max(row))
        key = ts.successor_keys_for(key)[j]
        v = targets[offsets[v] + j]
        path.append(key)
    return [ts.config_for_key(k) for k in path]
