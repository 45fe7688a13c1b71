"""Chaos experiments: one declarative fault plan run against one live ring.

A :class:`ChaosExperiment` bundles the ring recipe (algorithm, ``n``,
``K``, transport, wire, seed, timer interval, initial configuration) with
a tuple of :class:`~repro.runtime.chaos.FaultConfig`\\ s and a
restabilization budget.  :meth:`ChaosExperiment.compile` lowers the
faults to one :class:`~repro.runtime.chaos.ChaosScript`;
:func:`run_experiment` plays it against a live
:class:`~repro.runtime.supervisor.RingSupervisor` while an
:class:`~repro.chaoslab.observe.ObservationHarness` samples the paper's
predicates at every epoch boundary.  ``repro live chaos`` runs its named
presets through the same executor, as one-experiment plans with the
abort path off.

Lifecycle: ``pending -> running -> completed | aborted``.  The executor
races the chaos director against the harness's fatal-breach event — the
first invariant breach (token guarantee violated post-stabilization,
vacancy under graceful handover, or a custom tripwire) cancels the
script, tears the ring down, and marks the experiment ``aborted``.  The
:class:`ExperimentResult` also counts asyncio tasks left behind after
teardown (``leaked_tasks``), so resilience tests can assert the abort
path cleans up completely.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.chaoslab.observe import Observation, ObservationHarness, ObservationPoint
from repro.runtime.chaos import WINDOW_KINDS, ChaosScript, FaultConfig
from repro.runtime.harness import build_algorithm
from repro.runtime.supervisor import RingSupervisor


class ExperimentStatus(str, Enum):
    """Where an experiment is in its lifecycle."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass
class ChaosExperiment:
    """One grid cell: a fault plan plus the ring it runs against."""

    name: str
    faults: Tuple[FaultConfig, ...]
    algorithm: str = "ssrmin"
    n: int = 6
    K: Optional[int] = None
    seed: int = 0
    transport: str = "loopback"
    wire: str = "json"
    timer_interval: float = 0.05
    #: ``"legitimate"``, ``"random"`` or explicit local states (see
    #: :class:`~repro.runtime.supervisor.RingSupervisor`).
    initial: Union[str, List[Any]] = "legitimate"
    #: Re-stabilization budget in seconds (the RestabilizeBudgetPoint's
    #: threshold; overruns are non-fatal breaches).
    budget: float = 10.0
    #: Calm run-on after the last fault stops biting.
    settle: float = 1.0
    stabilize_timeout: float = 20.0
    #: Extra post-restabilization runtime (steady-state soak).
    extra_duration: float = 0.0
    #: Cancel the script and tear down on the first fatal breach.
    abort_on_breach: bool = True
    status: ExperimentStatus = field(default=ExperimentStatus.PENDING)

    def __post_init__(self) -> None:
        self.faults = tuple(
            f if isinstance(f, FaultConfig) else FaultConfig.from_json(f)
            for f in self.faults
        )
        self.status = ExperimentStatus(self.status)

    def compile(self) -> ChaosScript:
        """Lower every fault and merge into one replayable script."""
        return ChaosScript.from_faults(
            self.name, self.faults, self.n, self.settle
        )

    def to_json(self) -> dict:
        """JSON-able form (campaign specs, cross-process payloads)."""
        return {
            "name": self.name,
            "faults": [f.to_json() for f in self.faults],
            "algorithm": self.algorithm,
            "n": self.n,
            "K": self.K,
            "seed": self.seed,
            "transport": self.transport,
            "wire": self.wire,
            "timer_interval": self.timer_interval,
            "initial": self.initial,
            "budget": self.budget,
            "settle": self.settle,
            "stabilize_timeout": self.stabilize_timeout,
            "extra_duration": self.extra_duration,
            "abort_on_breach": self.abort_on_breach,
            "status": self.status.value,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "ChaosExperiment":
        """Inverse of :meth:`to_json`; tolerant of sparse specs."""
        if "name" not in blob:
            raise ValueError(f"experiment spec needs a 'name': {blob!r}")
        faults = tuple(
            FaultConfig.from_json(f) for f in blob.get("faults", ())
        )
        kwargs: Dict[str, Any] = {"name": blob["name"], "faults": faults}
        for key in ("algorithm", "n", "K", "seed", "transport", "wire",
                    "timer_interval", "initial", "budget", "settle",
                    "stabilize_timeout", "extra_duration",
                    "abort_on_breach", "status"):
            if key in blob:
                kwargs[key] = blob[key]
        return cls(**kwargs)


@dataclass
class ExperimentResult:
    """The verdict of one executed experiment."""

    experiment: ChaosExperiment
    status: ExperimentStatus
    report: Dict[str, Any]
    observations: List[Observation] = field(default_factory=list)
    #: asyncio tasks still pending after supervisor teardown (should be 0).
    leaked_tasks: int = 0

    @property
    def breaches(self) -> List[Observation]:
        return [o for o in self.observations if o.breach]

    @property
    def fatal(self) -> bool:
        return any(o.fatal for o in self.observations)

    @property
    def time_to_restabilize(self) -> Optional[float]:
        return self.report.get("health", {}).get("time_to_restabilize")

    @property
    def ok(self) -> bool:
        """Completed, stabilized, and breach-free."""
        return (
            self.status is ExperimentStatus.COMPLETED
            and bool(self.report.get("health", {}).get("stabilized"))
            and not self.breaches
        )

    def to_json(self) -> dict:
        """JSON-able form (cross-process scheduler results)."""
        return {
            "experiment": self.experiment.to_json(),
            "status": self.status.value,
            "report": self.report,
            "observations": [o.to_json() for o in self.observations],
            "leaked_tasks": self.leaked_tasks,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "ExperimentResult":
        return cls(
            experiment=ChaosExperiment.from_json(blob["experiment"]),
            status=ExperimentStatus(blob["status"]),
            report=dict(blob.get("report", {})),
            observations=[
                Observation(
                    point=o["point"], event=o["event"], time=o["time"],
                    value=o.get("value"), breach=o.get("breach", False),
                    fatal=o.get("fatal", False),
                    detail=dict(o.get("detail", {})),
                )
                for o in blob.get("observations", ())
            ],
            leaked_tasks=int(blob.get("leaked_tasks", 0)),
        )


async def execute_experiment(
    experiment: ChaosExperiment,
    points: Optional[List[ObservationPoint]] = None,
) -> ExperimentResult:
    """Async executor: boot, stabilize, inject, observe, judge, drain.

    Races the chaos director against the observation harness's fatal
    breach event when ``abort_on_breach`` is set.
    """
    script = experiment.compile()
    algorithm = build_algorithm(
        experiment.algorithm, experiment.n, experiment.K
    )
    supervisor = RingSupervisor(
        algorithm,
        transport=experiment.transport,
        chaos=any(op.kind in WINDOW_KINDS for op in script.ops),
        wire=experiment.wire,
        initial=experiment.initial,
        seed=experiment.seed,
        timer_interval=experiment.timer_interval,
    )
    harness = ObservationHarness(points=points, budget=experiment.budget)
    experiment.status = ExperimentStatus.RUNNING
    aborted = False
    try:
        await supervisor.boot()
        harness.attach(supervisor)
        try:
            await supervisor.wait_stabilized(experiment.stabilize_timeout)
        except TimeoutError:
            pass  # judged by the harness's final sample, not here
        director = asyncio.create_task(supervisor.run_chaos(script))
        if experiment.abort_on_breach:
            tripwire = asyncio.create_task(harness.breach_event.wait())
            try:
                await asyncio.wait(
                    {director, tripwire},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                tripwire.cancel()
            if harness.breach_event.is_set() and not director.done():
                # Invariant breach mid-script: stop injecting, tear down.
                director.cancel()
                aborted = True
        try:
            await director
        except asyncio.CancelledError:
            if not aborted:
                raise
        if not aborted:
            if not supervisor.health.stabilized:
                try:
                    await supervisor.wait_stabilized(
                        experiment.stabilize_timeout
                    )
                except TimeoutError:
                    pass  # recorded as a restabilize-budget breach
            if experiment.extra_duration > 0:
                await supervisor.run_for(experiment.extra_duration)
        harness.finalize()
    finally:
        await supervisor.shutdown()
    current = asyncio.current_task()
    leaked = [
        t for t in asyncio.all_tasks()
        if t is not current and not t.done()
    ]
    report = supervisor.report()
    report["script"] = script.to_json()
    experiment.status = (
        ExperimentStatus.ABORTED if aborted else ExperimentStatus.COMPLETED
    )
    return ExperimentResult(
        experiment=experiment,
        status=experiment.status,
        report=report,
        observations=list(harness.observations),
        leaked_tasks=len(leaked),
    )


def run_experiment(
    experiment: ChaosExperiment,
    points: Optional[List[ObservationPoint]] = None,
) -> ExperimentResult:
    """Synchronous entry point (tests, CLI, scheduler workers)."""
    return asyncio.run(execute_experiment(experiment, points=points))


__all__ = [
    "ChaosExperiment",
    "ExperimentResult",
    "ExperimentStatus",
    "execute_experiment",
    "run_experiment",
]
