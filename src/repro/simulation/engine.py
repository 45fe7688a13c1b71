"""The state-reading / composite-atomicity simulation engine.

One step of the loop (paper section 2.1):

1. compute the enabled set; if empty, the system is deadlocked (Lemma 4
   proves this never happens for SSRmin — the engine still detects it);
2. ask the daemon for a non-empty subset;
3. every selected process reads the *current* configuration, computes its
   single enabled rule's command, and all writes land simultaneously;
4. monitors observe the transition.

The engine is deterministic given the algorithm, daemon (seeded) and initial
configuration, and records a full :class:`~repro.simulation.execution.Execution`
unless asked not to (large sweeps keep memory flat with ``record=False``).

Two execution strategies share that contract:

* the **naive path** walks the algorithm's rule set per process per step —
  the reference implementation, kept deliberately simple;
* the **fast path** drives a packed :mod:`~repro.simulation.fastpath`
  kernel with incremental enabled-set maintenance, used automatically when
  ``algorithm.fast_kernel()`` provides one (``use_fastpath=False`` opts
  out).  The differential test suite pins the two step-for-step equal:
  same enabled sets, same rule names in :class:`Move`\\ s, same successor
  configurations.

Telemetry in the hot loop is *batched*: counter increments accumulate
locally and flush every :data:`CENSUS_EVERY` steps and at ``run_end``, and
per-step bus events are only published when the session actually has a
consumer for them (a trace writer or subscriber — see
:attr:`~repro.telemetry.session.TelemetrySession.step_detail`), keeping
metrics-only telemetry within a few percent of telemetry-off throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import RingAlgorithm
from repro.daemons.base import Daemon
from repro.simulation.execution import Execution, Move
from repro.simulation.fastpath import resolve_kernel
from repro.simulation.monitors import Monitor
from repro.telemetry.session import TelemetrySession, current_session

#: Steps between engine-layer token-census events when telemetry is on
#: (computing the privileged set every step would double the step cost);
#: also the local-aggregation flush interval for step/rule counters.
CENSUS_EVERY = 256


@dataclass
class SimulationResult:
    """Outcome of a simulation run.

    Attributes
    ----------
    final_config:
        The configuration when the run stopped.
    steps:
        Number of transitions taken.
    deadlocked:
        True if the run stopped because no process was enabled.
    stopped_by_predicate:
        True if the ``stop_when`` predicate ended the run.
    execution:
        Full recorded execution, or ``None`` when ``record=False``.
    """

    final_config: Any
    steps: int
    deadlocked: bool
    stopped_by_predicate: bool
    execution: Optional[Execution]


class _RunTelemetry:
    """Per-run telemetry aggregator for the engine hot loop.

    Batches ``steps_total`` / ``rule_fired_total`` increments locally and
    flushes them every :data:`CENSUS_EVERY` steps and at run end, so
    metrics-only sessions cost a dict update per step instead of labelled
    counter traversals and bus fan-out.  Per-step events still flow when
    the session has step-level consumers (:attr:`detail`).
    """

    __slots__ = ("tel", "daemon_label", "detail", "_steps_total",
                 "_rule_fired", "_pending_steps", "_pending_rules")

    def __init__(self, tel: TelemetrySession, daemon_label: str):
        self.tel = tel
        self.daemon_label = daemon_label
        self.detail = tel.step_detail
        self._steps_total = tel.registry.counter(
            "steps_total", "engine transitions taken")
        self._rule_fired = tel.registry.counter(
            "rule_fired_total", "guarded-command executions by rule")
        self._pending_steps = 0
        self._pending_rules: Dict[str, int] = {}

    def on_step(self, rule_names: Sequence[str]) -> None:
        self._pending_steps += 1
        pending = self._pending_rules
        for name in rule_names:
            pending[name] = pending.get(name, 0) + 1
        if self._pending_steps >= CENSUS_EVERY:
            self.flush()

    def publish_step(self, steps: int, moves: Tuple[Move, ...]) -> None:
        self.tel.bus.publish(
            "engine", "step", float(steps),
            step=steps,
            moves=[[m.process, m.rule] for m in moves],
        )

    def census(self, steps: int, holders: Sequence[int]) -> None:
        self.tel.bus.publish(
            "engine", "census", float(steps),
            holders=[int(i) for i in holders],
        )

    def flush(self) -> None:
        if self._pending_steps:
            self._steps_total.inc(self._pending_steps, daemon=self.daemon_label)
            self._pending_steps = 0
        pending = self._pending_rules
        if pending:
            inc = self._rule_fired.inc
            for rule, count in pending.items():
                inc(count, rule=rule)
            pending.clear()


class SharedMemorySimulator:
    """Drives a :class:`RingAlgorithm` under a :class:`Daemon`.

    Parameters
    ----------
    algorithm:
        The algorithm to execute.
    daemon:
        The scheduler; ``daemon.reset()`` is called at the start of each run.
    monitors:
        Observers notified of every configuration and transition.
    telemetry:
        Explicit :class:`~repro.telemetry.session.TelemetrySession` to
        publish into.  Default ``None`` uses the ambient session installed
        by :func:`~repro.telemetry.session.telemetry_session` (and is a
        near-free no-op when none is active).
    use_fastpath:
        Use the packed kernel whenever ``algorithm.fast_kernel()`` provides
        one (the default); ``False`` selects the naive reference loop.
    """

    def __init__(
        self,
        algorithm: RingAlgorithm,
        daemon: Daemon,
        monitors: Sequence[Monitor] = (),
        telemetry: Optional[TelemetrySession] = None,
        use_fastpath: bool = True,
    ):
        self.algorithm = algorithm
        self.daemon = daemon
        self.monitors: Tuple[Monitor, ...] = tuple(monitors)
        self.telemetry = telemetry
        self.use_fastpath = use_fastpath

    def run(
        self,
        initial: Any,
        max_steps: int,
        stop_when: Optional[Callable[[Any], bool]] = None,
        record: bool = True,
    ) -> SimulationResult:
        """Run for up to ``max_steps`` transitions.

        Parameters
        ----------
        initial:
            Starting configuration ``gamma_0``.
        max_steps:
            Hard step budget (the run also stops on deadlock or predicate).
        stop_when:
            Optional predicate on configurations; checked on ``gamma_0`` and
            after every transition, stopping the run when it first holds.
        record:
            Whether to keep the full execution in memory.
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        alg = self.algorithm
        config = alg.normalize_configuration(initial)
        self.daemon.reset()

        # Telemetry wiring is resolved once per run; with no active session
        # the per-step overhead is a single ``is not None`` check.
        tel = self.telemetry if self.telemetry is not None else current_session()
        kernel = resolve_kernel(alg, self.use_fastpath)
        tr: Optional[_RunTelemetry] = None
        if tel is not None:
            tel.bus.publish(
                "engine", "run_start", 0.0,
                algorithm=type(alg).__name__,
                n=alg.n,
                K=getattr(alg, "K", None),
                daemon=self.daemon.describe(),
                max_steps=max_steps,
                engine="naive" if kernel is None else "packed",
            )
            tr = _RunTelemetry(tel, self.daemon.name)

        execution = Execution() if record else None
        if execution is not None:
            execution.start(config)
        for mon in self.monitors:
            mon.on_start(config)

        if stop_when is not None and stop_when(config):
            return self._finish(config, 0, False, True, execution, tr, tel)

        if kernel is not None:
            return self._run_fast(
                kernel, config, max_steps, stop_when, execution, tr, tel)
        return self._run_naive(config, max_steps, stop_when, execution, tr, tel)

    # -- naive reference loop -------------------------------------------------
    def _run_naive(
        self,
        config: Any,
        max_steps: int,
        stop_when: Optional[Callable[[Any], bool]],
        execution: Optional[Execution],
        tr: Optional[_RunTelemetry],
        tel: Optional[TelemetrySession],
    ) -> SimulationResult:
        alg = self.algorithm
        steps = 0
        while steps < max_steps:
            enabled = alg.enabled_processes(config)
            if not enabled:
                return self._finish(config, steps, True, False, execution, tr, tel)

            selection = Daemon.validate_selection(
                self.daemon.select(enabled, config, steps), enabled
            )
            moves = tuple(
                Move(i, alg.enabled_rule(config, i).name) for i in selection
            )
            next_config = alg.step(config, selection)

            for mon in self.monitors:
                mon.on_step(steps, config, moves, next_config)
            if execution is not None:
                execution.record(moves, next_config)

            config = next_config
            steps += 1

            if tr is not None:
                if tr.detail:
                    tr.publish_step(steps, moves)
                tr.on_step([m.rule for m in moves])
                if steps % CENSUS_EVERY == 0:
                    tr.census(steps, alg.privileged(config))

            if stop_when is not None and stop_when(config):
                return self._finish(config, steps, False, True, execution, tr, tel)

        return self._finish(config, steps, False, False, execution, tr, tel)

    # -- packed kernel loop ---------------------------------------------------
    def _run_fast(
        self,
        kernel: Any,
        config: Any,
        max_steps: int,
        stop_when: Optional[Callable[[Any], bool]],
        execution: Optional[Execution],
        tr: Optional[_RunTelemetry],
        tel: Optional[TelemetrySession],
    ) -> SimulationResult:
        alg = self.algorithm
        kernel.load(config)
        view = kernel.view()
        need_configs = bool(self.monitors) or execution is not None
        detail = tr is not None and tr.detail
        need_names = tr is not None or need_configs

        # When the stop predicate is the algorithm's own legitimacy test,
        # substitute the kernel's counter-gated version (same verdict, near
        # O(1) rejection) — the common run-until-legitimate workload.
        fast_stop = None
        if stop_when is not None:
            if (
                getattr(stop_when, "__self__", None) is alg
                and getattr(stop_when, "__func__", None)
                is getattr(type(alg), "is_legitimate", None)
            ):
                fast_stop = kernel.is_legitimate

        validate = Daemon.validate_selection
        select = self.daemon.select
        steps = 0
        prev = config
        names: Optional[List[str]] = None
        while steps < max_steps:
            enabled = kernel.enabled()
            if not enabled:
                return self._finish(
                    kernel.export(), steps, True, False, execution, tr, tel)

            selection = validate(select(enabled, view, steps), enabled)
            if need_names:
                # Rule ids are refreshed by apply(); read names first.
                rule_names = kernel.rule_names
                rule_id = kernel.rule_id
                names = [rule_names[rule_id(i)] for i in selection]
            kernel.apply(selection)
            steps += 1

            if need_configs:
                cur = kernel.export()
                moves = tuple(
                    Move(i, r) for i, r in zip(selection, names))
                for mon in self.monitors:
                    mon.on_step(steps - 1, prev, moves, cur)
                if execution is not None:
                    execution.record(moves, cur)
                prev = cur

            if tr is not None:
                if detail:
                    moves = tuple(
                        Move(i, r) for i, r in zip(selection, names))
                    tr.publish_step(steps, moves)
                tr.on_step(names)
                if steps % CENSUS_EVERY == 0:
                    tr.census(steps, kernel.privileged())

            if fast_stop is not None:
                if fast_stop():
                    return self._finish(
                        kernel.export(), steps, False, True, execution, tr, tel)
            elif stop_when is not None and stop_when(view):
                return self._finish(
                    kernel.export(), steps, False, True, execution, tr, tel)

        return self._finish(
            kernel.export(), steps, False, False, execution, tr, tel)

    def _finish(
        self,
        config: Any,
        steps: int,
        deadlocked: bool,
        stopped: bool,
        execution: Optional[Execution],
        tr: Optional[_RunTelemetry],
        tel: Optional[TelemetrySession],
    ) -> SimulationResult:
        """Common run epilogue: notify monitors, flush counters, run_end."""
        for mon in self.monitors:
            mon.on_finish(config)
        if tr is not None:
            tr.flush()
        if tel is not None:
            tel.bus.publish(
                "engine", "run_end", float(steps),
                steps=steps,
                deadlocked=deadlocked,
                stopped_by_predicate=stopped,
            )
        return SimulationResult(config, steps, deadlocked, stopped, execution)

    def run_legitimate_lap(
        self, initial: Any, laps: int = 1, record: bool = True
    ) -> SimulationResult:
        """Run for ``laps`` full token circulations (``3n`` steps each).

        Only meaningful from a legitimate configuration of SSRmin, where each
        circulation takes exactly ``3n`` steps (Lemma 1's canonical cycle).
        """
        return self.run(initial, max_steps=3 * self.algorithm.n * laps, record=record)
