"""The differential oracle: lockstep execution of one schedule through
every executable model of an algorithm.

Three models run the same ``(configuration, schedule, fault script)``:

* the **reference engine** — the naive guard walk over
  :class:`~repro.core.rules.RuleSet` via ``algorithm.step`` (deliberately
  simple, treated as ground truth);
* the **fastpath kernel** — the packed
  :class:`~repro.simulation.fastpath.kernel.FastKernel`
  (``RULE_TABLE``-driven for SSRmin, comparison-driven for Dijkstra);
* the **CST projection** — real cached
  :class:`~repro.messagepassing.node.CSTNode`\\ s driven at quiescent
  points (:class:`~repro.messagepassing.projection.SynchronousCSTProjection`).

After every step the oracle asserts, in order: cache coherence (CST views
vs true states), enabled-set equality, per-process rule resolution, state
equality, privilege-set equality (including the CST own-view holder set —
Definition 3's ``h_i``), legitimacy agreement, the paper's token-count
invariant on legitimate configurations (1..2 tokens for SSRmin, exactly 1
for Dijkstra — Theorems 1/3), and closure (a legitimate configuration may
not step outside Lambda).  The first violated check becomes a
:class:`Divergence`; everything needed to replay it deterministically is in
the accompanying :class:`~repro.verification.conformance.witness.Witness`.

Schedules replay with *filtering* semantics: each recorded selection is
intersected with the reference enabled set and the step is skipped when the
intersection is empty.  This keeps every schedule applicable to every
configuration, which is what lets the shrinker mutate witnesses freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.algorithms.base import RingAlgorithm
from repro.daemons.base import Daemon
from repro.messagepassing.projection import SynchronousCSTProjection

#: ``algorithm-name -> (min tokens, max tokens)`` on legitimate
#: configurations; checked as the (1,2)-token invariant.
TOKEN_BOUNDS = {"SSRmin": (1, 2), "DijkstraKState": (1, 1)}


@dataclass
class Divergence:
    """One observed disagreement between models (or property violation)."""

    step: int
    kind: str
    detail: str
    config: Tuple[Any, ...]

    def to_json(self) -> dict:
        """JSON-able form (stored in witness headers and fuzz events)."""
        return {
            "step": self.step,
            "kind": self.kind,
            "detail": self.detail,
            "config": [list(s) if isinstance(s, tuple) else s
                       for s in self.config],
        }


@dataclass
class ConformanceReport:
    """Outcome of one lockstep run."""

    steps: int
    fired_steps: int
    divergences: List[Divergence] = field(default_factory=list)
    final_config: Optional[Tuple[Any, ...]] = None
    #: The concrete schedule actually consumed (selections as recorded,
    #: including entries that were skipped after filtering) — this is what
    #: a witness stores and the shrinker mutates.
    schedule: List[Tuple[int, ...]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _states_of(config: Any) -> Tuple[Any, ...]:
    states = getattr(config, "states", None)
    return states if states is not None else tuple(config)


class LockstepOracle:
    """Differential conformance checker for one algorithm instance.

    Parameters
    ----------
    algorithm:
        Instance under test; must provide ``fast_kernel()`` for the kernel
        leg (every shipped SSRmin/Dijkstra instance does).
    use_cst:
        Include the CST projection leg (default on).
    max_divergences:
        Stop after this many recorded divergences (default 1 — the
        shrinker wants the earliest failure).
    """

    def __init__(
        self,
        algorithm: RingAlgorithm,
        use_cst: bool = True,
        max_divergences: int = 1,
    ):
        self.algorithm = algorithm
        self.use_cst = use_cst
        self.max_divergences = max_divergences
        self.token_bounds = TOKEN_BOUNDS.get(type(algorithm).__name__)

    # -- public entry points -------------------------------------------------
    def run_schedule(
        self,
        initial: Any,
        schedule: Sequence[Sequence[int]],
        faults: Sequence[dict] = (),
    ) -> ConformanceReport:
        """Replay a recorded schedule (filtering semantics) with faults."""
        schedule = [tuple(sel) for sel in schedule]

        def driver(enabled: Tuple[int, ...], step: int) -> Tuple[int, ...]:
            recorded = schedule[step]
            return tuple(i for i in recorded if i in enabled)

        return self._run(initial, driver, len(schedule), faults,
                         recorded=schedule)

    def run_daemon(
        self,
        initial: Any,
        daemon: Daemon,
        steps: int,
        faults: Sequence[dict] = (),
    ) -> ConformanceReport:
        """Generate the schedule live from ``daemon`` (campaign mode).

        The daemon selects against the *reference* enabled set and view;
        its selections are recorded in the report so a failing trial can be
        replayed and shrunk as a concrete witness.
        """
        daemon.reset()

        def driver(enabled: Tuple[int, ...], step: int) -> Tuple[int, ...]:
            if not enabled:
                return ()
            return Daemon.validate_selection(
                daemon.select(enabled, self._config, step), enabled
            )

        return self._run(initial, driver, steps, faults, recorded=None)

    # -- the lockstep loop ---------------------------------------------------
    def _run(
        self,
        initial: Any,
        driver: Callable[[Tuple[int, ...], int], Tuple[int, ...]],
        steps: int,
        faults: Sequence[dict],
        recorded: Optional[List[Tuple[int, ...]]],
    ) -> ConformanceReport:
        alg = self.algorithm
        config = alg.normalize_configuration(
            tuple(_states_of(alg.normalize_configuration(initial)))
        )
        self._config = config
        kernel = alg.fast_kernel()
        if kernel is None:  # pragma: no cover - both algorithms have kernels
            raise ValueError(
                f"{type(alg).__name__} has no fast kernel to compare against"
            )
        kernel.load(config)
        projection = (
            SynchronousCSTProjection(alg, list(_states_of(config)))
            if self.use_cst else None
        )

        faults_by_step: dict = {}
        for op in faults:
            faults_by_step.setdefault(int(op["step"]), []).append(op)

        report = ConformanceReport(steps=0, fired_steps=0)
        was_legitimate = alg.is_legitimate(config)

        for step in range(steps):
            step_ops = faults_by_step.get(step, ())
            config, faulted = self._apply_faults(
                config, kernel, projection, step_ops
            )
            self._config = config
            if projection is not None:
                # Channel phase already ran inside _apply_faults; now the
                # timer sweep repairs caches, then coherence is asserted.
                projection.timer_sweep()

            if faulted:
                # A fault legitimately restarts the execution: closure is
                # not violated by leaving Lambda through corruption.
                was_legitimate = alg.is_legitimate(config)

            if self._check_static(config, kernel, projection, step, report):
                # Record an entry for the diverging step so a replayed
                # witness runs far enough to re-execute this check (an
                # empty selection skips the rule phase but not the checks).
                report.schedule.append(
                    recorded[step] if recorded is not None else ()
                )
                report.steps = step + 1
                break

            enabled = alg.enabled_processes(config)
            selection = driver(enabled, step)
            if recorded is None:
                report.schedule.append(tuple(selection))
            else:
                report.schedule.append(recorded[step])
            report.steps = step + 1
            if not selection:
                continue

            next_config = alg.step(config, selection)
            kernel.apply(selection)
            if projection is not None:
                projection.apply(selection)
            report.fired_steps += 1
            config = next_config
            self._config = config

            if self._check_post(
                config, kernel, projection, step, was_legitimate, report
            ):
                break
            was_legitimate = alg.is_legitimate(config)

        report.final_config = _states_of(config)
        return report

    # -- fault application ---------------------------------------------------
    def _apply_faults(
        self, config, kernel, projection, ops
    ) -> Tuple[Any, bool]:
        alg = self.algorithm
        faulted = False
        for op in ops:
            kind = op["kind"]
            if kind == "corrupt-state":
                value = _decode_state(op["value"])
                config = alg.corrupt_process_to(
                    config, int(op["process"]), value
                )
                kernel.load(config)
                if projection is not None:
                    projection.corrupt_node(int(op["process"]), value)
                faulted = True
            elif projection is None:
                continue
            elif kind == "corrupt-cache":
                projection.corrupt_cache(
                    int(op["node"]), int(op["neighbor"]),
                    _decode_state(op["value"]),
                )
            elif kind == "lose":
                # A dropped broadcast: the receiver's cache keeps whatever
                # it had — nothing to do until the timer sweep repairs it.
                pass
            elif kind == "delay":
                projection.deliver_stale(int(op["src"]), int(op["dst"]))
            elif kind == "duplicate":
                projection.deliver_current(
                    int(op["src"]), int(op["dst"]), copies=2
                )
            else:
                raise ValueError(f"unknown fault kind {kind!r}")
        return config, faulted

    # -- checks --------------------------------------------------------------
    def _diverge(
        self, report: ConformanceReport, step: int, kind: str, detail: str,
        config: Any,
    ) -> bool:
        report.divergences.append(
            Divergence(step, kind, detail, _states_of(config))
        )
        return len(report.divergences) >= self.max_divergences

    def _check_static(
        self, config, kernel, projection, step, report
    ) -> bool:
        """Pre-step checks: coherence, enabledness, rules, privilege."""
        alg = self.algorithm
        states = _states_of(config)

        if projection is not None:
            bad = projection.incoherent_entries(states)
            if bad:
                return self._diverge(
                    report, step, "coherence",
                    f"stale cache entries after timer sweep: {bad}", config,
                )
            if projection.states() != states:
                return self._diverge(
                    report, step, "state",
                    f"CST node states {projection.states()} != "
                    f"reference {states}", config,
                )

        if kernel.export() != config and _states_of(kernel.export()) != states:
            return self._diverge(
                report, step, "state",
                f"kernel states {_states_of(kernel.export())} != "
                f"reference {states}", config,
            )

        ref_enabled = alg.enabled_processes(config)
        if kernel.enabled() != ref_enabled:
            return self._diverge(
                report, step, "enabled",
                f"kernel enabled {kernel.enabled()} != "
                f"reference {ref_enabled}", config,
            )
        if projection is not None and projection.enabled() != ref_enabled:
            return self._diverge(
                report, step, "enabled",
                f"CST enabled {projection.enabled()} != "
                f"reference {ref_enabled}", config,
            )

        for i in ref_enabled:
            ref_rule = alg.enabled_rule(config, i).name
            if kernel.rule_name(i) != ref_rule:
                return self._diverge(
                    report, step, "rule",
                    f"process {i}: kernel resolves {kernel.rule_name(i)}, "
                    f"reference {ref_rule}", config,
                )
            if projection is not None and projection.rule_name(i) != ref_rule:
                return self._diverge(
                    report, step, "rule",
                    f"process {i}: CST view resolves "
                    f"{projection.rule_name(i)}, reference {ref_rule}",
                    config,
                )

        ref_priv = alg.privileged(config)
        if kernel.privileged() != ref_priv:
            return self._diverge(
                report, step, "privilege",
                f"kernel privileged {kernel.privileged()} != "
                f"reference {ref_priv}", config,
            )
        if projection is not None:
            own = projection.own_view_holders()
            if own != ref_priv:
                return self._diverge(
                    report, step, "own-view",
                    f"CST own-view holders {own} != "
                    f"reference privileged {ref_priv}", config,
                )

        ref_legit = alg.is_legitimate(config)
        if kernel.is_legitimate() != ref_legit:
            return self._diverge(
                report, step, "legitimacy",
                f"kernel legitimacy {kernel.is_legitimate()} != "
                f"reference {ref_legit}", config,
            )
        if ref_legit and self.token_bounds is not None:
            lo, hi = self.token_bounds
            if not lo <= len(ref_priv) <= hi:
                return self._diverge(
                    report, step, "token-count",
                    f"legitimate configuration holds {len(ref_priv)} tokens,"
                    f" expected {lo}..{hi}", config,
                )
        return False

    def _check_post(
        self, config, kernel, projection, step, was_legitimate, report
    ) -> bool:
        """Post-step checks: state equality across models, closure."""
        alg = self.algorithm
        states = _states_of(config)
        kstates = _states_of(kernel.export())
        if kstates != states:
            return self._diverge(
                report, step, "state",
                f"after step {step}: kernel {kstates} != reference {states}",
                config,
            )
        if projection is not None and projection.states() != states:
            return self._diverge(
                report, step, "state",
                f"after step {step}: CST {projection.states()} != "
                f"reference {states}", config,
            )
        if was_legitimate and not alg.is_legitimate(config):
            return self._diverge(
                report, step, "closure",
                "legitimate configuration stepped outside Lambda", config,
            )
        return False


def _decode_state(value: Any) -> Any:
    """JSON round-trip normalization: lists back to tuples, ints stay."""
    if isinstance(value, list):
        return tuple(value)
    return value
