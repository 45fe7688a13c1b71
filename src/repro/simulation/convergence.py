"""Convergence-time measurement (Theorem 2: O(n^2) steps).

:func:`converge` runs a simulation until the configuration is legitimate and
reports how many steps that took; :func:`convergence_steps` is the batch
version used by the scaling study (thm2 bench), which feeds its samples to
:mod:`repro.analysis.scaling` for the log-log exponent fit.

Both drivers use the packed :mod:`~repro.simulation.fastpath` kernel when
the algorithm provides one — the run-until-legitimate workload is exactly
where the kernel's O(|S|) incremental enabledness and counter-gated
legitimacy test pay off (``use_fastpath=False`` restores the naive path;
the two are differential-tested to take identical schedules).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.algorithms.base import RingAlgorithm
from repro.daemons.base import Daemon
from repro.simulation.engine import SharedMemorySimulator
from repro.simulation.fastpath import resolve_kernel
from repro.telemetry.session import current_session

#: Flush interval for locally-aggregated step counters (matches the engine).
_FLUSH_EVERY = 256


@dataclass
class ConvergenceResult:
    """Outcome of a run-until-legitimate simulation.

    Attributes
    ----------
    converged:
        Whether a legitimate configuration was reached within the budget.
    steps:
        Steps taken to reach it (meaningless when ``converged`` is False).
    dijkstra_steps:
        Steps until the *embedded Dijkstra ring* converged (only populated
        for SSRmin, where Lemma 8's two-phase analysis applies); ``None``
        otherwise.
    final_config:
        The configuration at stop time.
    """

    converged: bool
    steps: int
    dijkstra_steps: Optional[int]
    final_config: Any


def _observed(result: "ConvergenceResult") -> "ConvergenceResult":
    """Feed a finished convergence run into the telemetry histogram."""
    tel = current_session()
    if tel is not None and result.converged:
        tel.registry.histogram(
            "convergence_steps", "steps until first legitimacy"
        ).observe(float(result.steps), engine="scalar")
    return result


def converge(
    algorithm: RingAlgorithm,
    daemon: Daemon,
    initial: Any,
    max_steps: Optional[int] = None,
    use_fastpath: bool = True,
) -> ConvergenceResult:
    """Run from ``initial`` until the configuration is legitimate.

    ``max_steps`` defaults to a generous multiple of the proven O(n^2) bound
    so non-convergence within the budget is strong evidence of a bug, not an
    unlucky schedule.  ``use_fastpath=False`` selects the naive path
    (default: the packed kernel when the algorithm provides one).
    """
    n = algorithm.n
    if max_steps is None:
        max_steps = 60 * n * n + 600

    # Track the embedded-Dijkstra convergence point when available (SSRmin).
    projection = getattr(algorithm, "dijkstra_projection", None)
    proj = projection() if callable(projection) else None

    config = algorithm.normalize_configuration(initial)
    kernel = resolve_kernel(algorithm, use_fastpath)

    if kernel is not None:
        return _observed(_converge_fast(
            algorithm, daemon, config, max_steps, kernel,
            track_dijkstra=proj is not None,
        ))

    if proj is not None:
        # Run step by step so we can observe the first Dijkstra-legitimate
        # configuration; using stop_when would skip that observation.  This
        # loop bypasses the engine, so it keeps the steps_total counter
        # honest itself (counters only — per-step events would swamp sweep
        # traces).
        tel = current_session()
        steps_total = (
            tel.registry.counter("steps_total", "engine transitions taken")
            if tel is not None else None
        )
        dijkstra_steps: Optional[int] = None
        steps = 0
        if proj.is_legitimate(config):
            dijkstra_steps = 0
        while steps < max_steps and not algorithm.is_legitimate(config):
            enabled = algorithm.enabled_processes(config)
            if not enabled:
                return ConvergenceResult(False, steps, dijkstra_steps, config)
            selection = daemon.select(enabled, config, steps)
            config = algorithm.step(config, selection)
            steps += 1
            if steps_total is not None:
                steps_total.inc(1, daemon=daemon.name)
            if dijkstra_steps is None and proj.is_legitimate(config):
                dijkstra_steps = steps
        converged = algorithm.is_legitimate(config)
        return _observed(
            ConvergenceResult(converged, steps, dijkstra_steps, config)
        )

    sim = SharedMemorySimulator(algorithm, daemon, use_fastpath=False)
    result = sim.run(
        config, max_steps=max_steps, stop_when=algorithm.is_legitimate, record=False
    )
    return _observed(ConvergenceResult(
        result.stopped_by_predicate or algorithm.is_legitimate(result.final_config),
        result.steps,
        None,
        result.final_config,
    ))


def _converge_fast(
    algorithm: RingAlgorithm,
    daemon: Daemon,
    config: Any,
    max_steps: int,
    kernel: Any,
    track_dijkstra: bool,
) -> ConvergenceResult:
    """Kernel-driven run-until-legitimate loop.

    Matches its naive counterpart move for move: same daemon calls (the
    naive projection loop never calls ``daemon.reset``; the engine-backed
    path does), same selection order, counters-only telemetry batched
    every :data:`_FLUSH_EVERY` steps.
    """
    if not track_dijkstra:
        daemon.reset()
    tel = current_session()
    steps_total = (
        tel.registry.counter("steps_total", "engine transitions taken")
        if tel is not None else None
    )
    kernel.load(config)
    view = kernel.view()
    dijkstra_legit = (
        kernel.dijkstra_legitimate
        if track_dijkstra and hasattr(kernel, "dijkstra_legitimate")
        else None
    )
    dijkstra_steps: Optional[int] = None
    if dijkstra_legit is not None and dijkstra_legit():
        dijkstra_steps = 0

    select = daemon.select
    is_legit = kernel.is_legitimate
    apply = kernel.apply
    steps = 0
    pending = 0
    try:
        while steps < max_steps and not is_legit():
            enabled = kernel.enabled()
            if not enabled:
                return ConvergenceResult(
                    False, steps, dijkstra_steps, kernel.export())
            apply(select(enabled, view, steps))
            steps += 1
            if steps_total is not None:
                pending += 1
                if pending >= _FLUSH_EVERY:
                    steps_total.inc(pending, daemon=daemon.name)
                    pending = 0
            if dijkstra_legit is not None and dijkstra_steps is None:
                if dijkstra_legit():
                    dijkstra_steps = steps
    finally:
        if steps_total is not None and pending:
            steps_total.inc(pending, daemon=daemon.name)
    return ConvergenceResult(is_legit(), steps, dijkstra_steps, kernel.export())


def convergence_steps(
    algorithm_factory: Callable[[], RingAlgorithm],
    daemon_factory: Callable[[RingAlgorithm, int], Daemon],
    trials: int,
    seed: int = 0,
    max_steps: Optional[int] = None,
    use_fastpath: bool = True,
) -> List[int]:
    """Measure convergence steps over ``trials`` random initial configurations.

    Parameters
    ----------
    algorithm_factory:
        Builds a fresh algorithm instance (factories keep trials independent).
    daemon_factory:
        ``(algorithm, trial_seed) -> Daemon``.
    trials:
        Number of random starts.
    seed:
        Master seed; trial ``t`` uses ``seed + t`` for both the initial
        configuration and the daemon.
    use_fastpath:
        Forwarded to :func:`converge` for every trial.

    Returns
    -------
    list of int
        Convergence step counts; raises :class:`RuntimeError` if any trial
        fails to converge within the budget (which would falsify Lemma 6).
    """
    samples: List[int] = []
    for t in range(trials):
        alg = algorithm_factory()
        rng = random.Random(seed + t)
        initial = alg.random_configuration(rng)
        daemon = daemon_factory(alg, seed + t)
        res = converge(alg, daemon, initial, max_steps=max_steps,
                       use_fastpath=use_fastpath)
        if not res.converged:
            raise RuntimeError(
                f"trial {t} did not converge within budget from {initial!r}"
            )
        samples.append(res.steps)
    return samples
