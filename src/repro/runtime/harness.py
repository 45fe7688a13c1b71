"""Synchronous entry points for live runs (CLI and test harness).

These wrap the asyncio machinery in ``asyncio.run`` so callers (argparse
handlers, plain pytest functions) need no event-loop plumbing:

* :func:`live_run` — boot a ring, require stabilization within a deadline,
  run for a duration, drain, return the report;
* :func:`live_chaos` — play a named chaos preset as one
  :class:`~repro.chaoslab.experiment.ChaosExperiment`: boot, stabilize,
  inject, require *re*-stabilization after the last disturbance, drain,
  return the report (including ``health.time_to_restabilize``).

Both build the algorithm from its name the same way the conformance CLI
does, and both leave recording to the caller: ``repro live run|chaos``
attach a :class:`~repro.observability.ingest.StoreSubscriber` to the
telemetry session, which writes the run store's row as the ring runs.
The report's ``health.ok`` is the run's verdict.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Optional, Union

from repro.algorithms import build_algorithm
from repro.runtime.chaos import preset
from repro.runtime.supervisor import RingSupervisor


def install_uvloop(enabled: bool = True) -> bool:
    """Switch the asyncio event-loop policy to uvloop when available.

    uvloop is an *optional* extra (``pip install repro[perf]``); the
    stdlib loop is the always-working fallback.  Returns whether uvloop
    is actually driving subsequent ``asyncio.run`` calls, so reports can
    record which loop produced their numbers.
    """
    if not enabled:
        asyncio.set_event_loop_policy(None)
        return False
    try:
        import uvloop
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


def loop_name() -> str:
    """``"uvloop"`` or ``"asyncio"`` — whichever policy is installed."""
    policy = asyncio.get_event_loop_policy()
    return (
        "uvloop" if type(policy).__module__.startswith("uvloop")
        else "asyncio"
    )


async def _run(
    supervisor: RingSupervisor,
    duration: float,
    stabilize_timeout: float,
) -> dict:
    try:
        await supervisor.boot()
        try:
            await supervisor.wait_stabilized(stabilize_timeout)
        except TimeoutError:
            # Not an exceptional control path for a CLI: the report (and
            # the exit code derived from it) carries stabilized=False.
            pass
        if duration > 0:
            await supervisor.run_for(duration)
    finally:
        await supervisor.shutdown()
    return supervisor.report()


def live_run(
    algorithm: str = "ssrmin",
    n: int = 5,
    K: Optional[int] = None,
    transport: str = "loopback",
    duration: float = 2.0,
    seed: int = 0,
    timer_interval: float = 0.2,
    initial: Union[str, List[Any]] = "legitimate",
    stabilize_timeout: float = 10.0,
    wire: str = "json",
    use_uvloop: bool = False,
    **kwargs: Any,
) -> dict:
    """Boot a live ring, stabilize, run, drain; returns the run report."""
    if use_uvloop:
        install_uvloop(True)
    supervisor = RingSupervisor(
        build_algorithm(algorithm, n, K),
        transport=transport,
        wire=wire,
        initial=initial,
        seed=seed,
        timer_interval=timer_interval,
        **kwargs,
    )
    report = asyncio.run(_run(supervisor, duration, stabilize_timeout))
    report["loop"] = loop_name()
    return report


def live_chaos(
    script: str = "loss_burst",
    algorithm: str = "ssrmin",
    n: int = 8,
    K: Optional[int] = None,
    transport: str = "udp",
    seed: int = 0,
    timer_interval: float = 0.1,
    initial: Union[str, List[Any]] = "legitimate",
    stabilize_timeout: float = 10.0,
    extra_duration: float = 0.0,
    wire: str = "json",
    use_uvloop: bool = False,
) -> dict:
    """Play the named chaos preset against a live ring; returns the report.

    The preset runs as a one-experiment chaos-lab plan with abort off (a
    custom plan is a :class:`~repro.chaoslab.experiment.ChaosExperiment`).
    The report's ``health`` block answers the operational questions:
    ``stabilized`` (did the final epoch re-stabilize),
    ``time_to_restabilize`` (seconds from the last disturbance), and
    ``guarantee_violations`` (own-view token-census breaches observed
    after stabilization).
    """
    # Imported here: the chaos lab builds its rings through this module.
    from repro.chaoslab.experiment import ChaosExperiment, run_experiment

    faults, settle = preset(script)
    if use_uvloop:
        install_uvloop(True)
    experiment = ChaosExperiment(
        name=script,
        faults=faults,
        algorithm=algorithm,
        n=n,
        K=K,
        seed=seed,
        transport=transport,
        wire=wire,
        timer_interval=timer_interval,
        initial=initial,
        settle=settle,
        stabilize_timeout=stabilize_timeout,
        extra_duration=extra_duration,
        abort_on_breach=False,
    )
    report = run_experiment(experiment).report
    report["loop"] = loop_name()
    return report


def render_live_report(report: dict) -> List[str]:
    """Human-readable one-liners for a live run report."""
    health = report.get("health", {})
    lines = [
        f"ring:       {report.get('algorithm')} n={report.get('n')} "
        f"K={report.get('K')} seed={report.get('seed')}",
        f"transport:  {report.get('transport')}"
        + (" + chaos" if report.get("chaos") else "")
        + (f" · wire={report['wire'].get('format')}"
           if isinstance(report.get("wire"), dict) else "")
        + (f" · loop={report['loop']}" if report.get("loop") else ""),
        f"wall clock: {report.get('wall_clock', 0.0):.2f}s "
        f"(timer interval {report.get('timer_interval')}s)",
        f"stabilized: {health.get('stabilized')}",
    ]
    ttr = health.get("time_to_restabilize")
    if ttr is not None:
        lines.append(f"time to (re)stabilize: {ttr:.3f}s "
                     f"after {health.get('epochs', [{}])[-1].get('label')}")
    lo = health.get("post_stab_min_holders")
    hi = health.get("post_stab_max_holders")
    if lo is not None:
        lines.append(f"own-view token census post-stabilization: "
                     f"[{lo}, {hi}] (bounds {health.get('token_bounds')})")
    violations = health.get("guarantee_violations", [])
    lines.append(f"guarantee violations: {len(violations)}")
    if not health.get("graceful_handover", True):
        lines.append(
            f"own-view vacancy instants (non-graceful handover): "
            f"{health.get('vacancy_instants')}"
        )
    if report.get("restarts"):
        lines.append(f"node restarts: {report['restarts']}")
    tstats = report.get("transport_stats", {})
    if tstats:
        lines.append(
            "messages: " + ", ".join(f"{k}={v}" for k, v in tstats.items())
        )
    for epoch in health.get("epochs", ()):
        t = epoch.get("time_to_stabilize")
        lines.append(
            f"  epoch {epoch.get('label')}: "
            + (f"stabilized in {t:.3f}s" if t is not None else "NOT stabilized")
        )
    return lines
