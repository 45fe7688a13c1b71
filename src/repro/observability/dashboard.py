"""The live control surface: ``repro top`` and the shared row renderer.

``repro top`` runs a small fleet of live rings in-process (one
:class:`~repro.runtime.fleet.FleetSupervisor`, optionally with a chaos
script playing against every ring) and redraws a terminal dashboard every
refresh interval: per-ring token position, own-view census, legitimacy +
cache coherence, the current epoch with its restabilization clock,
vacancy / violation counters and message rates — the quantities the paper
proves bounds for, live.  The session is recorded the way ``repro fleet
run`` records a fleet: each ring's runtime events stream into the run
store as ``<fleet id>/<ring>`` (see :func:`~repro.runtime.fleet.fleet_id`,
so sessions with other seeds keep their own rows), and the CLI adds one
``fleet`` row holding the aggregate report.

The same :func:`render_rows` renderer backs ``repro live status --watch``
and ``repro fleet status`` (rows built from the run store instead of live
monitors), so the surfaces cannot drift apart.  Every surface reads a
ring's status off its one verdict, ``HealthMonitor.ok`` — live, or as
recorded in the row.

Two frontends share the async fleet loop: a curses screen (interactive
terminals; ``q`` quits early) and a plain-text frame printer (pipes, CI,
tests).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.observability.ingest import recorded_ok

#: Column layout shared by ``repro top`` and ``live status --watch``.
_COLUMNS = (
    ("RING", 22), ("ALG", 9), ("N", 3), ("TOK", 5), ("CENSUS", 6),
    ("LEG", 3), ("COH", 3), ("EPOCH", 18), ("CLOCK", 9), ("VAC", 4),
    ("VIOL", 4), ("RST", 3), ("STATUS", 10),
)


@dataclass
class RingRow:
    """One ring's worth of dashboard state (live or historical)."""

    name: str
    algorithm: str = "?"
    n: int = 0
    holders: Sequence[int] = ()
    census: Optional[int] = None
    legitimate: Optional[bool] = None
    coherent: Optional[bool] = None
    epoch_label: str = "-"
    #: Seconds since the epoch opened (ticking while converging) or the
    #: recorded time-to-stabilize once the epoch closed.
    clock: Optional[float] = None
    converging: bool = False
    vacancy_instants: int = 0
    violations: int = 0
    restarts: int = 0
    status: str = "-"

    @classmethod
    def from_supervisor(cls, name: str, supervisor: Any) -> "RingRow":
        """Read one live supervisor's current state (same event loop)."""
        health = supervisor.health
        snap = health.snapshot()
        epoch = health.current_epoch
        stabilized = epoch.stabilized_at is not None
        return cls(
            name=name,
            algorithm=type(supervisor.algorithm).__name__,
            n=supervisor.n,
            holders=snap.own_view_holders,
            census=len(snap.own_view_holders),
            legitimate=snap.legitimate,
            coherent=snap.coherent,
            epoch_label=epoch.label,
            clock=(
                epoch.time_to_stabilize if stabilized
                else supervisor.clock() - epoch.started_at
            ),
            converging=not stabilized,
            vacancy_instants=health.vacancy_instants,
            violations=len(health.guarantee_violations),
            restarts=supervisor.total_restarts,
            status=_status(health.ok, stabilized, "CONVERGING"),
        )

    @classmethod
    def from_run(
        cls, name: str, run: Dict[str, Any], epochs: Sequence[Dict[str, Any]]
    ) -> "RingRow":
        """Build a row from a recorded run-store row and its epochs.

        The census column shows the post-stabilization minimum the
        subscriber recorded with the verdict.
        """
        extra = run.get("extra") if isinstance(run.get("extra"), dict) else {}
        final = epochs[-1] if epochs else {}
        stabilized = bool(run.get("stabilized"))
        return cls(
            name=name,
            algorithm=str(run.get("algorithm") or "?"),
            n=int(run.get("n") or 0),
            census=extra.get("post_stab_min_holders"),
            legitimate=stabilized or None,
            coherent=stabilized or None,
            epoch_label=str(final.get("label", "-")),
            clock=final.get("time_to_stabilize"),
            converging=not stabilized,
            vacancy_instants=int(run.get("vacancy_instants") or 0),
            violations=int(run.get("violations") or 0),
            restarts=int(run.get("restarts") or 0),
            status=_status(recorded_ok(run), stabilized, "FAIL"),
        )


def _status(ok: Optional[bool], stabilized: bool, unstable: str) -> str:
    """STABLE on the verdict; a stabilized ring that is not ``ok`` has a
    guarantee breach in its final epoch (breaches are only audited after
    stabilization)."""
    if ok:
        return "STABLE"
    return "BREACH" if stabilized else unstable


def _flag(value: Optional[bool]) -> str:
    if value is None:
        return "-"
    return "y" if value else "N"


def render_rows(rows: Sequence[RingRow]) -> List[str]:
    """Fixed-width dashboard table: one header plus one line per ring."""
    header = "  ".join(f"{title:<{width}s}" for title, width in _COLUMNS)
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.holders:
            token = str(min(row.holders))
        elif row.census is not None and row.census > 0:
            token = "*"
        else:
            token = "-"
        if row.clock is None:
            clock = "-"
        else:
            clock = f"{row.clock:7.3f}s" + ("+" if row.converging else " ")
        cells = (
            row.name[: _COLUMNS[0][1]],
            row.algorithm[: _COLUMNS[1][1]],
            str(row.n),
            token,
            str(row.census) if row.census is not None else "-",
            _flag(row.legitimate),
            _flag(row.coherent),
            row.epoch_label[: _COLUMNS[7][1]],
            clock,
            str(row.vacancy_instants),
            str(row.violations),
            str(row.restarts),
            row.status,
        )
        lines.append(
            "  ".join(
                f"{cell:<{width}s}"
                for cell, (_, width) in zip(cells, _COLUMNS)
            ).rstrip()
        )
    return lines


# -- the live fleet loop ------------------------------------------------------


async def run_top_fleet(
    fleet: Any,
    duration: float,
    refresh: float,
    on_frame: Callable[[List[str]], Optional[bool]],
) -> dict:
    """Run ``fleet`` while streaming frames, drain; returns its report.

    ``fleet`` is a :class:`~repro.runtime.fleet.FleetSupervisor`; its
    :meth:`~repro.runtime.fleet.FleetSupervisor.run` stabilizes the rings
    and plays their scripts as ``repro fleet run`` does, while the loop
    here draws ``fleet.status_rows()`` every ``refresh`` seconds until
    ``duration`` elapses (``0``: until stopped).  ``on_frame`` receives
    the rendered lines each tick; returning ``True`` stops the loop early
    (the curses frontend maps ``q`` to this).
    """
    run = None
    try:
        await fleet.boot()
        run = asyncio.ensure_future(fleet.run(duration))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + duration if duration > 0 else None
        while True:
            if on_frame(render_rows(fleet.status_rows())):
                break
            if deadline is not None and loop.time() >= deadline:
                break
            await asyncio.sleep(refresh)
    finally:
        if run is not None:
            run.cancel()
            await asyncio.gather(run, return_exceptions=True)
        await fleet.shutdown()
    if not run.cancelled():
        run.result()  # raises what failed the run before the session ended
    return fleet.report()


def top_plain(
    fleet: Any,
    duration: float,
    refresh: float,
    out: Optional[Callable[[str], None]] = None,
    ansi: bool = False,
) -> dict:
    """Frame-per-tick text frontend (pipes, CI, tests)."""
    emit = out if out is not None else print
    frames = [0]

    def on_frame(lines: List[str]) -> bool:
        if ansi:
            emit("\x1b[H\x1b[2J")
        frames[0] += 1
        emit(f"repro top — frame {frames[0]}")
        for line in lines:
            emit(line)
        emit("")
        return False

    return asyncio.run(run_top_fleet(fleet, duration, refresh, on_frame))


def top_curses(
    fleet: Any, duration: float, refresh: float,
) -> dict:  # pragma: no cover - interactive terminal path
    """Curses frontend: full-screen redraws, ``q`` quits."""
    import curses

    def main(screen) -> dict:
        curses.curs_set(0)
        screen.nodelay(True)

        def on_frame(lines: List[str]) -> bool:
            screen.erase()
            max_y, max_x = screen.getmaxyx()
            screen.addnstr(
                0, 0,
                "repro top — q to quit",
                max_x - 1, curses.A_BOLD,
            )
            for i, line in enumerate(lines, start=2):
                if i >= max_y:
                    break
                screen.addnstr(i, 0, line, max_x - 1)
            screen.refresh()
            try:
                return screen.getch() in (ord("q"), ord("Q"))
            except curses.error:
                return False

        return asyncio.run(run_top_fleet(fleet, duration, refresh, on_frame))

    return curses.wrapper(main)


__all__ = [
    "RingRow",
    "render_rows",
    "run_top_fleet",
    "top_curses",
    "top_plain",
]
