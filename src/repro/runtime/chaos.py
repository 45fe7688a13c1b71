"""Scripted chaos for live rings: timed fault windows over a ChaosTransport.

A :class:`ChaosScript` is a sorted list of :class:`ChaosOp`\\ s, each
opening a fault window (``loss``, ``delay``, ``duplicate``, ``reorder``,
``partition``) for ``duration`` seconds or firing an instantaneous fault
(``crash``, ``wedge``, ``corrupt-state``, ``corrupt-cache`` — the same
faults :mod:`repro.faults.injection` injects into the DES models, here
executed against live nodes with values pre-drawn from the script's seeded
RNG so runs replay).  The :class:`ChaosDirector` executes a script against
a running :class:`~repro.runtime.supervisor.RingSupervisor`, notifying the
health monitor at every disturbance boundary so "time to re-stabilize"
is measured from the instant the last fault stops biting.

Named scripts live in :data:`SCRIPTS`; ``repro live chaos --script NAME``
looks them up.  Each factory takes the ring size and a seed, so the same
name scales to any ``n``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.transport import ChaosTransport

#: Fault kinds that open a transport window for ``duration`` seconds.
WINDOW_KINDS = ("loss", "delay", "duplicate", "reorder", "partition")
#: Instantaneous fault kinds executed against the supervisor.
POINT_KINDS = ("crash", "wedge", "corrupt-state", "corrupt-cache")


@dataclass(frozen=True)
class ChaosOp:
    """One scripted fault: at ``at`` seconds, do ``kind`` with ``params``."""

    at: float
    kind: str
    duration: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS + POINT_KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}")
        if self.kind in WINDOW_KINDS and self.duration <= 0:
            raise ValueError(f"{self.kind} op needs a positive duration")

    def to_json(self) -> dict:
        """JSON-able form (embedded in run manifests)."""
        return {"at": self.at, "kind": self.kind,
                "duration": self.duration, "params": dict(self.params)}


@dataclass(frozen=True)
class ChaosScript:
    """A named, replayable fault schedule."""

    name: str
    ops: Tuple[ChaosOp, ...]
    #: Extra run-on time after the last op ends, so the ring has room to
    #: demonstrate re-stabilization before the run is judged.
    settle: float = 3.0

    @property
    def last_disturbance(self) -> float:
        """When the final fault stops biting (window end / point time)."""
        return max((op.at + op.duration for op in self.ops), default=0.0)

    @property
    def duration(self) -> float:
        return self.last_disturbance + self.settle

    def to_json(self) -> dict:
        """JSON-able form (embedded in run manifests)."""
        return {"name": self.name, "settle": self.settle,
                "ops": [op.to_json() for op in self.ops]}


class ChaosDirector:
    """Executes one script against a supervisor's transport and nodes."""

    def __init__(self, script: ChaosScript, supervisor) -> None:
        self.script = script
        self.supervisor = supervisor
        self.applied: List[ChaosOp] = []

    async def run(self) -> None:
        """Play the script to completion (relative to the run clock)."""
        sup = self.supervisor
        for op in sorted(self.script.ops, key=lambda o: o.at):
            delay = op.at - sup.clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self._apply(op)
            self.applied.append(op)
        remaining = self.script.last_disturbance - sup.clock()
        if remaining > 0:
            await asyncio.sleep(remaining)
        settle = self.script.settle
        if settle > 0:
            await asyncio.sleep(settle)

    # -- op application ------------------------------------------------------
    def _apply(self, op: ChaosOp) -> None:
        sup = self.supervisor
        sup.publish("chaos", op=op.kind, duration=op.duration,
                    **{k: v for k, v in op.params.items()})
        if op.kind in POINT_KINDS:
            self._apply_point(op)
            return
        chaos = sup.chaos
        if chaos is None:
            raise RuntimeError(
                "script has transport fault windows but the supervisor was "
                "built without a ChaosTransport (pass chaos=True)"
            )
        revert = self._open_window(chaos, op)
        sup.health.note_disturbance(f"{op.kind}@{op.at:.2f}s")
        sup.health.window_opened()
        loop = asyncio.get_running_loop()

        def close_window() -> None:
            revert()
            # The fault stopped biting: re-stabilization is measured from
            # here (a window's epoch would otherwise blame stabilization
            # latency on the window length).
            sup.health.window_healed()
            sup.health.note_disturbance(f"{op.kind}-healed@{sup.clock():.2f}s")
            sup.publish("chaos_end", op=op.kind)

        sup.track_handle(loop.call_later(op.duration, close_window))

    def _open_window(
        self, chaos: ChaosTransport, op: ChaosOp
    ) -> Callable[[], None]:
        params = op.params
        if op.kind == "loss":
            prev = chaos.loss_p
            chaos.loss_p = float(params.get("p", 0.5))
            return lambda: setattr(chaos, "loss_p", prev)
        if op.kind == "delay":
            prev_range = chaos.delay_range
            chaos.delay_range = (
                float(params.get("low", 0.05)), float(params.get("high", 0.2))
            )
            return lambda: setattr(chaos, "delay_range", prev_range)
        if op.kind == "duplicate":
            prev_p = chaos.duplicate_p
            chaos.duplicate_p = float(params.get("p", 0.3))
            return lambda: setattr(chaos, "duplicate_p", prev_p)
        if op.kind == "reorder":
            prev_p, prev_j = chaos.reorder_p, chaos.reorder_jitter
            chaos.reorder_p = float(params.get("p", 0.3))
            chaos.reorder_jitter = float(params.get("jitter", 0.05))

            def revert_reorder() -> None:
                chaos.reorder_p, chaos.reorder_jitter = prev_p, prev_j

            return revert_reorder
        # partition
        edges = [tuple(e) for e in params["edges"]]
        chaos.cut(edges)
        return lambda: chaos.heal(edges)

    def _apply_point(self, op: ChaosOp) -> None:
        sup = self.supervisor
        params = op.params
        if op.kind == "crash":
            sup.kill(int(params["node"]))
        elif op.kind == "wedge":
            sup.wedge(int(params["node"]))
        elif op.kind == "corrupt-state":
            sup.corrupt_state(int(params["node"]), params.get("value"))
        else:  # corrupt-cache
            sup.corrupt_cache(
                int(params["node"]), int(params["neighbor"]),
                params.get("value"),
            )


# -- named scripts -----------------------------------------------------------

def loss_burst(n: int, seed: int = 0) -> ChaosScript:
    """Two heavy Bernoulli-loss windows across the whole ring.

    The canonical Theorem 4 stressor: messages vanish uniformly at random,
    caches go stale, the timers must repair them — twice, with a calm gap
    in between to show re-stabilization is repeatable.
    """
    return ChaosScript(
        name="loss_burst",
        ops=(
            ChaosOp(at=0.6, kind="loss", duration=1.0, params={"p": 0.6}),
            ChaosOp(at=2.4, kind="loss", duration=0.8, params={"p": 0.4}),
        ),
    )


def ring_cut_edges(n: int, bisect: bool = True) -> List[Tuple[int, int]]:
    """Directed ring edges to cut: ``(0, 1)`` plus the opposite edge.

    Stays inside the ring for any ``n``: a 1-ring has no edges to cut
    (an empty cut is a valid — trivially healing — window), and
    duplicate edges collapse for tiny rings.
    """
    if n < 2:
        return []
    edges = [(0, 1)]
    if bisect:
        opposite = (n // 2, (n // 2 + 1) % n)
        if opposite not in edges:
            edges.append(opposite)
    return edges


def partition(n: int, seed: int = 0) -> ChaosScript:
    """Cut two opposite ring edges (a true bisection for even ``n``)."""
    return ChaosScript(
        name="partition",
        ops=(
            ChaosOp(at=0.6, kind="partition", duration=1.2,
                    params={"edges": ring_cut_edges(n)}),
        ),
    )


def dup_reorder(n: int, seed: int = 0) -> ChaosScript:
    """Duplication plus reordering jitter — the unsupportive-channel mix."""
    return ChaosScript(
        name="dup_reorder",
        ops=(
            ChaosOp(at=0.5, kind="duplicate", duration=1.2, params={"p": 0.4}),
            ChaosOp(at=0.9, kind="reorder", duration=1.0,
                    params={"p": 0.35, "jitter": 0.04}),
        ),
    )


def crash_restart(n: int, seed: int = 0) -> ChaosScript:
    """Kill one node mid-run; the watchdog must restart and re-integrate it."""
    return ChaosScript(
        name="crash_restart",
        ops=(ChaosOp(at=0.8, kind="crash", params={"node": n // 2}),),
        settle=4.0,
    )


def cache_scramble(n: int, seed: int = 0) -> ChaosScript:
    """Transient state + cache corruption (the paper's section-5 faults).

    Values are left ``None`` in the ops; the supervisor draws them from
    its seeded fault RNG at apply time, which keeps the script shape
    independent of the algorithm's state domain.  The corrupted cache
    entry is the predecessor's, which every ring kind caches (a
    unidirectional ring has no successor entry).
    """
    mid = n // 2
    return ChaosScript(
        name="cache_scramble",
        ops=(
            ChaosOp(at=0.5, kind="corrupt-state", params={"node": 1 % n}),
            ChaosOp(at=0.9, kind="corrupt-cache",
                    params={"node": mid, "neighbor": (mid - 1) % n}),
            ChaosOp(at=1.3, kind="corrupt-state", params={"node": n - 1}),
        ),
    )


def storm(n: int, seed: int = 0) -> ChaosScript:
    """Everything at once: loss + delay + a partition + a crash."""
    return ChaosScript(
        name="storm",
        ops=(
            ChaosOp(at=0.4, kind="loss", duration=1.4, params={"p": 0.35}),
            ChaosOp(at=0.7, kind="delay", duration=1.2,
                    params={"low": 0.02, "high": 0.08}),
            ChaosOp(at=1.0, kind="partition", duration=0.8,
                    params={"edges": ring_cut_edges(n, bisect=False)}),
            ChaosOp(at=1.5, kind="crash", params={"node": n - 1}),
        ),
        settle=4.0,
    )


#: ``name -> factory(n, seed)`` for the CLI and tests.
SCRIPTS: Dict[str, Callable[..., ChaosScript]] = {
    "loss_burst": loss_burst,
    "partition": partition,
    "dup_reorder": dup_reorder,
    "crash_restart": crash_restart,
    "cache_scramble": cache_scramble,
    "storm": storm,
}


def build_script(name: str, n: int, seed: int = 0) -> ChaosScript:
    """Look up and instantiate a named script for an ``n``-ring."""
    try:
        factory = SCRIPTS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos script {name!r}; available: "
            f"{', '.join(sorted(SCRIPTS))}"
        ) from None
    return factory(n, seed)
