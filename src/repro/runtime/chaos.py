"""Live faults: one typed vocabulary, its lowering, and the player.

A :class:`FaultConfig` names *what* should go wrong — one member of the
:class:`FaultType` taxonomy, an onset time, a window duration and a 0..1
``severity`` dial — and :meth:`FaultConfig.compile` lowers it for an
n-ring onto :class:`ChaosOp`\\ s:

========================  ====================================================
fault type                lowered to
========================  ====================================================
``loss``                  ``loss`` window (Bernoulli p = severity)
``delay``                 ``delay`` window (latency range scaled by severity)
``duplication``           ``duplicate`` window (p = severity)
``reorder``               ``reorder`` window (p = severity)
``partition``             ``partition`` window (ring cut; severity >= 0.5
                          bisects, below cuts a single edge)
``node-crash``            ``crash`` point fault (watchdog restart)
``wedge``                 ``wedge`` point fault (silent hang; watchdog must
                          detect the missing heartbeat)
``cache-corruption``      ``corrupt-state`` / ``corrupt-cache`` point-fault
                          volley (the paper's section-5 transient faults)
========================  ====================================================

Per-type ``params`` (``edges``, ``node``, ``targets``, ``low``/``high``...)
override the derived values; a key the lowering does not read is refused.

A :class:`ChaosScript` is a sorted list of ops: a window op opens a fault
on the :class:`~repro.runtime.transport.ChaosTransport` for ``duration``
seconds, a point op fires once against the supervisor (the node-state
and cache corruptions the DES models take through ``corrupt_node`` and
``corrupt_cache``; corrupted values come from the supervisor's seeded
fault RNG, so runs replay).  The
:class:`ChaosDirector` plays a script against a running
:class:`~repro.runtime.supervisor.RingSupervisor`, notifying the health
monitor at every disturbance boundary so "time to re-stabilize" is
measured from the instant the last fault stops biting.

The named presets live in :data:`PRESETS`, each a tuple of fault configs
plus a settle time; :func:`build_script` compiles one for any ``n`` and
``repro live chaos --script NAME`` plays it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Tuple

if TYPE_CHECKING:
    from repro.runtime.transport import ChaosTransport


class FaultType(str, Enum):
    """The fault taxonomy (see the table above)."""

    LOSS = "loss"
    DELAY = "delay"
    DUPLICATION = "duplication"
    REORDER = "reorder"
    PARTITION = "partition"
    NODE_CRASH = "node-crash"
    WEDGE = "wedge"
    CACHE_CORRUPTION = "cache-corruption"

    @classmethod
    def parse(cls, value: "FaultType | str") -> "FaultType":
        """Accept enum members, values, or member names (CLI input)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            pass
        try:
            return cls[str(value).upper().replace("-", "_")]
        except KeyError:
            raise ValueError(
                f"unknown fault type {value!r}; available: "
                f"{', '.join(sorted(m.value for m in cls))}"
            ) from None


#: Per fault type: the ChaosOp kinds its lowering emits, whether they open
#: a transport window (else they fire once), and the ``params`` keys the
#: lowering reads.
_TAXONOMY: Dict[FaultType, Tuple[Tuple[str, ...], bool, Tuple[str, ...]]] = {
    FaultType.LOSS: (("loss",), True, ("p",)),
    FaultType.DELAY: (("delay",), True, ("low", "high")),
    FaultType.DUPLICATION: (("duplicate",), True, ("p",)),
    FaultType.REORDER: (("reorder",), True, ("p", "jitter")),
    FaultType.PARTITION: (("partition",), True, ("edges",)),
    FaultType.NODE_CRASH: (("crash",), False, ("node",)),
    FaultType.WEDGE: (("wedge",), False, ("node",)),
    FaultType.CACHE_CORRUPTION: (
        ("corrupt-state", "corrupt-cache"), False, ("targets", "spacing"),
    ),
}
#: Fault types that open a transport window (need ``duration > 0``).
WINDOW_TYPES = frozenset(
    t for t, (_, window, _) in _TAXONOMY.items() if window
)
#: Op kinds that open a transport window for ``duration`` seconds.
WINDOW_KINDS = tuple(
    kind for kinds, window, _ in _TAXONOMY.values() if window for kind in kinds
)
#: Instantaneous op kinds executed against the supervisor.
POINT_KINDS = tuple(
    kind for kinds, window, _ in _TAXONOMY.values() if not window
    for kind in kinds
)


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
        """JSON-able form (embedded in run reports)."""
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

    @classmethod
    def from_faults(
        cls, name: str, faults: Iterable[FaultConfig], n: int, settle: float
    ) -> "ChaosScript":
        """Lower ``faults`` for an ``n``-ring and merge them by onset."""
        ops = [op for fault in faults for op in fault.compile(n)]
        return cls(name, tuple(sorted(ops, key=lambda op: op.at)), settle)

    @property
    def last_disturbance(self) -> float:
        """When the final fault stops biting (window end / point time)."""
        return max((op.at + op.duration for op in self.ops), default=0.0)

    @property
    def duration(self) -> float:
        return self.last_disturbance + self.settle

    def to_json(self) -> dict:
        """JSON-able form (embedded in run reports)."""
        return {"name": self.name, "settle": self.settle,
                "ops": [op.to_json() for op in self.ops]}


class ChaosDirector:
    """Executes one script against a supervisor's transport and nodes.

    asyncio is imported where a script plays, not with this module, so
    the CLI reads :data:`PRESETS` for its parser without the event loop.
    """

    def __init__(self, script: ChaosScript, supervisor) -> None:
        self.script = script
        self.supervisor = supervisor

    async def run(self) -> None:
        """Play the script to completion (relative to the run clock)."""
        import asyncio

        sup = self.supervisor
        for op in sorted(self.script.ops, key=lambda o: o.at):
            delay = op.at - sup.clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self._apply(op)
        remaining = self.script.last_disturbance - sup.clock()
        if remaining > 0:
            await asyncio.sleep(remaining)
        settle = self.script.settle
        if settle > 0:
            await asyncio.sleep(settle)

    # -- op application ------------------------------------------------------
    def _apply(self, op: ChaosOp) -> None:
        import asyncio

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


# -- the fault vocabulary ----------------------------------------------------

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


@dataclass(frozen=True)
class FaultConfig:
    """One declarative fault: ``fault_type`` at ``at`` for ``duration``.

    Parameters
    ----------
    fault_type:
        A :class:`FaultType` (or its string value — CLI / JSON specs).
    at:
        Onset in seconds after boot-stabilization.
    duration:
        Window length for transport faults (ignored by point faults).
    severity:
        0..1 intensity dial; the per-type lowering derives probabilities
        and latency ranges from it (see :meth:`compile`).
    params:
        Per-type overrides (``edges``, ``node``, ``targets``, ``low``,
        ``high``, ``jitter``, ``spacing``); a node index wraps mod ``n``.
    """

    fault_type: FaultType
    at: float = 0.5
    duration: float = 0.8
    severity: float = 0.5
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        fault_type = FaultType.parse(self.fault_type)
        object.__setattr__(self, "fault_type", fault_type)
        # An infinite onset or window would leave the director asleep.
        for name in ("at", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(
                f"severity must be in [0, 1], got {self.severity}"
            )
        if fault_type in WINDOW_TYPES and self.duration <= 0:
            raise ValueError(
                f"{fault_type.value} needs a positive duration"
            )
        reads = _TAXONOMY[fault_type][2]
        unknown = sorted(set(self.params) - set(reads))
        if unknown:
            raise ValueError(
                f"{fault_type.value} reads params {list(reads)}, "
                f"not {unknown}"
            )

    # -- identity ------------------------------------------------------------
    @property
    def slug(self) -> str:
        """Short grid-cell label (``loss-0.6``, ``partition``)."""
        base = self.fault_type.value
        if self.fault_type in WINDOW_TYPES and self.fault_type is not \
                FaultType.PARTITION:
            return f"{base}-{self.severity:g}"
        return base

    # -- lowering ------------------------------------------------------------
    def compile(self, n: int) -> Tuple[ChaosOp, ...]:
        """Lower this fault onto :class:`ChaosOp` primitives for an n-ring.

        Deterministic in ``(self, n)`` — grids replay.
        """
        p = self.params
        ft = self.fault_type
        kind = _TAXONOMY[ft][0][0]
        if ft in (FaultType.LOSS, FaultType.DUPLICATION):
            return (ChaosOp(self.at, kind, self.duration,
                            {"p": float(p.get("p", self.severity))}),)
        if ft is FaultType.DELAY:
            low = float(p.get("low", 0.02))
            high = float(p.get("high", low + 0.18 * max(self.severity, 0.1)))
            return (ChaosOp(self.at, kind, self.duration,
                            {"low": low, "high": high}),)
        if ft is FaultType.REORDER:
            return (ChaosOp(self.at, kind, self.duration,
                            {"p": float(p.get("p", self.severity)),
                             "jitter": float(p.get("jitter", 0.05))}),)
        if ft is FaultType.PARTITION:
            edges = p.get("edges")
            if edges is None:
                edges = ring_cut_edges(n, bisect=self.severity >= 0.5)
            edges = [tuple(e) for e in edges]
            for src, dst in edges:
                if not (0 <= src < n and 0 <= dst < n):
                    raise ValueError(
                        f"partition edge ({src}, {dst}) outside the "
                        f"{n}-ring"
                    )
            return (ChaosOp(self.at, kind, self.duration,
                            {"edges": edges}),)
        if ft in (FaultType.NODE_CRASH, FaultType.WEDGE):
            return (ChaosOp(self.at, kind,
                            params={"node": int(p.get("node", n // 2)) % n}),)
        # cache-corruption: a volley of transient memory faults.  The
        # default targets are the state of node 1, the predecessor cache
        # entry of the mid-ring node (every ring kind caches its
        # predecessor; a unidirectional ring has no successor entry) and
        # the state of node n-1, spaced ``spacing`` seconds apart.
        targets = p.get("targets")
        if targets is None:
            mid = n // 2
            targets = [
                {"node": 1 % n},
                {"node": mid, "neighbor": (mid - 1) % n},
                {"node": (n - 1) % n},
            ]
        spacing = float(p.get("spacing", 0.4))
        ops: List[ChaosOp] = []
        for k, target in enumerate(targets):
            node = int(target["node"]) % n
            when = self.at + k * spacing
            if "neighbor" in target:
                ops.append(ChaosOp(when, "corrupt-cache", params={
                    "node": node, "neighbor": int(target["neighbor"]) % n,
                }))
            else:
                ops.append(ChaosOp(when, "corrupt-state",
                                   params={"node": node}))
        return tuple(ops)

    # -- (de)serialization ---------------------------------------------------
    def to_json(self) -> dict:
        """JSON-able form (campaign specs, cross-process payloads)."""
        return {
            "type": self.fault_type.value,
            "at": self.at,
            "duration": self.duration,
            "severity": self.severity,
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, blob: dict) -> "FaultConfig":
        """Inverse of :meth:`to_json`; tolerant of sparse spec files."""
        if "type" not in blob and "fault_type" not in blob:
            raise ValueError(f"fault spec needs a 'type' key: {blob!r}")
        kwargs: Dict[str, Any] = {
            "fault_type": FaultType.parse(
                blob.get("type", blob.get("fault_type"))
            ),
        }
        for key in ("at", "duration", "severity"):
            if key in blob:
                kwargs[key] = float(blob[key])
        if blob.get("params"):
            kwargs["params"] = dict(blob["params"])
        return cls(**kwargs)


def parse_fault_flag(spec: str) -> FaultConfig:
    """Parse a CLI ``--fault`` flag: ``type[:severity[:duration]]``.

    Empty segments keep the defaults (``partition::0.4`` sets only the
    duration).
    """
    parts = spec.split(":")
    kwargs: Dict[str, Any] = {"fault_type": FaultType.parse(parts[0])}
    if len(parts) > 1 and parts[1]:
        kwargs["severity"] = float(parts[1])
    if len(parts) > 2 and parts[2]:
        kwargs["duration"] = float(parts[2])
    if len(parts) > 3:
        raise ValueError(
            f"--fault takes type[:severity[:duration]], got {spec!r}"
        )
    return FaultConfig(**kwargs)


# -- named presets -----------------------------------------------------------

#: ``name -> (faults, settle)``: the named chaos scripts, as fault plans
#: plus the calm run-on (seconds) after the last fault stops biting.
PRESETS: Dict[str, Tuple[Tuple[FaultConfig, ...], float]] = {
    # The canonical Theorem 4 stressor: messages vanish uniformly at
    # random, caches go stale, the timers must repair them — twice, with
    # a calm gap in between to show re-stabilization is repeatable.
    "loss_burst": ((
        FaultConfig(FaultType.LOSS, at=0.6, duration=1.0, severity=0.6),
        FaultConfig(FaultType.LOSS, at=2.4, duration=0.8, severity=0.4),
    ), 3.0),
    # Cut two opposite ring edges (a true bisection for even n).
    "partition": ((
        FaultConfig(FaultType.PARTITION, at=0.6, duration=1.2),
    ), 3.0),
    # Duplication plus reordering jitter: the unsupportive-channel mix.
    "dup_reorder": ((
        FaultConfig(FaultType.DUPLICATION, at=0.5, duration=1.2,
                    severity=0.4),
        FaultConfig(FaultType.REORDER, at=0.9, duration=1.0, severity=0.35,
                    params={"jitter": 0.04}),
    ), 3.0),
    # Kill the mid-ring node; the watchdog must restart and re-integrate it.
    "crash_restart": ((FaultConfig(FaultType.NODE_CRASH, at=0.8),), 4.0),
    # Transient state + cache corruption (the paper's section-5 faults).
    "cache_scramble": ((
        FaultConfig(FaultType.CACHE_CORRUPTION, at=0.5),
    ), 3.0),
    # Everything at once: loss + delay + a one-edge cut + a crash of node
    # n-1.
    "storm": ((
        FaultConfig(FaultType.LOSS, at=0.4, duration=1.4, severity=0.35),
        FaultConfig(FaultType.DELAY, at=0.7, duration=1.2,
                    params={"low": 0.02, "high": 0.08}),
        FaultConfig(FaultType.PARTITION, at=1.0, duration=0.8, severity=0.0),
        FaultConfig(FaultType.NODE_CRASH, at=1.5, params={"node": -1}),
    ), 4.0),
}


def preset(name: str) -> Tuple[Tuple[FaultConfig, ...], float]:
    """The named preset's ``(faults, settle)``."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos script {name!r}; available: "
            f"{', '.join(sorted(PRESETS))}"
        ) from None


def build_script(name: str, n: int) -> ChaosScript:
    """Compile the named preset for an ``n``-ring."""
    faults, settle = preset(name)
    return ChaosScript.from_faults(name, faults, n, settle)
