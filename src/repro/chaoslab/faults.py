"""Typed fault experiments: the declarative layer over :mod:`repro.runtime.chaos`.

A :class:`FaultConfig` names *what* should go wrong — one member of the
:class:`FaultType` taxonomy, an onset time, a window duration and a
``severity`` knob — without saying *how*.  :meth:`FaultConfig.compile`
lowers it onto the existing imperative primitives: every fault type maps
to one or more :class:`~repro.runtime.chaos.ChaosOp`\\ s, so everything a
declarative experiment injects replays through the exact machinery the
hand-written scripts (``loss_burst``, ``partition``, ``storm``) already
exercise.

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

Severity is a single 0..1 dial so fault grids can sweep "how hard" the
same way loss sweeps sweep loss rates; per-type parameters (``edges``,
``node``, ``targets``, ``low``/``high``...) override the derived values
when an experiment needs exact control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.chaos import ChaosOp, ring_cut_edges


class FaultType(str, Enum):
    """The declarative fault taxonomy (see the table above)."""

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


#: Fault types that open a transport window (need ``duration > 0``).
WINDOW_TYPES = frozenset({
    FaultType.LOSS, FaultType.DELAY, FaultType.DUPLICATION,
    FaultType.REORDER, FaultType.PARTITION,
})


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
        Per-type overrides (``edges``, ``node``, ``neighbor``, ``targets``,
        ``low``, ``high``, ``jitter``, ``spacing``).
    """

    fault_type: FaultType
    at: float = 0.5
    duration: float = 0.8
    severity: float = 0.5
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fault_type", FaultType.parse(self.fault_type)
        )
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(
                f"severity must be in [0, 1], got {self.severity}"
            )
        if self.fault_type in WINDOW_TYPES and self.duration <= 0:
            raise ValueError(
                f"{self.fault_type.value} needs a positive duration"
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
    def compile(self, n: int, seed: int = 0) -> Tuple[ChaosOp, ...]:
        """Lower this fault onto :class:`ChaosOp` primitives for an n-ring.

        Deterministic in ``(self, n, seed)`` — grids replay.
        """
        p = self.params
        ft = self.fault_type
        if ft is FaultType.LOSS:
            return (ChaosOp(self.at, "loss", self.duration,
                            {"p": float(p.get("p", self.severity))}),)
        if ft is FaultType.DELAY:
            low = float(p.get("low", 0.02))
            high = float(p.get("high", low + 0.18 * max(self.severity, 0.1)))
            return (ChaosOp(self.at, "delay", self.duration,
                            {"low": low, "high": high}),)
        if ft is FaultType.DUPLICATION:
            return (ChaosOp(self.at, "duplicate", self.duration,
                            {"p": float(p.get("p", self.severity))}),)
        if ft is FaultType.REORDER:
            return (ChaosOp(self.at, "reorder", self.duration,
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
            return (ChaosOp(self.at, "partition", self.duration,
                            {"edges": edges}),)
        if ft is FaultType.NODE_CRASH:
            return (ChaosOp(self.at, "crash",
                            params={"node": int(p.get("node", n // 2)) % n}),)
        if ft is FaultType.WEDGE:
            return (ChaosOp(self.at, "wedge",
                            params={"node": int(p.get("node", n // 2)) % n}),)
        # cache-corruption: a volley of transient memory faults.  The
        # default targets reproduce the ``cache_scramble`` script (state
        # of node 1, the predecessor cache entry of the mid-ring node,
        # state of node n-1), spaced ``spacing`` seconds apart.
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


__all__ = [
    "FaultConfig",
    "FaultType",
    "WINDOW_TYPES",
    "parse_fault_flag",
]
