"""Phase-diagram sweep specifications: typed grids with stable cell identity.

A :class:`SweepSpec` names a full phase-diagram grid over the axes the
ROADMAP calls for — ring size ``n``, message loss, delay scale, message
duplication and daemon family — in one of two kinds:

* ``"convergence"`` — shared-memory convergence-time cells (steps until
  Definition 1 first holds from a random start), axes
  ``n × daemon × seed``.  Homogeneous groups of these cells are
  *batchable* through the vectorized kernel backend
  (:func:`repro.kernels.batched.run_convergence_cells`).
* ``"des"`` — message-passing chaos-to-stabilized cells (the Theorem 4
  regime: random states + incoherent caches under loss/delay/duplication),
  axes ``n × loss × delay × duplication × seed``; one discrete-event run
  per cell.

Axes that do not apply to a kind must stay at their defaults — a spec
that sets ``loss_rates`` on a convergence sweep is rejected loudly rather
than silently ignored.

**Cell identity.**  Cells enumerate in deterministic grid order
(``itertools.product`` over the kind's axes); each cell's RNG seed is its
``seed`` axis value, so a cell's result is a pure function of its
parameter tuple — never of grid shape, batch composition or execution
order.  That is the contract the resumable store and the kill-and-resume
test build on.  :meth:`SweepSpec.grid_hash` fingerprints the whole spec;
the store refuses to resume a directory whose recorded spec differs.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, fields
from itertools import product
from typing import Any, Dict, List, Tuple

from repro.kernels.daemon_families import parse_daemon

#: Spec kinds and the axes each one sweeps.
KIND_AXES: Dict[str, Tuple[str, ...]] = {
    "convergence": ("n", "daemon", "seed"),
    "des": ("n", "loss", "delay", "duplication", "seed"),
}

#: Algorithms runnable per kind (the batched backend is SSRmin-only; the
#: DES runs every algorithm with a packed MP codec).
KIND_ALGORITHMS: Dict[str, Tuple[str, ...]] = {
    "convergence": ("ssrmin",),
    "des": ("ssrmin", "dijkstra"),
}


def _fmt(value: Any) -> str:
    """Compact, deterministic axis-value rendering for cell keys."""
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


@dataclass(frozen=True)
class CellSpec:
    """One enumerated grid cell: stable index, key, parameters and seed."""

    index: int
    key: str
    params: Dict[str, Any]
    seed: int

    def group_params(self) -> Tuple[Tuple[str, Any], ...]:
        """The non-seed parameters — the cell's phase-diagram coordinate."""
        return tuple(
            (k, v) for k, v in self.params.items() if k != "seed"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A named, fully-enumerable phase-diagram grid."""

    name: str
    kind: str = "convergence"
    algorithm: str = "ssrmin"
    n_values: Tuple[int, ...] = (8,)
    seeds: Tuple[int, ...] = tuple(range(8))
    #: Daemon-family axis (convergence): "synchronous" | "central" |
    #: "bernoulli:<p>".
    daemons: Tuple[str, ...] = ("bernoulli:0.5",)
    #: DES axes (kind "des" only).
    loss_rates: Tuple[float, ...] = (0.0,)
    delay_scales: Tuple[float, ...] = (1.0,)
    duplication_rates: Tuple[float, ...] = (0.0,)
    #: Convergence budget override (default 60 n^2 + 600 per cell).
    max_steps: int = 0
    #: DES cell parameters (kind "des" only).
    slice_duration: float = 5.0
    max_time: float = 20_000.0
    gap_duration: float = 100.0

    def __post_init__(self):
        if not self.name or "/" in self.name or self.name.startswith("."):
            raise ValueError(f"invalid sweep name {self.name!r}")
        if self.kind not in KIND_AXES:
            raise ValueError(
                f"unknown sweep kind {self.kind!r}; have {sorted(KIND_AXES)}"
            )
        if self.algorithm not in KIND_ALGORITHMS[self.kind]:
            raise ValueError(
                f"kind {self.kind!r} supports algorithms "
                f"{KIND_ALGORITHMS[self.kind]}, got {self.algorithm!r}"
            )
        # Tuple-ify (tolerates lists from JSON round-trips).  A value whose
        # key text repeats (0.1 twice, or 0.1 and 0.1000001) would
        # enumerate one cell key twice and count its result twice in every
        # group statistic.
        for fld in ("n_values", "seeds", "daemons", "loss_rates",
                    "delay_scales", "duplication_rates"):
            values = tuple(getattr(self, fld))
            object.__setattr__(self, fld, values)
            repeated = [k for k, c in Counter(map(_fmt, values)).items()
                        if c > 1]
            if repeated:
                raise ValueError(f"{fld} repeats {repeated}")
        for axis, values in (("n_values", self.n_values),
                             ("seeds", self.seeds)):
            if not values:
                raise ValueError(f"{axis} must be non-empty")
        if any(n < 3 for n in self.n_values):
            raise ValueError("ring sizes must be >= 3")
        for d in self.daemons:
            parse_daemon(d)
        # Reject what a cell would only fail on (or loop forever on) after
        # the sweep's spec and row are already on disk.
        for fld in ("loss_rates", "duplication_rates"):
            if not all(0.0 <= p < 1.0 for p in getattr(self, fld)):
                raise ValueError(f"{fld} must lie in [0, 1)")
        if not all(d > 0.0 for d in self.delay_scales):
            raise ValueError("delay_scales must be > 0")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        for fld in ("slice_duration", "max_time", "gap_duration"):
            if not getattr(self, fld) > 0.0:
                raise ValueError(f"{fld} must be > 0")
        # Axes foreign to the kind must stay at their defaults.
        defaults = {
            "daemons": ("bernoulli:0.5",), "loss_rates": (0.0,),
            "delay_scales": (1.0,), "duplication_rates": (0.0,),
        }
        foreign = (
            ("loss_rates", "delay_scales", "duplication_rates")
            if self.kind == "convergence" else ("daemons",)
        )
        for fld in foreign:
            if getattr(self, fld) != defaults[fld]:
                raise ValueError(
                    f"{fld} is not an axis of kind {self.kind!r} "
                    f"(leave it at {defaults[fld]})"
                )

    # -- enumeration ---------------------------------------------------------
    def axes(self) -> List[Tuple[str, Tuple[Any, ...]]]:
        """The kind's axes as ``(name, values)`` in enumeration order."""
        values = {
            "n": self.n_values,
            "daemon": self.daemons,
            "loss": self.loss_rates,
            "delay": self.delay_scales,
            "duplication": self.duplication_rates,
            "seed": self.seeds,
        }
        return [(axis, values[axis]) for axis in KIND_AXES[self.kind]]

    def total_cells(self) -> int:
        """Grid cardinality (the product of the kind's axis lengths)."""
        count = 1
        for _, values in self.axes():
            count *= len(values)
        return count

    def cells(self) -> List[CellSpec]:
        """Every grid cell in deterministic enumeration order."""
        axes = self.axes()
        names = [axis for axis, _ in axes]
        seed_at = names.index("seed")
        # Each value's ``name=value`` label is formatted once; a key joins
        # the labels of its cell's values.
        labels = [[f"{axis}={_fmt(v)}" for v in values]
                  for axis, values in axes]
        cells = zip(product(*(values for _, values in axes)),
                    product(*labels))
        return [
            CellSpec(index=index, key="/".join(parts),
                     params=dict(zip(names, combo)),
                     seed=int(combo[seed_at]))
            for index, (combo, parts) in enumerate(cells)
        ]

    # -- identity / serialization --------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form (``spec.json`` / run-store ``sweeps.spec``).

        Axis values stay tuples (JSON arrays); every field is immutable,
        so nothing is copied.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "SweepSpec":
        fields = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown sweep spec fields: {sorted(unknown)}")
        return cls(**data)

    def grid_hash(self) -> str:
        """Stable fingerprint of the full spec (resume-compatibility check)."""
        payload = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


__all__ = ["CellSpec", "KIND_ALGORITHMS", "KIND_AXES", "SweepSpec"]
