"""The structured event bus: one ``Event`` schema for every layer.

Both execution models publish into this bus — the state-reading engine
(layer ``"engine"``), the CST message-passing network (layer
``"network"``) and the experiment harness (layer ``"experiment"``).
Every event carries:

* ``seq`` — a monotonically increasing sequence number (total order of
  observation, even across layers when buses share a sequencer);
* ``time`` — the publishing layer's own clock (simulated time for the DES
  network, the step counter for the engines);
* ``layer`` / ``kind`` — the source subsystem and event type;
* ``payload`` — a JSON-able dict of event-specific fields.

Publishing is cheap when nobody listens: :meth:`EventBus.publish` returns
before constructing the :class:`Event` if there are no subscribers, so
always-on publish points (links, timers) cost one truthiness check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

Subscriber = Callable[["Event"], None]

#: Known source layers (informative, not enforced).
LAYERS = ("engine", "network", "experiment")


@dataclass(frozen=True)
class Event:
    """One observed occurrence, in the unified schema."""

    seq: int
    time: float
    layer: str
    kind: str
    payload: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        """Plain-dict form for JSONL export."""
        return {
            "seq": self.seq,
            "time": self.time,
            "layer": self.layer,
            "kind": self.kind,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, row: dict) -> "Event":
        return cls(
            seq=int(row["seq"]),
            time=float(row["time"]),
            layer=str(row["layer"]),
            kind=str(row["kind"]),
            payload=dict(row.get("payload") or {}),
        )


class EventBus:
    """Synchronous publish/subscribe fan-out of :class:`Event`\\ s.

    Parameters
    ----------
    sequence:
        Optional shared sequence counter (an ``itertools.count``).  A
        telemetry session passes its own so events from several buses (one
        per network, plus the session's master bus) interleave with a
        globally monotonic ``seq``.
    """

    def __init__(self, sequence: Optional[Iterator[int]] = None):
        self._subscribers: List[Subscriber] = []
        self._sequence = sequence if sequence is not None else itertools.count()

    # -- subscription ------------------------------------------------------
    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Register ``fn`` to receive every subsequent event; returns it."""
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove a subscriber (no-op if absent)."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    @property
    def active(self) -> bool:
        """Whether anyone is listening (publish is a no-op otherwise)."""
        return bool(self._subscribers)

    # -- publishing --------------------------------------------------------
    def publish(
        self, layer: str, kind: str, time: float, **payload
    ) -> Optional[Event]:
        """Build and fan out one event; returns it (None if nobody listens).

        The event is only constructed when there is at least one
        subscriber, keeping dormant publish points nearly free.
        """
        if not self._subscribers:
            return None
        event = Event(next(self._sequence), float(time), layer, kind, payload)
        for fn in self._subscribers:
            fn(event)
        return event
