"""Directed communication links with delay, loss and capacity one.

The paper's link model (section 5): "each communication link can transmit
only one message in each direction at a time.  In other words, a node v_i can
send a message to its neighbor v_j only if there is no message transiting on
the communication link from v_i to v_j."

:class:`Link` models one *direction*.  Because CST messages carry the
sender's full local state, a newer state supersedes an older one — so when
the link is busy the newest pending state is *coalesced* (kept to transmit as
soon as the link frees up), which both respects the capacity-one constraint
and guarantees the freshest state eventually flows (the property Lemma 9's
convergence argument needs).

Message loss is Bernoulli per message (the paper's "events of message loss
occur uniformly at random"); a lost message still occupies the link for its
transit time — as a radio transmission would — but is silently dropped
instead of delivered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from repro.messagepassing.des import EventQueue


class Message(NamedTuple):
    """A CST payload ``<state, q>``: the sender's index and local state.

    Tuple-compatible with the bare ``(sender, state)`` pairs the transform
    historically shipped (receivers unpack positionally, telemetry reads
    ``payload[1]``), but allocated once per *distinct* state via the
    sender-side interning cache in :class:`~repro.messagepassing.node.
    CSTNode` instead of once per transmission.
    """

    sender: int
    state: Any


class DelayModel:
    """Base class for per-message transmission-delay distributions."""

    __slots__ = ()

    def sample(self, rng: random.Random) -> float:
        """Draw one transmission delay (> 0)."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class FixedDelay(DelayModel):
    """Constant transmission delay."""

    delay: float = 1.0

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ValueError(f"delay must be > 0, got {self.delay}")

    def sample(self, rng: random.Random) -> float:
        return self.delay


@dataclass(frozen=True, slots=True)
class UniformDelay(DelayModel):
    """Uniform transmission delay on ``[low, high]``."""

    low: float = 0.5
    high: float = 1.5

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high:
            raise ValueError(f"need 0 < low <= high, got [{self.low}, {self.high}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True, slots=True)
class ExponentialDelay(DelayModel):
    """Exponential transmission delay with the given mean (plus a floor).

    The small floor keeps delays strictly positive so event ordering stays
    meaningful.
    """

    mean: float = 1.0
    floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError(f"mean must be > 0, got {self.mean}")

    def sample(self, rng: random.Random) -> float:
        return self.floor + rng.expovariate(1.0 / self.mean)


class Link:
    """One direction of a communication link.

    Parameters
    ----------
    queue:
        The shared event queue.
    deliver:
        Callback ``deliver(payload)`` invoked at the receiver when a message
        arrives.
    delay_model:
        Transmission-delay distribution.
    loss_probability:
        Bernoulli per-message loss probability in ``[0, 1)``.
    rng:
        Random source for delays, losses and duplications (shared per
        network for reproducibility).
    duplicate_probability:
        Bernoulli per-message duplication probability in ``[0, 1)``.  A
        duplicated message is delivered *twice at its single arrival
        instant* — a link-layer retransmit race where the original and the
        retransmission both land — which keeps the capacity-one invariant
        (one message in transit per direction) intact.  The extra random
        draw happens only when this is nonzero, so ``0.0`` (the default)
        leaves existing seeded runs' RNG streams untouched.

    Instances are ``__slots__``-backed: a CST run allocates two link
    directions per ring edge but *touches* them on every event, so the
    dict-free layout trims both per-link memory and the attribute-access
    constant in ``_transmit``/``_arrive``.
    """

    __slots__ = (
        "queue", "deliver", "delay_model", "loss_probability",
        "duplicate_probability", "rng", "label", "outage_until", "observer",
        "busy", "pending", "_has_pending", "sent", "delivered", "lost",
        "coalesced", "duplicated",
    )

    def __init__(
        self,
        queue: EventQueue,
        deliver: Callable[[Any], None],
        delay_model: DelayModel,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        label: str = "",
        duplicate_probability: float = 0.0,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        if not 0.0 <= duplicate_probability < 1.0:
            raise ValueError(
                f"duplicate_probability must be in [0, 1), got "
                f"{duplicate_probability}"
            )
        self.queue = queue
        self.deliver = deliver
        self.delay_model = delay_model
        self.loss_probability = loss_probability
        self.duplicate_probability = duplicate_probability
        # Derive the fallback from the global stream (seeded by callers /
        # the test suite) rather than OS entropy; see docs/TESTING.md.
        self.rng = rng if rng is not None else random.Random(
            random.getrandbits(64)
        )
        self.label = label
        #: Simulation time until which every transmission is lost (an
        #: outage/partition window; see :meth:`set_outage`).
        self.outage_until = float("-inf")
        #: Optional telemetry hook ``observer(kind, payload)`` invoked at
        #: the send / deliver / loss points (kinds match those names).  The
        #: network layer wires this to its event bus; ``None`` costs one
        #: check per event.
        self.observer: Optional[Callable[[str, Any], None]] = None
        #: Whether a message is currently in transit on this direction.
        self.busy = False
        #: Newest payload waiting for the link to free up (coalesced).
        self.pending: Optional[Any] = None
        self._has_pending = False
        # -- statistics -----------------------------------------------------
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.coalesced = 0
        self.duplicated = 0

    def send(self, payload: Any) -> None:
        """Send (or coalesce) a payload on this link direction."""
        if self.busy:
            if self._has_pending:
                self.coalesced += 1
            self.pending = payload
            self._has_pending = True
            return
        self._transmit(payload)

    def set_outage(self, until_time: float) -> None:
        """Mark this direction down until ``until_time``.

        Every message sent while the outage is active is lost (the radio
        transmits into the void); transmissions after ``until_time`` behave
        normally again.  Used by the link-outage fault scenarios.
        """
        self.outage_until = max(self.outage_until, until_time)

    def _transmit(self, payload: Any) -> None:
        self.busy = True
        self.sent += 1
        if self.observer is not None:
            self.observer("send", payload)
        lost = (
            self.rng.random() < self.loss_probability
            or self.queue.now < self.outage_until
        )
        # Duplication draw comes after the loss draw and before the delay
        # draw (the fastpath engine consumes the stream in this exact
        # order); the draw is skipped entirely at probability zero so
        # dup-free seeded runs keep their historical RNG streams.
        copies = 1
        if (
            self.duplicate_probability > 0.0
            and self.rng.random() < self.duplicate_probability
        ):
            copies = 2
            self.duplicated += 1
        delay = self.delay_model.sample(self.rng)
        self.queue.schedule(
            delay,
            lambda p=payload, lost=lost, c=copies: self._arrive(p, lost, c),
            label=f"link{self.label}",
        )

    def _arrive(self, payload: Any, lost: bool, copies: int = 1) -> None:
        self.busy = False
        if lost:
            self.lost += 1
            if self.observer is not None:
                self.observer("loss", payload)
        else:
            for _ in range(copies):
                self.delivered += 1
                if self.observer is not None:
                    self.observer("deliver", payload)
                self.deliver(payload)
        # The deliver callback may itself have sent on this link; only pump
        # the coalesced payload if the link is still free.
        if self._has_pending and not self.busy:
            payload = self.pending
            self.pending = None
            self._has_pending = False
            self._transmit(payload)
