"""Online health checking for a live ring.

The conformance oracle already knows what "healthy" means for these
algorithms: the true configuration is **legitimate**, the caches are
**coherent** (Definition 2, via
:func:`repro.messagepassing.coherence.stale_entries`), and on legitimate
configurations the own-view token census stays inside the paper's bounds
(:data:`repro.verification.conformance.oracle.TOKEN_BOUNDS` — 1..2 for
SSRmin, exactly 1 for Dijkstra).  :class:`HealthMonitor` applies those
predicates *online*: the supervisor notifies it after every state change,
cache update and timer fire, and the monitor tracks stabilization epochs.

The check itself runs on an incremental :class:`~repro.kernels.census.
Census` — the same bookkeeping the packed DES uses — fed the one node
that changed, so a notification costs O(1) instead of a full snapshot.
:meth:`HealthMonitor.snapshot` rebuilds the same three facts from the node
objects and stays as the oracle (and the dashboard's reading).

An **epoch** starts at boot and at every disturbance (a chaos op, a node
crash/restart).  Within an epoch the monitor looks for the first instant
that is simultaneously legitimate + cache-coherent — Theorem 4's entry
condition, after which Theorem 3's token guarantee must hold — and from
that instant on it audits the own-view census on every notification.  A
live ring can therefore report "stabilized in T seconds after fault script
F" and "the ≥1-token guarantee held throughout" without any offline
analysis.

Instantaneous coherence requires rule execution to be *delayed* past cache
repair (the dwell model); with inline execution a non-silent ring hops
from one incoherent instant to the next and the entry condition is never
observable.  The supervisor's default dwell provides the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import RingAlgorithm
from repro.kernels.census import Census
from repro.messagepassing.coherence import stale_entries
from repro.verification.conformance.oracle import TOKEN_BOUNDS

#: Algorithms whose handover is *graceful* (Theorem 3): at least one node
#: sees the token in its own view at **every** instant after a legitimate
#: + coherent start.  For anything else (Dijkstra under CST being the
#: paper's counter-example) the own-view census transiently drops to zero
#: mid-handover, so the lower bound is only audited on coherent instants
#: — and the vacancies themselves are counted as an observable.
GRACEFUL_HANDOVER = frozenset({"SSRmin"})


@dataclass
class Epoch:
    """One disturbance-to-stabilization interval."""

    label: str
    started_at: float
    stabilized_at: Optional[float] = None

    @property
    def time_to_stabilize(self) -> Optional[float]:
        if self.stabilized_at is None:
            return None
        return self.stabilized_at - self.started_at

    def to_json(self) -> dict:
        """JSON-able form for the health report."""
        return {
            "label": self.label,
            "started_at": self.started_at,
            "stabilized_at": self.stabilized_at,
            "time_to_stabilize": self.time_to_stabilize,
        }


@dataclass
class HealthSnapshot:
    """One instantaneous reading of the ring's global state."""

    time: float
    states: Tuple[Any, ...]
    legitimate: bool
    coherent: bool
    own_view_holders: Tuple[int, ...]

    def to_json(self) -> dict:
        """JSON-able form for the health report."""
        return {
            "time": self.time,
            "states": [list(s) if isinstance(s, tuple) else s
                       for s in self.states],
            "legitimate": self.legitimate,
            "coherent": self.coherent,
            "own_view_holders": list(self.own_view_holders),
        }


class HealthMonitor:
    """Event-driven legitimacy + coherence + census tracking.

    Parameters
    ----------
    algorithm:
        The algorithm instance the ring runs.
    nodes:
        ``nodes()`` returns the current node objects, indexable by process
        index.  The monitor reads them all at boot, on :meth:`notify`
        without a node and in :meth:`snapshot`; otherwise it is told which
        node changed (restarts swap node objects, so it never caches one).
    clock:
        ``clock()`` in seconds since boot (the supervisor's run clock).
    """

    def __init__(
        self,
        algorithm: RingAlgorithm,
        nodes: Callable[[], Sequence[Any]],
        clock: Callable[[], float],
    ):
        self.algorithm = algorithm
        self._nodes = nodes
        self.clock = clock
        self.token_bounds = TOKEN_BOUNDS.get(type(algorithm).__name__)
        self.guaranteed_throughout = (
            type(algorithm).__name__ in GRACEFUL_HANDOVER
        )
        self.epochs: List[Epoch] = [Epoch(label="boot", started_at=0.0)]
        self.checks = 0
        #: Optional observers (the supervisor wires these onto its event
        #: bus so the run store and dashboards see epochs live):
        #: ``on_epoch_open(index, epoch)`` fires at every disturbance,
        #: ``on_epoch_stabilized(index, epoch)`` at the first legitimate +
        #: coherent instant of an epoch, ``on_violation(record)`` per
        #: guarantee breach.
        self.on_epoch_open: Optional[Callable[[int, Epoch], None]] = None
        self.on_epoch_stabilized: Optional[Callable[[int, Epoch], None]] = None
        self.on_violation: Optional[Callable[[dict], None]] = None
        #: Transport fault windows currently biting (loss, partition, ...).
        #: The chaos director raises/lowers this at window boundaries;
        #: while non-zero the census audit is suspended, because Theorems
        #: 3-4 promise the token guarantee only for *fault-free* execution
        #: after the legitimate + coherent instant — an epoch that
        #: restabilizes mid-window can still lose handover messages
        #: through no fault of the algorithm.
        self.active_disturbances = 0
        #: Post-stabilization instants with zero own-view tokens.  Always
        #: zero for graceful-handover algorithms (else it's a violation);
        #: for Dijkstra this live-counts the handover gap of Figure 13.
        self.vacancy_instants = 0
        #: Census bookkeeping over post-stabilization instants of the
        #: current epoch (reset at every disturbance).
        self.post_stab_min_holders: Optional[int] = None
        self.post_stab_max_holders: Optional[int] = None
        #: Notifications where a stabilized epoch had zero own-view tokens
        #: (a Theorem 3 violation) or exceeded the upper bound.
        self.guarantee_violations: List[dict] = []
        n = algorithm.n
        self._bidir = algorithm.ring.bidirectional
        # One local view per node with ``None`` off the three cached
        # positions, so a guard that reads further still fails loudly.
        self._views = [[None] * n for _ in range(n)]
        #: The ring's own-view census over native states (a live node can
        #: hold a fault value outside any packed domain).
        self.census = Census(n, self._holds, self._legit, self._bidir)

    def _holds(self, own: Any, cpred: Any, csucc: Any, i: int) -> bool:
        census = self.census
        view = self._views[i]
        view[census.pred[i]] = cpred
        if self._bidir:
            view[census.succ[i]] = csucc
        view[i] = own
        return bool(self.algorithm.node_holds_token(view, i))

    def _legit(self, states: Sequence[Any]) -> bool:
        alg = self.algorithm
        return alg.is_legitimate(alg.normalize_configuration(tuple(states)))

    def _load(self) -> None:
        """Copy every node's state and cache entries into the census."""
        census = self.census
        for node in self._nodes():
            i = node.index
            census.p[i] = node.state
            census.cp[i] = node.cache[census.pred[i]]
            if self._bidir:
                census.cs[i] = node.cache[census.succ[i]]
        census.recount()

    # -- epoch control -------------------------------------------------------
    @property
    def current_epoch(self) -> Epoch:
        return self.epochs[-1]

    @property
    def stabilized(self) -> bool:
        return self.current_epoch.stabilized_at is not None

    def note_disturbance(self, label: str) -> None:
        """A fault just happened: open a fresh epoch."""
        self.epochs.append(Epoch(label=label, started_at=self.clock()))
        self.post_stab_min_holders = None
        self.post_stab_max_holders = None
        if self.on_epoch_open is not None:
            self.on_epoch_open(len(self.epochs) - 1, self.epochs[-1])

    def window_opened(self) -> None:
        """A transport fault window started: suspend the census audit."""
        self.active_disturbances += 1

    def window_healed(self) -> None:
        """A transport fault window closed: resume auditing when last."""
        self.active_disturbances = max(0, self.active_disturbances - 1)

    # -- the online check ----------------------------------------------------
    def snapshot(self) -> HealthSnapshot:
        """Read the ring's global state (single-threaded, hence consistent)."""
        nodes = self._nodes()
        alg = self.algorithm
        states = tuple(node.state for node in nodes)
        config = alg.normalize_configuration(states)
        holders = tuple(
            node.index for node in nodes
            if alg.node_holds_token(node.view(), node.index)
        )
        return HealthSnapshot(
            time=self.clock(),
            states=states,
            legitimate=alg.is_legitimate(config),
            coherent=not stale_entries(nodes),
            own_view_holders=holders,
        )

    def notify(self, node: Any = None) -> None:
        """Run the health check now; called after every observable event.

        ``node`` is the node object that changed: its state and cache
        entries are copied into the census, in O(1).  Without it every
        node is reloaded — at boot (so the first call passes no node), and
        for callers that edit node objects directly.
        """
        self.checks += 1
        census = self.census
        if node is None:
            self._load()
        else:
            i = node.index
            cache = node.cache
            census.set_state(i, node.state)
            census.set_pred_cache(i, cache[census.pred[i]])
            if self._bidir:
                census.set_succ_cache(i, cache[census.succ[i]])
        epoch = self.current_epoch
        if epoch.stabilized_at is None:
            if census.stale == 0 and census.legitimate():
                epoch.stabilized_at = self.clock()
                if self.on_epoch_stabilized is not None:
                    self.on_epoch_stabilized(len(self.epochs) - 1, epoch)
        if epoch.stabilized_at is not None and self.active_disturbances == 0:
            count = census.count()
            if self.post_stab_min_holders is None:
                self.post_stab_min_holders = count
                self.post_stab_max_holders = count
            else:
                self.post_stab_min_holders = min(
                    self.post_stab_min_holders, count)
                self.post_stab_max_holders = max(
                    self.post_stab_max_holders, count)
            if count == 0:
                self.vacancy_instants += 1
            if self.token_bounds is not None:
                lo, hi = self.token_bounds
                # The upper bound is only guaranteed on *legitimate*
                # instants.  The lower bound (token existence) is the
                # graceful-handover guarantee: it must hold *throughout*
                # for SSRmin, but only on coherent instants for
                # non-graceful algorithms, whose census legitimately dips
                # to zero while a handover message is in flight.
                low_breach = count < lo and (
                    self.guaranteed_throughout
                    or (census.stale == 0 and census.legitimate())
                )
                if low_breach or (count > hi and census.legitimate()):
                    record = {
                        "time": self.clock(),
                        "holders": list(census.holders()),
                        "legitimate": census.legitimate(),
                        "epoch": epoch.label,
                        "epoch_index": len(self.epochs) - 1,
                    }
                    self.guarantee_violations.append(record)
                    if self.on_violation is not None:
                        self.on_violation(record)

    # -- reporting -----------------------------------------------------------
    @property
    def ok(self) -> bool:
        """Stabilized in the current epoch, which shows no violations.

        Earlier epochs may legitimately contain violations (a reorder
        window can perturb the guarantee mid-chaos); what a healthy ring
        must deliver is a clean *final* epoch — re-stabilized after the
        last disturbance with the token guarantee intact since.
        """
        final = len(self.epochs) - 1
        return self.stabilized and not any(
            v["epoch_index"] == final for v in self.guarantee_violations
        )

    def time_to_restabilize(self) -> Optional[float]:
        """Stabilization latency of the most recent disturbance epoch."""
        return self.current_epoch.time_to_stabilize

    def to_json(self) -> dict:
        """The report's ``health`` block (epochs, census, violations).

        ``ok`` is the run's one verdict (:attr:`ok`): the CLI exit codes,
        the run store's rows and the status commands all read it.
        """
        return {
            "checks": self.checks,
            "stabilized": self.stabilized,
            "ok": self.ok,
            "graceful_handover": self.guaranteed_throughout,
            "vacancy_instants": self.vacancy_instants,
            "epochs": [e.to_json() for e in self.epochs],
            "time_to_restabilize": self.time_to_restabilize(),
            "post_stab_min_holders": self.post_stab_min_holders,
            "post_stab_max_holders": self.post_stab_max_holders,
            "guarantee_violations": list(self.guarantee_violations),
            "token_bounds": list(self.token_bounds)
            if self.token_bounds else None,
        }
