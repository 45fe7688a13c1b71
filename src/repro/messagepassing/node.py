"""CST nodes — Algorithm 4 (cached sensornet transform) with dwell time.

Each node ``v_i`` emulates process ``P_i``:

* it owns the original algorithm's local state ``q_i``;
* it keeps a cache ``Z_i[v_k]`` of every neighbour's state;
* **on receipt** of ``<state, q>`` from ``v_k``: update ``Z_i[v_k]``, send
  ``<state, q_i>`` to every neighbour, and (at most) one enabled rule is
  executed against the cached view;
* **on interval timer**: send ``<state, q_i>`` to every neighbour (this is
  what repairs corrupted caches — essential for self-stabilization in the
  real network).

**Dwell time.**  A token-ring rule execution *releases* the privilege, and a
real node does its critical-section work (the paper's motivating example:
actively monitoring with its camera) between becoming privileged and
executing the rule.  ``dwell_model`` inserts that delay: when a rule becomes
enabled, execution is scheduled ``dwell`` time units later (re-checking the
guard at execution time, since caches may have moved on).  With
``dwell_model=None`` rules execute inline in the receive handler —
Algorithm 4's literal reading — making privilege periods instantaneous,
which is well-defined but physically degenerate.

Guards and token predicates are evaluated on a *local view*: a pseudo-
configuration where positions ``i-1, i, i+1`` hold ``(cache, own, cache)``
and all other positions hold ``None`` — any rule that touched them would
crash, which doubles as an assertion that guards really are local.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.algorithms.base import RingAlgorithm
from repro.messagepassing.links import DelayModel, Message


class CSTNode:
    """One node of the transformed (message-passing) system.

    Parameters
    ----------
    index:
        The process index ``i`` this node emulates.
    algorithm:
        The original state-reading algorithm (shared, stateless w.r.t. runs).
    neighbors:
        Indices whose states this node caches (readable neighbours).
    initial_state:
        Initial ``q_i`` — arbitrary, per self-stabilization.
    initial_cache:
        Initial cache contents (arbitrary values allowed; missing entries
        default to the node's own initial state so guards are evaluable from
        step zero — any fixed default works since caches self-repair).
    on_state_change:
        Callback ``(node, old_state, new_state)`` fired whenever ``q_i``
        changes (the network layer uses it to timestamp token timelines).
    scheduler:
        ``scheduler(delay, fn)`` hooking into the event queue; required when
        ``dwell_model`` is set.
    dwell_model:
        Delay between a rule becoming enabled and its execution (see module
        docstring); ``None`` executes inline.
    rng:
        Random source for dwell sampling.
    chatty:
        Algorithm 4 verbatim sends the local state on *every* receipt
        (``True``, the default).  ``False`` suppresses the per-receipt echo
        and relies on state-change broadcasts plus the periodic timer — the
        standard economy on broadcast media, where every transmission can
        jam a neighbour; correctness in the limit is unaffected because the
        timers still refresh every cache (the Lemma 9 machinery).
    """

    def __init__(
        self,
        index: int,
        algorithm: RingAlgorithm,
        neighbors: Sequence[int],
        initial_state: Any,
        initial_cache: Optional[Dict[int, Any]] = None,
        on_state_change: Optional[Callable[["CSTNode", Any, Any], None]] = None,
        scheduler: Optional[Callable[[float, Callable[[], None]], Any]] = None,
        dwell_model: Optional[DelayModel] = None,
        rng: Optional[random.Random] = None,
        chatty: bool = True,
    ):
        if dwell_model is not None and scheduler is None:
            raise ValueError("dwell_model requires a scheduler")
        self.index = index
        self.algorithm = algorithm
        self.neighbors = tuple(neighbors)
        self.state = initial_state
        self.cache: Dict[int, Any] = {}
        for k in self.neighbors:
            if initial_cache and k in initial_cache:
                self.cache[k] = initial_cache[k]
            else:
                self.cache[k] = initial_state
        self.on_state_change = on_state_change
        self.scheduler = scheduler
        self.dwell_model = dwell_model
        # Fallback stream derives from the global ``random`` state so a
        # caller (or the test suite's autouse seed fixture) controls it;
        # a bare ``Random()`` here would be OS-entropy-seeded and make
        # nominally-seeded runs irreproducible.
        self.rng = rng if rng is not None else random.Random(
            random.getrandbits(64)
        )
        self.chatty = chatty
        #: Outgoing links, filled in by the network layer: neighbor -> Link.
        self.links: Dict[int, Any] = {}
        self._action_pending = False
        # Interned outgoing payload: re-used across broadcasts while the
        # state is unchanged (the common case — timers re-announce the same
        # state for long stretches).  Validated by *value* on every use
        # because fault injection mutates ``state`` without notice.
        self._payload: Optional[Message] = None
        # -- statistics -----------------------------------------------------
        self.rules_executed = 0
        self.messages_received = 0
        self.timer_fires = 0

    # -- local view ---------------------------------------------------------
    def view(self) -> List[Any]:
        """Pseudo-configuration seen through this node's cache.

        ``view[i] = q_i``; ``view[k] = Z_i[v_k]`` for cached neighbours;
        ``None`` elsewhere (guards must not read those).
        """
        n = self.algorithm.n
        v: List[Any] = [None] * n
        v[self.index] = self.state
        for k in self.neighbors:
            v[k] = self.cache[k]
        return v

    # -- Algorithm 4 actions ----------------------------------------------
    def on_receive(self, sender: int, payload: Any) -> None:
        """Handle ``<state, q>`` from a neighbour (Algorithm 4 lines 7-10)."""
        if sender not in self.cache:
            raise ValueError(
                f"node {self.index} got message from non-neighbour {sender}"
            )
        self.messages_received += 1
        self.cache[sender] = payload
        if self.dwell_model is None:
            changed = self.try_execute_rule()
            if self.chatty or changed:
                self.broadcast_state()
        else:
            if self.chatty:
                self.broadcast_state()
            self._consider_acting()

    def on_timer(self) -> None:
        """Interval timer (Algorithm 4 lines 11-12): refresh neighbours' caches.

        Also re-checks enabledness: after transient faults a node can be
        enabled purely from its (possibly corrupted) initial cache, with no
        incoming message to wake it.
        """
        self.timer_fires += 1
        self.broadcast_state()
        if self.dwell_model is not None:
            self._consider_acting()

    def _consider_acting(self) -> None:
        if self._action_pending:
            return
        if self.algorithm.enabled_rule(self.view(), self.index) is None:
            return
        self._action_pending = True
        dwell = self.dwell_model.sample(self.rng)
        self.scheduler(dwell, self._act)

    def _act(self) -> None:
        self._action_pending = False
        self.try_execute_rule()
        self.broadcast_state()
        # The guard may still (or again) be enabled — e.g. SSRmin's R1
        # followed by a wait for the neighbour, or back-to-back fix rules.
        self._consider_acting()

    def try_execute_rule(self) -> bool:
        """Execute at most one enabled rule against the cached view.

        Returns whether a rule fired.  State-change callbacks run before the
        (caller-issued) broadcast so timelines observe the transient period
        that begins the moment the local state changes.
        """
        view = self.view()
        rule = self.algorithm.enabled_rule(view, self.index)
        if rule is None:
            return False
        new_state = rule.execute(view, self.index)
        self.rules_executed += 1
        if new_state != self.state:
            old = self.state
            self.state = new_state
            if self.on_state_change is not None:
                self.on_state_change(self, old, new_state)
        return True

    def broadcast_state(self) -> None:
        """Send ``<state, q_i>`` to every neighbour (links handle busy/loss)."""
        payload = self._payload
        if payload is None or payload.state != self.state:
            payload = self._payload = Message(self.index, self.state)
        for link in self.links.values():
            link.send(payload)

    # -- token predicates (node's own view) ----------------------------------
    def holds_token(self) -> bool:
        """Whether this node holds a token *according to its own cache*.

        This is the function ``h_i(q_i, Z_i[.])`` of Definition 3 — the
        quantity whose system-wide aggregate must match the true-state
        evaluation for model-gap tolerance.
        """
        return bool(self.algorithm.node_holds_token(self.view(), self.index))
