"""SSRmin — the paper's self-stabilizing mutual-inclusion algorithm (Algorithm 3).

Two tokens circulate a bidirectional ring "like an inchworm":

* the **primary token** is Dijkstra's K-state token — process ``P_i`` holds it
  iff the Dijkstra guard ``G_i`` is true;
* the **secondary token** is the paper's extension, held iff
  ``tra_i == 1  or  (rts_i == 1 and rts_{i+1} == 0 and tra_{i+1} == 0)``.

Movement is controlled by five prioritized rules (smaller number wins, so
each process is enabled by at most one rule):

====  ===========  =========================================================
Rule  When          Effect
====  ===========  =========================================================
R1    ``G_i`` and own ``<rts.tra>`` in {00, 01, 11}
                    ready to send the secondary token: ``<rts.tra> <- 10``
R2    ``G_i``, own ``10``, successor ``01``
                    send the primary token: ``<rts.tra> <- 00``; ``C_i``
R3    ``not G_i``, predecessor ``10``, own in {00, 10, 11}
                    receive the secondary token: ``<rts.tra> <- 01``
R4    ``G_i`` and ``<pred, own, succ> != <00, 10, 00>``
                    fix inconsistent local state (G true): ``00``; ``C_i``
R5    ``not G_i``, ``<pred, own> != <10, 01>``, own ``!= 00``
                    fix inconsistent local state (G false): ``00``
====  ===========  =========================================================

Rules R1-R3 are the legitimate-regime handshake (abstract actions
alpha_1 / alpha_2 / beta of section 3.1); R4-R5 exist solely for convergence.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Sequence, Tuple

from repro.algorithms.base import RingAlgorithm
from repro.algorithms.dijkstra import dijkstra_command, dijkstra_guard
from repro.core.rules import Rule, RuleSet
from repro.core.state import Configuration, StateTuple
from repro.ring.topology import RingTopology


class SSRmin(RingAlgorithm[Configuration, StateTuple]):
    """The SSRmin mutual-inclusion algorithm on a bidirectional ring.

    Parameters
    ----------
    n:
        Number of processes; the paper requires ``n >= 3``.
    K:
        Dijkstra counter domain size, must satisfy ``K > n`` (defaults to
        ``n + 1``).  ``allow_small_k=True`` relaxes the check for the
        K-sensitivity ablation.

    Notes
    -----
    Configurations are :class:`repro.core.state.Configuration` objects (or any
    sequence of ``(x, rts, tra)`` triples — guards only index into them).
    Local-state updates follow composite atomicity via the base class's
    :meth:`step`.
    """

    def __init__(self, n: int, K: int | None = None, *, allow_small_k: bool = False):
        if n < 3:
            raise ValueError(f"SSRmin requires n >= 3 (paper Algorithm 3), got {n}")
        K = n + 1 if K is None else K
        if K <= n and not allow_small_k:
            raise ValueError(
                f"K must exceed n (got K={K}, n={n}); "
                "pass allow_small_k=True for the ablation study"
            )
        if K < 2:
            raise ValueError(f"K must be at least 2, got {K}")
        self.K = K
        self.ring = RingTopology(n, bidirectional=True)
        self.rule_set = RuleSet(
            [
                Rule("R1", 1, self._guard_r1, self._cmd_r1,
                     "ready to send the secondary token"),
                Rule("R2", 2, self._guard_r2, self._cmd_r2,
                     "send the primary token"),
                Rule("R3", 3, self._guard_r3, self._cmd_r3,
                     "receive the secondary token"),
                Rule("R4", 4, self._guard_r4, self._cmd_r4,
                     "fix inconsistent local state when G_i is true"),
                Rule("R5", 5, self._guard_r5, self._cmd_r5,
                     "fix inconsistent local state when G_i is false"),
            ]
        )

    # -- Dijkstra macros G_i / C_i -------------------------------------------
    def G(self, config: Sequence[StateTuple], i: int) -> bool:
        """The Dijkstra guard macro ``G_i`` (Algorithm 2) on the x components."""
        x_i = config[i][0]
        x_pred = config[(i - 1) % self.n][0]
        return dijkstra_guard(x_i, x_pred, is_bottom=(i == 0))

    def C(self, config: Sequence[StateTuple], i: int) -> int:
        """The Dijkstra command macro ``C_i`` — the new ``x_i`` value."""
        x_pred = config[(i - 1) % self.n][0]
        return dijkstra_command(x_pred, is_bottom=(i == 0), K=self.K)

    # -- rule guards (verbatim from Algorithm 3; priority handled by RuleSet) --
    def _guard_r1(self, config: Sequence[StateTuple], i: int) -> bool:
        _, rts, tra = config[i]
        return self.G(config, i) and (rts, tra) in ((0, 0), (0, 1), (1, 1))

    def _cmd_r1(self, config: Sequence[StateTuple], i: int) -> StateTuple:
        x = config[i][0]
        return (x, 1, 0)

    def _guard_r2(self, config: Sequence[StateTuple], i: int) -> bool:
        _, rts, tra = config[i]
        _, rts_s, tra_s = config[(i + 1) % self.n]
        return (
            self.G(config, i)
            and (rts, tra) == (1, 0)
            and (rts_s, tra_s) == (0, 1)
        )

    def _cmd_r2(self, config: Sequence[StateTuple], i: int) -> StateTuple:
        return (self.C(config, i), 0, 0)

    def _guard_r3(self, config: Sequence[StateTuple], i: int) -> bool:
        _, rts, tra = config[i]
        _, rts_p, tra_p = config[(i - 1) % self.n]
        return (
            not self.G(config, i)
            and (rts_p, tra_p) == (1, 0)
            and (rts, tra) in ((0, 0), (1, 0), (1, 1))
        )

    def _cmd_r3(self, config: Sequence[StateTuple], i: int) -> StateTuple:
        x = config[i][0]
        return (x, 0, 1)

    def _guard_r4(self, config: Sequence[StateTuple], i: int) -> bool:
        _, rts, tra = config[i]
        _, rts_p, tra_p = config[(i - 1) % self.n]
        _, rts_s, tra_s = config[(i + 1) % self.n]
        triple = ((rts_p, tra_p), (rts, tra), (rts_s, tra_s))
        return self.G(config, i) and triple != ((0, 0), (1, 0), (0, 0))

    def _cmd_r4(self, config: Sequence[StateTuple], i: int) -> StateTuple:
        return (self.C(config, i), 0, 0)

    def _guard_r5(self, config: Sequence[StateTuple], i: int) -> bool:
        _, rts, tra = config[i]
        _, rts_p, tra_p = config[(i - 1) % self.n]
        return (
            not self.G(config, i)
            and not ((rts_p, tra_p) == (1, 0) and (rts, tra) == (0, 1))
            and (rts, tra) != (0, 0)
        )

    def _cmd_r5(self, config: Sequence[StateTuple], i: int) -> StateTuple:
        x = config[i][0]
        return (x, 0, 0)

    # -- token predicates (Algorithm 3, lines 36-41) --------------------------
    def holds_primary(self, config: Sequence[StateTuple], i: int) -> bool:
        """Primary-token condition: ``G_i``."""
        return self.G(config, i)

    def holds_secondary(self, config: Sequence[StateTuple], i: int) -> bool:
        """Secondary-token condition:
        ``tra_i = 1  or  (rts_i = 1 and rts_{i+1} = 0 and tra_{i+1} = 0)``.
        """
        _, rts, tra = config[i]
        _, rts_s, tra_s = config[(i + 1) % self.n]
        return tra == 1 or (rts == 1 and rts_s == 0 and tra_s == 0)

    def privileged(self, config: Configuration) -> Tuple[int, ...]:
        """Processes holding at least one token (mutual-inclusion privilege)."""
        return tuple(
            i
            for i in range(self.n)
            if self.holds_primary(config, i) or self.holds_secondary(config, i)
        )

    def node_holds_token(self, view: Sequence[StateTuple], i: int) -> bool:
        """Own-view token predicate (Definition 3's ``h_i``): P or S held."""
        return self.holds_primary(view, i) or self.holds_secondary(view, i)

    def primary_holders(self, config: Configuration) -> Tuple[int, ...]:
        """All processes whose primary-token condition holds."""
        return tuple(i for i in range(self.n) if self.holds_primary(config, i))

    def secondary_holders(self, config: Configuration) -> Tuple[int, ...]:
        """All processes whose secondary-token condition holds."""
        return tuple(i for i in range(self.n) if self.holds_secondary(config, i))

    # -- legitimacy ------------------------------------------------------------
    def is_legitimate(self, config: Configuration) -> bool:
        """Definition 1 membership (delegates to :mod:`repro.core.legitimacy`)."""
        from repro.core.legitimacy import is_legitimate

        return is_legitimate(config, self.K)

    # -- state space / configuration plumbing --------------------------------
    def local_state_space(self) -> Sequence[StateTuple]:
        """All ``4K`` local states (Theorem 1 part 2)."""
        return [
            (x, rts, tra)
            for x in range(self.K)
            for rts in (0, 1)
            for tra in (0, 1)
        ]

    def random_configuration(self, rng: random.Random) -> Configuration:
        """Uniformly random configuration — an arbitrary post-fault state.

        Draws ``x``, ``rts``, ``tra`` per process in index order; the draws
        are in-domain ints, so the configuration skips re-validation.
        """
        randrange, K = rng.randrange, self.K
        return Configuration.from_states(tuple(
            (randrange(K), randrange(2), randrange(2))
            for _ in range(self.n)
        ))

    def normalize_configuration(self, raw: Any) -> Configuration:
        return raw if isinstance(raw, Configuration) else Configuration(raw)

    def apply_updates(
        self, config: Configuration, updates: dict[int, StateTuple]
    ) -> Configuration:
        if isinstance(config, Configuration):
            return config.replace_many(updates)
        return Configuration(config).replace_many(updates)

    # -- canonical starting points -------------------------------------------
    def initial_configuration(self, x: int = 0) -> Configuration:
        """The legitimate anchor ``gamma_0 = (x.0.1, x.0.0, ..., x.0.0)``.

        This is the configuration the closure proof (Lemma 1) starts from:
        ``P_0`` holds both tokens.
        """
        if not 0 <= x < self.K:
            raise ValueError(f"x={x} outside domain [0, {self.K})")
        states = [(x, 0, 0)] * self.n
        states[0] = (x, 0, 1)
        return Configuration(states)

    def fast_kernel(self):
        """A fresh :class:`~repro.simulation.fastpath.ssrmin_kernel.SSRminKernel`.

        The packed fast path the engine, convergence driver and model
        checker probe for; differential-tested step-for-step against the
        rule set above.
        """
        from repro.simulation.fastpath.ssrmin_kernel import SSRminKernel

        return SSRminKernel(self)

    def mp_codec(self):
        """A :class:`~repro.messagepassing.fastpath.codecs.SSRminMPCodec`.

        The packed local-view encoding the message-passing fastpath probes
        for; exhaustively differential-tested against the rule set over
        every cached neighbourhood.
        """
        from repro.messagepassing.fastpath.codecs import SSRminMPCodec

        return SSRminMPCodec(self)

    def dijkstra_projection(self) -> "SSRminDijkstraProjection":
        """View of this instance's embedded Dijkstra K-state ring.

        Lemmas 7-8 analyse SSRmin through exactly this projection.
        """
        return SSRminDijkstraProjection(self)


class SSRminDijkstraProjection:
    """Read-only adapter exposing SSRmin's ``x`` components as a Dijkstra ring.

    Provides the legitimacy test and token position of the *embedded*
    K-state ring, used by the convergence analysis (the x-part converges
    first, then the handshake part — Lemma 6's proof structure).
    """

    def __init__(self, algorithm: SSRmin):
        self._alg = algorithm

    @property
    def n(self) -> int:
        return self._alg.n

    @property
    def K(self) -> int:
        return self._alg.K

    def x_vector(self, config: Sequence[StateTuple]) -> Tuple[int, ...]:
        """Project a full SSRmin configuration onto its x components."""
        return tuple(s[0] for s in config)

    def is_legitimate(self, config: Sequence[StateTuple]) -> bool:
        """Whether the embedded Dijkstra ring has converged in ``config``."""
        from repro.algorithms.dijkstra import is_dijkstra_legitimate

        return is_dijkstra_legitimate(self.x_vector(config), self._alg.K)

    def token_holders(self, config: Sequence[StateTuple]) -> Tuple[int, ...]:
        """Processes where the Dijkstra guard ``G_i`` holds."""
        return tuple(i for i in range(self.n) if self._alg.G(config, i))
