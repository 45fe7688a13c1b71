"""The common interface of every ring algorithm in this reproduction.

The paper's computational model (section 2.1):

* communication — *state reading*: a process reads neighbours' local
  variables instantly;
* execution — *composite atomicity*: Read, Compute and Write happen in one
  atomic step;
* scheduling — a *daemon* selects a non-empty subset of enabled processes at
  each step (:mod:`repro.daemons`).

:class:`RingAlgorithm` captures exactly that: an algorithm knows its ring, its
prioritized rule set, how to take a composite-atomic step for a selected set
of processes, which processes are *privileged* (hold a token — a predicate,
not a data object), and which configurations are *legitimate*.

Configurations are generic: each concrete algorithm chooses its local-state
representation (an ``int`` for Dijkstra's K-state ring, an ``(x, rts, tra)``
tuple for SSRmin, ...) and configurations are plain tuples of local states
unless the algorithm provides a richer wrapper.
"""

from __future__ import annotations

import abc
from typing import (
    Any,
    Dict,
    Generic,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.rules import Rule, RuleSet
from repro.ring.topology import RingTopology

S = TypeVar("S")  # local-state type
C = TypeVar("C")  # configuration type


class RingAlgorithm(abc.ABC, Generic[C, S]):
    """Abstract base for self-stabilizing ring algorithms.

    Subclasses must provide :attr:`ring`, :attr:`rule_set` and the abstract
    methods; the composite-atomicity :meth:`step` and daemon-facing
    :meth:`enabled_processes` are implemented here once.
    """

    #: The ring the algorithm runs on (set by subclass ``__init__``).
    ring: RingTopology
    #: Prioritized guarded commands (set by subclass ``__init__``).
    rule_set: RuleSet

    # -- size ---------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of processes."""
        return self.ring.n

    # -- enabledness / rules --------------------------------------------------
    def enabled_rule(self, config: C, i: int) -> Optional[Rule]:
        """The unique enabled rule at process ``i`` (priority resolved)."""
        return self.rule_set.enabled_rule(config, i)

    def is_enabled(self, config: C, i: int) -> bool:
        """Whether process ``i`` has any enabled rule in ``config``."""
        return self.enabled_rule(config, i) is not None

    def enabled_processes(self, config: C) -> Tuple[int, ...]:
        """All enabled processes in ``config`` (daemon's choice set)."""
        return tuple(i for i in range(self.n) if self.is_enabled(config, i))

    # -- stepping -------------------------------------------------------------
    def execute(self, config: C, i: int) -> S:
        """New local state of ``i`` after executing its enabled rule.

        Raises :class:`ValueError` if ``i`` is not enabled — a daemon must
        never select a disabled process.
        """
        rule = self.enabled_rule(config, i)
        if rule is None:
            raise ValueError(f"process {i} is not enabled in {config!r}")
        return rule.execute(config, i)

    def step(self, config: C, selected: Iterable[int]) -> C:
        """One composite-atomicity step: every selected process moves at once.

        All selected processes read the *old* configuration, compute their
        command, and all writes land simultaneously — the transition relation
        ``gamma_t -> gamma_{t+1}`` of section 2.1.
        """
        updates: Dict[int, S] = {}
        for i in set(selected):
            updates[i] = self.execute(config, i)
        if not updates:
            raise ValueError("daemon must select a non-empty set of processes")
        return self.apply_updates(config, updates)

    def apply_updates(self, config: C, updates: Dict[int, S]) -> C:
        """Build the next configuration from simultaneous local-state writes.

        Default implementation assumes ``config`` is a tuple of local states;
        algorithms with richer configuration types override this.
        """
        states = list(config)  # type: ignore[arg-type]
        for i, st in updates.items():
            states[i] = st
        return tuple(states)  # type: ignore[return-value]

    # -- semantics subclasses must define --------------------------------------
    @abc.abstractmethod
    def is_legitimate(self, config: C) -> bool:
        """Membership in the algorithm's legitimate set Lambda."""

    @abc.abstractmethod
    def privileged(self, config: C) -> Tuple[int, ...]:
        """Processes holding a token (privilege) — evaluated as a predicate."""

    def node_holds_token(self, view: Any, i: int) -> bool:
        """Token predicate evaluated on a *local view* (own state + caches).

        This is ``h_i(q_i, Z_i[.])`` of Definition 3 — what a CST node
        evaluates against its own cache.  The default equates privilege with
        enabledness, correct for Dijkstra-style rings; algorithms whose
        privilege predicate differs from enabledness (SSRmin, compositions)
        override it.
        """
        return self.is_enabled(view, i)

    @abc.abstractmethod
    def local_state_space(self) -> Sequence[S]:
        """The finite local-state domain Q (for exhaustive model checking)."""

    @abc.abstractmethod
    def random_configuration(self, rng: Any) -> C:
        """A uniformly random configuration (arbitrary transient-fault state).

        ``rng`` is a :class:`random.Random`-compatible generator.
        """

    # -- transient faults (section 2.2) --------------------------------------
    def random_local_state(self, rng: Any) -> S:
        """A uniform value of the local-state domain: one memory corruption.

        One ``rng.choice`` over :meth:`local_state_space`, so seeded fault
        values (fuzz scripts, live restarts and corruptions) replay draw
        for draw.
        """
        return rng.choice(list(self.local_state_space()))

    def corrupt_process_to(self, config: C, i: int, new_state: S) -> C:
        """``config`` with process ``i``'s local state replaced.

        Configurations are immutable; scripted fault replay
        (``tests/corpus/``) passes recorded values here.
        """
        replace = getattr(config, "replace", None)
        if callable(replace):
            return replace(i, new_state)
        states = list(config)  # type: ignore[call-overload]
        states[i] = new_state
        return self.normalize_configuration(states)

    # -- optional fast-path capability ---------------------------------------
    def fast_kernel(self) -> Optional[Any]:
        """A fresh packed simulation kernel, or ``None`` (the default).

        Algorithms with a :class:`repro.simulation.fastpath.FastKernel`
        implementation override this; the engine, convergence driver and
        transition system probe it and transparently fall back to the naive
        guard-evaluation path when it returns ``None``.  Each call returns a
        new kernel (kernels are mutable single-configuration objects).
        """
        return None

    def mp_codec(self) -> Optional[Any]:
        """A packed message-passing codec, or ``None`` (the default).

        Algorithms with an :class:`repro.messagepassing.fastpath.codecs.
        MPCodec` encoding override this; ``build_cst_network`` and the
        synchronous CST projection probe it and transparently keep the
        reference object-graph path when it returns ``None``.  Codecs are
        stateless translators, so returning a shared instance is fine.
        """
        return None

    # -- optional conveniences ---------------------------------------------
    def configuration_space(self) -> Iterator[C]:
        """Iterate every configuration (|Q|^n of them) — small n only.

        Default yields tuples over :meth:`local_state_space`; used by the
        exhaustive model checker.
        """
        import itertools

        space = list(self.local_state_space())
        for combo in itertools.product(space, repeat=self.n):
            yield self.normalize_configuration(combo)

    def normalize_configuration(self, raw: Any) -> C:
        """Coerce a raw tuple of local states into this algorithm's config type."""
        return tuple(raw)  # type: ignore[return-value]

    def state_count_per_process(self) -> int:
        """|Q| — Theorem 1 reports 4K for SSRmin."""
        return len(self.local_state_space())
