"""The :class:`FastKernel` contract shared by all packed simulation kernels.

A kernel owns one *loaded* configuration in packed form and keeps three
things consistent under :meth:`apply`:

* the packed state vectors themselves,
* the per-process resolved rule (``0`` = disabled, else the unique
  highest-priority enabled rule id),
* the enabled set, maintained **incrementally**: firing selection ``S``
  only refreshes the closed neighborhood ``{i-1, i, i+1 : i in S}``.

The incremental refresh is sound because the model is *state reading with
locality*: every guard reads only ``q_{i-1}, q_i, q_{i+1}`` (enforced by
construction in the concrete algorithms), so a write at ``i`` can flip
enabledness only at ``i-1``, ``i`` and ``i+1`` — see
``docs/PERFORMANCE.md`` for the full argument.

Kernels also provide packed-int state keys (collision-free encodings used
by the explicit-state model checker instead of hashing tuples-of-tuples),
the x-shift symmetry on those keys (the model checker's Z_K quotient),
fast legitimacy predicates with O(1) counter-based rejection, and the
same semantics over whole key arrays for the checker's graph builder
(:meth:`FastKernel.key_moves`, :meth:`FastKernel.canonical_keys`; numpy,
imported on the call, so the scalar path stays numpy-free).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence as _SequenceABC
from typing import Any, Dict, Iterator, Sequence, Tuple


class FastKernel(abc.ABC):
    """Packed single-configuration simulation kernel for one algorithm.

    Mutable: :meth:`load` installs a configuration, :meth:`apply` advances
    it in place.  One kernel services one run (or one
    :class:`~repro.verification.transition_system.TransitionSystem`); they
    are cheap to construct via ``algorithm.fast_kernel()``.
    """

    #: The algorithm instance this kernel executes (set by subclasses).
    algorithm: Any
    #: Rule names indexed by rule id (index 0 unused — id 0 means disabled).
    rule_names: Tuple[str, ...]

    # -- loading / exporting -------------------------------------------------
    @abc.abstractmethod
    def load(self, config: Any) -> None:
        """Pack ``config`` into the kernel's flat vectors and rebuild the
        enabled set with a single full pass (``G_i`` computed once each)."""

    @abc.abstractmethod
    def export(self) -> Any:
        """The loaded configuration in the algorithm's native type."""

    def view(self) -> "PackedView":
        """A live, zero-copy sequence view of the loaded configuration.

        Indexing returns native local states, so daemons and predicates
        that only read ``config[i]`` work unchanged.  The view mutates as
        the kernel steps; callers needing a snapshot use :meth:`export`.
        """
        return PackedView(self)

    @abc.abstractmethod
    def native_state(self, i: int) -> Any:
        """Process ``i``'s local state in the algorithm's native form."""

    @abc.abstractmethod
    def native_states(self, config: Any) -> Tuple[Any, ...]:
        """``config`` as a flat tuple of native local states (no load)."""

    @abc.abstractmethod
    def wrap_states(self, states: Tuple[Any, ...]) -> Any:
        """Build an algorithm-native configuration from trusted states."""

    # -- enabledness ---------------------------------------------------------
    @abc.abstractmethod
    def enabled(self) -> Tuple[int, ...]:
        """The enabled set of the loaded configuration, ascending."""

    @abc.abstractmethod
    def rule_id(self, i: int) -> int:
        """Resolved rule id at ``i`` (0 = disabled)."""

    def rule_name(self, i: int) -> str:
        """Name of the unique enabled rule at ``i`` (raises if disabled)."""
        rid = self.rule_id(i)
        if rid == 0:
            raise ValueError(f"process {i} is not enabled")
        return self.rule_names[rid]

    # -- stepping ------------------------------------------------------------
    @abc.abstractmethod
    def apply(self, selection: Sequence[int]) -> None:
        """Fire ``selection`` (composite atomicity) and refresh enabledness
        incrementally over the selection's closed neighborhood.

        Raises :class:`ValueError` on an empty selection or a disabled
        process, mirroring the naive :meth:`RingAlgorithm.step`.
        """

    @abc.abstractmethod
    def update(self, i: int) -> Any:
        """The native local state process ``i`` would write if fired now.

        Computed from the *current* packed state without mutating it —
        the successor generator evaluates all enabled commands once per
        configuration and reuses them across daemon selections.
        """

    def updates(self, selection: Sequence[int]) -> Dict[int, Any]:
        """:meth:`update` for every process in ``selection``."""
        return {i: self.update(i) for i in selection}

    # -- predicates ----------------------------------------------------------
    @abc.abstractmethod
    def is_legitimate(self) -> bool:
        """Legitimacy of the loaded configuration (== algorithm semantics)."""

    @abc.abstractmethod
    def privileged(self) -> Tuple[int, ...]:
        """Token holders of the loaded configuration, ascending."""

    # -- state keys ----------------------------------------------------------
    #: Radix of the packed key: the per-process digit domain size |Q|
    #: (set by subclasses).
    key_base: int
    #: Positional weights ``key_base ** (n-1-i)`` — a key is
    #: ``sum(digit(q_i) * key_weights[i])``, so replacing one local state
    #: shifts the key by ``(digit(new) - digit(old)) * key_weights[i]``.
    #: The successor generator exploits exactly that to derive all subset
    #: keys from one loaded key with O(|selection|) integer adds.
    key_weights: Sequence[int]

    @abc.abstractmethod
    def key(self) -> int:
        """Collision-free packed-int key of the loaded configuration."""

    @abc.abstractmethod
    def pack_key(self, config: Any) -> int:
        """:meth:`key` for an arbitrary configuration, without loading it."""

    @abc.abstractmethod
    def digit(self, state: Any) -> int:
        """The packed-key digit of one native local state, ``< key_base``."""

    @abc.abstractmethod
    def load_key(self, key: int) -> None:
        """:meth:`load` directly from a packed key — no configuration
        object in between (the model checker's expansion path)."""

    @abc.abstractmethod
    def unpack_key(self, key: int) -> Any:
        """Decode a packed key back into an algorithm-native configuration
        (inverse of :meth:`pack_key`), without loading it."""

    # -- x-shift symmetry ----------------------------------------------------
    #: Modulus of the counters ``x``; the shift group is Z_K (set by
    #: subclasses).
    K: int

    @abc.abstractmethod
    def shift_key(self, key: int, c: int) -> int:
        """Key of the configuration with ``c`` added mod K to every ``x``.

        Guards only compare x values and commands either copy one or add
        1 to one, so the shift commutes with every transition (successor
        keys, in :meth:`enabled`-subset order) and keeps legitimacy; it
        fixes no configuration for ``c % K != 0``, so every orbit has
        exactly K members.
        """

    def canonical_key(self, key: int) -> int:
        """The representative of ``key``'s orbit: its shift with ``x_0 = 0``.

        Process 0 is the key's leading digit and ``x_0`` its most
        significant part, so the orbit member with ``x_0 = c`` lies in
        ``[c * R, (c + 1) * R)`` with ``R = key_base ** n // K``: the
        representatives are exactly the keys ``range(R)``, and each is
        the smallest key of its orbit.
        """
        x0 = key * self.K // (self.key_weights[0] * self.key_base)
        return self.shift_key(key, -x0) if x0 else key

    # -- key arrays (the model checker's graph builder) ----------------------
    @abc.abstractmethod
    def key_moves(self, keys: Any) -> Tuple[Any, Any, Any]:
        """Legitimacy, enabledness and command deltas of a key array.

        ``keys`` is a 1-d int64 numpy array of packed keys.  Returns
        ``(legit, enabled, deltas)``: a bool mask per key, a
        ``(len(keys), n)`` bool mask of enabled processes, and the int64
        key delta of each process's command (0 where disabled), so firing
        a selection moves a key to ``key + deltas[sel].sum()``.  Row by
        row, this is :meth:`load_key` followed by :meth:`is_legitimate`,
        :meth:`enabled` and :meth:`update`.
        """

    @abc.abstractmethod
    def canonical_keys(self, keys: Any) -> Any:
        """:meth:`canonical_key` of every key of a 1-d int64 numpy array."""

    def _digits(self, keys: Any) -> Any:
        """The ``(len(keys), n)`` digit array of a 1-d int64 key array."""
        import numpy as np

        weights = np.asarray(self.key_weights, dtype=np.int64)
        return keys[:, None] // weights % self.key_base


class PackedView(_SequenceABC):
    """Read-only live sequence view over a kernel's packed state.

    Quacks like a configuration for code that indexes or iterates local
    states (daemons, ``stop_when`` predicates, disorder heuristics).
    """

    __slots__ = ("_kernel",)

    def __init__(self, kernel: FastKernel):
        self._kernel = kernel

    def __len__(self) -> int:
        return self._kernel.algorithm.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(
                self._kernel.native_state(j)
                for j in range(*i.indices(len(self)))
            )
        n = len(self)
        if not -n <= i < n:
            raise IndexError(i)
        return self._kernel.native_state(i % n)

    def __iter__(self) -> Iterator[Any]:
        kernel = self._kernel
        return (kernel.native_state(i) for i in range(len(self)))

    def __repr__(self) -> str:
        return f"PackedView({tuple(self)!r})"
