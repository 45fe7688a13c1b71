"""Daemon interface.

A daemon is asked, at each step, to select a non-empty subset of the enabled
processes.  It may inspect the current configuration (adversarial daemons do)
and carries its own randomness so simulations replay deterministically from a
seed.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Sequence, Tuple


class Daemon(abc.ABC):
    """Abstract scheduler.

    Subclasses implement :meth:`select`; the simulation engine guarantees
    ``enabled`` is non-empty (a deadlocked configuration ends the run before
    the daemon is consulted) and validates the returned selection.
    """

    #: Whether this daemon may select more than one process per step.
    distributed: bool = True

    @property
    def name(self) -> str:
        """Stable label for telemetry (``steps_total{daemon=...}``)."""
        return type(self).__name__

    def describe(self) -> Dict[str, Any]:
        """Reproducibility descriptor recorded in run records.

        Subclasses with tunables (seeds, probabilities) extend the base
        dict so a record pins down the exact schedule distribution.
        """
        return {"name": self.name, "distributed": self.distributed}

    @abc.abstractmethod
    def select(
        self, enabled: Sequence[int], config: Any, step: int
    ) -> Tuple[int, ...]:
        """Choose a non-empty subset of ``enabled`` to move at ``step``.

        Parameters
        ----------
        enabled:
            Sorted tuple of currently enabled process indices (non-empty).
        config:
            The current configuration (read-only; adversaries may use it).
        step:
            0-based step counter of the simulation.
        """

    def reset(self) -> None:
        """Forget per-run state (round-robin pointers etc.).

        Called by the engine at the start of each run; default is a no-op.
        """

    @staticmethod
    def validate_selection(
        selection: Sequence[int], enabled: Sequence[int]
    ) -> Tuple[int, ...]:
        """Check a selection is a non-empty subset of the enabled set."""
        chosen = tuple(sorted(set(selection)))
        if not chosen:
            raise ValueError("daemon selected an empty set")
        enabled_set = set(enabled)
        bad = [i for i in chosen if i not in enabled_set]
        if bad:
            raise ValueError(f"daemon selected disabled processes {bad}")
        return chosen
