"""The daemon-family axis of convergence sweeps, parsed without numpy.

A sweep spec validates its ``daemons`` axis when it is built, long before
(and in DES sweeps, instead of) any batched kernel runs, so the parser
lives here rather than in :mod:`repro.kernels.batched`, which re-exports
both names.
"""

from __future__ import annotations

from typing import Tuple

#: Daemon-family axis values the convergence runner understands.
DAEMON_FAMILIES = ("synchronous", "central", "bernoulli")


def parse_daemon(spec: str) -> Tuple[str, float]:
    """``"synchronous" | "central" | "bernoulli:<p>"`` -> (kind, p)."""
    if spec == "synchronous":
        return "synchronous", 1.0
    if spec == "central":
        return "central", 0.0
    if spec.startswith("bernoulli:"):
        p = float(spec.split(":", 1)[1])
        if not 0.0 < p <= 1.0:
            raise ValueError(f"bernoulli parameter must be in (0, 1], got {p}")
        return "bernoulli", p
    raise ValueError(
        f"unknown daemon family {spec!r}; expected one of "
        f"'synchronous', 'central', 'bernoulli:<p>'"
    )


__all__ = ["DAEMON_FAMILIES", "parse_daemon"]
