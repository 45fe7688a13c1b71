"""Packed message-passing fastpath: integer-encoded CST/DES kernel.

The reference DES (:mod:`repro.messagepassing`) spends almost all of its
time in Python object plumbing: every delivery builds O(n) local-view
lists, re-evaluates up to five guard closures, and re-computes the
own-view token census of *all* n nodes (``observe``) — an O(n) cost per
event that dominates at realistic ring sizes.  This package mirrors the
PR 2 fastpath design for the message-passing model:

* **packed state** — node states, neighbour caches and in-flight payloads
  are small integers (``(x << 2) | (rts << 1) | tra`` for SSRmin, the bare
  counter for Dijkstra's ring), translated by per-algorithm
  :class:`~repro.messagepassing.fastpath.codecs.MPCodec` objects that
  reuse the shared 128-entry ``RULE_TABLE`` for guard resolution;
* **fixed-slot links** — the capacity-one links live in flat parallel
  arrays (busy flags, coalesced pending slots, statistics counters)
  instead of one object per direction;
* **flat event wheel** — scheduling uses plain packed tuples on a binary
  heap (:mod:`repro.messagepassing.fastpath.wheel`) instead of frozen
  dataclass events holding closures;
* **incremental observation** — own-view token holders, cache staleness
  and the legitimate+coherent entry condition are maintained
  incrementally (O(1) per event) instead of recomputed network-wide.

The engine (:class:`~repro.messagepassing.fastpath.network.FastCSTNetwork`)
is *draw-identical* to the reference: it consumes the network's single
seeded ``random.Random`` in exactly the reference's order (loss draw, then
delay draw, per transmission; timer jitter per arming; dwell per pending
action) and reproduces the reference's ``(time, seq)`` event ordering —
so seeded runs are bit-reproducible across engines and the golden traces
replay record-for-record.  Equivalence is enforced by the differential
suite in ``tests/messagepassing/test_mp_fastpath.py``; the repository
benchmark's ``des_grid`` workload (``perfbench/``) reports which engine
ran.

Escape hatches mirror PR 2: every builder takes ``use_fastpath=...``, the
``REPRO_FASTPATH_MP=0`` environment variable disables the packed engine
process-wide, and :func:`mp_fastpath_override` scopes a forced choice.
Algorithms opt in by returning a codec from ``mp_codec()`` (the base-class
default returns ``None``, keeping the reference path).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

#: Process-wide default, read once at import: ``REPRO_FASTPATH_MP=0`` (or
#: ``false``/``no``/``off``) pins every CST network to the reference DES
#: without touching call sites.
_ENV_DEFAULT = os.environ.get("REPRO_FASTPATH_MP", "1").strip().lower() not in (
    "0", "false", "no", "off",
)

#: Scoped override installed by :func:`mp_fastpath_override` (None = defer
#: to the environment default).
_OVERRIDE: Optional[bool] = None


def mp_fastpath_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve whether the packed message-passing engine should be used.

    Precedence: an ``explicit`` per-call-site value (``use_fastpath=...``)
    beats the scoped :func:`mp_fastpath_override`, which beats the
    ``REPRO_FASTPATH_MP`` environment default (on).
    """
    if explicit is not None:
        return explicit
    if _OVERRIDE is not None:
        return _OVERRIDE
    return _ENV_DEFAULT


@contextmanager
def mp_fastpath_override(enabled: bool) -> Iterator[None]:
    """Force the packed engine on or off for a dynamic scope.

    Used by the differential tests, the A/B benchmark, and the CLI's
    ``--engine fast|reference`` switch.
    """
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = enabled
    try:
        yield
    finally:
        _OVERRIDE = previous


def resolve_mp_codec(algorithm, explicit: Optional[bool] = None):
    """The algorithm's MP codec if the fastpath is enabled, else ``None``.

    The capability probe is ``algorithm.mp_codec()``: algorithms without a
    packed encoding (the base-class default, compositions, ...) return
    ``None`` and every caller silently keeps the reference path.
    """
    if not mp_fastpath_enabled(explicit):
        return None
    probe = getattr(algorithm, "mp_codec", None)
    return probe() if callable(probe) else None


__all__ = [
    "mp_fastpath_enabled",
    "mp_fastpath_override",
    "resolve_mp_codec",
]
