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
* **fixed-slot links** — the capacity-one links' busy flags and coalesced
  pending payloads live in flat parallel arrays instead of one object per
  direction;
* **one fused event loop** — plain packed tuples on a binary heap instead
  of frozen dataclass events holding closures, dispatched by one loop
  whose arms inline the per-event handlers over memoised rule ids;
* **incremental, change-only observation** — own-view token holders,
  cache staleness and the legitimate+coherent entry condition are
  maintained incrementally (O(1) per event) and observed only when one
  of them may have changed or someone listens.

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

``build_cst_network``, ``transformed`` and ``transformed_from_chaos`` take
``use_fastpath=False`` to select the reference DES; that argument is the
only engine switch.  Algorithms opt in by returning a codec from
``mp_codec()`` (the base-class default returns ``None``, keeping the
reference path).
"""

from __future__ import annotations

from repro._lazy import lazy_exports


def resolve_mp_codec(algorithm, use_fastpath: bool = True):
    """The algorithm's MP codec, or ``None`` for the reference engine.

    The capability probe is ``algorithm.mp_codec()``: algorithms without a
    packed encoding (the base-class default, compositions, ...) return
    ``None``, as does any call with ``use_fastpath=False``, and every
    caller then keeps the reference path.
    """
    if not use_fastpath:
        return None
    probe = getattr(algorithm, "mp_codec", None)
    return probe() if callable(probe) else None


__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {}, defined=("resolve_mp_codec",))
