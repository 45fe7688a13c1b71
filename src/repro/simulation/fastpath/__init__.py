"""Fast simulation kernels: packed state + incremental enabled-set maintenance.

The naive execution path re-evaluates every rule guard of every process at
every step (``RingAlgorithm.enabled_processes`` -> ``RuleSet.enabled_rule``),
recomputing the Dijkstra guard ``G_i`` up to three times per process — an
O(5n) Python-call cascade per transition.  A :class:`FastKernel` replaces
that with

* **packed state** — configurations live in flat parallel lists (``x`` plus a
  2-bit handshake code ``h = 2*rts + tra``) instead of tuples-of-tuples;
* **single-pass enabledness** — each process's unique enabled rule is
  resolved in one table lookup computing ``G_i`` exactly once;
* **incremental maintenance** — guards only read ``q_{i-1}, q_i, q_{i+1}``,
  so after a step firing selection ``S`` only the closed neighborhood
  ``{i-1, i, i+1 : i in S}`` can change enabledness, making the per-step
  cost O(|S|) instead of O(5n).

Kernels are wired behind the existing interfaces: the engine
(:class:`~repro.simulation.engine.SharedMemorySimulator`), the convergence
driver (:func:`~repro.simulation.convergence.converge`), the vectorized
batch engine (shared rule table) and the explicit-state
:class:`~repro.verification.transition_system.TransitionSystem` all probe
``algorithm.fast_kernel()`` and fall back to the naive path when it returns
``None``.  Every entry point takes ``use_fastpath=False`` to select the
naive path instead; that argument is the only engine switch.

Equivalence with the naive path — same enabled sets, same rule names, same
successor configurations — is enforced by the differential suite in
``tests/simulation/test_fastpath.py`` (randomized runs under every daemon
plus the exhaustive n=3 state space).  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from repro._lazy import lazy_exports


def resolve_kernel(algorithm, use_fastpath: bool = True):
    """The algorithm's packed kernel, or ``None`` for the naive path.

    The capability probe is ``algorithm.fast_kernel()``: algorithms without
    a kernel (the base-class default) return ``None``, as does any call
    with ``use_fastpath=False``, and every caller then keeps the naive path.
    """
    if not use_fastpath:
        return None
    probe = getattr(algorithm, "fast_kernel", None)
    return probe() if callable(probe) else None


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simulation.fastpath.kernel": ("FastKernel", "PackedView"),
}, defined=("resolve_kernel",))
