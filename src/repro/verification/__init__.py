"""Exhaustive verification of self-stabilization for small instances.

The paper proves closure (Lemma 1), no-deadlock (Lemma 4) and convergence
(Lemma 6, Theorem 2) by hand.  For small ``(n, K)`` we can *mechanically*
verify the same properties by enumerating the full configuration space and
transition relation:

* **no deadlock** — every configuration has an enabled process;
* **closure** — no transition leaves the legitimate set;
* **convergence** — no cycle of the transition graph lies entirely outside
  the legitimate set (so every infinite execution must enter it, whatever
  the daemon does);
* **worst-case convergence time** — the game value of the daemon trying to
  maximize steps-to-Lambda (longest path over the illegitimate region, well
  defined exactly when convergence holds).

Transition relations are available for the central daemon (all single-process
moves) and the distributed daemon (all non-empty subsets of enabled
processes, optionally capped).  These checks also validate the reconstructed
Dijkstra 3-/4-state algorithms before experiments rely on them.

:mod:`repro.verification.conformance` complements the exhaustive checks
with a *differential* harness: a lockstep oracle across the reference
engine, fastpath kernels and CST projection, an adversarial fuzzer, a
witness shrinker and the ``tests/corpus`` replay format.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.verification.transition_system": ("TransitionSystem",),
    "repro.verification.model_checker": (
        "check_self_stabilization", "StabilizationReport",
        "worst_case_convergence_steps",
    ),
    "repro.verification.properties": (
        "always", "eventually", "eventually_always", "leads_to", "until",
        "PropertyResult",
    ),
})
