"""Message-passing execution of state-reading algorithms (paper section 5).

Real sensor networks do not offer instantaneous neighbour-state reads; the
paper executes SSRmin on them via Herman's *cached sensornet transform* (CST,
Algorithm 4): every node keeps a **cache** of its neighbours' states, sends
its own state whenever it changes and periodically on a timer, and evaluates
guards (and the token predicates) against the cache.

This package is a discrete-event simulation of that world:

* :mod:`repro.messagepassing.des` — event queue and clock;
* :mod:`repro.messagepassing.links` — directed links with transmission
  delay, Bernoulli loss, and the paper's "at most one message in transit per
  direction" constraint (newest state coalesces while the link is busy);
* :mod:`repro.messagepassing.node` — CST nodes (Algorithm 4 verbatim:
  on-receive handler + interval timer);
* :mod:`repro.messagepassing.network` — wiring + run loop + token
  timelines;
* :mod:`repro.messagepassing.coherence` — Definition 2's cache-coherence
  predicate and good/bad incoherence classification;
* :mod:`repro.messagepassing.timeline` — change-point records of how many
  nodes hold a token *in their own cached view*, the quantity Figures 11-13
  reason about;
* :mod:`repro.messagepassing.modelgap` — Definition 3's model-gap-tolerance
  evaluation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.messagepassing.des": ("EventQueue", "Event"),
    "repro.messagepassing.links": (
        "Link", "FixedDelay", "UniformDelay", "ExponentialDelay",
    ),
    "repro.messagepassing.node": ("CSTNode",),
    "repro.messagepassing.network": (
        "MessagePassingNetwork", "build_cst_network",
    ),
    "repro.messagepassing.coherence": ("is_cache_coherent",),
    "repro.messagepassing.timeline": ("TokenTimeline",),
    "repro.messagepassing.trace": ("MessageTrace", "render_sequence_diagram"),
    "repro.messagepassing.wireless": (
        "WirelessMedium", "build_wireless_network",
    ),
})
