"""Ring algorithms: the paper's substrates and baselines.

* :mod:`repro.algorithms.base` — the :class:`RingAlgorithm` interface shared
  by every algorithm (guards/commands, composite-atomicity step, token
  predicates, legitimacy).
* :mod:`repro.algorithms.dijkstra` — Dijkstra's K-state token ring
  ``SSToken`` (paper Algorithm 1), the substrate SSRmin extends.
* :mod:`repro.algorithms.dijkstra_four_state` — Dijkstra's four-state 1974
  self-stabilizing ring, reconstructed and exhaustively model-checked;
  included as an extension substrate.  (A three-state reconstruction was
  attempted and *rejected*: no candidate in the natural rule family passed
  the model checker, and shipping an unverified algorithm is worse than
  shipping none.)
* :mod:`repro.algorithms.composition` — the parallel composition of k
  independent token rings, the multi-token baseline the paper's Figure 12
  shows is *not* mutual-inclusion-safe under message passing.
* :mod:`repro.algorithms.multi_inclusion` — layered SSRmin: the
  (m, 2m)-critical-section generalization whose per-layer gap tolerance
  *does* survive message passing.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.algorithms.base": ("RingAlgorithm",),
    "repro.algorithms.dijkstra": ("DijkstraKState",),
    "repro.algorithms.dijkstra_four_state": ("DijkstraFourState",),
    "repro.algorithms.composition": ("IndependentComposition",),
    "repro.algorithms.multi_inclusion": ("LayeredSSRmin",),
})
