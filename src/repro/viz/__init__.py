"""ASCII rendering of rings and timelines (terminal-friendly figures).

* :func:`render_ring` — a one-line ring snapshot marking token holders;
* :func:`render_timeline` — a Figure-13-style strip chart of token holding
  over continuous time per node;
* :func:`render_histogram` — horizontal bar histograms for step/time
  distributions.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.viz.ascii": ("render_ring", "render_timeline"),
    "repro.viz.histogram": ("render_histogram",),
})
