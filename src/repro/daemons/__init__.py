"""Process schedulers ("daemons") — paper section 2.1.

At each step a daemon selects a non-empty subset of the enabled processes:

* the **central daemon** picks exactly one enabled process;
* the **distributed daemon** picks an arbitrary non-empty subset;
* a daemon is **unfair** if it may starve a continuously-enabled process.

SSRmin is proven correct under the *unfair distributed* daemon — the weakest
scheduler — so this package provides a spectrum of schedulers to exercise it:

* :class:`SynchronousDaemon` — all enabled processes move (a distributed
  daemon's extreme choice);
* :class:`RandomCentralDaemon` / :class:`RandomSubsetDaemon` /
  :class:`BernoulliDaemon` — randomized selections;
* :class:`RoundRobinDaemon` — a fair central daemon;
* :class:`AdversarialDaemon` — greedy lookahead trying to maximize
  convergence time (an *unfair* daemon by construction);
* :class:`WeightedUnfairDaemon` — geometrically skewed selections that
  starve a tail of the ring for long stretches (the conformance fuzzer's
  fourth schedule family);
* :class:`ReplayDaemon` — replays a recorded selection sequence
  (deterministic regression tests, Figure 4).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.daemons.base": ("Daemon",),
    "repro.daemons.central": (
        "RandomCentralDaemon", "RoundRobinDaemon", "FixedPriorityDaemon",
    ),
    "repro.daemons.distributed": (
        "SynchronousDaemon", "RandomSubsetDaemon", "BernoulliDaemon",
    ),
    "repro.daemons.adversarial": ("AdversarialDaemon",),
    "repro.daemons.replay": ("ReplayDaemon",),
    "repro.daemons.weighted": ("WeightedUnfairDaemon",),
})
