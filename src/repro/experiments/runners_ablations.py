"""Ablation and application runners.

* ``abl1`` — the secondary-token condition ablation the paper motivates in
  section 3.1: with the weak ``tra_i = 1``-only predicate the secondary
  token goes extinct in the message-passing model; the full predicate keeps
  it alive.
* ``abl2`` — daemon sweep: SSRmin converges under every scheduler from the
  central daemon to aggressive distributed/adversarial ones (it is proven
  under the weakest, the unfair distributed daemon).
* ``abl3`` — the ``K > n`` requirement: below the threshold, the embedded
  Dijkstra ring stops being self-stabilizing (exhaustively shown).
* ``abl4`` — CST refresh-timer sensitivity of recovery latency.
* ``app1`` — the motivating camera-network application end to end.
"""

from __future__ import annotations

import random
from typing import List

from repro.algorithms.dijkstra import DijkstraKState
from repro.analysis.statistics import summarize
from repro.apps.energy import EnergyModel
from repro.apps.monitoring import CameraNetwork
from repro.core.ssrmin import SSRmin
from repro.core.tokens import weak_secondary_condition
from repro.daemons.adversarial import AdversarialDaemon
from repro.daemons.central import FixedPriorityDaemon, RandomCentralDaemon, RoundRobinDaemon
from repro.daemons.distributed import BernoulliDaemon, RandomSubsetDaemon, SynchronousDaemon
from repro.experiments.registry import ExperimentResult
from repro.messagepassing.cst import transformed
from repro.messagepassing.links import UniformDelay
from repro.messagepassing.modelgap import evaluate_gap
from repro.simulation.convergence import convergence_steps
from repro.verification.model_checker import check_self_stabilization
from repro.verification.transition_system import TransitionSystem


def _secondary_full(node) -> bool:
    """Own-view *secondary-token* predicate, the paper's two-disjunct form."""
    view = node.view()
    n = node.algorithm.n
    i = node.index
    _, rts, tra = view[i]
    _, rts_s, tra_s = view[(i + 1) % n]
    return tra == 1 or (rts == 1 and rts_s == 0 and tra_s == 0)


def _secondary_weak(node) -> bool:
    """Own-view secondary predicate using the rejected tra-only rule."""
    view = node.view()
    _, rts, tra = view[node.index]
    return weak_secondary_condition((rts, tra), (0, 0))


def run_abl1(fast: bool = False) -> ExperimentResult:
    """Ablation: the secondary-token condition (section 3.1's discussion).

    Lemma 2 establishes that exactly one secondary token circulates; the
    paper rejects the simpler condition ``tra_i = 1`` because under it the
    secondary token goes extinct whenever the two tokens co-locate — the
    state-reading model shrugs (the primary still exists) but in the
    message-passing model the extinction lasts a whole transient period.
    This runner therefore tracks the *secondary token's* existence in the
    nodes' own cached views under both conditions.
    """
    duration = 150.0 if fast else 600.0
    rows: List[List[str]] = []
    zero = {}
    for label, predicate in (
        ("full (paper)", _secondary_full),
        ("tra-only (weak)", _secondary_weak),
    ):
        alg = SSRmin(5, 6)
        net = transformed(alg, seed=21, delay_model=UniformDelay(0.5, 1.5),
                          token_predicate=predicate)
        rep = evaluate_gap(net, duration=duration)
        zero[label] = rep.zero_time
        rows.append([label, f"{rep.zero_time:.1f}",
                     f"{rep.zero_time / duration:.1%}",
                     str(rep.min_count), str(rep.max_count)])
    ok = zero["full (paper)"] == 0.0 and zero["tra-only (weak)"] > 0.0
    return ExperimentResult(
        experiment_id="abl1",
        title="Secondary-token condition ablation (section 3.1)",
        paper_claim="with condition tra_i=1 alone the secondary token "
        "extincts when the tokens co-locate; the paper's two-disjunct "
        "condition keeps it alive through every transient period",
        measured="weak condition loses the secondary token; the paper's "
        "condition never does" if ok
        else "ablation did not separate the predicates",
        match=ok,
        header=["secondary condition", "no-secondary time", "fraction",
                "min holders", "max holders"],
        rows=rows,
        notes="holder counts here are of the SECONDARY token only",
    )


def run_abl2(fast: bool = False) -> ExperimentResult:
    """Ablation: convergence under a spectrum of daemons."""
    n = 8
    trials = 8 if fast else 30
    daemons = {
        "central (random)": lambda alg, s: RandomCentralDaemon(seed=s),
        "central (round robin)": lambda alg, s: RoundRobinDaemon(),
        "central (fixed priority)": lambda alg, s: FixedPriorityDaemon(),
        "synchronous": lambda alg, s: SynchronousDaemon(),
        "random subset": lambda alg, s: RandomSubsetDaemon(seed=s),
        "bernoulli p=0.2": lambda alg, s: BernoulliDaemon(0.2, seed=s),
        "adversarial depth=1": lambda alg, s: AdversarialDaemon(alg, depth=1, seed=s),
    }
    rows = []
    ok = True
    for label, factory in daemons.items():
        try:
            samples = convergence_steps(
                algorithm_factory=lambda: SSRmin(n, n + 1),
                daemon_factory=factory,
                trials=trials,
                seed=7,
            )
            s = summarize(samples)
            rows.append([label, f"{s.mean:.1f}", f"{s.maximum:.0f}", "yes"])
        except RuntimeError:
            rows.append([label, "-", "-", "NO"])
            ok = False
    return ExperimentResult(
        experiment_id="abl2",
        title="Daemon sweep (unfair distributed daemon claim)",
        paper_claim="SSRmin is correct under the unfair distributed daemon, "
        "hence under every scheduler it subsumes",
        measured="converged under every daemon tested" if ok
        else "a daemon prevented convergence",
        match=ok,
        header=["daemon", "mean steps", "max steps", "always converged"],
        rows=rows,
        notes=f"n={n}, {trials} random initial configurations per daemon",
    )


def run_abl3(fast: bool = False) -> ExperimentResult:
    """Ablation: the K > n requirement of the embedded Dijkstra ring.

    Checks K in {n-1, n, n+1} exhaustively at n = 3 (fast) or n = 3..7.
    """
    rows = []
    ok = True
    for n in (3,) if fast else range(3, 8):
        for K in (max(2, n - 1), n, n + 1):
            alg = DijkstraKState(n, K, allow_small_k=True)
            ts = TransitionSystem(alg, daemon="distributed")
            rep = check_self_stabilization(ts)
            stab = rep.self_stabilizing
            rows.append([str(n), str(K), "K>n" if K > n else "K<=n",
                         str(stab),
                         str(rep.worst_case_steps) if stab else "-"])
            if K > n and not stab:
                ok = False
            if K < n and stab:
                # Below n-1 the ring must fail; equality cases are allowed
                # to go either way per the literature's tightness results.
                ok = False
    return ExperimentResult(
        experiment_id="abl3",
        title="K sensitivity of Dijkstra's K-state ring (K > n requirement)",
        paper_claim="SSToken requires K > n under the distributed daemon",
        measured="K > n instances verified self-stabilizing; "
        "small-K failures localized below the threshold" if ok
        else "a K > n instance failed (or K < n-1 passed) the checker",
        match=ok,
        header=["n", "K", "regime", "self-stabilizing", "worst-case steps"],
        rows=rows,
        notes="exhaustive model checking under the distributed daemon; "
        "Hoepman (cs/9909013) shows K = n - 1 suffices under the central "
        "daemon",
    )


def run_app1(fast: bool = False) -> ExperimentResult:
    """Application: continuous-observation camera network (section 1.1)."""
    duration = 200.0 if fast else 1000.0
    n = 6
    cam = CameraNetwork(n, seed=77, delay_model=UniformDelay(0.5, 1.5))
    # Harvest must cover the ~1/n duty cycle with headroom for the longest
    # continuous active stretch (a few handover periods on this ring).
    model = EnergyModel(active_power=8.0, idle_power=0.5, harvest_rate=4.0,
                        capacity=200.0, initial_charge=150.0)
    report = cam.run(duration, energy_model=model)
    e = report.energy
    rows = [
        ["coverage", f"{report.coverage:.4f}"],
        ["min active cameras", str(report.min_active)],
        ["max active cameras", str(report.max_active)],
        ["handovers", str(report.handovers)],
        ["graceful handovers", str(report.graceful_handovers)],
        ["mean duty cycle", f"{sum(e.duty_cycle) / n:.2f}"],
        ["energy saving vs always-on", f"x{e.saving_factor:.1f}"],
        ["sustainable (no brownout)", str(e.sustainable)],
    ]
    ok = (
        report.continuous_observation
        and report.handovers == report.graceful_handovers
        and e.sustainable
    )
    return ExperimentResult(
        experiment_id="app1",
        title="Self-organizing camera monitoring network (section 1.1)",
        paper_claim="at least one node actively monitors at every instant; "
        "inactive nodes save/harvest energy; handover is graceful",
        measured=f"coverage {report.coverage:.1%}, "
        f"{report.graceful_handovers}/{report.handovers} handovers graceful, "
        f"energy saving x{e.saving_factor:.1f}",
        match=ok,
        header=["quantity", "value"],
        rows=rows,
        notes="SSRmin over the CST message-passing substrate; duty cycle "
        "~1/n per node while coverage stays 100%",
    )


def run_abl4(fast: bool = False) -> ExperimentResult:
    """Ablation: CST refresh-timer sensitivity of fault recovery.

    Algorithm 4's periodic state broadcasts are what repair corrupted
    caches; the refresh period therefore bounds recovery latency.  This
    ablation measures time-to-(legitimate + coherent) from chaos as a
    function of the timer interval.
    """
    from repro.analysis.statistics import summarize
    from repro.messagepassing.coherence import CoherenceTracker
    from repro.messagepassing.cst import transformed_from_chaos

    seeds = range(4) if fast else range(12)
    rows = []
    means = []
    intervals = (2.0, 5.0, 15.0)
    ok = True
    for interval in intervals:
        times = []
        for seed in seeds:
            alg = SSRmin(5, 6)
            net = transformed_from_chaos(
                alg, seed=200 + seed, loss_probability=0.1,
                timer_interval=interval, timer_jitter=interval / 3.0,
            )
            t = CoherenceTracker(net).run_until_stabilized(
                slice_duration=5.0, max_time=50_000.0
            )
            times.append(t)
        s = summarize(times)
        means.append(s.mean)
        rows.append([f"{interval:.0f}", f"{s.mean:.1f}", f"{s.maximum:.1f}"])
    # All runs must stabilize, and because the *circulating token itself*
    # refreshes caches every lap, recovery latency should be largely
    # insensitive to the timer (within a factor of ~2 across a 7.5x sweep).
    spread = max(means) / min(means)
    ok = ok and spread <= 2.0
    return ExperimentResult(
        experiment_id="abl4",
        title="CST refresh-timer sensitivity of recovery",
        paper_claim="Algorithm 4's periodic transmission is 'important for "
        "self-stabilization of real network' — it repairs caches that no "
        "rule execution would otherwise refresh",
        measured="every run stabilized at every interval; latency varied by "
        f"only {spread:.2f}x across a 7.5x interval sweep — in a "
        "*circulating* system the token's own state messages refresh caches "
        "every lap, so the timer is a liveness backstop, not the recovery "
        "pacer" if ok else "unexpectedly strong timer dependence",
        match=ok,
        header=["timer interval", "mean stabilize time", "max"],
        rows=rows,
        notes="chaos start (random states AND caches), 10% message loss",
    )


def run_abl5(fast: bool = False) -> ExperimentResult:
    """Ablation: K sensitivity *above* the threshold.

    abl3 shows K <= n breaks self-stabilization; this sweep asks the
    complementary question: once K > n, does making K larger change
    convergence speed?  It should not — the embedded ring's convergence is
    driven by the bottom process erasing foreign values, which takes one
    circulation regardless of how many unused counter values exist.
    """
    n = 8
    trials = 10 if fast else 40
    rows = []
    means = []
    ks = (n + 1, 2 * n, 4 * n, 16 * n)
    for K in ks:
        samples = convergence_steps(
            algorithm_factory=lambda K=K: SSRmin(n, K),
            daemon_factory=lambda alg, s: RandomSubsetDaemon(seed=s),
            trials=trials,
            seed=3 * K,
        )
        s = summarize(samples)
        means.append(s.mean)
        rows.append([str(K), f"{s.mean:.1f}", f"{s.maximum:.0f}"])
    spread = max(means) / min(means)
    ok = spread <= 1.6
    return ExperimentResult(
        experiment_id="abl5",
        title="K insensitivity above the threshold",
        paper_claim="K is 'any constant such that K > n' — beyond the "
        "threshold its magnitude is immaterial",
        measured=f"mean convergence steps varied by only {spread:.2f}x "
        f"across K = n+1 .. 16n" if ok
        else "unexpected K dependence above the threshold",
        match=ok,
        header=["K", "mean steps", "max steps"],
        rows=rows,
        notes=f"n={n}, {trials} random starts per K, random-subset daemon",
    )
