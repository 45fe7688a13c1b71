"""Beyond-paper extension experiments (ext1-ext5).

These quantify behaviours the paper mentions but does not measure:

* ``ext1`` — single-fault recovery and the ">= 1 token" safety predicate
  (the superstabilization angle of the paper's related/future work);
* ``ext2`` — round complexity next to step complexity;
* ``ext3`` — service fairness and message cost of the transformed system;
* ``ext4`` — large-scale convergence scaling on the batched sweep kernel
  (thousands of trials, rings up to n=64);
* ``ext5`` — the layered (m, 2m)-critical-section construction: m SSRmin
  layers keep their token band through the message-passing transform,
  unlike the Figure-12 composition of SSTokens.
"""

from __future__ import annotations

import itertools
import random
from typing import List

from repro.analysis.rounds import measure_rounds
from repro.analysis.scaling import fit_power_law
from repro.analysis.service import ServiceMonitor, service_report
from repro.analysis.statistics import summarize
from repro.analysis.superstabilization import study_single_fault
from repro.core.ssrmin import SSRmin
from repro.daemons.central import FixedPriorityDaemon
from repro.daemons.distributed import RandomSubsetDaemon, SynchronousDaemon
from repro.experiments.registry import ExperimentResult
from repro.messagepassing.cst import transformed
from repro.messagepassing.links import UniformDelay
from repro.simulation.engine import SharedMemorySimulator


def run_ext1(fast: bool = False) -> ExperimentResult:
    """Single-fault recovery study (superstabilization angle)."""
    trials = 20 if fast else 100
    rows: List[List[str]] = []
    ok = True
    for n in ((5, 8) if fast else (5, 8, 12)):
        alg = SSRmin(n, n + 1)
        report = study_single_fault(
            alg, lambda a, s: RandomSubsetDaemon(seed=s), trials=trials,
            seed=11 * n,
        )
        ok = ok and report.max_recovery <= 60 * n * n + 600
        rows.append(
            [str(n), f"{report.mean_recovery:.1f}", str(report.max_recovery),
             f"{report.safety_fraction:.0%}", str(report.worst_burst)]
        )
    return ExperimentResult(
        experiment_id="ext1",
        title="Single-fault recovery (superstabilization study)",
        paper_claim="(beyond paper; related work [4,15] and future work) — "
        "self-stabilization guarantees recovery from a single fault within "
        "the O(n^2) budget; superstabilizing variants would also keep a "
        "safety predicate throughout",
        measured="recoveries comfortably inside the budget; the >= 1-token "
        "predicate held in most (not all) single-fault recoveries — SSRmin "
        "is not superstabilizing, matching its absence of such a claim",
        match=ok,
        header=["n", "mean recovery", "max recovery",
                "safety (>=1 token) held", "worst token burst"],
        rows=rows,
        notes=f"{trials} random (legit config, 1 fault, schedule) trials per n",
    )


def run_ext2(fast: bool = False) -> ExperimentResult:
    """Round complexity next to step complexity."""
    trials = 8 if fast else 30
    rows = []
    ok = True
    ns = (5, 8) if fast else (5, 8, 12, 17)
    mean_rounds = []
    for n in ns:
        alg_steps = []
        alg_rounds = []
        for t in range(trials):
            alg = SSRmin(n, n + 1)
            rng = random.Random(23 * n + t)
            init = alg.random_configuration(rng)
            daemon = (
                FixedPriorityDaemon() if t % 2 else RandomSubsetDaemon(seed=t)
            )
            steps, rounds = measure_rounds(alg, daemon, init)
            alg_steps.append(steps)
            alg_rounds.append(rounds)
            if steps and rounds > steps:
                ok = False
        s, r = summarize(alg_steps), summarize(alg_rounds)
        mean_rounds.append(max(r.mean, 0.5))
        rows.append([str(n), f"{s.mean:.1f}", f"{r.mean:.1f}",
                     f"{r.maximum:.0f}",
                     f"{r.mean / s.mean:.2f}" if s.mean else "-"])
    fit = fit_power_law(ns, mean_rounds)
    ok = ok and fit.exponent <= 2.5
    return ExperimentResult(
        experiment_id="ext2",
        title="Round complexity of SSRmin convergence",
        paper_claim="(beyond paper) — the paper counts steps (O(n^2)); the "
        "literature's round measure factors out daemon starvation",
        measured=f"rounds <= steps always; mean rounds fit {fit}",
        match=ok,
        header=["n", "mean steps", "mean rounds", "max rounds",
                "rounds/steps"],
        rows=rows,
        notes="mixed unfair-central and random-subset daemons",
    )


def run_ext3(fast: bool = False) -> ExperimentResult:
    """Service fairness + message cost of the transformed system."""
    duration = 150.0 if fast else 600.0
    laps = 4 if fast else 12
    rows = []
    ok = True

    # State-reading service fairness over several laps.
    n = 6
    alg = SSRmin(n, n + 1)
    mon = ServiceMonitor(alg)
    sim = SharedMemorySimulator(alg, SynchronousDaemon(), monitors=[mon])
    sim.run(alg.initial_configuration(), max_steps=3 * n * laps, record=False)
    rep = service_report(mon.history, n)
    ok = ok and rep.all_served and rep.jain_index > 0.9
    rows.append(["state-reading", f"jain={rep.jain_index:.3f}",
                 f"max wait {rep.max_gap} steps",
                 f"{laps} laps"])

    # Message-passing: service + message cost per handover.
    net = transformed(alg, seed=31, delay_model=UniformDelay(0.5, 1.5))
    net.run(duration)
    stats = net.message_stats()
    timeline = net.timeline
    handovers = timeline.holder_changes()
    per_handover = stats["sent"] / max(handovers, 1)
    served = {h for pt in timeline.points for h in pt.holders}
    ok = ok and served == set(range(n))
    rows.append(["message-passing",
                 f"all {n} nodes served: {served == set(range(n))}",
                 f"{stats['sent']} msgs, {per_handover:.1f}/holder-change",
                 f"t={duration:.0f}"])
    return ExperimentResult(
        experiment_id="ext3",
        title="Service fairness and message cost",
        paper_claim="(beyond paper) — every process eventually enters the "
        "critical section; CST costs messages per state change plus "
        "periodic refresh",
        measured="perfect fairness over whole laps; bounded message cost "
        "per holder change",
        match=ok,
        header=["model", "fairness", "cost", "scope"],
        rows=rows,
    )


def _band_holds(n: int, trials: int, daemon: str) -> bool:
    """Theorem 1 on the batched kernel: from ``trials`` legitimate
    configurations (the set a converged lane lands in), 1..2 processes are
    privileged before each of 3n daemon steps."""
    import numpy as np

    from repro.kernels.batched import (
        advance_configurations,
        batched_privileged_counts,
    )
    from repro.simulation.initial import random_legitimate

    alg = SSRmin(n, n + 1)
    rng = random.Random(n)
    configs = [random_legitimate(alg, rng) for _ in range(trials)]
    X = np.array([[x for x, _, _ in c] for c in configs])
    H = np.array([[2 * rts + tra for _, rts, tra in c] for c in configs])
    states = advance_configurations(X, H, range(trials), daemon, K=n + 1,
                                    steps=3 * n - 1)
    for X_k, H_k in itertools.chain([(X, H)], states):
        counts = batched_privileged_counts(X_k, H_k)
        if counts.min() < 1 or counts.max() > 2:
            return False
    return True


def run_ext4(fast: bool = False) -> ExperimentResult:
    """Large-scale convergence scaling on the batched sweep kernel.

    The convergence rows are a ``convergence`` sweep spec (Bernoulli(0.5)
    daemon) run by :func:`repro.sweeps.run_cells`; each n gets one row,
    and the power law is fitted only when every cell converged.
    """
    from repro.sweeps import SweepSpec, run_cells

    ns = (8, 16, 32) if fast else (8, 16, 32, 48, 64)
    trials = 200 if fast else 1000
    daemon = "bernoulli:0.5"
    spec = SweepSpec(name="ext4", n_values=ns, seeds=tuple(range(trials)),
                     daemons=(daemon,))
    cells = run_cells(spec)
    rows = []
    means = []
    converged = band = True
    for i, n in enumerate(ns):
        steps = [c["steps"] for c in cells[i * trials:(i + 1) * trials]
                 if c["converged"]]
        band_ok = _band_holds(n, trials, daemon)
        band = band and band_ok
        converged = converged and len(steps) == trials
        if steps:
            s = summarize(steps)
            means.append(s.mean)
            stats = [f"{s.mean:.1f}", f"{s.maximum:.0f}",
                     f"{s.maximum / n / n:.3f}"]
        else:
            stats = ["-", "-", "-"]
        rows.append([str(n), f"{len(steps)}/{trials}", *stats, str(band_ok)])
    fit = fit_power_law(ns, means) if converged else None
    ok = converged and band and fit.exponent <= 2.2
    measured = (
        f"mean steps fit {fit} over {trials} trials per n up to n={ns[-1]}"
        if converged else "some trials did not converge within 60 n^2 + 600 "
        "steps"
    ) + (
        "; privileged counts from legitimate starts stayed in [1, 2] for "
        "3n steps" if band else "; privileged counts left [1, 2]"
    )
    return ExperimentResult(
        experiment_id="ext4",
        title="Large-scale convergence scaling (batched sweep kernel)",
        paper_claim="Theorem 2's O(n^2) and Theorem 1's 1..2-token band "
        "should persist at ring sizes far beyond what the scalar engine "
        "can sweep",
        measured=measured,
        match=ok,
        header=["n", "converged", "mean steps", "max steps", "max/n^2",
                "band [1,2]"],
        rows=rows,
        notes="Bernoulli(0.5) daemon on the counter-keyed batched kernel "
        "(checked step for step against the scalar engine); convergence "
        "from seeded random starts, the band from random legitimate ones",
    )


def run_ext5(fast: bool = False) -> ExperimentResult:
    """Layered SSRmin: the (m, 2m) band survives message passing."""
    from repro.algorithms.multi_inclusion import LayeredSSRmin

    duration = 120.0 if fast else 400.0
    rows: List[List[str]] = []
    ok = True
    for m in (1, 2, 3):
        alg = LayeredSSRmin(6, m)
        init = alg.staggered_initial()
        net = transformed(alg, seed=41 + m, initial_states=list(init),
                          delay_model=UniformDelay(0.5, 1.5))

        counts: List[int] = []

        def layer_tokens(network=net, alg=alg):
            total = 0
            for node in network.nodes:
                view = node.view()
                for l, sub in enumerate(alg.layers):
                    proj = alg.layer_config(view, l)
                    if sub.node_holds_token(proj, node.index):
                        total += 1
            return total

        net.observers.append(lambda n_, f=layer_tokens: counts.append(f()))
        net.run(duration)
        lo, hi = min(counts), max(counts)
        band_lo, band_hi = alg.band()
        band_ok = band_lo <= lo and hi <= band_hi
        ok = ok and band_ok
        rows.append([str(m), f"[{band_lo}, {band_hi}]", f"[{lo}, {hi}]",
                     str(band_ok)])
    return ExperimentResult(
        experiment_id="ext5",
        title="Layered SSRmin: (m, 2m)-critical-section under messages",
        paper_claim="(beyond paper; reference [9]'s (l,k)-CS family) — "
        "composing m gap-tolerant rings should keep m..2m layer-tokens even "
        "in the message-passing model, where the SSToken composition of "
        "Figure 12 fails",
        measured="layer-token counts stayed inside the (m, 2m) band at every "
        "observation for every m" if ok else "band violated",
        match=ok,
        header=["layers m", "guaranteed band", "observed", "held"],
        rows=rows,
    )


def run_ext6(fast: bool = False) -> ExperimentResult:
    """Link outage: graceful degradation and guaranteed recovery."""
    outage = 30.0
    post = 100.0 if fast else 150.0
    seeds = range(3) if fast else range(10)
    rows: List[List[str]] = []
    ok = True
    extinct_during = 0
    for seed in seeds:
        alg = SSRmin(5, 6)
        net = transformed(alg, seed=100 + seed,
                          delay_model=UniformDelay(0.5, 1.5),
                          timer_interval=3.0)
        net.run(20.0)
        heal_at = net.queue.now + outage
        edge = (seed % 5, (seed + 1) % 5)
        net.fail_link(*edge, duration=outage)
        net.run(outage + post)
        net.timeline.finish(net.queue.now)
        zero = net.timeline.zero_intervals()
        confined = all(a >= 20.0 and b <= heal_at + 60.0 for a, b in zero)
        recovered = net.timeline.coverage_fraction(
            from_time=heal_at + 60.0) == 1.0
        lo, hi = net.timeline.count_bounds(from_time=heal_at + 60.0)
        bounds = lo >= 1 and hi <= 2
        if zero:
            extinct_during += 1
        ok = ok and confined and recovered and bounds
        rows.append([str(seed), f"{edge}",
                     f"{sum(b - a for a, b in zero):.1f}",
                     str(confined), str(recovered and bounds)])
    return ExperimentResult(
        experiment_id="ext6",
        title="Link outage: degradation confined, recovery guaranteed",
        paper_claim="(beyond paper) — a link outage is a transient fault: it "
        "can create *bad* cache incoherence (Theorem 3's hypothesis breaks, "
        "token extinction becomes possible), but Theorem 4's recovery "
        "guarantee restores the 1..2 band once messages flow again",
        measured=f"extinction occurred in {extinct_during}/{len(list(seeds))} "
        "outages, always confined to the outage+recovery window; every run "
        "re-stabilized with full coverage",
        match=ok,
        header=["seed", "failed edge", "extinct time", "confined",
                "recovered"],
        rows=rows,
        notes=f"{outage:.0f}-unit bidirectional outage of one ring edge, "
        "3-unit refresh timers",
    )


def run_ext7(fast: bool = False) -> ExperimentResult:
    """Heuristic adversary vs. exact game-theoretic worst case."""
    from repro.daemons.adversarial import AdversarialDaemon
    from repro.simulation.convergence import converge
    from repro.verification.model_checker import (
        worst_case_convergence_steps,
        worst_case_witness,
    )
    from repro.verification.transition_system import TransitionSystem

    rows: List[List[str]] = []
    ok = True
    instances = ((3, 4),) if fast else ((3, 4), (3, 5), (4, 5))
    for n, K in instances:
        alg = SSRmin(n, K)
        ts = TransitionSystem(alg, "distributed")
        exact = worst_case_convergence_steps(ts)
        witness = worst_case_witness(ts)
        start = witness[0]

        # How close does the greedy lookahead adversary get, from the SAME
        # provably-worst starting configuration?
        best_heuristic = 0
        for seed in range(3 if fast else 10):
            for depth in (1, 2):
                daemon = AdversarialDaemon(alg, depth=depth, seed=seed)
                res = converge(alg, daemon, start)
                if not res.converged:
                    ok = False
                best_heuristic = max(best_heuristic, res.steps)
        # Sanity: nothing beats the exact optimum, and the heuristic should
        # realize a decent fraction of it.
        if best_heuristic > exact:
            ok = False
        ratio = best_heuristic / exact if exact else 1.0
        ok = ok and ratio >= 0.5
        rows.append([f"n={n}, K={K}", str(exact), str(len(witness) - 1),
                     str(best_heuristic), f"{ratio:.0%}"])
    return ExperimentResult(
        experiment_id="ext7",
        title="Heuristic adversary vs exact worst case (model checker)",
        paper_claim="(beyond paper) — Theorem 2 bounds the adversarial "
        "daemon's power; for small instances the exact game value is "
        "computable and upper-bounds every schedule",
        measured="greedy lookahead realizes a large fraction of the exact "
        "worst case and never exceeds it" if ok else "bound violated",
        match=ok,
        header=["instance", "exact worst", "witness length",
                "best heuristic", "fraction"],
        rows=rows,
        notes="heuristic = depth-1/2 greedy lookahead from the provably "
        "worst initial configuration",
    )


def run_ext8(fast: bool = False) -> ExperimentResult:
    """Day/night energy: rotation survives the night, always-on does not."""
    from repro.apps.energy import EnergyModel, diurnal_harvest, integrate_energy
    from repro.messagepassing.timeline import TokenTimeline

    n = 6
    days = 2 if fast else 5
    day_length = 200.0
    duration = days * day_length
    model = EnergyModel(active_power=6.0, idle_power=0.5, harvest_rate=0.0,
                        capacity=400.0, initial_charge=300.0)
    sun = diurnal_harvest(peak=8.0, day_length=day_length)

    # Rotating fleet: SSRmin over message passing.
    alg = SSRmin(n, n + 1)
    net = transformed(alg, seed=55, delay_model=UniformDelay(0.5, 1.5))
    net.run(duration)
    rotating = integrate_energy(model, net.timeline, n, harvest_profile=sun,
                                max_slice=5.0)

    # Always-on baseline: every node records continuously.
    always = TokenTimeline()
    always.record(0.0, list(range(n)))
    always.finish(duration)
    always_on = integrate_energy(model, always, n, harvest_profile=sun,
                                 max_slice=5.0)

    coverage = net.timeline.coverage_fraction()
    ok = (
        rotating.sustainable
        and not always_on.sustainable
        and coverage == 1.0
    )
    rows = [
        ["rotating (SSRmin)", f"{min(rotating.min_charge):.0f}",
         str(rotating.sustainable), f"{coverage:.0%}"],
        ["always-on", f"{min(always_on.min_charge):.0f}",
         str(always_on.sustainable), "100%"],
    ]
    return ExperimentResult(
        experiment_id="ext8",
        title="Day/night energy sustainability (diurnal harvesting)",
        paper_claim="(beyond paper; quantifies the section-1.1 motivation) — "
        "token rotation lets nodes 'charge energy with solar cells'; an "
        "always-on fleet cannot survive the night on the same harvest",
        measured="the rotating fleet kept every battery above empty across "
        f"{days} day/night cycles with 100% coverage; the always-on fleet "
        "browned out" if ok else "expected separation not observed",
        match=ok,
        header=["fleet", "min charge reached", "sustainable", "coverage"],
        rows=rows,
        notes=f"half-sine solar profile, peak 8.0, day length {day_length}; "
        "same per-node hardware in both fleets",
    )


def run_ext9(fast: bool = False) -> ExperimentResult:
    """Wireless medium: service under broadcast collisions (lossy regime)."""
    from repro.messagepassing.cst import coherent_caches, legitimate_initial_states
    from repro.messagepassing.wireless import build_wireless_network

    duration = 200.0 if fast else 600.0
    seeds = range(3) if fast else range(8)
    rows: List[List[str]] = []
    ok = True
    collision_fracs = []
    coverages = []
    for seed in seeds:
        alg = SSRmin(5, 6)
        states = legitimate_initial_states(alg)
        net = build_wireless_network(
            alg, states, seed=300 + seed,
            initial_caches=coherent_caches(list(states), 5),
        )
        net.run(duration)
        net.timeline.finish(net.queue.now)
        stats = net.message_stats()
        receptions = stats["delivered"] + stats["lost"]
        frac = stats["lost"] / receptions if receptions else 0.0
        collision_fracs.append(frac)
        coverage = net.timeline.coverage_fraction()
        coverages.append(coverage)
        _, hi = net.timeline.count_bounds()
        served = {h for pt in net.timeline.points for h in pt.holders}
        run_ok = coverage >= 0.85 and hi <= 2 and served == set(range(5))
        ok = ok and run_ok and stats["lost"] > 0
        rows.append([str(seed), f"{frac:.0%}", f"{coverage:.1%}",
                     str(hi), str(run_ok)])
    mean_frac = sum(collision_fracs) / len(collision_fracs)
    mean_cov = sum(coverages) / len(coverages)
    return ExperimentResult(
        experiment_id="ext9",
        title="Shared wireless medium: service under collisions",
        paper_claim="(beyond paper; its own motivation) — the paper targets "
        "*wireless* sensor networks; collisions are a message-LOSS "
        "mechanism, so Theorem 3's no-loss guarantee is suspended but "
        "Theorem 4's continual-recovery regime applies: near-total coverage "
        "with brief, self-healing extinction windows",
        measured=f"with ~{mean_frac:.0%} of receptions destroyed by "
        f"collisions (half-duplex broadcast radios, no MAC), coverage "
        f"averaged {mean_cov:.1%}, holders never exceeded 2, and the full "
        "ring was served in every run",
        match=ok,
        header=["seed", "collision rate", "coverage", "max holders",
                "contract held"],
        rows=rows,
        notes="change-triggered broadcasts + jittered timers (Algorithm 4's "
        "per-receipt echo would jam the channel); jittered dwell "
        "desynchronizes transmissions",
    )
