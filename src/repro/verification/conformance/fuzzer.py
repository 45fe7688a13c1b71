"""The adversarial schedule fuzzer and campaign runner.

Every trial is generated from a derived seed (``Random(f"{seed}:{trial}")``
— stable across runs and Python versions), so a campaign is fully
reproducible from its master seed: a random instance (algorithm, ring size,
counter modulus), a random initial configuration (an arbitrary post-fault
state), a daemon drawn from one of four schedule families (central,
distributed, adversarial lookahead, weighted-unfair), and a concrete fault
script whose values are pre-drawn at generation time (message loss / delay
/ duplication on ring edges, cache corruption, state corruption).

The trial runs through the :class:`~.oracle.LockstepOracle` in generative
mode; any divergence is captured as a :class:`~.witness.Witness`
(schedule included), shrunk by :mod:`~.shrink`, and written to the corpus
directory.  Campaigns emit telemetry like any other run: ``fuzz``-layer
bus events, labelled counters (``fuzz_trials_total{algorithm,daemon}``,
``fuzz_divergences_total``, ``fuzz_steps_total``) and — via the CLI — a
run-store row beside the JSONL trace.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.daemons.adversarial import AdversarialDaemon
from repro.daemons.base import Daemon
from repro.daemons.central import RandomCentralDaemon
from repro.daemons.distributed import (
    BernoulliDaemon,
    RandomSubsetDaemon,
    SynchronousDaemon,
)
from repro.daemons.weighted import WeightedUnfairDaemon
from repro.telemetry.session import current_session
from repro.verification.conformance.oracle import ConformanceReport, LockstepOracle
from repro.verification.conformance.shrink import shrink_witness
from repro.verification.conformance.witness import Witness, build_algorithm

#: The four schedule families of the conformance campaign.
DAEMON_FAMILIES = ("central", "distributed", "adversarial", "weighted")

#: Channel fault kinds drawn by the script generator.
CHANNEL_FAULTS = ("lose", "delay", "duplicate")


@dataclass
class Scenario:
    """One fully concrete fuzz trial (before execution)."""

    trial: int
    algorithm: str
    n: int
    K: int
    config: List[Any]
    daemon_family: str
    daemon: Daemon
    steps: int
    faults: List[dict]

    def witness(
        self,
        schedule: Sequence[Tuple[int, ...]],
        expect: str = "pass",
        divergence: Optional[dict] = None,
        seed: Optional[int] = None,
        note: str = "",
    ) -> Witness:
        """Package this scenario (plus an executed schedule) as a witness."""
        return Witness(
            algorithm=self.algorithm,
            n=self.n,
            K=self.K,
            config=list(self.config),
            schedule=list(schedule),
            faults=[dict(op) for op in self.faults],
            expect=expect,
            seed=seed,
            note=note,
            divergence=divergence,
        )


def make_daemon(family: str, algorithm, rng: random.Random) -> Daemon:
    """A seeded daemon instance from one of the four schedule families."""
    seed = rng.randrange(2**31)
    if family == "central":
        return RandomCentralDaemon(seed=seed)
    if family == "distributed":
        pick = rng.randrange(3)
        if pick == 0:
            return SynchronousDaemon()
        if pick == 1:
            return RandomSubsetDaemon(seed=seed)
        return BernoulliDaemon(p=rng.uniform(0.2, 0.9), seed=seed)
    if family == "adversarial":
        return AdversarialDaemon(
            algorithm, depth=1, max_subsets=6, seed=seed
        )
    if family == "weighted":
        return WeightedUnfairDaemon(
            bias=rng.uniform(2.0, 6.0),
            multi_p=rng.uniform(0.0, 0.5),
            seed=seed,
        )
    raise ValueError(f"unknown daemon family {family!r} "
                     f"(known: {', '.join(DAEMON_FAMILIES)})")


def generate_fault_script(
    algorithm, rng: random.Random, steps: int, max_ops: int = 4
) -> List[dict]:
    """A concrete fault script: every value pre-drawn, nothing left random.

    Channel ops target real directed ring edges (CST message recipients);
    cache ops target real readable-neighbor cache entries; state ops carry
    a concrete domain value from
    :meth:`~repro.algorithms.base.RingAlgorithm.random_local_state`.
    """
    n = algorithm.n
    ring = algorithm.ring
    ops: List[dict] = []
    for _ in range(rng.randrange(max_ops + 1)):
        step = rng.randrange(steps)
        roll = rng.random()
        if roll < 0.45:
            src = rng.randrange(n)
            dst = rng.choice(list(ring.message_neighbors(src)))
            ops.append({
                "step": step,
                "kind": rng.choice(CHANNEL_FAULTS),
                "src": src,
                "dst": dst,
            })
        elif roll < 0.75:
            node = rng.randrange(n)
            neighbor = rng.choice(list(ring.readable_neighbors(node)))
            ops.append({
                "step": step,
                "kind": "corrupt-cache",
                "node": node,
                "neighbor": neighbor,
                "value": _jsonable(algorithm.random_local_state(rng)),
            })
        else:
            ops.append({
                "step": step,
                "kind": "corrupt-state",
                "process": rng.randrange(n),
                "value": _jsonable(algorithm.random_local_state(rng)),
            })
    ops.sort(key=lambda op: op["step"])
    return ops


def _jsonable(state: Any) -> Any:
    return list(state) if isinstance(state, tuple) else state


def generate_scenario(
    trial: int,
    seed: int,
    algorithms: Sequence[str] = ("ssrmin", "dijkstra"),
    ns: Sequence[int] = (3, 4, 5, 6, 7, 8),
    daemon_families: Sequence[str] = DAEMON_FAMILIES,
    min_steps: int = 20,
    max_steps: int = 80,
    fault_ops: int = 4,
) -> Scenario:
    """Derive trial ``trial`` of campaign ``seed`` (pure function of both)."""
    rng = random.Random(f"{seed}:{trial}")
    name = rng.choice(list(algorithms))
    n = rng.choice(list(ns))
    K = n + 1 + rng.randrange(3)
    algorithm = build_algorithm(name, n, K)
    config = list(algorithm.random_configuration(rng))
    family = rng.choice(list(daemon_families))
    daemon = make_daemon(family, algorithm, rng)
    steps = rng.randrange(min_steps, max_steps + 1)
    faults = generate_fault_script(algorithm, rng, steps, max_ops=fault_ops)
    return Scenario(
        trial=trial,
        algorithm=name,
        n=n,
        K=K,
        config=config,
        daemon_family=family,
        daemon=daemon,
        steps=steps,
        faults=faults,
    )


def run_trial(
    scenario: Scenario, use_cst: bool = True
) -> ConformanceReport:
    """Execute one scenario through the lockstep oracle (generative mode)."""
    algorithm = build_algorithm(scenario.algorithm, scenario.n, scenario.K)
    if isinstance(scenario.daemon, AdversarialDaemon):
        # The lookahead adversary simulates on the algorithm it was built
        # with; rebind it to the fresh instance for a clean replay.
        scenario.daemon.algorithm = algorithm
    oracle = LockstepOracle(algorithm, use_cst=use_cst)
    return oracle.run_daemon(
        scenario.config, scenario.daemon, scenario.steps,
        faults=scenario.faults,
    )


@dataclass
class DivergenceRecord:
    """One divergence found by a campaign, with its shrunk witness."""

    trial: int
    scenario: Scenario
    divergence: dict
    witness: Witness
    shrunk: Witness
    path: Optional[str] = None


@dataclass
class CampaignResult:
    """Summary of one fuzz campaign."""

    seed: int
    trials: int
    fired_steps: int
    elapsed: float
    divergences: List[DivergenceRecord] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every trial ran divergence-free."""
        return not self.divergences

    def summary(self) -> str:
        """One-line human-readable campaign verdict."""
        verdict = (
            "zero divergences"
            if self.ok
            else f"{len(self.divergences)} DIVERGENCE(S)"
        )
        return (
            f"fuzz campaign seed={self.seed}: {self.trials} trials, "
            f"{self.fired_steps} lockstep steps, {self.elapsed:.1f}s — "
            f"{verdict}"
        )

    def to_json(self) -> dict:
        """JSON-able campaign summary (recorded in the run's store row)."""
        return {
            "seed": self.seed,
            "trials": self.trials,
            "fired_steps": self.fired_steps,
            "elapsed_seconds": round(self.elapsed, 3),
            "ok": self.ok,
            "params": self.params,
            "divergences": [
                {
                    "trial": rec.trial,
                    "algorithm": rec.scenario.algorithm,
                    "daemon": rec.scenario.daemon_family,
                    "divergence": rec.divergence,
                    "witness_file": rec.path,
                }
                for rec in self.divergences
            ],
        }


def run_fuzz_campaign(
    seed: int = 0,
    trials: Optional[int] = None,
    time_budget: Optional[float] = None,
    algorithms: Sequence[str] = ("ssrmin", "dijkstra"),
    ns: Sequence[int] = (3, 4, 5, 6, 7, 8),
    daemon_families: Sequence[str] = DAEMON_FAMILIES,
    fault_ops: int = 4,
    use_cst: bool = True,
    shrink: bool = True,
    corpus_dir: Optional[str] = None,
    max_divergences: int = 5,
) -> CampaignResult:
    """Run a seeded fuzz campaign; returns its :class:`CampaignResult`.

    Either ``trials`` (exact trial count, fully deterministic) or
    ``time_budget`` (seconds of wall clock; per-trial results are still
    deterministic, only the count varies) must bound the campaign.
    Divergences are shrunk (unless ``shrink=False``) and written to
    ``corpus_dir`` when given.  Telemetry flows into the ambient
    :func:`~repro.telemetry.session.current_session` when one is active.
    """
    if trials is None and time_budget is None:
        raise ValueError("bound the campaign with trials= or time_budget=")
    tel = current_session()
    params = {
        "algorithms": list(algorithms),
        "ns": list(ns),
        "daemon_families": list(daemon_families),
        "fault_ops": fault_ops,
        "use_cst": use_cst,
        "trials": trials,
        "time_budget": time_budget,
    }
    if tel is not None:
        tel.bus.publish("fuzz", "run_start", 0.0, seed=seed, **params)
        trials_counter = tel.registry.counter(
            "fuzz_trials_total", "conformance fuzz trials executed")
        steps_counter = tel.registry.counter(
            "fuzz_steps_total", "lockstep steps fired by fuzz trials")
        div_counter = tel.registry.counter(
            "fuzz_divergences_total", "divergences found by fuzz campaigns")

    result = CampaignResult(
        seed=seed, trials=0, fired_steps=0, elapsed=0.0, params=params
    )
    started = time.monotonic()
    trial = 0
    while True:
        if trials is not None and trial >= trials:
            break
        if time_budget is not None and time.monotonic() - started >= time_budget:
            break
        scenario = generate_scenario(
            trial, seed,
            algorithms=algorithms, ns=ns,
            daemon_families=daemon_families, fault_ops=fault_ops,
        )
        report = run_trial(scenario, use_cst=use_cst)
        result.trials += 1
        result.fired_steps += report.fired_steps
        if tel is not None:
            trials_counter.inc(
                algorithm=scenario.algorithm, daemon=scenario.daemon_family)
            steps_counter.inc(report.fired_steps)
            if tel.step_detail:
                tel.bus.publish(
                    "fuzz", "trial", float(trial),
                    trial=trial,
                    algorithm=scenario.algorithm,
                    n=scenario.n,
                    daemon=scenario.daemon_family,
                    fired_steps=report.fired_steps,
                    ok=report.ok,
                )
        if not report.ok:
            rec = _capture_divergence(
                scenario, report, seed, shrink=shrink, use_cst=use_cst,
                corpus_dir=corpus_dir,
            )
            result.divergences.append(rec)
            if tel is not None:
                div_counter.inc(
                    algorithm=scenario.algorithm, kind=rec.divergence["kind"])
                tel.bus.publish(
                    "fuzz", "divergence", float(trial),
                    trial=trial, **rec.divergence,
                )
            if len(result.divergences) >= max_divergences:
                break
        trial += 1

    result.elapsed = time.monotonic() - started
    if tel is not None:
        tel.bus.publish(
            "fuzz", "run_end", float(result.trials),
            trials=result.trials,
            fired_steps=result.fired_steps,
            divergences=len(result.divergences),
        )
    return result


def _capture_divergence(
    scenario: Scenario,
    report: ConformanceReport,
    seed: int,
    shrink: bool,
    use_cst: bool,
    corpus_dir: Optional[str],
) -> DivergenceRecord:
    d = report.divergences[0]
    witness = scenario.witness(
        report.schedule,
        expect="divergence",
        divergence=d.to_json(),
        seed=seed,
        note=(
            f"fuzz trial {scenario.trial} (seed {seed}), daemon family "
            f"{scenario.daemon_family}: {d.kind} divergence at step {d.step}"
        ),
    )
    shrunk = shrink_witness(witness, use_cst=use_cst)[0] if shrink else witness
    path = None
    if corpus_dir is not None:
        import os

        path = os.path.join(
            corpus_dir,
            f"divergence_seed{seed}_trial{scenario.trial}.jsonl",
        )
        shrunk.save(path)
    return DivergenceRecord(
        trial=scenario.trial,
        scenario=scenario,
        divergence=d.to_json(),
        witness=witness,
        shrunk=shrunk,
        path=path,
    )
