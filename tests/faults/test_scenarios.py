"""Recovery from transient faults in the state-reading model."""

import random

from repro.core.ssrmin import SSRmin
from repro.daemons.distributed import RandomSubsetDaemon
from repro.simulation.convergence import converge
from repro.simulation.initial import perturbed_legitimate


def _periodic_recoveries(alg, daemon, rounds, seed):
    """Steps back to legitimacy after each of ``rounds`` single faults
    hitting the running ring."""
    rng = random.Random(seed)
    config = perturbed_legitimate(alg, rng, faults=0)
    steps = []
    for _ in range(rounds):
        config = alg.corrupt_process_to(
            config, rng.randrange(alg.n), alg.random_local_state(rng))
        result = converge(alg, daemon, config)
        assert result.converged
        steps.append(result.steps)
        config = result.final_config
    return steps


class TestBurstFault:
    def test_single_burst_recovers(self):
        alg = SSRmin(5, 6)
        config = perturbed_legitimate(alg, random.Random(0), faults=3)
        result = converge(alg, RandomSubsetDaemon(seed=0), config)
        assert result.converged
        assert alg.is_legitimate(result.final_config)

    def test_recovery_within_quadratic_budget(self):
        alg = SSRmin(6, 7)
        for seed in range(5):
            config = perturbed_legitimate(alg, random.Random(seed), faults=6)
            result = converge(alg, RandomSubsetDaemon(seed=seed), config)
            assert result.converged
            assert result.steps <= 10 * 36 + 100


class TestPeriodicFaults:
    def test_rounds_counted(self):
        alg = SSRmin(4, 5)
        steps = _periodic_recoveries(alg, RandomSubsetDaemon(seed=1),
                                     rounds=5, seed=1)
        assert len(steps) == 5

    def test_single_fault_recovery_fast(self):
        """A single corrupted process recovers much faster than the worst
        case — typically within a lap or two."""
        alg = SSRmin(6, 7)
        steps = _periodic_recoveries(alg, RandomSubsetDaemon(seed=3),
                                     rounds=10, seed=3)
        assert max(steps) <= 6 * alg.n * alg.n
