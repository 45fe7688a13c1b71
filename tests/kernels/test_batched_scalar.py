"""The batched kernel's predicates and stepper vs the scalar SSRmin.

``batched_legitimate``, ``batched_guards`` and
``batched_privileged_counts`` are checked configuration by configuration
against ``is_legitimate``, ``enabled_processes`` and ``privileged``.
``advance_configurations`` is checked step by step against
``SharedMemorySimulator`` driven by a scalar daemon that draws the
kernel's counter-keyed numbers, under every daemon family.
"""

import random

import numpy as np
import pytest

from repro.core.ssrmin import SSRmin
from repro.daemons.distributed import BernoulliDaemon
from repro.kernels.batched import (
    advance_configurations,
    batched_guards,
    batched_legitimate,
    batched_privileged_counts,
    run_convergence_cells,
)
from repro.simulation.convergence import convergence_steps
from repro.simulation.engine import SharedMemorySimulator
from repro.simulation.initial import all_legitimate, random_legitimate
from tests.kernels.test_batched_backend import CounterKeyedDaemon


def to_arrays(configs):
    """``(X, H)`` arrays of a list of configurations, one row each."""
    X = np.array([[x for x, _, _ in c] for c in configs], dtype=np.int64)
    H = np.array([[2 * rts + tra for _, rts, tra in c] for c in configs],
                 dtype=np.uint8)
    return X, H


def rows_as_states(X, H):
    """Each row of ``(X, H)`` as a tuple of ``(x, rts, tra)`` states."""
    return [tuple((int(x), int(h) >> 1, int(h) & 1) for x, h in zip(xs, hs))
            for xs, hs in zip(X, H)]


def random_configs(alg, seed, count):
    rng = random.Random(seed)
    return [alg.random_configuration(rng) for _ in range(count)]


class TestLegitimacyEquivalence:
    def test_matches_scalar_on_random_configs(self):
        alg = SSRmin(5, 6)
        configs = random_configs(alg, 0, 500)
        mask = batched_legitimate(*to_arrays(configs), alg.K)
        for t, config in enumerate(configs):
            assert bool(mask[t]) == alg.is_legitimate(config), config

    def test_matches_scalar_on_all_legitimate(self):
        alg = SSRmin(4, 5)
        configs = all_legitimate(alg)
        assert len(configs) == 3 * alg.n * alg.K
        assert batched_legitimate(*to_arrays(configs), alg.K).all()

    def test_matches_scalar_exhaustively(self):
        alg = SSRmin(3, 4)
        configs = list(alg.configuration_space())
        mask = batched_legitimate(*to_arrays(configs), alg.K)
        for t, config in enumerate(configs):
            assert bool(mask[t]) == alg.is_legitimate(config)


class TestStepEquivalence:
    def test_enabled_counts_match_scalar(self):
        alg = SSRmin(6, 7)
        configs = random_configs(alg, 3, 200)
        counts = (batched_guards(*to_arrays(configs))[1] != 0).sum(axis=1)
        for t, config in enumerate(configs):
            assert counts[t] == len(alg.enabled_processes(config))

    @pytest.mark.parametrize("daemon", ["synchronous", "central",
                                        "bernoulli:0.5"])
    def test_advance_matches_simulator(self, daemon):
        """Every configuration the stepper yields is the one the scalar
        engine reaches under the same keyed daemon decisions."""
        alg = SSRmin(5, 6)
        configs = random_configs(alg, 7, 10)
        legit = [random_legitimate(alg, random.Random(s)) for s in range(4)]
        starts = configs + legit
        seeds = list(range(100, 100 + len(starts)))
        X, H = to_arrays(starts)
        stepped = [rows_as_states(X_k, H_k) for X_k, H_k in
                   advance_configurations(X, H, seeds, daemon, K=alg.K,
                                          steps=30)]
        assert rows_as_states(X, H) == [c.states for c in starts]
        for row, (seed, start) in enumerate(zip(seeds, starts)):
            sim = SharedMemorySimulator(alg, CounterKeyedDaemon(daemon, seed))
            scalar = sim.run(start, max_steps=30)
            expected = [c.states for c in scalar.execution.configurations[1:]]
            assert [states[row] for states in stepped] == expected

    def test_advance_rejects_bad_params(self):
        X, H = to_arrays([SSRmin(5, 6).initial_configuration()])
        with pytest.raises(ValueError):
            next(advance_configurations(X[:, :2], H[:, :2], [0], steps=1))
        with pytest.raises(ValueError):
            next(advance_configurations(X, H, [0], K=5, steps=1))
        with pytest.raises(ValueError):
            next(advance_configurations(X, H, [0], "bernoulli:0", steps=1))
        with pytest.raises(ValueError):
            next(advance_configurations(X, H, [0, 1], steps=1))


class TestPrivilegedCounts:
    def test_matches_scalar_on_random_configs(self):
        alg = SSRmin(6, 7)
        configs = random_configs(alg, 11, 300)
        counts = batched_privileged_counts(*to_arrays(configs))
        for t, config in enumerate(configs):
            assert counts[t] == len(alg.privileged(config)), config

    def test_theorem1_band_from_legitimate_starts(self):
        """Vectorized Theorem 1: from legitimate configurations, 1..2
        processes are privileged at every step, and legitimacy holds."""
        alg = SSRmin(6, 7)
        rng = random.Random(5)
        X, H = to_arrays([random_legitimate(alg, rng) for _ in range(200)])
        for X_k, H_k in advance_configurations(X, H, range(200), K=alg.K,
                                               steps=100):
            counts = batched_privileged_counts(X_k, H_k)
            assert (counts >= 1).all() and (counts <= 2).all()
            assert batched_legitimate(X_k, H_k, alg.K).all()


def test_distribution_comparable_to_scalar():
    """The keyed Bernoulli daemon and ``BernoulliDaemon`` sample the same
    process; their mean convergence steps agree within sampling noise."""
    n = 5
    batched = [r["steps"] for r in
               run_convergence_cells(n, range(400), "bernoulli:0.5")]
    scalar = convergence_steps(
        algorithm_factory=lambda: SSRmin(n, n + 1),
        daemon_factory=lambda alg, s: BernoulliDaemon(0.5, seed=s),
        trials=60,
        seed=0,
    )
    assert abs(np.mean(batched) - np.mean(scalar)) < 6.0
