"""The batched kernel's predicates and stepper vs the scalar SSRmin.

``batched_legitimate``, ``batched_guards`` and
``batched_privileged_counts`` are checked configuration by configuration
against ``is_legitimate``, ``enabled_processes`` and ``privileged``, and
every legitimate configuration against the fact the step loop retires
lanes on: it enables exactly one process, by R1, R2 or R3.
``advance_configurations`` is checked step by step against
``SharedMemorySimulator`` driven by a scalar daemon that draws the
kernel's counter-keyed numbers, under every daemon family.  The step loop
keeps counters byte-wide below ``K = 256``; both sides of that boundary
are checked against the scalar engine.  The central lanes' persistent
rule-table indices are checked against a rebuild after every step.
"""

import random

import numpy as np
import pytest

from repro.core.ssrmin import SSRmin
from repro.daemons.distributed import BernoulliDaemon
from repro.kernels import batched
from repro.kernels.batched import (
    STREAM_INIT_H,
    STREAM_INIT_X,
    advance_configurations,
    batched_guards,
    batched_legitimate,
    batched_privileged_counts,
    run_convergence_cells,
)
from repro.kernels.prng import grid_integers
from repro.simulation.convergence import converge, convergence_steps
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


class TestLegitimateEnablesOneProcess:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("extra", [1, 2], ids=["K=n+1", "K=n+2"])
    def test_every_legitimate_configuration_enables_one(self, n, extra):
        """The step loop checks Definition 1 only on lanes with exactly
        one enabled process; no legitimate configuration escapes that.
        (``all_legitimate`` is every one: ``tests/core/test_legitimacy.py``
        compares it with the whole space of SSRmin(3, 4).)"""
        alg = SSRmin(n, n + extra)
        configs = all_legitimate(alg)
        assert len(set(configs)) == 3 * n * alg.K
        for config in configs:
            assert alg.is_legitimate(config)
            enabled = alg.enabled_processes(config)
            assert len(enabled) == 1, config
            assert alg.enabled_rule(config, enabled[0]).name in (
                "R1", "R2", "R3"), config
        rule = batched_guards(*to_arrays(configs))[1]
        assert ((rule != 0).sum(axis=1) == 1).all()
        assert set(rule[rule != 0].tolist()) <= {1, 2, 3}


class TestStepEquivalence:
    def test_enabled_counts_match_scalar(self):
        alg = SSRmin(6, 7)
        configs = random_configs(alg, 3, 200)
        counts = (batched_guards(*to_arrays(configs))[1] != 0).sum(axis=1)
        for t, config in enumerate(configs):
            assert counts[t] == len(alg.enabled_processes(config))

    @pytest.mark.parametrize(
        "daemon,n",
        [("synchronous", 5), ("central", 5), ("bernoulli:0.5", 5),
         # The central move's three columns wrap the ring at n = 3 and 4.
         ("central", 3), ("central", 4)],
        ids=["synchronous", "central", "bernoulli:0.5", "central-n3",
             "central-n4"])
    def test_advance_matches_simulator(self, daemon, n):
        """Every configuration the stepper yields is the one the scalar
        engine reaches under the same keyed daemon decisions."""
        alg = SSRmin(n, n + 1)
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

    @pytest.mark.parametrize("K", [255, 256],
                             ids=["uint8-lanes", "int64-lanes"])
    @pytest.mark.parametrize("daemon", ["synchronous", "central",
                                        "bernoulli:0.5"])
    def test_advance_at_the_counter_width_boundary(self, daemon, K):
        """K = 255 is the largest K on byte-wide counters (the bottom
        process computes 254 + 1), K = 256 the smallest on int64 ones."""
        alg = SSRmin(5, K)
        top = alg.initial_configuration(x=K - 1)  # P0's next x wraps to 0
        starts = random_configs(alg, K, 8) + [
            top,
            alg.initial_configuration(x=K - 2),
            random_legitimate(alg, random.Random(K)),
        ]
        seeds = list(range(-5, len(starts) - 5))
        X, H = to_arrays(starts)
        stepped = []
        for X_k, H_k in advance_configurations(X, H, seeds, daemon, K=K,
                                               steps=3 * K):
            assert X_k.dtype == (np.uint8 if K < 256 else np.int64)
            stepped.append(rows_as_states(X_k, H_k))
        row = starts.index(top)
        assert any(states[row][0][0] == 0 for states in stepped)
        for row, (seed, start) in enumerate(zip(seeds, starts)):
            sim = SharedMemorySimulator(alg, CounterKeyedDaemon(daemon, seed))
            scalar = sim.run(start, max_steps=3 * K)
            expected = [c.states for c in scalar.execution.configurations[1:]]
            assert [states[row] for states in stepped] == expected

    @pytest.mark.parametrize("K", [255, 256],
                             ids=["uint8-lanes", "int64-lanes"])
    @pytest.mark.parametrize("daemon", ["synchronous", "central",
                                        "bernoulli:0.5"])
    def test_convergence_cells_at_the_counter_width_boundary(self, daemon, K):
        n, seeds = 5, list(range(-4, 12))
        X = grid_integers(seeds, STREAM_INIT_X, 0, n, K)
        H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4)
        assert X.max() >= 200  # the draws reach the top of the byte
        alg = SSRmin(n, K)
        for row, (seed, result) in enumerate(
                zip(seeds, run_convergence_cells(n, seeds, daemon, K=K))):
            init = tuple((int(X[row, i]), int(H[row, i]) >> 1,
                          int(H[row, i]) & 1) for i in range(n))
            scalar = converge(alg, CounterKeyedDaemon(daemon, seed), init)
            assert scalar.converged and result["converged"]
            assert scalar.steps == result["steps"]

    def test_advance_rejects_counters_outside_the_domain(self):
        X, H = to_arrays([SSRmin(5, 6).initial_configuration()])
        for bad in (6, -1, 300):
            X[0, 2] = bad
            with pytest.raises(ValueError):
                next(advance_configurations(X, H, [0], K=6, steps=1))

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


class TestCentralIndices:
    """Central lanes keep each process's rule-table index across steps
    and rewrite only the three around each move."""

    @pytest.mark.parametrize("K", ["n+1", 255, 256])
    @pytest.mark.parametrize("n", [3, 4, 8, 64])
    def test_indices_equal_a_rebuild_after_every_step(self, monkeypatch,
                                                      n, K):
        K = n + 1 if K == "n+1" else K
        central_step = batched._Lanes._central_step
        checked = []

        def step_and_check(lanes, k, steps):
            central_step(lanes, k, steps)
            X, H = lanes.configurations()
            G = batched._primary(X).view(np.uint8)
            Hp, Hs = batched._neighbours(H)
            assert np.array_equal(lanes.I,
                                  (G << 6) | (Hp << 4) | (H << 2) | Hs)
            assert np.array_equal(lanes.enabled,
                                  batched.RULE_LUT[lanes.I] != 0)
            checked.append(k)

        monkeypatch.setattr(batched._Lanes, "_central_step", step_and_check)
        seeds = list(range(12))
        results = run_convergence_cells(n, seeds, "central", K=K)
        assert all(r["converged"] for r in results)
        assert len(checked) == max(r["steps"] for r in results) + 1
        X = grid_integers(seeds, STREAM_INIT_X, 0, n, K)
        H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4)
        checked.clear()
        for _ in advance_configurations(X, H, seeds, "central", K=K,
                                        steps=4 * n):
            pass
        assert len(checked) == 4 * n


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
