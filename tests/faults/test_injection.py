"""Unit tests for the transient-fault primitives on ``RingAlgorithm``."""

import random

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin


def _corrupt(alg, config, i, rng):
    return alg.corrupt_process_to(config, i, alg.random_local_state(rng))


class TestCorruptProcess:
    def test_stays_in_domain(self, ssrmin5, rng):
        config = ssrmin5.initial_configuration()
        for _ in range(50):
            config = _corrupt(ssrmin5, config, 2, rng)
            x, rts, tra = config[2]
            assert 0 <= x < ssrmin5.K and rts in (0, 1) and tra in (0, 1)

    def test_only_target_changes(self, ssrmin5, rng):
        config = ssrmin5.initial_configuration()
        for _ in range(20):
            corrupted = _corrupt(ssrmin5, config, 3, rng)
            for i in range(5):
                if i != 3:
                    assert corrupted[i] == config[i]

    def test_works_on_plain_tuple_configs(self, rng):
        alg = DijkstraKState(4, 5)
        config = alg.initial_configuration()
        corrupted = _corrupt(alg, config, 1, rng)
        assert isinstance(corrupted, tuple)
        assert 0 <= corrupted[1] < 5
        assert corrupted[:1] + corrupted[2:] == config[:1] + config[2:]

    def test_corrupt_many(self, ssrmin5, rng):
        config = ssrmin5.initial_configuration()
        for i in (0, 1, 2):
            config = _corrupt(ssrmin5, config, i, rng)
        assert config.n == 5

    def test_draws_replay_under_seed(self):
        """One ``choice`` over the domain per draw: a seeded fault script
        (fuzz corpus, live restarts) draws the same values it always did."""
        for alg in (SSRmin(5, 6), DijkstraKState(4, 5)):
            space = list(alg.local_state_space())
            a, b = random.Random(7), random.Random(7)
            for _ in range(200):
                assert alg.random_local_state(a) == b.choice(space)
