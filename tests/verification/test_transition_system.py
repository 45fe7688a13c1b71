"""Unit tests for explicit-state transition systems."""

import pytest

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.verification.transition_system import TransitionSystem, nonempty_subsets


class TestNonemptySubsets:
    def test_all_subsets(self):
        subs = list(nonempty_subsets((0, 1, 2)))
        assert len(subs) == 7

    def test_size_cap(self):
        subs = list(nonempty_subsets((0, 1, 2), max_size=1))
        assert subs == [(0,), (1,), (2,)]

    def test_empty_input(self):
        assert list(nonempty_subsets(())) == []


class TestTransitionSystem:
    def test_rejects_bad_daemon(self):
        with pytest.raises(ValueError):
            TransitionSystem(DijkstraKState(3, 4), daemon="oracle")

    def test_central_successors_are_single_moves(self):
        alg = DijkstraKState(3, 4)
        ts = TransitionSystem(alg, daemon="central")
        config = (0, 1, 2)  # several processes enabled
        succs = ts.successors(config)
        assert 1 <= len(succs) <= 3

    def test_distributed_successors_superset_of_central(self):
        alg = DijkstraKState(3, 4)
        central = TransitionSystem(alg, daemon="central")
        distributed = TransitionSystem(alg, daemon="distributed")
        config = (0, 1, 2)
        c_succ = set(central.successors(config))
        d_succ = set(distributed.successors(config))
        assert c_succ <= d_succ

    def test_state_count(self):
        ts = TransitionSystem(DijkstraKState(3, 4))
        assert ts.state_count() == 64

    def test_state_count_ssrmin(self):
        ts = TransitionSystem(SSRmin(3, 4))
        assert ts.state_count() == (4 * 4) ** 3

    def test_deadlock_detection(self):
        alg = DijkstraKState(3, 4)
        ts = TransitionSystem(alg)
        # Dijkstra rings never deadlock.
        assert not ts.is_deadlocked((0, 0, 0))
        assert not ts.is_deadlocked((0, 1, 2))

    def test_reachability_closure(self):
        alg = DijkstraKState(3, 4)
        ts = TransitionSystem(alg, daemon="central")
        reached = ts.reachable_from([(0, 0, 0)])
        # From the all-zero config the legitimate cycle visits 3K staircases.
        assert all(alg.is_legitimate(c) for c in reached.values())
        assert len(reached) == 3 * 4

    def test_reachability_from_everywhere_hits_legitimacy(self):
        alg = DijkstraKState(3, 4)
        ts = TransitionSystem(alg, daemon="distributed")
        for config in ts.states():
            reached = ts.reachable_from([config])
            assert any(alg.is_legitimate(c) for c in reached.values())

    def test_memoized_legitimacy_matches_algorithm(self):
        alg = DijkstraKState(3, 4)
        ts = TransitionSystem(alg)
        for config in ts.states():
            assert ts.is_legitimate(config) == alg.is_legitimate(config)
            # A repeated query must agree too.
            assert ts.is_legitimate(config) == alg.is_legitimate(config)

    def test_fastpath_and_naive_reachability_agree(self):
        alg = SSRmin(3, 4)
        fast = TransitionSystem(alg, daemon="central", use_fastpath=True)
        naive = TransitionSystem(alg, daemon="central", use_fastpath=False)
        start = alg.initial_configuration()
        reached_fast = {c.states for c in fast.reachable_from([start]).values()}
        reached_naive = {c.states for c in naive.reachable_from([start]).values()}
        assert reached_fast == reached_naive


class _RestrictedSpaceDijkstra(DijkstraKState):
    """Overrides configuration_space: only staircase-reachable configs."""

    def configuration_space(self):
        for x in range(self.K):
            for split in range(self.n):
                step = (x + 1) % self.K
                yield tuple(
                    step if i < split else x for i in range(self.n)
                )


class _UncountableStateSpace(DijkstraKState):
    """local_state_space cannot be materialized (len raises TypeError)."""

    def local_state_space(self):
        return iter(range(self.K))

    def configuration_space(self):
        yield (0,) * self.n
        yield (1,) * self.n


class TestStateCount:
    def test_override_counted_by_iteration(self):
        alg = _RestrictedSpaceDijkstra(3, 4)
        ts = TransitionSystem(alg)
        # K values x n splits — far fewer than K^n, so the product
        # shortcut must not be trusted for overridden spaces.
        assert ts.state_count() == 4 * 3

    def test_expected_exceptions_fall_back_to_iteration(self):
        alg = _UncountableStateSpace(3, 4)
        ts = TransitionSystem(alg)
        assert ts.state_count() == 2

    def test_unexpected_exceptions_propagate(self):
        class Broken(DijkstraKState):
            def state_count_per_process(self):
                raise RuntimeError("boom")

        ts = TransitionSystem(Broken(3, 4))
        with pytest.raises(RuntimeError):
            ts.state_count()
