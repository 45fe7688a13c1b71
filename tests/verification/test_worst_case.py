"""Unit tests for exact worst-case witness extraction."""

import pytest

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.daemons.replay import ReplayDaemon
from repro.verification.model_checker import (
    worst_case_convergence_steps,
    worst_case_witness,
)
from repro.verification.transition_system import TransitionSystem


class TestWorstCaseWitness:
    def test_witness_length_equals_exact_value(self):
        alg = SSRmin(3, 4)
        ts = TransitionSystem(alg, "distributed")
        worst = worst_case_convergence_steps(TransitionSystem(alg, "distributed"))
        path = worst_case_witness(ts)
        assert len(path) - 1 == worst

    def test_witness_structure(self):
        alg = SSRmin(3, 4)
        path = worst_case_witness(TransitionSystem(alg, "distributed"))
        assert not alg.is_legitimate(path[0])
        assert alg.is_legitimate(path[-1])
        for config in path[:-1]:
            assert not alg.is_legitimate(config)

    def test_witness_transitions_are_legal(self):
        """Each witness step must be reachable by some daemon selection."""
        alg = SSRmin(3, 4)
        ts = TransitionSystem(alg, "distributed")
        path = worst_case_witness(ts)
        for a, b in zip(path, path[1:]):
            succs = {ts._key(s) for s in ts.successors(a)}
            assert ts._key(b) in succs

    def test_dijkstra_witness(self):
        alg = DijkstraKState(3, 4)
        ts = TransitionSystem(alg, "distributed")
        path = worst_case_witness(ts)
        worst = worst_case_convergence_steps(TransitionSystem(alg, "distributed"))
        assert len(path) - 1 == worst
        assert alg.is_legitimate(path[-1])

    def test_worst_case_within_theorem2_budget(self):
        alg = SSRmin(3, 4)
        path = worst_case_witness(TransitionSystem(alg, "distributed"))
        n = 3
        assert len(path) - 1 <= 60 * n * n + 600

    def test_witness_on_tiny_dijkstra_ring_regression(self, monkeypatch):
        """The witness needs no recursion-limit changes, and works end to
        end on the smallest ring.

        The graph is valued in numpy level rounds and the witness walks
        its rows by position, with no recursion, so a witness over 160,000
        configurations (SSRmin n=4) completes with
        ``sys.setrecursionlimit`` patched to raise.
        """
        import sys

        def _refuse(limit):
            raise AssertionError(f"setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", _refuse)
        assert len(worst_case_witness(
            TransitionSystem(SSRmin(4, 5), "distributed"))) == 44
        alg = DijkstraKState(2, 3)
        path = worst_case_witness(TransitionSystem(alg, "distributed"))
        assert len(path) >= 1
        assert alg.is_legitimate(path[-1])
        for config in path[:-1]:
            assert not alg.is_legitimate(config)

    def test_witness_fastpath_matches_naive_value(self):
        alg = SSRmin(3, 4)
        fast = worst_case_witness(
            TransitionSystem(alg, "distributed", use_fastpath=True))
        naive = worst_case_witness(
            TransitionSystem(alg, "distributed", use_fastpath=False))
        assert len(fast) == len(naive)

    def test_central_daemon_worst_at_least_distributed_start_value(self):
        """The central daemon is a restriction of the distributed one, so
        its exact worst case cannot exceed the distributed daemon's."""
        alg = SSRmin(3, 4)
        wc_central = worst_case_convergence_steps(
            TransitionSystem(alg, "central")
        )
        wc_distributed = worst_case_convergence_steps(
            TransitionSystem(alg, "distributed")
        )
        assert wc_central <= wc_distributed
