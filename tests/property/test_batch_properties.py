"""Property-based tests for the batched kernel against the scalar SSRmin."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ssrmin import SSRmin
from repro.kernels.batched import (
    DAEMON_FAMILIES,
    advance_configurations,
    batched_guards,
    batched_legitimate,
    run_convergence_cells,
)
from repro.simulation.initial import random_legitimate
from tests.kernels.test_batched_scalar import rows_as_states, to_arrays


@st.composite
def batch_with_scalar_twin(draw):
    """Random configurations as ``(X, H)`` arrays plus their SSRmin."""
    n = draw(st.integers(3, 7))
    K = n + draw(st.integers(1, 3))
    trials = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2 ** 16))
    alg = SSRmin(n, K)
    rng = random.Random(seed)
    configs = [alg.random_configuration(rng) for _ in range(trials)]
    return alg, to_arrays(configs), configs


class TestScalarEquivalence:
    @given(batch_with_scalar_twin())
    @settings(max_examples=60, deadline=None)
    def test_legitimacy_mask_matches_scalar(self, triple):
        alg, (X, H), configs = triple
        mask = batched_legitimate(X, H, alg.K)
        for t, config in enumerate(configs):
            assert bool(mask[t]) == alg.is_legitimate(config)

    @given(batch_with_scalar_twin())
    @settings(max_examples=60, deadline=None)
    def test_enabled_counts_match_scalar(self, triple):
        alg, (X, H), configs = triple
        counts = (batched_guards(X, H)[1] != 0).sum(axis=1)
        for t, config in enumerate(configs):
            assert counts[t] == len(alg.enabled_processes(config))

    @given(batch_with_scalar_twin())
    @settings(max_examples=40, deadline=None)
    def test_synchronous_step_matches_scalar(self, triple):
        alg, (X, H), configs = triple
        X1, H1 = next(advance_configurations(
            X, H, range(len(configs)), "synchronous", K=alg.K, steps=1))
        for states, config in zip(rows_as_states(X1, H1), configs):
            enabled = alg.enabled_processes(config)
            expected = alg.step(config, enabled) if enabled else config
            assert states == expected.states

    @given(batch_with_scalar_twin())
    @settings(max_examples=30, deadline=None)
    def test_no_deadlock_in_batch(self, triple):
        """Lemma 4 holds batched: every trial has an enabled process."""
        _, (X, H), _ = triple
        assert (batched_guards(X, H)[1] != 0).any(axis=1).all()


class TestConvergenceProperties:
    @given(st.integers(3, 8), st.integers(0, 2 ** 16), st.floats(0.1, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_all_trials_converge_for_any_p(self, n, seed, p):
        results = run_convergence_cells(n, range(seed, seed + 30),
                                        f"bernoulli:{p}")
        assert all(r["converged"] for r in results)
        assert all(r["steps"] <= 60 * n * n + 600 for r in results)

    @given(st.integers(3, 7), st.integers(0, 2 ** 16),
           st.sampled_from(DAEMON_FAMILIES))
    @settings(max_examples=20, deadline=None)
    def test_closure_from_legitimate_starts(self, n, seed, family):
        """Closure (Lemma 1) on the stepper, for every daemon family."""
        alg = SSRmin(n, n + 1)
        rng = random.Random(seed)
        X, H = to_arrays([random_legitimate(alg, rng) for _ in range(4)])
        daemon = "bernoulli:0.5" if family == "bernoulli" else family
        for X_k, H_k in advance_configurations(
                X, H, range(seed, seed + 4), daemon, K=alg.K, steps=3 * n):
            assert batched_legitimate(X_k, H_k, alg.K).all()
