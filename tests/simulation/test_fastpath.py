"""Differential tests: the packed fastpath kernels vs the naive rule path.

The fast kernels are only trustworthy if they are *indistinguishable* from
the reference implementation — same enabled sets, same resolved rule names,
same successors under every daemon selection, same legitimacy verdicts.
This suite pins that equivalence three ways:

* property-based (hypothesis) single-configuration checks over random
  instances and configurations;
* full random-walk runs through the engine / convergence driver under every
  daemon type, comparing recorded executions move for move;
* an exhaustive sweep of the complete n=3, K=4 SSRmin state space (4096
  configurations), including all distributed-daemon successor sets.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.core.state import Configuration
from repro.daemons.adversarial import AdversarialDaemon
from repro.daemons.central import (
    FixedPriorityDaemon,
    RandomCentralDaemon,
    RoundRobinDaemon,
)
from repro.daemons.distributed import (
    BernoulliDaemon,
    RandomSubsetDaemon,
    SynchronousDaemon,
)
from repro.simulation.convergence import converge
from repro.simulation.engine import SharedMemorySimulator
from repro.simulation.fastpath import PackedView, resolve_kernel
from repro.simulation.fastpath.ssrmin_kernel import RULE_TABLE
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.session import telemetry_session
from repro.verification.transition_system import TransitionSystem


def ssrmin_instances():
    return st.tuples(st.integers(3, 8), st.integers(1, 4)).map(
        lambda t: (t[0], t[0] + t[1])
    )


def ssrmin_configurations(n, K):
    state = st.tuples(
        st.integers(0, K - 1), st.integers(0, 1), st.integers(0, 1)
    )
    return st.lists(state, min_size=n, max_size=n).map(Configuration)


@st.composite
def ssrmin_with_config(draw):
    n, K = draw(ssrmin_instances())
    return SSRmin(n, K), draw(ssrmin_configurations(n, K))


@st.composite
def dijkstra_with_config(draw):
    n, K = draw(st.tuples(st.integers(2, 8), st.integers(1, 4)))
    n, K = n, n + K
    config = tuple(
        draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n))
    )
    return DijkstraKState(n, K), config


ALL_DAEMON_FACTORIES = [
    lambda alg, seed: RandomCentralDaemon(seed=seed),
    lambda alg, seed: RoundRobinDaemon(),
    lambda alg, seed: FixedPriorityDaemon(),
    lambda alg, seed: SynchronousDaemon(),
    lambda alg, seed: BernoulliDaemon(0.5, seed=seed),
    lambda alg, seed: RandomSubsetDaemon(seed=seed),
    lambda alg, seed: AdversarialDaemon(alg, depth=1, seed=seed),
]


class TestCapabilityProbe:
    def test_base_default_has_no_kernel(self):
        from repro.algorithms.base import RingAlgorithm

        assert RingAlgorithm.fast_kernel(object()) is None

    def test_ssrmin_and_dijkstra_provide_kernels(self, ssrmin5, dijkstra5):
        assert ssrmin5.fast_kernel() is not None
        assert dijkstra5.fast_kernel() is not None

    def test_resolve_kernel_explicit_off(self, ssrmin5):
        assert resolve_kernel(ssrmin5, False) is None
        assert resolve_kernel(ssrmin5, True) is not None
        assert resolve_kernel(ssrmin5) is not None

    def test_kernels_are_fresh_per_call(self, ssrmin5):
        assert ssrmin5.fast_kernel() is not ssrmin5.fast_kernel()


class TestRuleTable:
    def test_table_matches_rule_set_on_all_neighborhoods(self):
        """All 128 table entries agree with RuleSet.enabled_rule.

        A 3-process ring can realize every (G, h_pred, h_own, h_succ)
        combination at its non-bottom process 1, whose guard is just
        ``x_1 != x_0``.
        """
        alg = SSRmin(3, 4)
        for g, hp, h, hs in itertools.product((0, 1), *[range(4)] * 3):
            x1 = 1 if g else 0
            config = Configuration([
                (0, hp >> 1, hp & 1),
                (x1, h >> 1, h & 1),
                (0, hs >> 1, hs & 1),
            ])
            rule = alg.enabled_rule(config, 1)
            expect = 0 if rule is None else rule.number
            assert RULE_TABLE[(g << 6) | (hp << 4) | (h << 2) | hs] == expect


class TestSingleConfigEquivalence:
    @given(ssrmin_with_config())
    @settings(max_examples=200, deadline=None)
    def test_ssrmin_enabled_rules_privileged_legitimacy(self, pair):
        alg, config = pair
        kernel = alg.fast_kernel()
        kernel.load(config)
        enabled = alg.enabled_processes(config)
        assert kernel.enabled() == enabled
        for i in range(alg.n):
            rule = alg.enabled_rule(config, i)
            assert kernel.rule_id(i) == (0 if rule is None else rule.number)
            if rule is not None:
                assert kernel.rule_name(i) == rule.name
                assert kernel.update(i) == alg.execute(config, i)
        assert kernel.privileged() == alg.privileged(config)
        assert kernel.is_legitimate() == alg.is_legitimate(config)
        assert kernel.dijkstra_legitimate() == (
            alg.dijkstra_projection().is_legitimate(config)
        )

    @given(dijkstra_with_config())
    @settings(max_examples=200, deadline=None)
    def test_dijkstra_enabled_rules_privileged_legitimacy(self, pair):
        alg, config = pair
        kernel = alg.fast_kernel()
        kernel.load(config)
        assert kernel.enabled() == alg.enabled_processes(config)
        for i in range(alg.n):
            rule = alg.enabled_rule(config, i)
            assert kernel.rule_id(i) == (0 if rule is None else rule.number)
            if rule is not None:
                assert kernel.update(i) == alg.execute(config, i)
        assert kernel.privileged() == alg.privileged(config)
        assert kernel.is_legitimate() == alg.is_legitimate(config)

    @given(ssrmin_with_config(), st.integers(0, 2 ** 20))
    @settings(max_examples=100, deadline=None)
    def test_ssrmin_random_subset_walk(self, pair, seed):
        """apply() tracks alg.step() through multi-process selections."""
        alg, config = pair
        rng = random.Random(seed)
        kernel = alg.fast_kernel()
        kernel.load(config)
        for _ in range(8):
            enabled = alg.enabled_processes(config)
            assert kernel.enabled() == enabled
            if not enabled:
                break
            k = rng.randint(1, len(enabled))
            selection = rng.sample(enabled, k)
            config = alg.step(config, selection)
            kernel.apply(selection)
            assert kernel.export() == config
            assert kernel.is_legitimate() == alg.is_legitimate(config)

    def test_apply_rejects_empty_and_disabled(self, ssrmin5):
        kernel = ssrmin5.fast_kernel()
        kernel.load(ssrmin5.initial_configuration())
        with pytest.raises(ValueError):
            kernel.apply([])
        disabled = next(
            i for i in range(ssrmin5.n) if kernel.rule_id(i) == 0
        )
        with pytest.raises(ValueError):
            kernel.apply([disabled])
        with pytest.raises(ValueError):
            kernel.rule_name(disabled)


class TestPackedView:
    def test_view_is_live_and_sequence_like(self, ssrmin5):
        kernel = ssrmin5.fast_kernel()
        config = ssrmin5.initial_configuration()
        kernel.load(config)
        view = kernel.view()
        assert isinstance(view, PackedView)
        assert len(view) == 5
        assert tuple(view) == config.states
        assert view[0] == config[0]
        assert view[-1] == config[-1]
        assert view[1:3] == config.states[1:3]
        with pytest.raises(IndexError):
            view[5]
        # Live: stepping the kernel is visible through the old view object.
        kernel.apply([kernel.enabled()[0]])
        assert tuple(view) == kernel.export().states


class TestEngineEquivalence:
    @pytest.mark.parametrize("daemon_factory", ALL_DAEMON_FACTORIES)
    def test_recorded_runs_identical(self, daemon_factory):
        alg = SSRmin(7, 9)
        for seed in range(3):
            init = alg.random_configuration(random.Random(seed))
            runs = []
            for fast in (True, False):
                sim = SharedMemorySimulator(
                    alg, daemon_factory(alg, seed), use_fastpath=fast)
                runs.append(sim.run(init, max_steps=60, record=True))
            fast_run, naive_run = runs
            assert fast_run.steps == naive_run.steps
            assert fast_run.final_config == naive_run.final_config
            assert fast_run.execution.moves == naive_run.execution.moves
            assert list(fast_run.execution.configurations) == list(
                naive_run.execution.configurations)

    def test_stop_when_bound_legitimacy(self):
        alg = SSRmin(6, 7)
        init = alg.random_configuration(random.Random(3))
        results = [
            SharedMemorySimulator(
                alg, RandomCentralDaemon(seed=3), use_fastpath=fast
            ).run(init, 10_000, stop_when=alg.is_legitimate, record=False)
            for fast in (True, False)
        ]
        assert results[0].stopped_by_predicate
        assert results[0].steps == results[1].steps
        assert results[0].final_config == results[1].final_config

    def test_custom_stop_when_sees_configuration_like_view(self):
        alg = SSRmin(5, 6)
        init = alg.random_configuration(random.Random(1))
        seen_x = []

        def stop(config):
            seen_x.append(config[0][0])
            return len(config) == 5 and config[0][1] == 1

        result = SharedMemorySimulator(
            alg, FixedPriorityDaemon(), use_fastpath=True
        ).run(init, 500, stop_when=stop)
        reference = SharedMemorySimulator(
            alg, FixedPriorityDaemon(), use_fastpath=False
        ).run(init, 500, stop_when=stop)
        assert result.steps == reference.steps
        assert result.final_config == reference.final_config

    def test_dijkstra_engine_equivalence(self):
        alg = DijkstraKState(7, 9)
        init = alg.random_configuration(random.Random(2))
        runs = [
            SharedMemorySimulator(
                alg, SynchronousDaemon(), use_fastpath=fast
            ).run(init, 50, record=True)
            for fast in (True, False)
        ]
        assert runs[0].execution.moves == runs[1].execution.moves
        assert runs[0].final_config == runs[1].final_config


class TestConvergeEquivalence:
    def test_ssrmin_converge_matches_naive(self):
        alg = SSRmin(8, 10)
        for seed in range(5):
            init = alg.random_configuration(random.Random(seed))
            fast = converge(
                alg, RandomCentralDaemon(seed=seed), init, use_fastpath=True)
            naive = converge(
                alg, RandomCentralDaemon(seed=seed), init, use_fastpath=False)
            assert fast.converged and naive.converged
            assert fast.steps == naive.steps
            assert fast.dijkstra_steps == naive.dijkstra_steps
            assert fast.final_config == naive.final_config

    def test_dijkstra_converge_matches_naive(self):
        alg = DijkstraKState(8, 10)
        for seed in range(5):
            init = alg.random_configuration(random.Random(seed))
            fast = converge(
                alg, BernoulliDaemon(0.7, seed=seed), init, use_fastpath=True)
            naive = converge(
                alg, BernoulliDaemon(0.7, seed=seed), init, use_fastpath=False)
            assert fast.steps == naive.steps
            assert fast.final_config == naive.final_config


class TestTelemetryEquivalence:
    def test_counters_identical_fast_vs_naive(self):
        alg = SSRmin(6, 8)
        init = alg.random_configuration(random.Random(7))
        totals = []
        for fast in (True, False):
            with telemetry_session(registry=MetricsRegistry()) as tel:
                SharedMemorySimulator(
                    alg, RandomCentralDaemon(seed=7), use_fastpath=fast
                ).run(init, 700, stop_when=alg.is_legitimate, record=False)
                steps = tel.registry.counter("steps_total").total()
                rules = dict(
                    tel.registry.counter("rule_fired_total").series())
                totals.append((steps, rules))
        assert totals[0] == totals[1]
        assert totals[0][0] > 0

    def test_per_step_events_still_published_with_subscriber(self):
        alg = SSRmin(5, 6)
        init = alg.random_configuration(random.Random(1))
        with telemetry_session(registry=MetricsRegistry()) as tel:
            step_events = []
            tel.subscribe(
                lambda e: step_events.append(e)
                if e.layer == "engine" and e.kind == "step" else None)
            result = SharedMemorySimulator(
                alg, FixedPriorityDaemon(), use_fastpath=True
            ).run(init, 20, record=False)
        assert len(step_events) == result.steps
        assert all(e.payload["moves"] for e in step_events)

    def test_no_per_step_events_without_consumers(self):
        alg = SSRmin(5, 6)
        init = alg.random_configuration(random.Random(1))
        with telemetry_session(registry=MetricsRegistry()) as tel:
            assert tel.step_detail is False
            SharedMemorySimulator(
                alg, FixedPriorityDaemon(), use_fastpath=True
            ).run(init, 20, record=False)
            # Counters were still aggregated and flushed.
            assert tel.registry.counter("steps_total").total() == 20


class TestExhaustiveN3:
    """The entire n=3, K=4 state space, fast vs naive (tier-1 gate)."""

    def test_every_configuration_agrees(self, ssrmin3):
        alg = ssrmin3
        kernel = alg.fast_kernel()
        ts_fast = TransitionSystem(alg, "distributed", use_fastpath=True)
        ts_naive = TransitionSystem(alg, "distributed", use_fastpath=False)
        count = 0
        for config in alg.configuration_space():
            count += 1
            kernel.load(config)
            assert kernel.enabled() == alg.enabled_processes(config)
            assert kernel.is_legitimate() == alg.is_legitimate(config)
            assert kernel.privileged() == alg.privileged(config)
            fast_succs = {s.states for s in ts_fast.successors(config)}
            naive_succs = {s.states for s in ts_naive.successors(config)}
            assert fast_succs == naive_succs
        assert count == (4 * 4) ** 3

    def test_packed_keys_are_collision_free(self, ssrmin3):
        kernel = ssrmin3.fast_kernel()
        keys = {
            kernel.pack_key(c) for c in ssrmin3.configuration_space()
        }
        assert len(keys) == (4 * 4) ** 3
