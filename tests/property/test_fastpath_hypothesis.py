"""Property-based tests (hypothesis) for the fastpath packing layer.

The packed kernels and the transition system's key arithmetic carry the
model checker and the conformance oracle; these properties pin down their
algebra on arbitrary inputs:

* ``pack_key`` / ``unpack_key`` / ``load_key`` round-trips for both
  kernels (the key is a faithful radix encoding of the configuration);
* digit-delta successor arithmetic — incrementally adjusting a key by
  ``(digit(new) - digit(old)) * weight[i]`` equals re-packing the stepped
  configuration (the identity behind the packed path of
  ``TransitionSystem.successor_keys_for``);
* fast successor keys equal naive successor keys on the same instance.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.core.state import Configuration
from repro.verification.transition_system import TransitionSystem


def ssrmin_instances():
    return st.tuples(st.integers(3, 7), st.integers(1, 3)).map(
        lambda t: (t[0], t[0] + t[1])
    )


def ssrmin_configurations(n, K):
    state = st.tuples(
        st.integers(0, K - 1), st.integers(0, 1), st.integers(0, 1)
    )
    return st.lists(state, min_size=n, max_size=n).map(Configuration)


@st.composite
def ssrmin_case(draw):
    n, K = draw(ssrmin_instances())
    config = draw(ssrmin_configurations(n, K))
    return SSRmin(n, K), config


@st.composite
def dijkstra_case(draw):
    n = draw(st.integers(2, 7))
    K = n + draw(st.integers(1, 3))
    xs = draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n))
    alg = DijkstraKState(n, K)
    return alg, alg.normalize_configuration(xs)


def _states(config):
    states = getattr(config, "states", None)
    return states if states is not None else tuple(config)


class TestKeyRoundTrip:
    @given(ssrmin_case())
    @settings(max_examples=200, deadline=None)
    def test_ssrmin_pack_unpack_round_trip(self, case):
        alg, config = case
        kernel = alg.fast_kernel()
        key = kernel.pack_key(config)
        assert 0 <= key < kernel.key_base ** alg.n
        assert _states(kernel.unpack_key(key)) == _states(config)

    @given(ssrmin_case())
    @settings(max_examples=200, deadline=None)
    def test_ssrmin_key_after_load_matches_pack_key(self, case):
        alg, config = case
        kernel = alg.fast_kernel()
        kernel.load(config)
        assert kernel.key() == kernel.pack_key(config)
        assert _states(kernel.export()) == _states(config)

    @given(ssrmin_case())
    @settings(max_examples=200, deadline=None)
    def test_ssrmin_load_key_equals_load(self, case):
        alg, config = case
        via_config = alg.fast_kernel()
        via_config.load(config)
        via_key = alg.fast_kernel()
        via_key.load_key(via_config.key())
        assert _states(via_key.export()) == _states(config)
        assert via_key.enabled() == via_config.enabled()
        assert via_key.is_legitimate() == via_config.is_legitimate()

    @given(dijkstra_case())
    @settings(max_examples=200, deadline=None)
    def test_dijkstra_pack_unpack_round_trip(self, case):
        alg, config = case
        kernel = alg.fast_kernel()
        key = kernel.pack_key(config)
        assert _states(kernel.unpack_key(key)) == _states(config)
        kernel.load(config)
        assert kernel.key() == key
        via_key = alg.fast_kernel()
        via_key.load_key(key)
        assert _states(via_key.export()) == _states(config)
        assert via_key.enabled() == kernel.enabled()


class TestDigitDelta:
    """key + (digit(new) - digit(old)) * weight[i] == pack_key(stepped)."""

    @given(ssrmin_case(), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_ssrmin_single_step_delta(self, case, pick):
        alg, config = case
        self._check_single_step_delta(alg, config, pick)

    @given(dijkstra_case(), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_dijkstra_single_step_delta(self, case, pick):
        alg, config = case
        self._check_single_step_delta(alg, config, pick)

    def _check_single_step_delta(self, alg, config, pick):
        kernel = alg.fast_kernel()
        kernel.load(config)
        enabled = kernel.enabled()
        assert enabled, "no-deadlock: some process is always enabled"
        i = enabled[pick % len(enabled)]
        key = kernel.key()
        delta = (
            kernel.digit(kernel.update(i))
            - kernel.digit(kernel.native_state(i))
        ) * kernel.key_weights[i]
        stepped = alg.step(config, (i,))
        assert key + delta == kernel.pack_key(stepped)

    @given(ssrmin_case(), st.integers(0, 2**30))
    @settings(max_examples=150, deadline=None)
    def test_ssrmin_subset_delta_matches_apply(self, case, seed):
        """Summed deltas over a random enabled subset equal the key of the
        kernel after applying that subset (and the engine's step)."""
        alg, config = case
        kernel = alg.fast_kernel()
        kernel.load(config)
        enabled = kernel.enabled()
        assert enabled
        rng = random.Random(seed)
        size = rng.randint(1, len(enabled))
        selection = tuple(sorted(rng.sample(list(enabled), size)))
        key = kernel.key()
        expected = key + sum(
            (
                kernel.digit(kernel.update(i))
                - kernel.digit(kernel.native_state(i))
            ) * kernel.key_weights[i]
            for i in selection
        )
        kernel.apply(selection)
        assert kernel.key() == expected
        stepped = alg.step(config, selection)
        assert _states(kernel.export()) == _states(stepped)


class TestTransitionSystemSuccessors:
    @given(ssrmin_case())
    @settings(max_examples=60, deadline=None)
    def test_fast_and_naive_successor_keys_agree(self, case):
        alg, config = case
        fast = TransitionSystem(alg, daemon="distributed")
        assert fast._kernel is not None
        naive = TransitionSystem(alg, daemon="distributed", use_fastpath=False)
        assert naive._kernel is None
        fast_keys = fast.successor_keys(config)
        fast_states = sorted(
            _states(fast.config_for_key(k)) for k in fast_keys
        )
        naive_states = sorted(
            _states(c) for c in naive.successors(config)
        )
        assert fast_states == naive_states
        assert len(fast_keys) == len(set(fast_keys))
