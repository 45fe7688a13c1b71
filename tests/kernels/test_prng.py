"""Counter-based PRNG: determinism, composition independence, bounds."""

import numpy as np
import pytest

from repro.kernels.prng import (
    coin_bound,
    counter_keys,
    grid_integers,
    grid_uniforms,
    keyed_coins,
    keyed_uniforms,
    lane_mixes,
)

#: Coin probabilities from the smallest positive uniform step to one.
COIN_PS = [2.0 ** -53, 0.1, 0.3, 0.5, 1.0 - 2.0 ** -53, 1.0]


def test_same_key_same_stream():
    a = grid_uniforms([1, 2, 3], stream=2, step=7, lanes=5)
    b = grid_uniforms([1, 2, 3], stream=2, step=7, lanes=5)
    assert np.array_equal(a, b)


def test_batch_composition_independence():
    """A seed's draws never depend on which other seeds share the batch."""
    together = grid_uniforms([11, 22, 33], stream=0, step=4, lanes=8)
    for row, seed in enumerate((11, 22, 33)):
        alone = grid_uniforms([seed], stream=0, step=4, lanes=8)
        assert np.array_equal(together[row], alone[0])


def test_streams_and_steps_decorrelate():
    base = grid_uniforms([5], stream=0, step=1, lanes=16)
    assert not np.array_equal(base, grid_uniforms([5], 1, 1, 16))
    assert not np.array_equal(base, grid_uniforms([5], 0, 2, 16))
    assert not np.array_equal(base, grid_uniforms([6], 0, 1, 16))


def test_uniforms_in_unit_interval():
    u = grid_uniforms(list(range(64)), stream=3, step=9, lanes=32)
    assert u.shape == (64, 32)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0


def test_integers_cover_range_without_overflow():
    draws = grid_integers(list(range(200)), stream=1, step=0, lanes=4,
                          bound=7)
    assert draws.shape == (200, 4)
    assert int(draws.min()) >= 0
    assert int(draws.max()) <= 6
    # All residues show up across 800 draws of a 7-way die.
    assert set(np.unique(draws)) == set(range(7))


def test_negative_seeds_are_legal_keys():
    keys = counter_keys([-1, -2], stream=0, step=0)
    assert keys.dtype == np.uint64
    a = grid_uniforms([-1], stream=0, step=3, lanes=2)
    b = grid_uniforms([-1], stream=0, step=3, lanes=2)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("p", COIN_PS)
def test_integer_coins_match_float_coins(p):
    """The integer coin decision equals ``keyed_uniforms(...) < p`` on
    131,072 keyed draws."""
    keys = counter_keys(range(2048), stream=2, step=7)
    lanes = lane_mixes(64)
    coins = keyed_coins(keys, lanes, coin_bound(p))
    assert coins.dtype == bool and coins.shape == (2048, 64)
    assert np.array_equal(coins, keyed_uniforms(keys, lanes) < p)
    if p == 1.0:
        assert coins.all()


@pytest.mark.parametrize("p", COIN_PS)
def test_coin_bound_is_exact_at_the_boundary(p):
    """Words on either side of the bound fall on either side of ``p``."""
    bound = coin_bound(p)
    assert isinstance(bound, np.uint64)
    words = np.array([w for w in range(int(bound) - 4096, int(bound) + 4097)
                      if 0 <= w < 2 ** 64], dtype=np.uint64)
    uniforms = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    assert np.array_equal(words <= bound, uniforms < p)


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, float("nan")])
def test_coin_bound_rejects_probabilities_outside_the_unit_interval(p):
    with pytest.raises(ValueError):
        coin_bound(p)
