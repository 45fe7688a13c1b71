"""Counter-based randomness for batch-composition-independent simulation.

The vectorized sweep backend advances *groups* of cells in lockstep, but
resumability demands that each cell's trajectory be a pure function of its
own seed — never of which other cells happen to share its batch, or of
how a killed run partitioned the grid before dying.  Stateful generators
(``numpy.random.Generator``) cannot give that: every draw shifts the
stream for every later consumer.

Instead, every random number here is a *stateless hash* of its full
coordinate ``(seed, stream, step, lane)`` through the splitmix64
finalizer — the same construction as counter-based RNGs in large-scale
simulation (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3").
Re-running any cell at any step, alone or inside any batch, reproduces
the exact same draw — which is what makes the kill-and-resume test able
to demand bit-identical results.

All arithmetic is numpy ``uint64`` with C wraparound semantics; arrays
are used throughout (numpy integer *arrays* overflow silently, scalars
may warn).
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
#: 2**-53 — maps the top 53 bits of a mixed word onto [0, 1).
_INV53 = float(2.0 ** -53)

SeedVector = Union[Sequence[int], np.ndarray]


def _u64(values) -> np.ndarray:
    """Coerce python ints (possibly negative) to a uint64 array."""
    return np.asarray(values, dtype=np.int64).astype(np.uint64)


def mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise over a uint64 array.

    ``z`` is left untouched; every later pass works in place on the copy
    the first addition makes.
    """
    z = z + _GOLDEN
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def stream_keys(seeds: SeedVector, stream: int) -> np.ndarray:
    """The step-independent half of :func:`counter_keys`, one per seed.

    A run that draws from one stream at many steps hashes its seeds once
    here and pays one mix per step in :func:`step_keys`.
    """
    h = mix64(_u64(seeds))
    return mix64(h ^ mix64(_u64([stream]))[0])


def step_keys(keys: np.ndarray, steps: Sequence[int]) -> np.ndarray:
    """``(len(keys), len(steps))`` :func:`counter_keys` from
    :func:`stream_keys` output, one column per step."""
    return mix64(keys[:, None] ^ mix64(_u64(steps))[None, :])


def counter_keys(seeds: SeedVector, stream: int, step: int) -> np.ndarray:
    """One mixed uint64 key per seed for coordinate ``(stream, step)``.

    Streams separate independent uses (state init vs daemon coins vs
    fallback picks); steps separate lockstep iterations.  Nesting the
    mixes keeps the composition asymmetric, so ``(stream=a, step=b)``
    and ``(stream=b, step=a)`` do not collide.
    """
    return step_keys(stream_keys(seeds, stream), [step])[:, 0]


def lane_mixes(lanes: int) -> np.ndarray:
    """The per-lane half of :func:`grid_uniforms` (step-independent)."""
    return mix64(np.arange(lanes, dtype=np.uint64))


def keyed_uniforms(keys: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """``(len(keys), len(lanes))`` uniforms from :func:`counter_keys` and
    :func:`lane_mixes` output — the second stage of :func:`grid_uniforms`.
    """
    mixed = mix64(keys[:, None] ^ lanes[None, :])
    return (mixed >> _S11).astype(np.float64) * _INV53


def coin_bound(p: float) -> np.uint64:
    """The largest mixed word whose uniform lies below ``p``, ``0 < p <= 1``.

    :func:`keyed_uniforms` maps a word ``w`` to ``(w >> 11) * 2**-53``
    exactly, which is below ``p`` exactly when ``w < ceil(p * 2**53) *
    2**11``.  The bound is one less, so that ``p = 1`` (every coin hits)
    fits a uint64; it is a ``np.uint64`` because NumPy 1.x compares a
    uint64 array with a Python int in float64.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"coin probability must be in (0, 1], got {p}")
    return np.uint64(math.ceil(p * 2.0 ** 53) * 2 ** 11 - 1)


def keyed_coins(keys: np.ndarray, lanes: np.ndarray,
                bound: np.uint64) -> np.ndarray:
    """``keyed_uniforms(keys, lanes) < p`` for ``bound = coin_bound(p)``,
    decided on the mixed words without converting them to float64."""
    return mix64(keys[:, None] ^ lanes[None, :]) <= bound


def grid_uniforms(
    seeds: SeedVector, stream: int, step: int, lanes: int
) -> np.ndarray:
    """``(len(seeds), lanes)`` float64 uniforms in [0, 1).

    Entry ``[c, l]`` depends only on ``(seeds[c], stream, step, l)``.
    """
    return keyed_uniforms(counter_keys(seeds, stream, step),
                          lane_mixes(lanes))


def grid_integers(
    seeds: SeedVector, stream: int, step: int, lanes: int, bound: int
) -> np.ndarray:
    """``(len(seeds), lanes)`` int64 draws in ``[0, bound)``.

    Scaled from :func:`grid_uniforms` — the modulo-free mapping keeps
    the (negligible) bias deterministic and backend-independent.
    """
    u = grid_uniforms(seeds, stream, step, lanes)
    return np.minimum((u * bound).astype(np.int64), bound - 1)


__all__ = [
    "coin_bound",
    "counter_keys",
    "grid_integers",
    "grid_uniforms",
    "keyed_coins",
    "keyed_uniforms",
    "lane_mixes",
    "mix64",
    "step_keys",
    "stream_keys",
]
