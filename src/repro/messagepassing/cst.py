"""Convenience entry points for CST experiments.

Thin wrappers over :func:`repro.messagepassing.network.build_cst_network`
that set up the canonical starting conditions of the section-5 experiments:

* :func:`legitimate_initial_states` — a legitimate configuration of the
  given algorithm, as a plain list of local states (caches then default to
  coherent-equivalent values once the first broadcasts land);
* :func:`transformed` — build a network starting from a legitimate
  configuration with *coherent* caches (Theorem 3's hypothesis);
* :func:`transformed_from_chaos` — build a network with uniformly random
  states *and* random caches (Theorem 4's hypothesis).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.algorithms.base import RingAlgorithm
from repro.messagepassing.links import DelayModel
from repro.messagepassing.network import MessagePassingNetwork, build_cst_network


def legitimate_initial_states(algorithm: RingAlgorithm) -> List[Any]:
    """A legitimate configuration of ``algorithm`` as a list of local states.

    Uses the algorithm's ``initial_configuration`` when available; otherwise
    searches random configurations for a legitimate one (all algorithms in
    this package provide the former).
    """
    init = getattr(algorithm, "initial_configuration", None)
    if callable(init):
        return list(init())
    rng = random.Random(0)
    for _ in range(100_000):
        cfg = algorithm.random_configuration(rng)
        if algorithm.is_legitimate(cfg):
            return list(cfg)
    raise RuntimeError("could not find a legitimate configuration by sampling")


def coherent_caches(initial_states: List[Any], n: int) -> Dict[int, Dict[int, Any]]:
    """Cache contents that exactly match the initial states (coherence)."""
    return {
        i: {(i - 1) % n: initial_states[(i - 1) % n],
            (i + 1) % n: initial_states[(i + 1) % n]}
        for i in range(n)
    }


def transformed(
    algorithm: RingAlgorithm,
    *,
    initial_states: Optional[List[Any]] = None,
    delay_model: Optional[DelayModel] = None,
    loss_probability: float = 0.0,
    timer_interval: float = 5.0,
    timer_jitter: float = 1.0,
    seed: int = 0,
    token_predicate=None,
    use_fastpath: bool = True,
) -> MessagePassingNetwork:
    """CST network starting legitimate and cache-coherent (Theorem 3 setup)."""
    states = initial_states or legitimate_initial_states(algorithm)
    return build_cst_network(
        algorithm,
        states,
        delay_model=delay_model,
        loss_probability=loss_probability,
        timer_interval=timer_interval,
        timer_jitter=timer_jitter,
        seed=seed,
        initial_caches=coherent_caches(list(states), algorithm.n),
        token_predicate=token_predicate,
        use_fastpath=use_fastpath,
    )


def transformed_from_chaos(
    algorithm: RingAlgorithm,
    *,
    seed: int = 0,
    delay_model: Optional[DelayModel] = None,
    loss_probability: float = 0.0,
    duplicate_probability: float = 0.0,
    timer_interval: float = 5.0,
    timer_jitter: float = 1.0,
    use_fastpath: bool = True,
) -> MessagePassingNetwork:
    """CST network with random states and random (incoherent) caches.

    This is Theorem 4's starting condition: "an arbitrary configuration and
    arbitrary cache values".  Delays and dwell default to *randomized*
    distributions: the transformation literature ([5], [17]) shows the
    transformed execution of non-silent algorithms needs a randomization
    factor in execution timing to break symmetric livelocks.
    """
    from repro.messagepassing.links import UniformDelay

    delay_model = delay_model or UniformDelay(0.5, 1.5)
    rng = random.Random(seed)
    n = algorithm.n
    states = list(algorithm.random_configuration(rng))
    caches: Dict[int, Dict[int, Any]] = {}
    for i in range(n):
        caches[i] = {}
        for k in ((i - 1) % n, (i + 1) % n):
            fake = algorithm.random_configuration(rng)[k]
            caches[i][k] = fake
    return build_cst_network(
        algorithm,
        states,
        delay_model=delay_model,
        loss_probability=loss_probability,
        duplicate_probability=duplicate_probability,
        timer_interval=timer_interval,
        timer_jitter=timer_jitter,
        seed=seed + 1,
        initial_caches=caches,
        dwell_model=UniformDelay(0.2, 0.8),
        use_fastpath=use_fastpath,
    )
