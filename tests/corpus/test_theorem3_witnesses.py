"""Golden replays of the two known Theorem-3 zero-token witnesses.

Theorem 3 says that once the CST system is legitimate and cache-coherent,
some node holds a token in its own view at every instant.  The repo's own
DES reaches instants where none does, from exactly that start.  Two
witnesses are frozen here, on both engines, so that any change to the
event order, the delay draws or the census shows up as a diff:

* **seed 15** — ``transformed(SSRmin(3, 4), seed=15,
  delay_model=ExponentialDelay(1.0))`` (dwell ``FixedDelay(0.5)``), two
  zero intervals shortly before t = 180;
* **deterministic** — the literal reading (no dwell, timers out of the
  way) with ``FixedDelay(1.0)`` links and 3.5 on links 1→0 and 2→1, zero
  intervals (20, 21) and (23, 24).  With 3.0 on the slow pair nothing
  happens: that run is the control.

The packed engine's timeline is recorded from its incremental census;
these replays pin it to the reference DES's zero-token instants.  Each
test asserts that the violation *happens*; ``fig13`` and the Theorem-3
tests are left as they are.
"""

import pytest

from repro.core.ssrmin import SSRmin
from repro.messagepassing.coherence import is_cache_coherent
from repro.messagepassing.cst import (
    coherent_caches,
    legitimate_initial_states,
    transformed,
)
from repro.messagepassing.fastpath.network import FastCSTNetwork
from repro.messagepassing.links import ExponentialDelay, FixedDelay
from repro.messagepassing.modelgap import evaluate_gap
from repro.messagepassing.network import (
    MessagePassingNetwork,
    build_cst_network,
)

ENGINES = {"FastCSTNetwork": True, "MessagePassingNetwork": False}

SEED15_ZERO_INTERVALS = [
    (177.05214740362103, 178.329848812044),
    (179.329848812044, 180.13725973827223),
]


def seed15(use_fastpath):
    return transformed(
        SSRmin(3, 4), seed=15, delay_model=ExponentialDelay(1.0),
        use_fastpath=use_fastpath,
    )


def deterministic(slow, use_fastpath):
    alg = SSRmin(3, 4)
    states = legitimate_initial_states(alg)
    return build_cst_network(
        alg, states,
        initial_caches=coherent_caches(states, alg.n),
        dwell_model=None,
        timer_interval=1000,
        delay_model=FixedDelay(1.0),
        link_delay_overrides={(1, 0): FixedDelay(slow),
                              (2, 1): FixedDelay(slow)},
        use_fastpath=use_fastpath,
    )


def audited(net):
    """Check the packed engine's census (holders and entry condition)
    against the object graph at every observation point."""
    seen = []

    def check(net):
        assert net.token_holders() == MessagePassingNetwork.token_holders(net)
        if isinstance(net, FastCSTNetwork):
            alg = net.algorithm
            legit = alg.is_legitimate(
                alg.normalize_configuration(net.true_configuration()))
            assert net.stabilization_condition_now() == (
                legit and is_cache_coherent(net))
        seen.append(net.queue.now)

    net.observers.append(check)
    return net, seen


@pytest.mark.parametrize("engine", ENGINES)
def test_seed15_witness_loses_every_token(engine):
    net, seen = audited(seed15(ENGINES[engine]))
    assert type(net).__name__ == engine
    report = evaluate_gap(net, duration=200.0)
    assert report.min_count == 0
    assert not report.tolerant
    # Exponential draws go through libm's log: pin to 1e-9, not the bit.
    assert len(report.zero_intervals) == len(SEED15_ZERO_INTERVALS)
    for got, want in zip(report.zero_intervals, SEED15_ZERO_INTERVALS):
        assert got == pytest.approx(want, abs=1e-9)
    assert len(seen) > 100


@pytest.mark.parametrize("engine", ENGINES)
def test_deterministic_witness_loses_every_token(engine):
    net, seen = audited(deterministic(3.5, ENGINES[engine]))
    assert type(net).__name__ == engine
    report = evaluate_gap(net, 40.0)
    assert report.min_count == 0
    assert report.zero_intervals == [(20.0, 21.0), (23.0, 24.0)]
    assert report.zero_time == 2.0
    assert seen


@pytest.mark.parametrize("engine", ENGINES)
def test_deterministic_control_keeps_a_token(engine):
    net = deterministic(3.0, ENGINES[engine])
    assert type(net).__name__ == engine
    report = evaluate_gap(net, 40.0)
    assert report.min_count == 1
    assert report.zero_intervals == []
