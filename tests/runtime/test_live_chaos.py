"""Chaos campaigns against live rings, including the CLI acceptance run.

The fast tests declare their faults through the chaos lab's
``resilience_test`` decorator (each lowers to the same sub-second
``ChaosOp`` windows the old hand-rolled scripts used); the full named
scripts — several seconds of scripted faults plus settle time each — are
exercised by the ``slow``-marked tests.
"""

import pytest

from repro import cli
from repro.chaoslab import FaultConfig, FaultType, resilience_test
from repro.observability.store import RunStore
from repro.runtime import build_script, live_chaos

STABILIZE_TIMEOUT = 20.0


def _final_epoch_violations(health):
    final = len(health["epochs"]) - 1
    return [v for v in health["guarantee_violations"]
            if v["epoch_index"] == final]


@resilience_test(
    faults=[FaultConfig(FaultType.LOSS, at=0.2, duration=0.4, severity=0.7)],
    n=4, seed=41, settle=1.0, budget=STABILIZE_TIMEOUT,
    stabilize_timeout=STABILIZE_TIMEOUT,
)
def test_loss_window_end_to_end(outcome):
    """Bernoulli loss stales the caches; timers repair them (Theorem 4)."""
    health = outcome.report["health"]
    assert health["stabilized"]
    assert _final_epoch_violations(health) == []
    assert health["time_to_restabilize"] is not None
    assert outcome.report["transport_stats"]["injected_losses"] > 0
    # Epochs: boot, window open, window healed.
    labels = [e["label"] for e in health["epochs"]]
    assert any(lbl.startswith("loss@") for lbl in labels)
    assert any(lbl.startswith("loss-healed@") for lbl in labels)
    # The observation panel agrees with the raw health assertions.
    assert outcome.ok


@resilience_test(
    faults=[FaultConfig(FaultType.PARTITION, at=0.2, duration=0.4,
                        params={"edges": [(0, 1)]})],
    n=4, seed=43, settle=1.0, budget=STABILIZE_TIMEOUT,
    stabilize_timeout=STABILIZE_TIMEOUT,
)
def test_partition_window_end_to_end(outcome):
    health = outcome.report["health"]
    assert health["stabilized"]
    assert _final_epoch_violations(health) == []
    assert outcome.report["transport_stats"]["blocked_by_partition"] > 0
    assert outcome.ok


@resilience_test(
    faults=[FaultConfig(FaultType.CACHE_CORRUPTION, at=0.5)],
    n=4, seed=47, settle=3.0, budget=STABILIZE_TIMEOUT,
    stabilize_timeout=STABILIZE_TIMEOUT,
)
def test_cache_scramble_end_to_end(outcome):
    """Transient state/cache corruption — the paper's section 5 faults.

    The default ``cache-corruption`` volley lowers to the exact ops of
    the named ``cache_scramble`` script this test used to run.
    """
    assert [op.to_json() for op in outcome.experiment.compile().ops] == [
        op.to_json() for op in build_script("cache_scramble", 4).ops
    ]
    health = outcome.report["health"]
    assert health["stabilized"]
    assert _final_epoch_violations(health) == []
    labels = [e["label"] for e in health["epochs"]]
    assert any(lbl.startswith("corrupt-state") for lbl in labels)
    assert any(lbl.startswith("corrupt-cache") for lbl in labels)


def test_cache_scramble_on_unidirectional_ring():
    """Dijkstra's nodes cache only their predecessor, so the script's
    cache fault must hit an entry every ring kind has."""
    report = live_chaos(
        script="cache_scramble", algorithm="dijkstra", n=4,
        transport="loopback", seed=47, timer_interval=0.05,
        stabilize_timeout=STABILIZE_TIMEOUT,
    )
    health = report["health"]
    assert health["stabilized"]
    labels = [e["label"] for e in health["epochs"]]
    assert any(lbl.startswith("corrupt-cache") for lbl in labels)


@pytest.mark.slow
def test_crash_restart_script_restabilizes():
    report = live_chaos(
        script="crash_restart", algorithm="ssrmin", n=4,
        transport="loopback", seed=53, timer_interval=0.05,
        stabilize_timeout=STABILIZE_TIMEOUT,
    )
    health = report["health"]
    assert health["stabilized"]
    assert report["restarts"] >= 1
    assert _final_epoch_violations(health) == []


def test_build_script_rejects_unknown_name():
    """A typo'd script name fails with the valid names, not a KeyError."""
    with pytest.raises(ValueError, match="unknown chaos script") as excinfo:
        build_script("no_such_script", 4)
    message = str(excinfo.value)
    # Helpful, not bare: the error enumerates every registered script.
    for name in ("loss_burst", "partition", "cache_scramble", "storm"):
        assert name in message


def test_script_shape_is_replayable():
    script = build_script("loss_burst", 8)
    blob = script.to_json()
    assert blob["name"] == "loss_burst"
    assert all(op["kind"] == "loss" for op in blob["ops"])
    assert script.last_disturbance == pytest.approx(3.2)


@pytest.mark.slow
def test_acceptance_cli_loss_burst_over_udp(tmp_path):
    """ISSUE acceptance: ``repro live chaos --n 8 --script loss_burst``
    runs SSRmin over the asyncio UDP transport, keeps >=1 own-view token
    post-stabilization, and records time-to-restabilize in the run store.
    Deterministic seed; asserts on the recorded row, not stdout."""
    store_path = str(tmp_path / "store.sqlite")
    rc = cli.main([
        "live", "chaos", "--n", "8", "--script", "loss_burst",
        "--transport", "udp", "--seed", "7", "--timer-interval", "0.05",
        "--stabilize-timeout", str(STABILIZE_TIMEOUT),
        "--store", store_path,
    ])
    assert rc == 0
    with RunStore(store_path) as store:
        run = store.get_run("live-chaos-loss_burst-ssrmin-n8-seed7")
        epochs = store.epochs_for(run["id"])
        disturbances = store.disturbances_for(run["id"])
        samples = {s["name"]: s["value"]
                   for s in store.samples_for(run["id"])}
    assert run["algorithm"] == "SSRmin" and run["n"] == 8
    assert run["transport"] == "udp" and run["extra"]["chaos"]
    assert run["script"] == "loss_burst"
    # Survived: re-stabilized after the last loss window, with the
    # >=1-own-view-token guarantee intact throughout stabilized instants.
    assert run["stabilized"] == 1
    assert run["extra"]["ok"] is True  # no violation in the final epoch
    ttr = epochs[-1]["time_to_stabilize"]
    assert ttr is not None and ttr < STABILIZE_TIMEOUT
    assert run["extra"]["post_stab_min_holders"] >= 1
    # The chaos actually bit: loss windows were opened on the wire and
    # fewer datagrams arrived than were sent.
    assert disturbances
    assert {d["kind"] for d in disturbances} == {"loss"}
    assert (samples["live_messages_received_total"]
            < samples["live_messages_sent_total"])