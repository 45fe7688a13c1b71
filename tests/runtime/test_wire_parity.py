"""Golden-trace parity: the wire format must not change health verdicts.

The checked-in Figure-13 golden trace pins the scenario (SSRmin, n=5,
K=6, seed 13).  This test replays that scenario as a *live* chaos run
twice — once over the versioned-JSON wire, once over the packed binary
fastpath — and requires the online HealthMonitor to reach the same
verdicts: same epoch structure, stabilization everywhere, zero own-view
vacancy instants (the graceful-handover guarantee the golden trace
witnesses), and a clean final epoch.

Epoch labels embed wall-clock timestamps (``loss-healed@1.73s``), so
structure is compared on the label *kind* (the part before ``@``), never
on raw strings.
"""

import json
import os

import pytest

from repro.chaoslab import ChaosExperiment, FaultConfig, FaultType, run_experiment

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
GOLDEN = os.path.join(CORPUS, "golden_fig13_timeline.jsonl")
GOLDEN_PRESETS = os.path.join(CORPUS, "golden_chaos_presets.json")


def _golden_header() -> dict:
    with open(GOLDEN) as fh:
        return json.loads(fh.readline())


def _label_kind(label: str) -> str:
    return label.split("@", 1)[0]


def _verdicts(report: dict) -> dict:
    health = report["health"]
    return {
        "epoch_kinds": [_label_kind(e["label"]) for e in health["epochs"]],
        "epoch_stabilized": [
            e["time_to_stabilize"] is not None for e in health["epochs"]
        ],
        "stabilized": health["stabilized"],
        "vacancy_instants": health["vacancy_instants"],
        "final_epoch_violations": sum(
            1 for v in health["guarantee_violations"]
            if v.get("epoch_index") == len(health["epochs"]) - 1
        ),
        "min_holders_positive": health["post_stab_min_holders"] is not None
        and health["post_stab_min_holders"] >= 1,
    }


@pytest.mark.slow
def test_fig13_chaos_verdicts_identical_under_both_wires():
    header = _golden_header()
    assert header["algorithm"] == "SSRmin"
    n, K, seed = header["n"], header["K"], header["seed"]

    # The declarative faults that lower to exactly the loss_burst script
    # the golden scenario pins (two Bernoulli-loss windows), as frozen
    # before the named scripts became presets.
    with open(GOLDEN_PRESETS) as fh:
        loss_burst = json.load(fh)["loss_burst"][str(n)]["ops"]
    faults = (
        FaultConfig(FaultType.LOSS, at=0.6, duration=1.0, severity=0.6),
        FaultConfig(FaultType.LOSS, at=2.4, duration=0.8, severity=0.4),
    )

    def run(wire: str) -> dict:
        experiment = ChaosExperiment(
            name="fig13-parity",
            faults=faults,
            algorithm="ssrmin",
            n=n,
            K=K,
            seed=seed,
            transport="loopback",
            timer_interval=0.05,
            settle=3.0,
            extra_duration=0.3,
            wire=wire,
        )
        assert [op.to_json() for op in experiment.compile().ops] == loss_burst
        return run_experiment(experiment).report

    via_json = run("json")
    via_binary = run("binary")

    assert via_json["wire"]["format"] == "json"
    assert via_binary["wire"]["format"] == "binary"
    # The binary run really used the fastpath: no silent JSON fallback.
    assert via_binary["wire"]["fallback_decodes"] == 0
    assert via_binary["wire"]["fallback_peers"] == {}

    vj, vb = _verdicts(via_json), _verdicts(via_binary)
    assert vj == vb, f"wire format changed health verdicts: {vj} vs {vb}"

    # And both match what the golden scenario promises: restabilization
    # with graceful handover (zero own-view vacancy, min census >= 1).
    assert vb["stabilized"] is True
    assert all(vb["epoch_stabilized"])
    assert vb["vacancy_instants"] == 0
    assert vb["final_epoch_violations"] == 0
    assert vb["min_holders_positive"] is True
    assert vb["epoch_kinds"][0] == "boot"
    assert "loss" in "".join(vb["epoch_kinds"])
