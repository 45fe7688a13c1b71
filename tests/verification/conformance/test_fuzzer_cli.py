"""Unit tests for the fuzz campaign runner and the ``repro fuzz`` CLI."""

import json
import random

import pytest

from repro.cli import main
from repro.daemons.adversarial import AdversarialDaemon
from repro.daemons.base import Daemon
from repro.daemons.central import RandomCentralDaemon
from repro.daemons.weighted import WeightedUnfairDaemon
from repro.observability.store import RunStore
from repro.telemetry import telemetry_session
from repro.verification.conformance import (
    DAEMON_FAMILIES,
    generate_scenario,
    make_daemon,
    run_fuzz_campaign,
    run_trial,
)


class TestScenarioGeneration:
    def test_deterministic_per_trial(self):
        a = generate_scenario(7, seed=99)
        b = generate_scenario(7, seed=99)
        assert (a.algorithm, a.n, a.K) == (b.algorithm, b.n, b.K)
        assert a.config == b.config
        assert a.daemon_family == b.daemon_family
        assert a.steps == b.steps
        assert a.faults == b.faults

    def test_different_trials_differ(self):
        scenarios = [generate_scenario(t, seed=99) for t in range(12)]
        assert len({(s.algorithm, s.n, tuple(s.config)) for s in scenarios}) > 1

    def test_every_family_constructs(self):
        from repro.core.ssrmin import SSRmin

        alg = SSRmin(4, 5)
        rng = random.Random(0)
        for family in DAEMON_FAMILIES:
            daemon = make_daemon(family, alg, rng)
            assert isinstance(daemon, Daemon)
        assert isinstance(make_daemon("weighted", alg, rng),
                          WeightedUnfairDaemon)
        assert isinstance(make_daemon("adversarial", alg, rng),
                          AdversarialDaemon)
        with pytest.raises(ValueError, match="unknown daemon family"):
            make_daemon("chaotic", alg, rng)

    def test_fault_ops_reference_real_edges(self):
        for t in range(25):
            s = generate_scenario(t, seed=5)
            from repro.verification.conformance import build_algorithm

            ring = build_algorithm(s.algorithm, s.n, s.K).ring
            for op in s.faults:
                assert 0 <= op["step"] < s.steps
                if op["kind"] in ("lose", "delay", "duplicate"):
                    assert op["dst"] in ring.message_neighbors(op["src"])
                elif op["kind"] == "corrupt-cache":
                    assert op["neighbor"] in ring.readable_neighbors(
                        op["node"])
                else:
                    assert op["kind"] == "corrupt-state"

    def test_trial_replay_is_deterministic(self):
        s1 = generate_scenario(3, seed=17)
        r1 = run_trial(s1)
        s2 = generate_scenario(3, seed=17)
        r2 = run_trial(s2)
        assert r1.ok and r2.ok
        assert r1.schedule == r2.schedule
        assert r1.final_config == r2.final_config


class TestCampaign:
    def test_requires_a_bound(self):
        with pytest.raises(ValueError, match="trials= or time_budget="):
            run_fuzz_campaign(seed=0)

    def test_clean_campaign_counts(self):
        result = run_fuzz_campaign(seed=21, trials=10)
        assert result.ok
        assert result.trials == 10
        assert result.fired_steps > 0
        payload = result.to_json()
        assert payload["ok"] is True
        assert payload["trials"] == 10
        assert "zero divergences" in result.summary()

    def test_campaign_emits_telemetry(self):
        with telemetry_session() as tel:
            events = []
            # Session-level subscription also flips ``step_detail`` on, so
            # per-trial events are published.
            tel.subscribe(events.append)
            result = run_fuzz_campaign(seed=22, trials=5)
        assert result.ok
        kinds = [e.kind for e in events if e.layer == "fuzz"]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("trial") == 5
        trials = tel.registry.counter("fuzz_trials_total").total()
        assert trials == 5
        assert tel.registry.counter("fuzz_steps_total").total() == \
            result.fired_steps


class TestFuzzCLI:
    def test_fuzz_run_exit_zero_on_clean_tree(self, capsys):
        rc = main(["fuzz", "run", "--seed", "8", "--trials", "6",
                   "--no-telemetry", "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "zero divergences" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["seed"] == 8

    def test_fuzz_run_writes_manifest(self, tmp_path, capsys):
        rc = main(["fuzz", "run", "--seed", "9", "--trials", "4",
                   "--telemetry-dir", str(tmp_path)])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fuzz-seed9", "store.sqlite"]
        assert [p.name for p in (tmp_path / "fuzz-seed9").iterdir()] == [
            "trace.jsonl"]
        with RunStore(str(tmp_path / "store.sqlite")) as store:
            run = store.get_run("fuzz-seed9")
        assert run["kind"] == "experiment"
        assert run["extra"]["command"] == "repro fuzz run --seed 9"
        assert run["extra"]["campaign"]["trials"] == 4

    def test_fuzz_replay_corpus_directory(self, capsys):
        rc = main(["fuzz", "replay", "tests/corpus"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("ok ") >= 6

    def test_fuzz_replay_missing_path_fails(self, capsys, tmp_path):
        rc = main(["fuzz", "replay", str(tmp_path)])
        assert rc == 1

    def test_fuzz_run_nonzero_exit_and_shrink_cli_on_mutation(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.simulation.fastpath.ssrmin_kernel as sk

        mutated = bytearray(sk.RULE_TABLE)
        mutated[1 << 6] = 0
        monkeypatch.setattr(sk, "RULE_TABLE", bytes(mutated))

        rc = main([
            "fuzz", "run", "--seed", "5", "--trials", "40",
            "--algorithms", "ssrmin", "--corpus-dir", str(tmp_path),
            "--max-divergences", "1", "--no-telemetry",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        witness_files = list(tmp_path.glob("*.jsonl"))
        assert witness_files

        # `fuzz shrink` accepts the emitted file and rewrites it in place.
        rc = main(["fuzz", "shrink", str(witness_files[0])])
        assert rc == 0
        assert "shrunk" in capsys.readouterr().out

        # `fuzz replay` reproduces it while the mutation is active.
        rc = main(["fuzz", "replay", str(witness_files[0])])
        assert rc == 0
