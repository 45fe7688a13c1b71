"""Mutation smoke: the conformance harness must catch planted bugs.

Two single-point mutations, each exercising one leg of the differential
oracle end to end (detect -> shrink -> replay):

* flip one ``RULE_TABLE`` entry — the fastpath kernel resolves a wrong
  rule for one neighborhood; the fuzzer must find a divergence within a
  bounded trial budget, the shrinker must produce a smaller witness, and
  the witness file must deterministically reproduce the divergence while
  the mutation is active (and report *stale* once it is reverted);
* break the CST cache-update path (``CSTNode.on_receive`` silently drops
  one sender's broadcasts) — the projection's caches go stale and the
  oracle's coherence check must flag it.
"""

import pytest

import repro.simulation.fastpath.ssrmin_kernel as ssrmin_kernel
from repro.messagepassing.node import CSTNode
from repro.verification.conformance import (
    replay_witness_file,
    run_fuzz_campaign,
)

#: Trial budget within which each mutation must be detected.
BUDGET_TRIALS = 60


def _run_mutated_campaign(tmp_path, seed=5):
    return run_fuzz_campaign(
        seed=seed,
        trials=BUDGET_TRIALS,
        algorithms=("ssrmin",),
        corpus_dir=str(tmp_path),
        max_divergences=1,
    )


def test_rule_table_mutation_detected_shrunk_and_replayed(
    monkeypatch, tmp_path
):
    # Mutate the neighborhood <g=1, quiet handshakes everywhere>: the
    # privileged quiet process should fire R1; the mutant says disabled.
    index = 1 << 6
    assert ssrmin_kernel.RULE_TABLE[index] == 1
    mutated = bytearray(ssrmin_kernel.RULE_TABLE)
    mutated[index] = 0
    monkeypatch.setattr(ssrmin_kernel, "RULE_TABLE", bytes(mutated))

    result = _run_mutated_campaign(tmp_path)
    assert not result.ok, (
        f"planted RULE_TABLE fault survived {result.trials} fuzz trials"
    )
    rec = result.divergences[0]
    assert rec.divergence["kind"] in ("enabled", "rule", "state", "privilege")

    # The shrinker made the witness strictly smaller.
    orig_size = (rec.witness.n, len(rec.witness.schedule),
                 len(rec.witness.faults))
    shrunk_size = (rec.shrunk.n, len(rec.shrunk.schedule),
                   len(rec.shrunk.faults))
    assert shrunk_size <= orig_size
    assert len(rec.shrunk.schedule) < len(rec.witness.schedule)

    # The emitted corpus file reproduces the divergence deterministically
    # while the mutation is active ...
    assert rec.path is not None
    first = replay_witness_file(rec.path)
    second = replay_witness_file(rec.path)
    assert first.ok and second.ok, first.message
    assert first.message == second.message

    # ... and reports a stale repro once the mutation is reverted.
    monkeypatch.setattr(
        ssrmin_kernel, "RULE_TABLE", ssrmin_kernel._build_rule_table()
    )
    healed = replay_witness_file(rec.path)
    assert not healed.ok
    assert "stale" in healed.message


def test_cst_cache_update_mutation_detected(monkeypatch, tmp_path):
    # Node caches silently ignore broadcasts from process 0: the timer
    # sweep no longer repairs its neighbors' views.
    original = CSTNode.on_receive

    def dropping_on_receive(self, sender, state):
        if sender == 0:
            return
        return original(self, sender, state)

    monkeypatch.setattr(CSTNode, "on_receive", dropping_on_receive)

    result = _run_mutated_campaign(tmp_path, seed=9)
    assert not result.ok, (
        f"planted cache-update fault survived {result.trials} fuzz trials"
    )
    rec = result.divergences[0]
    assert rec.divergence["kind"] == "coherence"

    # The shrunk witness still reproduces through the broken cache path.
    outcome = replay_witness_file(rec.path)
    assert outcome.ok, outcome.message


def test_clean_tree_smoke_campaign_is_divergence_free():
    """A short seeded campaign on the unmutated tree reports nothing."""
    result = run_fuzz_campaign(seed=3, trials=15)
    assert result.ok, result.divergences[0].divergence
    assert result.trials == 15
    assert result.fired_steps > 0
