"""The model checker's Z_K quotient under the x-shift.

The packed-kernel path checks one representative (``x_0 = 0``) per orbit
of the shift that adds ``c`` mod K to every x; the naive path enumerates
every configuration.  These tests check the symmetry the quotient rests
on, that the quotient's reports, witnesses and cycles are what the full
enumeration gives, and that the graph's array passes build, entry for
entry, the rows the scalar kernel gives key by key.
"""

import os
import subprocess
import sys
from array import array

import numpy as np
import pytest

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.simulation.fastpath import ssrmin_kernel
from repro.verification.model_checker import (
    check_self_stabilization,
    worst_case_convergence_steps,
    worst_case_witness,
)
from repro.verification.state_graph import _selection_matrix
from repro.verification.transition_system import TransitionSystem

INSTANCES = (
    [("ssrmin", 3, 4), ("ssrmin", 3, 5)]
    + [("dijkstra", n, k) for n in (3, 4, 5) for k in (n - 1, n, n + 1)]
)


#: The instances of the repository benchmark's ``exhaustive_check``.
EXH_INSTANCES = (
    [("ssrmin", 3, k) for k in (4, 5, 6)]
    + [("dijkstra", n, k) for n in (3, 4, 5) for k in (n - 1, n, n + 1)]
)


def _algorithm(name, n, k):
    if name == "ssrmin":
        return SSRmin(n, k)
    return DijkstraKState(n, k, allow_small_k=True)


@pytest.mark.parametrize("instance", INSTANCES, ids=str)
def test_shift_commutes_with_successors_and_keeps_legitimacy(instance):
    ts = TransitionSystem(_algorithm(*instance), "distributed")
    kernel = ts._kernel
    K = kernel.K
    keys = [ts._key(c) for c in ts.states()]
    # Packed keys ascend in enumeration order, and the representatives
    # (x_0 = 0) are the first 1/K of them.
    assert keys == list(range(len(keys)))
    reps = len(keys) // K
    assert all(kernel.canonical_key(k) == k for k in range(reps))
    for key in keys:
        succ = ts.successor_keys_for(key)
        legit = ts.is_legitimate_key(key)
        assert kernel.canonical_key(key) < reps
        for c in range(1, K):
            shifted = kernel.shift_key(key, c)
            assert shifted != key
            assert kernel.shift_key(shifted, K - c) == key
            assert kernel.canonical_key(shifted) == kernel.canonical_key(key)
            assert ts.is_legitimate_key(shifted) == legit
            assert ts.successor_keys_for(shifted) == tuple(
                kernel.shift_key(s, c) for s in succ)


def _assert_real_cycle(ts, cycle):
    assert cycle[0] == cycle[-1] and len(cycle) > 1
    for a, b in zip(cycle, cycle[1:]):
        assert not ts.algorithm.is_legitimate(a)
        assert ts._key(b) in ts.successor_keys(a)


@pytest.mark.parametrize("instance", INSTANCES, ids=str)
def test_quotient_reports_equal_full_enumeration(instance):
    alg = _algorithm(*instance)
    fast = TransitionSystem(alg, "distributed")
    naive = TransitionSystem(alg, "distributed", use_fastpath=False)
    q = check_self_stabilization(fast)
    full = check_self_stabilization(naive)
    assert q.state_count == full.state_count
    assert q.legitimate_count == full.legitimate_count
    assert q.deadlocks == full.deadlocks
    assert q.closure_violations == full.closure_violations
    assert q.worst_case_steps == full.worst_case_steps
    assert q.convergence_checked and full.convergence_checked
    assert q.self_stabilizing == full.self_stabilizing
    if full.illegitimate_cycle is None:
        assert q.illegitimate_cycle is None
        assert worst_case_witness(fast) == worst_case_witness(naive)
    else:
        # Two different valid cycles can come out; both must be real.
        _assert_real_cycle(fast, q.illegitimate_cycle)
        _assert_real_cycle(naive, full.illegitimate_cycle)


def _brute_force(ts):
    """Deadlocks and closure violations straight from the per-configuration
    methods, in enumeration order."""
    deadlocks, closure = [], []
    for config in ts.states():
        succ = ts.successor_keys(config)
        if not succ:
            deadlocks.append(config)
        elif ts.is_legitimate(config):
            closure.extend(
                (config, ts.config_for_key(s))
                for s in succ if not ts.is_legitimate_key(s))
    return deadlocks, closure


@pytest.mark.parametrize("index,rule,expect", [
    # <g=1, quiet handshakes>: R1 -> disabled leaves quiet rings deadlocked.
    (1 << 6, 0, "deadlocks"),
    # <g=0, predecessor rts, quiet>: R3 -> R1 breaks the handover.
    (2 << 4, 1, "closure_violations"),
])
def test_mutated_rule_table_orbits_match_brute_force(
        monkeypatch, index, rule, expect):
    """Guards read only G_i and the handshake codes, so any table edit
    keeps the x-shift symmetry; the quotient must still report every
    deadlock and closure violation of the full space."""
    mutated = bytearray(ssrmin_kernel.RULE_TABLE)
    assert mutated[index] != rule
    mutated[index] = rule
    monkeypatch.setattr(ssrmin_kernel, "RULE_TABLE", bytes(mutated))
    alg = SSRmin(3, 4)
    report = check_self_stabilization(
        TransitionSystem(alg, "distributed"), compute_worst_case=False)
    deadlocks, closure = _brute_force(TransitionSystem(alg, "distributed"))
    assert getattr(report, expect)
    assert report.deadlocks == deadlocks
    assert report.closure_violations == closure


def test_ssrmin_n4_exact_worst_case():
    """Theorem 2's quantity, exactly, at n=4 (160,000 configurations)."""
    ts = TransitionSystem(SSRmin(4, 5), "distributed")
    assert worst_case_convergence_steps(ts) == 43
    assert len(worst_case_witness(ts)) == 44


def _mutate_rule_table(monkeypatch, index, rule):
    mutated = bytearray(ssrmin_kernel.RULE_TABLE)
    assert mutated[index] != rule
    mutated[index] = rule
    monkeypatch.setattr(ssrmin_kernel, "RULE_TABLE", bytes(mutated))


def _rows_key_by_key(ts, size):
    """``(legit, offsets, targets)`` from the scalar kernel, one
    representative at a time."""
    kernel = ts._kernel
    legit, offsets, targets = bytearray(), array("q", [0]), array("i")
    for r in range(size):
        kernel.load_key(r)
        legit.append(kernel.is_legitimate())
        targets.extend(k if k < size else kernel.canonical_key(k)
                       for k in ts._succ_keys_from_loaded(r))
        offsets.append(len(targets))
    return legit, offsets, targets


#: R5 (``<rts.tra> <- 00``) on a quiet process with a quiet neighbourhood
#: and no primary token: enabled, but its command changes nothing, so
#: selections that differ only in such processes reach the same key.
QUIET_R5 = (0, 5)

GRAPH_CASES = (
    [(instance, "distributed", None) for instance in EXH_INSTANCES]
    + [(("ssrmin", 4, 5), "distributed", None),
       (("ssrmin", 3, 5), "central", None),
       (("ssrmin", 3, 4), "distributed", QUIET_R5),
       (("ssrmin", 3, 4), "central", QUIET_R5)]
)


@pytest.mark.parametrize("instance,daemon,mutation", GRAPH_CASES, ids=str)
def test_array_build_equals_key_by_key_rows(
        monkeypatch, instance, daemon, mutation):
    if mutation is not None:
        _mutate_rule_table(monkeypatch, *mutation)
    ts = TransitionSystem(_algorithm(*instance), daemon)
    graph = ts.graph()
    legit, offsets, targets = _rows_key_by_key(ts, graph.enumerated)
    assert graph.legit == legit
    assert graph.offsets == offsets
    assert graph.targets == targets
    if mutation is not None:
        # The mutation must reach the de-duplication: some id loops on
        # itself through the zero-delta command.
        assert any(v in targets[offsets[v]:offsets[v + 1]]
                   for v in range(graph.enumerated))


def test_graphs_share_read_only_selection_matrices():
    """A selection matrix depends only on its group code, n and the
    daemon's selection bound, so a second graph of the same ring size and
    daemon builds none; each shared matrix is read-only and equals a
    fresh build."""
    _selection_matrix.cache_clear()
    TransitionSystem(SSRmin(3, 4), "distributed").graph()
    built = _selection_matrix.cache_info().misses
    assert built
    TransitionSystem(SSRmin(3, 5), "distributed").graph()
    assert _selection_matrix.cache_info().misses == built
    for code in range(1 << 6):
        for max_selection in (None, 1):
            matrix = _selection_matrix(code, 3, max_selection)
            assert not matrix.flags.writeable
            assert np.array_equal(matrix, _selection_matrix.__wrapped__(
                code, 3, max_selection))


@pytest.mark.parametrize("instance", [("ssrmin", 3, 4), ("dijkstra", 4, 5)],
                         ids=str)
def test_key_arrays_equal_the_scalar_kernel(instance):
    kernel = _algorithm(*instance).fast_kernel()
    weights = kernel.key_weights
    keys = np.arange(weights[0] * kernel.key_base, dtype=np.int64)
    legit, enabled, deltas = kernel.key_moves(keys)
    canonical = kernel.canonical_keys(keys)
    for key in keys.tolist():
        kernel.load_key(key)
        assert bool(legit[key]) == kernel.is_legitimate()
        assert tuple(np.flatnonzero(enabled[key]).tolist()) == kernel.enabled()
        expect = [0] * len(weights)
        for i in kernel.enabled():
            expect[i] = (kernel.digit(kernel.update(i))
                         - kernel.digit(kernel.native_state(i))) * weights[i]
        assert deltas[key].tolist() == expect
        assert int(canonical[key]) == kernel.canonical_key(key)


def test_numpy_is_imported_only_to_build_a_graph():
    """The checker's import path and its transition systems stay
    numpy-free; the array passes import it when the first graph is
    built."""
    code = (
        "import sys\n"
        "from repro.core.ssrmin import SSRmin\n"
        "from repro.verification import TransitionSystem, "
        "check_self_stabilization\n"
        "ts = TransitionSystem(SSRmin(3, 4))\n"
        "assert 'numpy' not in sys.modules\n"
        "assert check_self_stabilization(ts).worst_case_steps == 16\n"
        "assert 'numpy' in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir,
                                     os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
