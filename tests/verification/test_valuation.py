"""The state graph's valuation in level rounds, against a depth-first oracle.

:meth:`StateGraph.valuation` values longest-path heights in numpy level
rounds and names a failing check's cycle by the walk a depth-first search
over the illegitimate ids takes.  The oracle here is the depth-first
valuation it replaced, kept in the test body: every value must match
entry for entry and every cycle id for id.  The worst-case witness and the
reported cycle step by row position; their oracles map every successor
key to its id.  ``CHUNK`` is also shrunk so that a round's rows span
several blocks, which an id valued inside its own round would corrupt.
"""

import random
from array import array

import numpy as np
import pytest

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.verification import state_graph
from repro.verification.model_checker import (
    check_self_stabilization,
    worst_case_witness,
)
from repro.verification.state_graph import StateGraph, first_outside
from repro.verification.transition_system import TransitionSystem

_NEW, _VALUED, _ACTIVE = 0, 1, 2


def _dfs_valuation(graph):
    """The value-carrying depth-first search over the illegitimate ids, on
    an explicit stack: ``(value, None)`` or ``(None, cycle)``."""
    legit, offsets, targets = graph.legit, graph.offsets, graph.targets
    size = len(legit)
    value = array("i", bytes(4 * size))
    colour = bytearray(legit)
    for root in range(size):
        if colour[root]:
            continue
        colour[root] = _ACTIVE
        value[root] = 1
        stack = [root]
        cursors = [offsets[root]]
        while stack:
            v = stack[-1]
            i = cursors[-1]
            end = offsets[v + 1]
            best = value[v]
            while i < end:
                w = targets[i]
                c = colour[w]
                if c == _VALUED:
                    if value[w] >= best:
                        best = value[w] + 1
                elif c == _NEW:
                    break
                else:
                    return None, stack[stack.index(w):] + [w]
                i += 1
            else:
                value[v] = best
                colour[v] = _VALUED
                stack.pop()
                cursors.pop()
                continue
            value[v] = best
            cursors[-1] = i
            colour[w] = _ACTIVE
            value[w] = 1
            stack.append(w)
            cursors.append(offsets[w])
    return value, None


def _witness_by_id_of(ts, value):
    """The witness walk that maps every successor key to its id."""
    graph = ts.graph()
    id_of = graph.id_of
    key = graph.key_of(max(range(graph.enumerated), key=value.__getitem__))
    path = [key]
    while not graph.legit[id_of(key)]:
        key = max(ts.successor_keys_for(key), key=lambda s: value[id_of(s)])
        path.append(key)
    return [ts.config_for_key(k) for k in path]


def _cycle_by_id_of(ts, cycle):
    """The cycle lift that maps every successor key to its id."""
    graph = ts.graph()
    start = key = graph.key_of(cycle[0])
    path = [key]
    while True:
        for nxt in cycle[1:]:
            key = next(s for s in ts.successor_keys_for(key)
                       if graph.id_of(s) == nxt)
            path.append(key)
        if key == start:
            return [ts.config_for_key(k) for k in path]


def _algorithm(name, n, k):
    if name == "ssrmin":
        return SSRmin(n, k)
    return DijkstraKState(n, k, allow_small_k=True)


#: ``(algorithm, n, K, daemon, use_fastpath)``: the benchmark's 12
#: instances and SSRmin(4,5); Dijkstra with K in {n-2, n-1} under both
#: daemons (most have cycles); the naive enumerated graph at n <= 4.
SYSTEMS = (
    [("ssrmin", 3, k, "distributed", True) for k in (4, 5, 6)]
    + [("dijkstra", n, k, "distributed", True)
       for n in (3, 4, 5) for k in (n - 1, n, n + 1)]
    + [("ssrmin", 4, 5, "distributed", True)]
    + [("dijkstra", n, k, daemon, True)
       for n in (3, 4, 5, 6) for k in (n - 2, n - 1) if k >= 2
       for daemon in ("distributed", "central")]
    + [("ssrmin", 3, 4, daemon, False) for daemon in ("distributed", "central")]
    + [("dijkstra", n, k, daemon, False)
       for n in (3, 4) for k in (n - 1, n, n + 1)
       for daemon in ("distributed", "central")]
)


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_valuation_equals_the_depth_first_oracle(system):
    name, n, k, daemon, fast = system
    ts = TransitionSystem(_algorithm(name, n, k), daemon, use_fastpath=fast)
    graph = ts.graph()
    value, cycle = graph.valuation()
    want_value, want_cycle = _dfs_valuation(graph)
    assert cycle == want_cycle
    assert value == want_value
    assert value is None or isinstance(value, array) and value.typecode == "i"
    report = check_self_stabilization(ts)
    if want_cycle is None:
        assert type(report.worst_case_steps) is int
        assert report.worst_case_steps == max(want_value)
        assert worst_case_witness(ts) == _witness_by_id_of(ts, want_value)
    else:
        assert report.worst_case_steps is None
        assert report.illegitimate_cycle == _cycle_by_id_of(ts, want_cycle)


class _Rows(StateGraph):
    """A hand-built graph: ids are their own keys."""

    def __init__(self, legit, rows):
        super().__init__()
        self.legit = bytearray(legit)
        for row in rows:
            self.targets.extend(row)
            self.offsets.append(len(self.targets))
        self.enumerated = len(legit)

    def id_of(self, key):
        return key

    def key_of(self, v):
        return v

    def expand(self, ids):
        return list(ids)


#: ``(legit, rows, values or None, cycle or None)``.
HAND_BUILT = {
    "deadlocks": ([1, 0, 0], [[0], [], [1]], [0, 1, 2], None),
    "self-loop": ([1, 0, 0], [[0], [0], [1, 2]], None, [2, 2]),
    "duplicate-targets": (
        [1, 0, 0, 0], [[0], [0, 0, 3, 3, 0], [0, 0], [2, 0, 2]],
        [0, 3, 1, 2], None),
    "cycle-behind-a-tail": (
        [1, 0, 0, 0, 0, 0], [[0], [0, 2], [0, 3], [4], [5], [3]],
        None, [3, 4, 5, 3]),
    "two-disjoint-cycles": (
        [1, 0, 0, 0, 0, 0], [[0], [0], [5, 0], [4], [3], [2]],
        None, [2, 5, 2]),
    "all-legitimate": ([1, 1, 1], [[1], [2], [0, 1]], [0, 0, 0], None),
    "no-ids": ([], [], [], None),
}


@pytest.mark.parametrize("chunk", [state_graph.CHUNK, 1, 2])
@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_rows(monkeypatch, case, chunk):
    monkeypatch.setattr(state_graph, "CHUNK", chunk)
    legit, rows, values, cycle = HAND_BUILT[case]
    graph = _Rows(legit, rows)
    want = (None if values is None else array("i", values), cycle)
    assert _dfs_valuation(graph) == want
    assert graph.valuation() == want


def _random_graph(rng, acyclic):
    size = rng.randint(1, 40)
    legit = [int(rng.random() < 0.2) for _ in range(size)]
    order = list(range(size))
    rng.shuffle(order)
    rows = []
    for v in range(size):
        # Acyclic: an illegitimate id's targets come earlier in ``order``
        # or are legitimate.
        pool = [w for w in range(size)
                if not acyclic or legit[w] or order.index(w) < order.index(v)]
        width = rng.randint(0, 6) if pool else 0
        rows.append([rng.choice(pool) for _ in range(width)])
    return _Rows(legit, rows)


@pytest.mark.parametrize("chunk", [state_graph.CHUNK, 1, 3])
@pytest.mark.parametrize("acyclic", [True, False])
def test_random_graphs(monkeypatch, acyclic, chunk):
    monkeypatch.setattr(state_graph, "CHUNK", chunk)
    rng = random.Random(20261019 + acyclic)
    outcomes = set()
    for _ in range(300):
        graph = _random_graph(rng, acyclic)
        want = _dfs_valuation(graph)
        assert graph.valuation() == want
        outcomes.add(want[1] is None)
    assert outcomes == ({True} if acyclic else {True, False})


@pytest.mark.parametrize("chunk", [state_graph.CHUNK, 1, 4])
def test_first_outside_finds_the_first_target_outside(monkeypatch, chunk):
    monkeypatch.setattr(state_graph, "CHUNK", chunk)
    rng = random.Random(7)
    targets = np.array([rng.randrange(30) for _ in range(400)], dtype=np.int32)
    inside = np.array([rng.random() < 0.7 for _ in range(30)])
    cuts = sorted(rng.randrange(401) for _ in range(60))
    starts = np.array(cuts[0::2], dtype=np.int64)
    stops = np.array(cuts[1::2], dtype=np.int64)
    want = [next((p for p in range(a, b) if not inside[targets[p]]), b)
            for a, b in zip(starts.tolist(), stops.tolist())]
    assert first_outside(starts, stops, targets, inside).tolist() == want
    assert first_outside(starts[:0], stops[:0], targets, inside).tolist() == []
