"""The enumerated state graph over packed keys.

A packed kernel gets the Z_K quotient only over the default configuration
space.  An algorithm that overrides ``configuration_space`` is checked on
an :class:`~repro.verification.state_graph.EnumeratedGraph`, whose keys
are then the kernel's packed ints.  Here the space is Dijkstra's ring with
``x_0 = 0``: successors leave it, so the graph numbers them after the
enumerated ids.  The packed graph must equal the naive one id for id, and
so must every field of the report and the worst-case witness.
"""

import itertools

import pytest

from repro.algorithms.dijkstra import DijkstraKState
from repro.verification.model_checker import (
    check_self_stabilization,
    worst_case_witness,
)
from repro.verification.state_graph import EnumeratedGraph
from repro.verification.transition_system import TransitionSystem


class _ZeroBottomDijkstra(DijkstraKState):
    """Only the configurations with ``x_0 = 0``."""

    def configuration_space(self):
        for rest in itertools.product(range(self.K), repeat=self.n - 1):
            yield (0,) + rest


#: ``(n, K, daemon)`` -> enumerated ids, all ids, worst case, cycle length.
CASES = {
    (3, 4, "central"): (16, 31, 4, None),
    (3, 4, "distributed"): (16, 38, 5, None),
    (4, 5, "central"): (125, 255, 14, None),
    (4, 5, "distributed"): (125, 297, 14, None),
    (4, 3, "central"): (27, 67, 14, None),
    (4, 3, "distributed"): (27, 74, None, 4),
}


@pytest.mark.parametrize("case", CASES, ids=str)
def test_packed_and_naive_enumerated_graphs_agree(case):
    n, K, daemon = case
    enumerated, ids, worst, cycle = CASES[case]
    alg = _ZeroBottomDijkstra(n, K, allow_small_k=True)
    fast = TransitionSystem(alg, daemon)
    naive = TransitionSystem(alg, daemon, use_fastpath=False)
    assert fast._kernel is not None and naive._kernel is None
    graphs = fast.graph(), naive.graph()
    for graph in graphs:
        assert isinstance(graph, EnumeratedGraph)
        assert graph.enumerated == enumerated
        assert len(graph.legit) == ids
    assert graphs[0].legit == graphs[1].legit
    assert graphs[0].offsets == graphs[1].offsets
    assert graphs[0].targets == graphs[1].targets

    report = check_self_stabilization(fast)
    assert report == check_self_stabilization(naive)
    assert report.worst_case_steps == worst
    if cycle is None:
        assert report.illegitimate_cycle is None
        witness = worst_case_witness(fast)
        assert witness == worst_case_witness(naive)
        assert len(witness) == worst + 1
    else:
        assert len(report.illegitimate_cycle) == cycle
        assert not report.self_stabilizing
