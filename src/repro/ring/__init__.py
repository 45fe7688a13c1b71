"""Ring network topologies (paper section 2.1).

The paper's system model is a set of processes ``P_0 .. P_{n-1}`` arranged on
a ring.  :class:`RingTopology` captures both the *bidirectional* ring used by
SSRmin (each process reads both neighbours) and the *unidirectional* ring used
by Dijkstra's K-state token ring (each process reads only its predecessor).

:class:`GeneralTopology` is the arbitrary-graph variant used by the cached
sensornet transform (CST) in :mod:`repro.messagepassing`, which is defined for
any neighbourhood structure even though this reproduction exercises it on
rings.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ring.topology": ("GeneralTopology", "RingTopology"),
    "repro.ring.addressing": ("pred", "succ"),
})
