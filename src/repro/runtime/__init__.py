"""Live asyncio deployment of the CST-transformed ring algorithms.

Where :mod:`repro.messagepassing` *simulates* the transformed system on a
deterministic event queue, this package *runs* it: real
:class:`~repro.messagepassing.node.CSTNode` step logic inside asyncio
tasks, talking over pluggable transports (in-process loopback, or UDP on
localhost through a mux that serves one ring or a whole fleet), optionally
through a chaos layer that injects loss, delay, duplication, reorder and
partitions; a supervisor boots, watches, restarts and drains the nodes;
and an online health monitor applies the conformance predicates
(legitimacy + cache coherence + token-census bounds) so a live ring can
report "stabilized in T seconds after fault script F".

Messages travel in one of two wire formats (:mod:`repro.runtime.wire`):
versioned JSON, or the packed binary fastpath whose payload word is the
exact :class:`~repro.messagepassing.fastpath.codecs.MPCodec` integer the
fast engines consume.  :mod:`repro.runtime.fleet` scales deployments to
many concurrent rings (shared sockets, optional worker-process sharding,
optional uvloop) and :mod:`repro.runtime.loadgen` drives their critical
sections with configurable client request rates.

Entry points: ``repro live run|chaos|status`` and ``repro fleet run|status``
on the CLI, or
:func:`~repro.runtime.harness.live_run` /
:func:`~repro.runtime.harness.live_chaos` /
:func:`~repro.runtime.fleet.run_fleet` from Python.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.chaos": (
        "PRESETS", "ChaosDirector", "ChaosOp", "ChaosScript", "build_script",
    ),
    "repro.runtime.fleet": (
        "FleetSupervisor", "RingSpec", "default_specs", "fleet_id",
        "render_fleet_report", "run_fleet", "run_fleet_sharded",
    ),
    "repro.runtime.harness": (
        "build_algorithm", "install_uvloop", "live_chaos", "live_run",
        "loop_name", "render_live_report",
    ),
    "repro.runtime.health": ("Epoch", "HealthMonitor", "HealthSnapshot"),
    "repro.runtime.loadgen": ("LoadGenerator", "LoadReport"),
    "repro.runtime.server": ("LinkPort", "RingNodeServer"),
    "repro.runtime.supervisor": ("RingSupervisor",),
    "repro.runtime.transport": (
        "ChaosTransport", "LoopbackTransport", "MuxUdpTransport", "RingView",
        "Transport",
    ),
    "repro.runtime.wire": (
        "Wire", "WireError", "decode_message", "encode_message", "make_wire",
    ),
})
