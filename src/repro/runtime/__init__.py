"""Live asyncio deployment of the CST-transformed ring algorithms.

Where :mod:`repro.messagepassing` *simulates* the transformed system on a
deterministic event queue, this package *runs* it: real
:class:`~repro.messagepassing.node.CSTNode` step logic inside asyncio
tasks, talking over pluggable transports (in-process loopback, UDP on
localhost, a fleet mux sharing sockets between rings), optionally through
a chaos layer that injects loss, delay, duplication, reorder and
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

from repro.runtime.chaos import (
    SCRIPTS,
    ChaosDirector,
    ChaosOp,
    ChaosScript,
    build_script,
)
from repro.runtime.fleet import (
    FleetSupervisor,
    RingSpec,
    default_specs,
    render_fleet_report,
    run_fleet,
    run_fleet_sharded,
)
from repro.runtime.harness import (
    build_algorithm,
    install_uvloop,
    live_chaos,
    live_run,
    loop_name,
    render_live_report,
)
from repro.runtime.health import Epoch, HealthMonitor, HealthSnapshot
from repro.runtime.loadgen import LoadGenerator, LoadReport
from repro.runtime.server import LinkPort, RingNodeServer
from repro.runtime.supervisor import RingSupervisor
from repro.runtime.transport import (
    ChaosTransport,
    LoopbackTransport,
    MuxUdpTransport,
    RingView,
    Transport,
    UdpTransport,
)
from repro.runtime.wire import (
    Wire,
    WireError,
    decode_message,
    encode_message,
    make_wire,
)

__all__ = [
    "SCRIPTS",
    "ChaosDirector",
    "ChaosOp",
    "ChaosScript",
    "ChaosTransport",
    "Epoch",
    "FleetSupervisor",
    "HealthMonitor",
    "HealthSnapshot",
    "LinkPort",
    "LoadGenerator",
    "LoadReport",
    "LoopbackTransport",
    "MuxUdpTransport",
    "RingNodeServer",
    "RingSpec",
    "RingSupervisor",
    "RingView",
    "Transport",
    "UdpTransport",
    "Wire",
    "WireError",
    "build_algorithm",
    "build_script",
    "decode_message",
    "default_specs",
    "encode_message",
    "install_uvloop",
    "live_chaos",
    "live_run",
    "loop_name",
    "make_wire",
    "render_fleet_report",
    "render_live_report",
    "run_fleet",
    "run_fleet_sharded",
]
