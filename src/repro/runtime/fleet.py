"""Fleet control plane: many live rings per process, rings per worker.

One :class:`~repro.runtime.supervisor.RingSupervisor` deploys one ring.
Production runs many: this module multiplexes N rings over a shared
socket pool (:class:`~repro.runtime.transport.MuxUdpTransport`, frames
demultiplexed by the ``ring_id`` in their wire header) and, when one
process's event loop saturates, shards whole *rings* across worker
processes.  Rings — not nodes — are the shard unit: the online
:class:`~repro.runtime.health.HealthMonitor` audits a ring's *global*
configuration (legitimacy, cache coherence, token census) on every event,
which requires all of a ring's nodes in one process; the shared-socket
route table is what would extend to cross-process nodes if that audit
ever moves online-distributed.

Per-ring machinery is untouched: every ring keeps its own supervisor,
watchdog, chaos director, health monitor, telemetry bus and (optional)
run-store subscriber — the fleet layer only owns transport multiplexing,
lifecycle, optional load generation and the aggregate report.

A fleet is recorded under :func:`fleet_id`: its ring rows are named
``<fleet id>/<ring>``, and ``repro fleet run`` (like ``repro top``) adds
one ``fleet`` row holding the aggregate report.

Entry points: :func:`run_fleet` (one process), :func:`run_fleet_sharded`
(ring partitions across a ``ProcessPoolExecutor``), ``repro fleet
run|status`` on the CLI, and ``repro top``, which draws a dashboard over
one :class:`FleetSupervisor` while it runs.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.runtime.chaos import build_script
from repro.runtime.harness import build_algorithm, install_uvloop, loop_name
from repro.runtime.loadgen import LoadGenerator
from repro.runtime.supervisor import RingSupervisor
from repro.runtime.transport import MuxUdpTransport

#: Canonical fleet report schema id.
FLEET_SCHEMA = "repro-fleet/1"


@dataclass(frozen=True)
class RingSpec:
    """Declarative description of one fleet ring."""

    name: str
    algorithm: str = "ssrmin"
    n: int = 5
    K: Optional[int] = None
    seed: int = 0
    wire: str = "binary"
    timer_interval: float = 0.1
    initial: str = "legitimate"
    #: Named chaos script to play against this ring (None = calm).
    script: Optional[str] = None
    #: Open-loop critical-section demand in requests/second (0 = none).
    load_rate: float = 0.0

    def to_json(self) -> dict:
        """Plain-dict form (JSON-able, also the shard-worker pickle)."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "RingSpec":
        return cls(**data)


def default_specs(
    rings: int,
    algorithm: str = "ssrmin",
    n: int = 5,
    K: Optional[int] = None,
    wire: str = "binary",
    seed: int = 0,
    timer_interval: float = 0.1,
    script: Optional[str] = None,
    load_rate: float = 0.0,
) -> List[RingSpec]:
    """Homogeneous fleet of ``rings`` rings with per-ring derived seeds."""
    return [
        RingSpec(
            name=f"ring-{i}",
            algorithm=algorithm,
            n=n,
            K=K,
            seed=seed + i,
            wire=wire,
            timer_interval=timer_interval,
            initial="legitimate",
            script=script,
            load_rate=load_rate,
        )
        for i in range(rings)
    ]


def fleet_id(specs: Sequence[RingSpec]) -> str:
    """The fleet's run id, ``fleet-<alg>-r<rings>-n<n>-seed<seed>``.

    Read off the first ring (the base seed of :func:`default_specs`), so
    fleets with different seeds or sizes never share rows; ring ``name``
    is recorded as ``<fleet id>/<name>``.
    """
    first = specs[0]
    return (f"fleet-{first.algorithm}-r{len(specs)}-n{first.n}"
            f"-seed{first.seed}")


class FleetSupervisor:
    """Boots, runs and drains N rings over one shared transport pool.

    Parameters
    ----------
    specs:
        The rings to deploy.
    transport:
        ``"mux-udp"`` (shared sockets, the fleet default) or
        ``"loopback"`` (each ring gets a private in-process transport —
        no sockets, for tests and constrained sandboxes).
    sockets:
        Shared-socket pool size for the mux transport.
    batch:
        Send-side datagram coalescing on the mux.
    store:
        Optional :class:`~repro.observability.store.RunStore`; each ring
        gets its own :class:`~repro.observability.ingest.StoreSubscriber`
        (run ids ``<fleet id>/<name>``, see :func:`fleet_id`).
    """

    def __init__(
        self,
        specs: Sequence[RingSpec],
        transport: str = "mux-udp",
        sockets: int = 1,
        batch: bool = True,
        store: Optional[Any] = None,
    ):
        if not specs:
            raise ValueError("a fleet needs at least one ring")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate ring names in {names}")
        if transport not in ("mux-udp", "loopback"):
            raise ValueError(
                f"unknown fleet transport {transport!r} (mux-udp, loopback)"
            )
        self.specs = list(specs)
        self.transport_name = transport
        self.mux: Optional[MuxUdpTransport] = (
            MuxUdpTransport(sockets=sockets, batch=batch)
            if transport == "mux-udp" else None
        )
        self.store = store
        self.run_id = fleet_id(self.specs)
        self.supervisors: Dict[str, RingSupervisor] = {}
        self.loadgens: Dict[str, LoadGenerator] = {}
        self.load_reports: Dict[str, dict] = {}
        self._subscribers: List[Any] = []
        #: Chaos-script and load tasks started by :meth:`run`.
        self._tasks: List[asyncio.Task] = []
        self._booted = False

    # -- lifecycle -----------------------------------------------------------
    def _build_ring(self, ring_id: int, spec: RingSpec) -> RingSupervisor:
        algorithm = build_algorithm(spec.algorithm, spec.n, spec.K)
        transport: Any
        if self.mux is not None:
            transport = self.mux.view(ring_id, spec.n)
        else:
            transport = "loopback"
        supervisor = RingSupervisor(
            algorithm,
            transport=transport,
            chaos=spec.script is not None,
            wire=spec.wire,
            initial=spec.initial,
            seed=spec.seed,
            timer_interval=spec.timer_interval,
        )
        if self.store is not None:
            from repro.observability.ingest import StoreSubscriber

            subscriber = StoreSubscriber(
                self.store, run_id=f"{self.run_id}/{spec.name}",
                source="fleet",
            )
            supervisor.bus.subscribe(subscriber)
            self._subscribers.append(subscriber)
        if spec.load_rate > 0:
            self.loadgens[spec.name] = LoadGenerator(
                supervisor, rate=spec.load_rate, seed=spec.seed,
            )
        return supervisor

    async def boot(self) -> None:
        """Build and boot every ring (mux sockets come up with ring 0)."""
        if self._booted:
            raise RuntimeError("fleet already booted")
        self._booted = True
        for ring_id, spec in enumerate(self.specs):
            supervisor = self._build_ring(ring_id, spec)
            self.supervisors[spec.name] = supervisor
            await supervisor.boot()

    async def run(
        self, duration: float, stabilize_timeout: float = 10.0
    ) -> None:
        """Stabilize every ring, then run scripts + load concurrently."""
        if not self._booted:
            await self.boot()
        await asyncio.gather(*(
            self._await_stabilized(sup, stabilize_timeout)
            for sup in self.supervisors.values()
        ))
        for spec in self.specs:
            sup = self.supervisors[spec.name]
            if spec.script is not None:
                self._tasks.append(asyncio.ensure_future(
                    sup.run_chaos(build_script(spec.script, spec.n))
                ))
            gen = self.loadgens.get(spec.name)
            if gen is not None:
                self._tasks.append(asyncio.ensure_future(
                    self._run_load(spec.name, gen, duration)
                ))
        if duration > 0:
            await asyncio.sleep(duration)
        for task in self._tasks:
            if not task.done():
                await task

    @staticmethod
    async def _await_stabilized(
        supervisor: RingSupervisor, timeout: float
    ) -> None:
        try:
            await supervisor.wait_stabilized(timeout)
        except TimeoutError:
            pass  # reported as stabilized=False per ring

    async def _run_load(
        self, name: str, gen: LoadGenerator, duration: float
    ) -> None:
        report = await gen.run(duration)
        self.load_reports[name] = report.to_json()

    async def shutdown(self) -> None:
        """Cancel unfinished scripts and load (a :meth:`run` cut short),
        then drain every ring; the mux closes with its last view."""
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for supervisor in self.supervisors.values():
            await supervisor.shutdown()
        for subscriber in self._subscribers:
            subscriber.close()
        if self.mux is not None:
            await self.mux.close()

    # -- observation ---------------------------------------------------------
    def status_rows(self) -> List[Any]:
        """Live dashboard rows (same renderer as ``repro top``)."""
        from repro.observability.dashboard import RingRow

        return [
            RingRow.from_supervisor(name, sup)
            for name, sup in self.supervisors.items()
        ]

    def report(self) -> dict:
        """Aggregate fleet report (schema :data:`FLEET_SCHEMA`)."""
        rings: Dict[str, dict] = {}
        total_delivered = 0
        total_wall = 0.0
        stabilized = 0
        for spec in self.specs:
            sup = self.supervisors[spec.name]
            ring_report = sup.report()
            if spec.name in self.load_reports:
                ring_report["load"] = self.load_reports[spec.name]
            rings[spec.name] = ring_report
            tstats = ring_report.get("transport_stats", {})
            total_delivered += int(tstats.get("delivered", 0))
            total_wall = max(total_wall, ring_report.get("wall_clock", 0.0))
            if ring_report.get("health", {}).get("stabilized"):
                stabilized += 1
        return {
            "schema": FLEET_SCHEMA,
            "transport": self.transport_name,
            "loop": loop_name(),
            "rings": len(self.specs),
            "stabilized_rings": stabilized,
            "wall_clock": total_wall,
            "delivered_total": total_delivered,
            "delivered_per_sec": (
                total_delivered / total_wall if total_wall > 0 else 0.0
            ),
            "mux": self.mux.stats() if self.mux is not None else None,
            "specs": [spec.to_json() for spec in self.specs],
            "ring_reports": rings,
        }

    @property
    def ok(self) -> bool:
        """Every ring stabilized with a clean final epoch."""
        return all(sup.ok for sup in self.supervisors.values())


# -- sync entry points --------------------------------------------------------

async def _fleet_main(
    specs: Sequence[RingSpec],
    duration: float,
    transport: str,
    sockets: int,
    batch: bool,
    stabilize_timeout: float,
    store: Optional[Any],
) -> dict:
    fleet = FleetSupervisor(
        specs, transport=transport, sockets=sockets, batch=batch, store=store,
    )
    try:
        await fleet.run(duration, stabilize_timeout=stabilize_timeout)
    finally:
        await fleet.shutdown()
    return fleet.report()


def run_fleet(
    specs: Sequence[RingSpec],
    duration: float = 2.0,
    transport: str = "mux-udp",
    sockets: int = 1,
    batch: bool = True,
    stabilize_timeout: float = 10.0,
    use_uvloop: bool = False,
    store_path: Optional[str] = None,
) -> dict:
    """Deploy a fleet in this process; returns the aggregate report."""
    if use_uvloop:
        install_uvloop(True)
    store = None
    if store_path is not None:
        from repro.observability.store import RunStore

        store = RunStore(store_path)
    try:
        return asyncio.run(_fleet_main(
            specs, duration, transport, sockets, batch,
            stabilize_timeout, store,
        ))
    finally:
        if store is not None:
            store.close()


def _shard_worker(payload: str) -> str:
    """Module-level (picklable) worker: run one ring shard, return JSON."""
    args = json.loads(payload)
    specs = [RingSpec.from_json(s) for s in args["specs"]]
    report = run_fleet(
        specs,
        duration=args["duration"],
        transport=args["transport"],
        sockets=args["sockets"],
        batch=args["batch"],
        stabilize_timeout=args["stabilize_timeout"],
        use_uvloop=args["use_uvloop"],
        # No run store inside shard workers: concurrent sqlite writers
        # would serialize on the database lock and skew the fleet.  The
        # parent records the rings from the merged report.
        store_path=None,
    )
    report["worker_pid"] = os.getpid()
    return json.dumps(report)


def run_fleet_sharded(
    specs: Sequence[RingSpec],
    workers: int,
    duration: float = 2.0,
    transport: str = "mux-udp",
    sockets: int = 1,
    batch: bool = True,
    stabilize_timeout: float = 10.0,
    use_uvloop: bool = False,
) -> dict:
    """Partition rings round-robin across worker processes and merge.

    Each worker hosts whole rings (its own event loop, socket pool and
    supervisors); the merged report keeps per-ring detail and re-derives
    the fleet aggregates.  With ``workers <= 1`` this degrades to
    :func:`run_fleet`.
    """
    if workers <= 1 or len(specs) <= 1:
        return run_fleet(
            specs, duration=duration, transport=transport, sockets=sockets,
            batch=batch, stabilize_timeout=stabilize_timeout,
            use_uvloop=use_uvloop,
        )
    from concurrent.futures import ProcessPoolExecutor

    workers = min(workers, len(specs))
    shards: List[List[RingSpec]] = [[] for _ in range(workers)]
    for i, spec in enumerate(specs):
        shards[i % workers].append(spec)
    payloads = [
        json.dumps({
            "specs": [s.to_json() for s in shard],
            "duration": duration,
            "transport": transport,
            "sockets": sockets,
            "batch": batch,
            "stabilize_timeout": stabilize_timeout,
            "use_uvloop": use_uvloop,
        })
        for shard in shards
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        shard_reports = [
            json.loads(r) for r in pool.map(_shard_worker, payloads)
        ]
    merged_rings: Dict[str, dict] = {}
    merged_specs: List[dict] = []
    for report in shard_reports:
        merged_rings.update(report["ring_reports"])
        merged_specs.extend(report["specs"])
    wall = max((r["wall_clock"] for r in shard_reports), default=0.0)
    delivered = sum(r["delivered_total"] for r in shard_reports)
    return {
        "schema": FLEET_SCHEMA,
        "transport": transport,
        "loop": shard_reports[0]["loop"] if shard_reports else loop_name(),
        "rings": len(specs),
        "stabilized_rings": sum(
            r["stabilized_rings"] for r in shard_reports
        ),
        "wall_clock": wall,
        "delivered_total": delivered,
        "delivered_per_sec": delivered / wall if wall > 0 else 0.0,
        "workers": workers,
        "worker_pids": [r.get("worker_pid") for r in shard_reports],
        "mux": None,
        "specs": merged_specs,
        "ring_reports": merged_rings,
    }


def render_fleet_report(report: dict) -> List[str]:
    """Human-readable fleet summary lines."""
    lines = [
        f"fleet:      {report.get('rings')} rings over "
        f"{report.get('transport')} (loop={report.get('loop')})"
        + (f", {report.get('workers')} workers"
           if report.get("workers") else ""),
        f"stabilized: {report.get('stabilized_rings')}/{report.get('rings')}",
        f"throughput: {report.get('delivered_per_sec', 0.0):,.0f} msgs/sec "
        f"delivered ({report.get('delivered_total')} in "
        f"{report.get('wall_clock', 0.0):.2f}s)",
    ]
    for name, ring in sorted(report.get("ring_reports", {}).items()):
        health = ring.get("health", {})
        wire = ring.get("wire", {})
        line = (
            f"  {name}: {ring.get('algorithm')} n={ring.get('n')} "
            f"wire={wire.get('format')} "
            f"stabilized={health.get('stabilized')} "
            f"violations={len(health.get('guarantee_violations', []))}"
        )
        load = ring.get("load")
        if load:
            line += (
                f" load={load['served']}/{load['requests']} served "
                f"p99={load['wait_p99'] * 1000:.1f}ms "
                f"blocked_ticks={load['blocked_ticks']}"
            )
        lines.append(line)
    return lines


__all__ = [
    "FLEET_SCHEMA",
    "FleetSupervisor",
    "RingSpec",
    "default_specs",
    "fleet_id",
    "render_fleet_report",
    "run_fleet",
    "run_fleet_sharded",
]
