"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``list`` — list the registered experiments;
* ``run <id> [...]`` — run experiments and print their tables; each run
  is recorded as a row of ``runs/store.sqlite`` (what ran, phases,
  metrics) and writes a JSONL event trace to ``runs/<id>/trace.jsonl``
  (``--no-trace`` to skip the trace, ``--no-telemetry`` to skip both);
* ``report [-o PATH]`` — run everything and write EXPERIMENTS.md;
* ``stats <trace.jsonl>`` — replay a JSONL event trace and print its
  metrics summary;
* ``demo`` — a 30-second terminal demo: the inchworm trace (Figure 4) and a
  message-passing timeline strip chart (Figure 13);
* ``fuzz run|shrink|replay|seed-corpus`` — the conformance harness: seeded
  differential fuzz campaigns across the reference engine, fastpath kernels
  and the CST projection, witness minimization, and corpus replay
  (see ``docs/TESTING.md``);
* ``live run|chaos|status`` — one live ring; runs are recorded in the run
  store (``--no-store`` records nothing), and ``status`` reads it back;
* ``top`` — live terminal dashboard over an in-process ring fleet
  (curses, or ``--plain`` frames for pipes);
* ``fleet run|status`` — N concurrent rings multiplexed over a shared
  UDP socket pool (binary wire fastpath, optional worker-process
  sharding, optional load generation; see ``docs/RUNTIME.md``), recorded
  as one ``fleet`` row plus its ring rows;
* ``sweep run|resume|status|report`` — resumable phase-diagram sweeps
  (batched cells through the unified kernel layer; see
  ``docs/PERFORMANCE.md``);
* ``runs list|show|query`` — the persistent sqlite run store;
* ``slo report`` — paper-grounded service-level objectives graded against
  the store (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import list_experiments

    for eid in list_experiments():
        print(eid)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import os

    failures = 0
    for eid in args.ids:
        if args.no_telemetry:
            from repro.experiments import run_experiment

            result = run_experiment(eid, fast=args.fast)
        else:
            from repro.experiments.registry import run_experiment_instrumented

            result, trace_path = run_experiment_instrumented(
                eid, fast=args.fast, outdir=args.telemetry_dir,
                trace=not args.no_trace,
            )
        print(result.render())
        if not args.no_telemetry:
            store = os.path.join(args.telemetry_dir, "store.sqlite")
            print(f"telemetry: {store} (run {eid})"
                  + (f", {trace_path}" if trace_path else ""))
        print()
        if not result.match:
            failures += 1
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    text = generate_report(path=args.output, fast=args.fast, verbose=True,
                           workers=args.parallel,
                           telemetry_dir=args.telemetry_dir,
                           trace=args.trace,
                           live_progress=args.live_progress)
    if args.output:
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import TraceStats

    try:
        stats = TraceStats.from_file(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 1
    print(stats.render())
    return 0 if stats.seq_monotonic else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.ssrmin import SSRmin
    from repro.algorithms.dijkstra import DijkstraKState
    from repro.algorithms.dijkstra_four_state import DijkstraFourState
    from repro.verification import TransitionSystem, check_self_stabilization

    if args.algorithm == "ssrmin":
        alg = SSRmin(args.n, args.K, allow_small_k=True) \
            if args.K and args.K <= args.n else SSRmin(args.n, args.K)
    elif args.algorithm == "dijkstra":
        alg = DijkstraKState(args.n, args.K, allow_small_k=True) \
            if args.K and args.K <= args.n else DijkstraKState(args.n, args.K)
    elif args.algorithm == "four-state":
        alg = DijkstraFourState(args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.algorithm)

    ts = TransitionSystem(alg, daemon=args.daemon)
    print(
        f"exhaustively checking {args.algorithm} "
        f"(n={args.n}{f', K={alg.K}' if hasattr(alg, 'K') else ''}) "
        f"under the {args.daemon} daemon ..."
    )
    report = check_self_stabilization(ts)
    print(report.summary())
    return 0 if report.self_stabilizing else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.ssrmin import SSRmin
    from repro.experiments.runners_figures import _canonical_execution
    from repro.analysis.tracefmt import format_trace
    from repro.messagepassing.cst import transformed
    from repro.messagepassing.links import UniformDelay
    from repro.viz.ascii import render_timeline

    print("SSRmin inchworm on 5 processes (Figure 4):\n")
    alg = SSRmin(5, 6)
    result = _canonical_execution(alg, x=3, steps=15)
    print(format_trace(alg, result.execution))

    print("\nMessage-passing execution, own-view token holding (Figure 13):\n")
    net = transformed(alg, seed=13, delay_model=UniformDelay(0.5, 1.5))
    net.run(60.0)
    print(render_timeline(net.timeline, alg.n, columns=72))
    print(
        "\nEvery column has >= 1 holder: the graceful-handover guarantee "
        "(Theorem 3)."
    )
    return 0


def _live_common_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        algorithm=args.algorithm,
        n=args.n,
        K=args.K,
        transport=args.transport,
        seed=args.seed,
        timer_interval=args.timer_interval,
        initial=args.initial,
        stabilize_timeout=args.stabilize_timeout,
        wire=args.wire,
        use_uvloop=not args.no_uvloop,
    )


def _live_finish(report: dict) -> int:
    """Shared tail of `live run|chaos`: summary lines + exit code.

    The exit code reads the run's one verdict, ``health.ok`` — the value
    the run store records and ``live status`` reads back.
    """
    from repro.runtime import render_live_report

    for line in render_live_report(report):
        print(line)
    ok = bool(report.get("health", {}).get("ok"))
    print("result: " + ("HEALTHY" if ok else "UNHEALTHY"))
    return 0 if ok else 1


def _live_recorded(args: argparse.Namespace, run_id: str, go) -> int:
    """Run ``go()`` (-> the live report), recorded unless ``--no-store``.

    Recording installs a telemetry session with a
    :class:`~repro.observability.ingest.StoreSubscriber` (``detail=False``,
    so the engines keep their batched hot loop) writing the run as row
    ``run_id`` of the sqlite store at ``--store``.  With ``--no-store``
    no session is installed and nothing is written.
    """
    if args.no_store:
        return _live_finish(go())
    from repro.observability import RunStore, StoreSubscriber
    from repro.telemetry import telemetry_session

    with RunStore(args.store) as store, telemetry_session() as tel:
        subscriber = StoreSubscriber(
            store, run_id=run_id, session=tel, source="live"
        )
        tel.subscribe(subscriber, detail=False)
        try:
            report = go()
        finally:
            subscriber.close()
    print(f"run store: {args.store} (run {run_id})")
    return _live_finish(report)


def _cmd_live_run(args: argparse.Namespace) -> int:
    from repro.runtime import live_run

    if getattr(args, "rings", 1) > 1:
        # Multi-ring deployments are fleet deployments: same flags, but
        # the rings share a socket pool and report in aggregate.
        args.workers = 1
        args.sockets = 1
        args.fleet_transport = (
            "loopback" if args.transport == "loopback" else "mux-udp"
        )
        args.load_rate = 0.0
        args.script = None
        args.no_batch = args.transport != "udp-batch"
        return _cmd_fleet_run(args)

    run_id = f"live-run-{args.algorithm}-n{args.n}-seed{args.seed}"
    return _live_recorded(args, run_id, lambda: live_run(
        duration=args.duration, **_live_common_kwargs(args)))


def _cmd_live_chaos(args: argparse.Namespace) -> int:
    from repro.runtime import live_chaos

    run_id = (
        f"live-chaos-{args.script}-{args.algorithm}-n{args.n}-seed{args.seed}"
    )
    return _live_recorded(args, run_id, lambda: live_chaos(
        script=args.script, extra_duration=args.duration,
        **_live_common_kwargs(args)))


def _final_ttr(epochs) -> Optional[float]:
    """Time to (re)stabilize: the run's last epoch's ``time_to_stabilize``."""
    return epochs[-1].get("time_to_stabilize") if epochs else None


def _cmd_live_status(args: argparse.Namespace) -> int:
    import time

    from repro.observability import RingRow, recorded_ok, render_rows

    store = _open_store(args)
    if store is None:
        return 1

    def recorded():
        """``(row, epochs)`` of every `live run|chaos` row, by run id."""
        rows = [r for r in store.list_runs(kind="live")
                if r.get("source") == "live"]
        return [(r, store.epochs_for(r["id"]))
                for r in sorted(rows, key=lambda r: r["run_id"])]

    with store:
        if args.watch:
            # Same per-ring rows as ``repro top``, rebuilt from the store
            # every interval (shared renderer; see dashboard.py).
            frame = 0
            while True:
                rows = [RingRow.from_run(run["run_id"], run, epochs)
                        for run, epochs in recorded()]
                frame += 1
                print(f"live status — frame {frame} ({len(rows)} runs)")
                for line in render_rows(rows):
                    print(line)
                print()
                if args.iterations is not None and frame >= args.iterations:
                    return 0 if rows else 1
                time.sleep(args.interval)

        entries = recorded()
    if not entries:
        print(f"no live runs in {args.store}")
        return 1
    failures = 0
    for run, epochs in entries:
        ok = bool(recorded_ok(run))
        ttr = _final_ttr(epochs)
        print(
            f"{'ok' if ok else 'FAIL':4s} {run['run_id']}: "
            f"{run.get('algorithm')} n={run.get('n')} "
            f"transport={run.get('transport')}"
            + (f" restabilized in {ttr:.3f}s" if ttr is not None else "")
            + f" ({run.get('started_utc')})"
        )
        if not ok:
            failures += 1
    return 1 if failures else 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.runtime import (
        default_specs, fleet_id, render_fleet_report, run_fleet,
        run_fleet_sharded,
    )

    specs = default_specs(
        args.rings,
        algorithm=args.algorithm,
        n=args.n,
        K=args.K,
        wire=args.wire,
        seed=args.seed,
        timer_interval=args.timer_interval,
        script=args.script,
        load_rate=args.load_rate,
    )
    kwargs = dict(
        duration=args.duration,
        transport=getattr(args, "fleet_transport", None) or args.transport,
        sockets=args.sockets,
        batch=not args.no_batch,
        stabilize_timeout=args.stabilize_timeout,
        use_uvloop=not args.no_uvloop,
    )
    store_path = None if args.no_store else args.store
    if args.workers > 1:
        # Shard workers open no run store: concurrent sqlite writers
        # would serialize on the database lock and skew the fleet.
        report = run_fleet_sharded(specs, args.workers, **kwargs)
    else:
        report = run_fleet(specs, store_path=store_path, **kwargs)
    if store_path is not None:
        from repro.observability import RunStore, ingest_fleet_report

        run_id = fleet_id(specs)
        with RunStore(store_path) as store:
            # A sharded fleet's ring rows come from its merged report.
            ingest_fleet_report(store, run_id, report,
                                rings=args.workers > 1)
        print(f"run store: {store_path} "
              f"(run {run_id}, {args.rings} ring rows)")
    for line in render_fleet_report(report):
        print(line)
    ok = all(ring["health"].get("ok")
             for ring in report["ring_reports"].values())
    print("result: " + ("HEALTHY" if ok else "UNHEALTHY"))
    return 0 if ok else 1


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.observability import RingRow, recorded_ok, render_rows

    store = _open_store(args)
    if store is None:
        return 1
    with store:
        fleets = sorted(store.list_runs(kind="fleet"),
                        key=lambda r: r["run_id"])
        rings = sorted(store.list_runs(kind="live"),
                       key=lambda r: r["run_id"])
        if not fleets:
            print(f"no fleet runs in {args.store}")
            return 1
        failures = 0
        for fleet in fleets:
            report = fleet.get("extra") or {}
            ok = bool(recorded_ok(fleet))
            print(
                f"{'ok' if ok else 'FAIL':4s} {fleet['run_id']}: "
                f"{report.get('rings')} rings over {report.get('transport')} "
                f"(loop={report.get('loop')}) "
                f"{report.get('delivered_per_sec', 0.0):,.0f} msgs/sec"
            )
            prefix = fleet["run_id"] + "/"
            rows = [
                RingRow.from_run(ring["run_id"][len(prefix):], ring,
                                 store.epochs_for(ring["id"]))
                for ring in rings if ring["run_id"].startswith(prefix)
            ]
            for line in render_rows(rows):
                print("  " + line)
            if not ok:
                failures += 1
    return 1 if failures else 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.observability import (
        RunStore, ingest_fleet_report, top_curses, top_plain,
    )
    from repro.runtime import FleetSupervisor, RingSpec

    algorithms = (
        ["ssrmin", "dijkstra"] if args.algorithm == "both"
        else [args.algorithm]
    )
    specs = []
    for i in range(args.rings):
        alg = algorithms[i % len(algorithms)]
        specs.append(RingSpec(
            name=f"{alg}-{i}",
            algorithm=alg,
            n=args.n,
            K=args.K,
            seed=args.seed + i,
            wire="json",
            timer_interval=args.timer_interval,
            script=args.script,
        ))

    store = None if args.no_store else RunStore(args.store)
    try:
        fleet = FleetSupervisor(
            specs,
            transport="loopback" if args.transport == "loopback"
            else "mux-udp",
            store=store,
        )
        frontend = top_plain if args.plain or not sys.stdout.isatty() \
            else top_curses
        report = frontend(fleet, duration=args.duration, refresh=args.refresh)
        if store is not None:
            ingest_fleet_report(store, fleet.run_id, report)
    finally:
        if store is not None:
            store.close()
    if store is not None:
        print(f"run store: {args.store} "
              f"(run {fleet.run_id}, {args.rings} ring rows)")
    return 0 if fleet.ok else 1


def _open_store(args: argparse.Namespace, missing_ok: bool = False):
    import os

    from repro.observability import RunStore

    if not missing_ok and args.store != ":memory:" \
            and not os.path.exists(args.store):
        print(f"error: no run store at {args.store} "
              f"(record one with 'repro run <id>' or 'repro live run')",
              file=sys.stderr)
        return None
    return RunStore(args.store)


def _cmd_runs_list(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 1
    from repro.observability import recorded_ok

    with store:
        rows = store.list_runs(
            kind=args.kind, algorithm=args.algorithm, limit=args.limit)
        ttrs = [_final_ttr(store.epochs_for(row["id"])) for row in rows]
        counts = store.counts()
    for row, ttr in zip(rows, ttrs):
        ok = recorded_ok(row)
        status = "?" if ok is None else "ok" if ok else "FAIL"
        print(
            f"{status:4s} {row['run_id']}: {row.get('kind')} "
            f"{row.get('algorithm') or '?'} n={row.get('n') or '?'} "
            f"vac={row.get('vacancy_instants')} "
            f"viol={row.get('violations')}"
            + (f" ttr={ttr:.3f}s" if ttr is not None else "")
        )
    print(
        f"({counts['runs']} runs, {counts['epochs']} epochs, "
        f"{counts['disturbances']} disturbances, "
        f"{counts['incidents']} incidents, {counts['samples']} samples)"
    )
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    import json

    from repro.observability import render_incidents

    store = _open_store(args)
    if store is None:
        return 1
    with store:
        run = store.get_run(args.run_id)
        if run is None:
            print(f"error: no run {args.run_id!r} in {args.store}",
                  file=sys.stderr)
            return 1
        epochs = store.epochs_for(run["id"])
        disturbances = store.disturbances_for(run["id"])
        incidents = store.incidents(run["id"])
        samples = store.samples_for(run["id"])
    print(f"run {run['run_id']} [{run['kind']}]")
    for line in _record_lines(run):
        print(line)
    for key in ("algorithm", "n", "K", "transport", "seed", "source",
                "script", "started_utc", "wall_seconds", "stabilized",
                "vacancy_instants", "violations", "restarts"):
        value = run.get(key.lower())  # the runs column for K is `k`
        if value is not None:
            print(f"  {key}: {value}")
    print(f"epochs ({len(epochs)}):")
    for epoch in epochs:
        ttr = epoch.get("time_to_stabilize")
        print(
            f"  [{epoch['idx']}] {epoch['label']} ({epoch['class']}) "
            + (f"stabilized in {ttr:.3f}s" if ttr is not None
               else "NOT stabilized")
        )
    if disturbances:
        print(f"disturbances ({len(disturbances)}):")
        for d in disturbances:
            extra = f" {d['params']}" if d.get("params") else ""
            print(f"  @{d['at']:.3f}s {d['kind']} "
                  f"dur={d.get('duration') or 0.0:.2f}s{extra}")
    print(f"incidents ({len(incidents)}):")
    for line in render_incidents(incidents):
        print(line)
    if samples:
        print(f"metric samples ({len(samples)}):")
        for s in samples:
            print(f"  {s['name']} = {s['value']:g}")
    if args.json:
        print(json.dumps(
            {"run": run, "epochs": epochs, "disturbances": disturbances,
             "incidents": incidents, "samples": samples},
            indent=2, default=str))
    return 0


def _record_lines(run: dict) -> List[str]:
    """What ran, from the run record of an experiment or fuzz row."""
    extra = run.get("extra") or {}
    if not isinstance(extra, dict) or "command" not in extra:
        return []
    lines = [
        f"experiment: {run['run_id']}",
        f"command:    {extra.get('command')}",
        f"version:    repro {(extra.get('package') or {}).get('version')}",
        f"created:    {run.get('started_utc')}",
        f"wall time:  {run.get('wall_seconds') or 0.0:.2f}s",
    ]
    for phase in extra.get("phases", ()):
        lines.append(f"  phase {phase['label']}: {phase['seconds']:.3f}s")
    for desc in extra.get("runs", ()):
        rest = {k: v for k, v in desc.items()
                if k not in ("layer", "kind", "time")}
        lines.append(f"  {desc.get('layer')}/{desc.get('kind')}: {rest}")
    trace = extra.get("trace") or {}
    if trace.get("file"):
        suffix = (f" (TRUNCATED, {trace['dropped_events']} dropped)"
                  if trace.get("truncated") else "")
        lines.append(f"trace:      {trace['file']}{suffix}")
    return lines


def _cmd_runs_query(args: argparse.Namespace) -> int:
    import json

    store = _open_store(args)
    if store is None:
        return 1
    with store:
        import sqlite3

        try:
            rows = store.query(args.sql)
        except (ValueError, sqlite3.Error) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(rows, indent=2, default=str))
        return 0
    for row in rows:
        print("  ".join(f"{k}={v}" for k, v in row.items()))
    print(f"({len(rows)} row(s))")
    return 0


def _cmd_slo_report(args: argparse.Namespace) -> int:
    import json

    from repro.observability import (
        default_slos, evaluate_slos, load_slo_specs, render_slo_report,
    )

    store = _open_store(args)
    if store is None:
        return 1
    with store:
        specs = load_slo_specs(args.spec) if args.spec else default_slos()
        results = evaluate_slos(
            store, specs, open_incidents=args.open_incidents)
        lines = render_slo_report(store, results)
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        for line in lines:
            print(line)
    return 1 if any(not r.ok for r in results) else 0


def _cmd_chaos_campaign_run(args: argparse.Namespace) -> int:
    import json

    from repro.chaoslab import (
        CampaignSpec, load_campaign_spec, parse_fault_flag,
        render_campaign_report, run_campaign,
    )
    from repro.observability import RunStore

    if bool(args.spec) == bool(args.fault):
        print("error: give exactly one of --spec PATH or --fault TYPE[...]",
              file=sys.stderr)
        return 2
    try:
        if args.spec:
            spec = load_campaign_spec(args.spec)
        else:
            spec = CampaignSpec(
                name=args.name,
                faults=tuple(parse_fault_flag(f) for f in args.fault),
                seeds=tuple(int(s) for s in args.seeds.split(",")),
                algorithm=args.algorithm,
                n=args.n,
                K=args.K,
                transport=args.transport,
                wire=args.wire,
                timer_interval=args.timer_interval,
                budget=args.budget,
                settle=args.settle,
                error_budget=args.error_budget,
            )
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(index, result, done, total):
        verdict = "ok" if result.ok else "FAIL"
        ttr = result.time_to_restabilize
        print(f"  [{done}/{total}] {result.experiment.name}: "
              f"{result.status.value} {verdict}"
              + (f" ttr={ttr:.3f}s" if ttr is not None else ""))

    store = None if args.no_store else RunStore(args.store)
    try:
        print(f"campaign {spec.name}: {spec.cells} cell(s) "
              f"({len(spec.faults)} fault(s) x {len(spec.seeds)} seed(s)), "
              f"workers={args.workers}")
        report = run_campaign(
            spec, store=store, workers=args.workers, on_progress=progress,
        )
    finally:
        if store is not None:
            store.close()
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for line in render_campaign_report(report):
            print(line)
    if store is not None:
        print(f"run store: {args.store} (campaign {spec.name!r} recorded)")
    return 0 if report["ok"] else 1


def _cmd_chaos_campaign_status(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 1
    with store:
        rows = store.list_campaigns()
    if not rows:
        print("no campaigns recorded "
              "(run one with 'repro chaos campaign run')")
        return 0
    for row in rows:
        cells = row.get("cells") or 0
        done = row.get("completed")
        status = ("pending" if done is None
                  else "completed" if (done + (row.get("aborted") or 0))
                  >= cells else "partial")
        print(
            f"{row['name']}: {status} "
            f"cells={cells} completed={row.get('completed')} "
            f"aborted={row.get('aborted')} breaches={row.get('breaches')}"
            + (f" wall={row['wall_seconds']:.1f}s"
               if row.get("wall_seconds") is not None else "")
            + (f" started={row['started_utc']}"
               if row.get("started_utc") else "")
        )
    return 0


def _cmd_chaos_campaign_report(args: argparse.Namespace) -> int:
    import json

    from repro.chaoslab import build_campaign_report, render_campaign_report

    store = _open_store(args)
    if store is None:
        return 1
    with store:
        try:
            report = build_campaign_report(store, args.name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        for line in render_campaign_report(report):
            print(line)
    return 0 if report["ok"] else 1


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.verification.conformance import run_fuzz_campaign

    kwargs = dict(
        seed=args.seed,
        trials=args.trials,
        time_budget=args.time_budget,
        algorithms=tuple(args.algorithms),
        ns=tuple(args.ns),
        daemon_families=tuple(args.daemons),
        fault_ops=args.fault_ops,
        use_cst=not args.no_cst,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        max_divergences=args.max_divergences,
    )
    if args.trials is None and args.time_budget is None:
        kwargs["time_budget"] = 30.0

    if args.no_telemetry:
        result = run_fuzz_campaign(**kwargs)
    else:
        from repro.observability import RunStore, ingest_manifest
        from repro.telemetry import build_manifest, telemetry_session

        run_id = f"fuzz-seed{args.seed}"
        trace_path = os.path.join(args.telemetry_dir, run_id, "trace.jsonl")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        with telemetry_session(trace_path=trace_path) as tel:
            result = run_fuzz_campaign(**kwargs)
        manifest = build_manifest(
            tel,
            experiment_id=run_id,
            command=f"repro fuzz run --seed {args.seed}",
            trace_file=trace_path,
            extra={"campaign": result.to_json()},
        )
        store_path = os.path.join(args.telemetry_dir, "store.sqlite")
        with RunStore(store_path) as store:
            ingest_manifest(store, manifest, source="fuzz")
        print(f"telemetry: {store_path} (run {run_id}), {trace_path}")

    print(result.summary())
    for rec in result.divergences:
        print(f"  trial {rec.trial} [{rec.scenario.algorithm}/"
              f"{rec.scenario.daemon_family}]: "
              f"{rec.divergence['kind']} at step {rec.divergence['step']}")
        if rec.path:
            print(f"    shrunk witness: {rec.path}")
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    return 0 if result.ok else 1


def _cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    from repro.verification.conformance import Witness, shrink_witness

    witness = Witness.load(args.witness)
    try:
        shrunk, stats = shrink_witness(
            witness, max_replays=args.max_replays, use_cst=not args.no_cst
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.output or args.witness
    shrunk.save(out)
    print(stats.summary())
    print(f"wrote {out}")
    return 0


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.verification.conformance import (
        corpus_files, replay_witness_file,
    )
    import os

    paths = []
    for target in args.paths:
        if os.path.isdir(target):
            paths.extend(corpus_files(target))
        else:
            paths.append(target)
    if not paths:
        print("no witness files to replay", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        outcome = replay_witness_file(path, use_cst=not args.no_cst)
        status = "ok" if outcome.ok else "FAIL"
        print(f"{status:4s} {path}: {outcome.message}")
        if not outcome.ok:
            failures += 1
    return 1 if failures else 0


def _cmd_fuzz_seed_corpus(args: argparse.Namespace) -> int:
    from repro.verification.conformance import seed_corpus

    paths = seed_corpus(args.directory, verify=not args.no_verify)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _parse_int_list(text: str) -> tuple:
    """Parse "8,16,32" or "0:8" (half-open range) into a tuple of ints."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            lo, hi = part.split(":", 1)
            out.extend(range(int(lo), int(hi)))
        elif part:
            out.append(int(part))
    return tuple(out)


def _parse_float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _timer_interval(text: str) -> float:
    """``--timer-interval`` of a live ring: finite, positive seconds."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text}")
    return value


def _sweep_spec_from_args(args: argparse.Namespace):
    import json

    from repro.sweeps import SweepSpec

    if args.spec:
        with open(args.spec) as fh:
            data = json.load(fh)
        if args.name:
            data["name"] = args.name
        return SweepSpec.from_json(data)
    if not args.name:
        raise ValueError("give --name (or --spec PATH)")
    kwargs = dict(
        name=args.name,
        kind=args.kind,
        algorithm=args.algorithm,
        n_values=_parse_int_list(args.n_values),
        seeds=_parse_int_list(args.seeds),
        max_steps=args.max_steps,
    )
    if args.daemons is not None:
        kwargs["daemons"] = tuple(
            d.strip() for d in args.daemons.split(",") if d.strip())
    if args.loss_rates is not None:
        kwargs["loss_rates"] = _parse_float_list(args.loss_rates)
    if args.delay_scales is not None:
        kwargs["delay_scales"] = _parse_float_list(args.delay_scales)
    if args.duplication_rates is not None:
        kwargs["duplication_rates"] = _parse_float_list(
            args.duplication_rates)
    return SweepSpec(**kwargs)


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    import json

    from repro.sweeps import run_sweep

    try:
        spec = _sweep_spec_from_args(args)
        summary = run_sweep(
            spec,
            base_dir=args.dir,
            run_store=args.store,
            resume=args.resume,
            fresh=args.fresh,
            workers=args.workers,
            throttle=args.throttle,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"sweep {summary['name']}: {summary['completed']}/"
            f"{summary['cells']} cells ({summary['ran']} ran, "
            f"{summary['skipped']} resumed) via {summary['mode']} in "
            f"{summary['wall_seconds']:.2f}s"
            + (f" ({summary['cells_per_sec']:.1f} cells/s)"
               if summary["cells_per_sec"] else "")
        )
        print(f"checkpoints: {summary['directory']}")
    return 0 if summary["status"] == "completed" else 1


def _cmd_sweep_resume(args: argparse.Namespace) -> int:
    import json

    from repro.sweeps import resume_sweep

    try:
        summary = resume_sweep(
            args.name,
            base_dir=args.dir,
            run_store=args.store,
            workers=args.workers,
            throttle=args.throttle,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"sweep {summary['name']}: {summary['completed']}/"
            f"{summary['cells']} cells ({summary['ran']} ran, "
            f"{summary['skipped']} already done) in "
            f"{summary['wall_seconds']:.2f}s"
        )
    return 0 if summary["status"] == "completed" else 1


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from repro.sweeps import render_status

    store = _open_store(args)
    if store is None:
        return 1
    with store:
        try:
            print(render_status(store, args.name))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    from repro.sweeps import build_sweep_report, render_report
    from repro.sweeps.report import report_to_json

    store = _open_store(args)
    if store is None:
        return 1
    with store:
        try:
            report = build_sweep_report(store, args.name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(report_to_json(report))
    else:
        print(render_report(report))
    return 0


def _store_args(p: argparse.ArgumentParser, toggle: bool = True) -> None:
    """Attach ``--store`` (and for recorders ``--no-store``) to a parser."""
    from repro.observability.store import DEFAULT_STORE_PATH

    p.add_argument("--store", default=DEFAULT_STORE_PATH, metavar="PATH",
                   help="sqlite run store (default: %(default)s)")
    if toggle:
        p.add_argument("--no-store", action="store_true",
                       help="skip recording this run into the store")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSRmin reproduction: experiments, reports and demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiment ids")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run experiments by id")
    p_run.add_argument("ids", nargs="+", help="experiment ids (see 'list')")
    p_run.add_argument("--fast", action="store_true", help="reduced trial counts")
    p_run.add_argument("--telemetry-dir", default="runs", metavar="DIR",
                       help="where the run store and traces land "
                            "(default runs/)")
    p_run.add_argument("--no-telemetry", action="store_true",
                       help="record nothing: no store row, no trace")
    p_run.add_argument("--no-trace", action="store_true",
                       help="record the store row but not the JSONL trace")
    p_run.set_defaults(fn=_cmd_run)

    p_report = sub.add_parser("report", help="run everything, write EXPERIMENTS.md")
    p_report.add_argument("-o", "--output", default=None, help="output path")
    p_report.add_argument("--fast", action="store_true", help="reduced trial counts")
    p_report.add_argument("--parallel", type=int, default=1, metavar="N",
                          help="worker processes (default 1)")
    p_report.add_argument("--telemetry-dir", default=None, metavar="DIR",
                          help="also record each experiment in "
                               "DIR/store.sqlite")
    p_report.add_argument("--trace", action="store_true",
                          help="with --telemetry-dir: also write JSONL traces")
    p_report.add_argument("--live-progress", action="store_true",
                          help="stream steps/sec + token census per experiment")
    p_report.set_defaults(fn=_cmd_report)

    p_stats = sub.add_parser(
        "stats", help="replay a JSONL trace and print metrics"
    )
    p_stats.add_argument("trace", help="path to a trace.jsonl")
    p_stats.set_defaults(fn=_cmd_stats)

    p_demo = sub.add_parser("demo", help="terminal demo (trace + timeline)")
    p_demo.set_defaults(fn=_cmd_demo)

    p_verify = sub.add_parser(
        "verify", help="exhaustively model-check a small instance"
    )
    p_verify.add_argument(
        "algorithm", choices=["ssrmin", "dijkstra", "four-state"]
    )
    p_verify.add_argument("-n", type=int, default=3, help="ring size")
    p_verify.add_argument("-K", type=int, default=None,
                          help="counter modulus (ssrmin/dijkstra)")
    p_verify.add_argument("--daemon", choices=["central", "distributed"],
                          default="distributed")
    p_verify.set_defaults(fn=_cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz", help="conformance harness: fuzz, shrink, replay, seed-corpus"
    )
    fuzz_sub = p_fuzz.add_subparsers(dest="fuzz_command", required=True)

    pf_run = fuzz_sub.add_parser(
        "run", help="run a seeded differential fuzz campaign"
    )
    pf_run.add_argument("--seed", type=int, default=0)
    pf_run.add_argument("--trials", type=int, default=None,
                        help="exact trial count (fully deterministic)")
    pf_run.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock bound (default 30s if no --trials)")
    pf_run.add_argument("--algorithms", nargs="+",
                        default=["ssrmin", "dijkstra"],
                        choices=["ssrmin", "dijkstra"])
    pf_run.add_argument("--ns", nargs="+", type=int,
                        default=[3, 4, 5, 6, 7, 8], metavar="N",
                        help="ring sizes to draw from")
    pf_run.add_argument("--daemons", nargs="+",
                        default=["central", "distributed", "adversarial",
                                 "weighted"],
                        choices=["central", "distributed", "adversarial",
                                 "weighted"])
    pf_run.add_argument("--fault-ops", type=int, default=4,
                        help="max fault-script ops per trial")
    pf_run.add_argument("--no-cst", action="store_true",
                        help="skip the CST projection leg")
    pf_run.add_argument("--no-shrink", action="store_true",
                        help="keep failing witnesses unminimized")
    pf_run.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="write shrunk failing witnesses here")
    pf_run.add_argument("--max-divergences", type=int, default=5)
    pf_run.add_argument("--telemetry-dir", default="runs", metavar="DIR")
    pf_run.add_argument("--no-telemetry", action="store_true")
    pf_run.add_argument("--json", action="store_true",
                        help="also print the JSON campaign summary")
    pf_run.set_defaults(fn=_cmd_fuzz_run)

    pf_shrink = fuzz_sub.add_parser(
        "shrink", help="minimize a failing witness file"
    )
    pf_shrink.add_argument("witness", help="path to a witness .jsonl")
    pf_shrink.add_argument("-o", "--output", default=None,
                           help="output path (default: overwrite input)")
    pf_shrink.add_argument("--max-replays", type=int, default=250)
    pf_shrink.add_argument("--no-cst", action="store_true")
    pf_shrink.set_defaults(fn=_cmd_fuzz_shrink)

    pf_replay = fuzz_sub.add_parser(
        "replay", help="replay witness files / corpus directories"
    )
    pf_replay.add_argument("paths", nargs="+",
                           help="witness .jsonl files or directories")
    pf_replay.add_argument("--no-cst", action="store_true")
    pf_replay.set_defaults(fn=_cmd_fuzz_replay)

    pf_seed = fuzz_sub.add_parser(
        "seed-corpus", help="regenerate the checked-in replay corpus"
    )
    pf_seed.add_argument("directory", nargs="?", default="tests/corpus")
    pf_seed.add_argument("--no-verify", action="store_true")
    pf_seed.set_defaults(fn=_cmd_fuzz_seed_corpus)

    p_sweep = sub.add_parser(
        "sweep", help="resumable phase-diagram sweeps over the kernel layer"
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    def _sweep_exec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dir", default="runs", metavar="DIR",
                       help="checkpoint root (default: %(default)s)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for DES cells (default 1)")
        p.add_argument("--throttle", type=float, default=0.0,
                       metavar="SECONDS",
                       help="pause after each cell (pacing knob for "
                            "kill/resume drills)")
        p.add_argument("--json", action="store_true")
        _store_args(p, toggle=False)

    psw_run = sweep_sub.add_parser(
        "run", help="run a phase-diagram grid, checkpointing every cell"
    )
    psw_run.add_argument("--name", default=None, help="sweep name")
    psw_run.add_argument("--spec", default=None, metavar="PATH",
                         help="JSON SweepSpec file (flags override --name)")
    psw_run.add_argument("--kind", choices=["convergence", "des"],
                         default="convergence")
    psw_run.add_argument("--algorithm", choices=["ssrmin", "dijkstra"],
                         default="ssrmin")
    psw_run.add_argument("--n-values", default="8", metavar="N1,N2|LO:HI",
                         help="ring sizes (default %(default)s)")
    psw_run.add_argument("--seeds", default="0:8", metavar="S1,S2|LO:HI",
                         help="seed axis (default %(default)s)")
    psw_run.add_argument("--daemons", default=None,
                         metavar="D1,D2",
                         help="daemon families (convergence): synchronous, "
                              "central, bernoulli:<p>")
    psw_run.add_argument("--loss-rates", default=None, metavar="P1,P2",
                         help="message-loss axis (des)")
    psw_run.add_argument("--delay-scales", default=None, metavar="S1,S2",
                         help="link-delay scale axis (des)")
    psw_run.add_argument("--duplication-rates", default=None,
                         metavar="P1,P2",
                         help="message-duplication axis (des)")
    psw_run.add_argument("--max-steps", type=int, default=0,
                         help="convergence budget override "
                              "(0 = 60n^2+600)")
    psw_run.add_argument("--resume", action="store_true",
                         help="keep checkpointed cells, run the rest")
    psw_run.add_argument("--fresh", action="store_true",
                         help="discard checkpointed cells and restart")
    _sweep_exec_args(psw_run)
    psw_run.set_defaults(fn=_cmd_sweep_run)

    psw_resume = sweep_sub.add_parser(
        "resume", help="resume a named sweep (only missing cells run)"
    )
    psw_resume.add_argument("name", help="sweep name")
    _sweep_exec_args(psw_resume)
    psw_resume.set_defaults(fn=_cmd_sweep_resume)

    psw_status = sweep_sub.add_parser(
        "status", help="cells-completed progress per recorded sweep"
    )
    psw_status.add_argument("name", nargs="?", default=None)
    _store_args(psw_status, toggle=False)
    psw_status.set_defaults(fn=_cmd_sweep_status)

    psw_report = sweep_sub.add_parser(
        "report", help="store-derived per-coordinate stats + scaling fit"
    )
    psw_report.add_argument("name", help="sweep name")
    psw_report.add_argument("--json", action="store_true")
    _store_args(psw_report, toggle=False)
    psw_report.set_defaults(fn=_cmd_sweep_report)

    p_live = sub.add_parser(
        "live", help="live asyncio ring deployment: run, chaos, status"
    )
    live_sub = p_live.add_subparsers(dest="live_command", required=True)

    def _live_common_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algorithm", choices=["ssrmin", "dijkstra"],
                       default="ssrmin")
        p.add_argument("--n", type=int, default=5, help="ring size")
        p.add_argument("--K", type=int, default=None,
                       help="counter modulus (default: algorithm minimum)")
        p.add_argument("--transport",
                       choices=["loopback", "udp", "udp-batch"],
                       default="loopback",
                       help="udp-batch coalesces outbound datagrams "
                            "(the fleet fastpath)")
        p.add_argument("--wire", choices=["json", "binary"], default="json",
                       help="wire format: versioned JSON or the packed "
                            "binary fastpath (default json)")
        p.add_argument("--no-uvloop", action="store_true",
                       help="stay on the stdlib event loop even when "
                            "uvloop is installed")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--timer-interval", type=_timer_interval, default=0.1,
                       metavar="SECONDS",
                       help="CST retransmission timer period (default 0.1)")
        p.add_argument("--initial", choices=["legitimate", "random"],
                       default="legitimate",
                       help="boot from a legitimate or arbitrary configuration")
        p.add_argument("--stabilize-timeout", type=float, default=10.0,
                       metavar="SECONDS")
        p.add_argument("--duration", type=float, default=2.0,
                       metavar="SECONDS",
                       help="steady-state run time after stabilization")
        _store_args(p)

    pl_run = live_sub.add_parser(
        "run", help="boot a live ring, stabilize, circulate, drain"
    )
    _live_common_args(pl_run)
    pl_run.add_argument("--rings", type=int, default=1,
                        help="deploy this many rings; >1 delegates to the "
                             "fleet layer (shared sockets, ring i uses "
                             "seed+i)")
    pl_run.set_defaults(fn=_cmd_live_run)

    pl_chaos = live_sub.add_parser(
        "chaos", help="run a scripted fault campaign against a live ring"
    )
    _live_common_args(pl_chaos)
    from repro.runtime.chaos import PRESETS

    pl_chaos.add_argument("--script", choices=sorted(PRESETS),
                          default="loss_burst")
    pl_chaos.set_defaults(fn=_cmd_live_chaos, n=8, transport="udp",
                          duration=0.0)

    pl_status = live_sub.add_parser(
        "status", help="summarize the live runs recorded in the run store"
    )
    pl_status.add_argument("--watch", action="store_true",
                           help="redraw dashboard rows (same renderer as "
                                "'repro top') every --interval seconds")
    pl_status.add_argument("--interval", type=float, default=2.0,
                           metavar="SECONDS")
    pl_status.add_argument("--iterations", type=int, default=None,
                           metavar="N",
                           help="with --watch: stop after N frames "
                                "(default: run until interrupted)")
    _store_args(pl_status, toggle=False)
    pl_status.set_defaults(fn=_cmd_live_status)

    p_fleet = sub.add_parser(
        "fleet", help="many concurrent rings over shared sockets: run, status"
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    pfl_run = fleet_sub.add_parser(
        "run", help="deploy N rings over a shared UDP socket pool"
    )
    pfl_run.add_argument("--rings", type=int, default=4,
                         help="fleet size (ring i uses seed+i)")
    pfl_run.add_argument("--algorithm", choices=["ssrmin", "dijkstra"],
                         default="ssrmin")
    pfl_run.add_argument("--n", type=int, default=5, help="ring size")
    pfl_run.add_argument("--K", type=int, default=None,
                         help="counter modulus (default: algorithm minimum)")
    pfl_run.add_argument("--wire", choices=["json", "binary"],
                         default="binary",
                         help="wire format (fleet default: binary fastpath)")
    pfl_run.add_argument("--transport", choices=["mux-udp", "loopback"],
                         default="mux-udp",
                         help="shared-socket mux, or private in-process "
                              "loopbacks (no sockets)")
    pfl_run.add_argument("--workers", type=int, default=1,
                         help=">1 shards whole rings across worker "
                              "processes (the parent records their rows)")
    pfl_run.add_argument("--sockets", type=int, default=1,
                         help="shared UDP socket pool size per process")
    pfl_run.add_argument("--duration", type=float, default=2.0,
                         metavar="SECONDS",
                         help="steady-state run time after stabilization")
    pfl_run.add_argument("--script", choices=sorted(PRESETS),
                         default=None,
                         help="play this chaos script against every ring")
    pfl_run.add_argument("--load-rate", type=float, default=0.0,
                         metavar="REQ_PER_SEC",
                         help="open-loop critical-section demand per ring "
                              "(0 = none)")
    pfl_run.add_argument("--seed", type=int, default=0,
                         help="base seed (ring i uses seed+i)")
    pfl_run.add_argument("--timer-interval", type=_timer_interval,
                         default=0.1, metavar="SECONDS")
    pfl_run.add_argument("--stabilize-timeout", type=float, default=10.0,
                         metavar="SECONDS")
    pfl_run.add_argument("--no-uvloop", action="store_true",
                         help="stay on the stdlib event loop even when "
                              "uvloop is installed")
    pfl_run.add_argument("--no-batch", action="store_true",
                         help="send one datagram per message (disable "
                              "send-side coalescing)")
    _store_args(pfl_run)
    pfl_run.set_defaults(fn=_cmd_fleet_run)

    pfl_status = fleet_sub.add_parser(
        "status", help="summarize the fleets recorded in the run store"
    )
    _store_args(pfl_status, toggle=False)
    pfl_status.set_defaults(fn=_cmd_fleet_status)

    p_top = sub.add_parser(
        "top", help="live terminal dashboard over an in-process ring fleet"
    )
    p_top.add_argument("--rings", type=int, default=2,
                       help="fleet size (default 2: one ring per algorithm)")
    p_top.add_argument("--algorithm", choices=["ssrmin", "dijkstra", "both"],
                       default="both",
                       help="'both' alternates SSRmin/Dijkstra rings, the "
                            "paper's graceful-vs-non-graceful contrast")
    p_top.add_argument("--n", type=int, default=5, help="ring size")
    p_top.add_argument("--K", type=int, default=None)
    p_top.add_argument("--seed", type=int, default=0,
                       help="base seed (ring i uses seed+i)")
    p_top.add_argument("--transport", choices=["loopback", "udp"],
                       default="loopback")
    p_top.add_argument("--timer-interval", type=_timer_interval,
                       default=0.1, metavar="SECONDS")
    p_top.add_argument("--script", choices=sorted(PRESETS),
                       default=None,
                       help="play this chaos script against every ring")
    p_top.add_argument("--duration", type=float, default=10.0,
                       metavar="SECONDS", help="0 = run until q/interrupt")
    p_top.add_argument("--refresh", type=float, default=0.5,
                       metavar="SECONDS", help="dashboard redraw period")
    p_top.add_argument("--plain", action="store_true",
                       help="print frames instead of the curses screen")
    _store_args(p_top)
    p_top.set_defaults(fn=_cmd_top)

    p_runs = sub.add_parser(
        "runs", help="the persistent run store: list, show, query"
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    pr_list = runs_sub.add_parser("list", help="list recorded runs")
    pr_list.add_argument("--kind", default=None,
                         choices=["live", "experiment", "fleet", "chaos-cell"])
    pr_list.add_argument("--algorithm", default=None,
                         help="substring filter, e.g. ssrmin")
    pr_list.add_argument("--limit", type=int, default=None)
    _store_args(pr_list, toggle=False)
    pr_list.set_defaults(fn=_cmd_runs_list)

    pr_show = runs_sub.add_parser(
        "show", help="one run's epochs, disturbances, incidents, samples"
    )
    pr_show.add_argument("run_id")
    pr_show.add_argument("--json", action="store_true")
    _store_args(pr_show, toggle=False)
    pr_show.set_defaults(fn=_cmd_runs_show)

    pr_query = runs_sub.add_parser(
        "query", help="run one read-only SELECT against the store"
    )
    pr_query.add_argument("sql", help="a single SELECT/WITH statement")
    pr_query.add_argument("--json", action="store_true")
    _store_args(pr_query, toggle=False)
    pr_query.set_defaults(fn=_cmd_runs_query)

    p_slo = sub.add_parser(
        "slo", help="service-level objectives graded against the run store"
    )
    slo_sub = p_slo.add_subparsers(dest="slo_command", required=True)

    ps_report = slo_sub.add_parser(
        "report", help="grade SLOs; non-zero exit when a budget is burned"
    )
    ps_report.add_argument("--spec", default=None, metavar="PATH",
                           help="JSON SLO spec list (default: the built-in "
                                "paper-grounded objectives)")
    ps_report.add_argument("--open-incidents", action="store_true",
                           help="record burned budgets as slo-burn incidents")
    ps_report.add_argument("--json", action="store_true")
    _store_args(ps_report, toggle=False)
    ps_report.set_defaults(fn=_cmd_slo_report)

    p_chaos = sub.add_parser(
        "chaos", help="declarative chaos campaigns against live rings"
    )
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)
    p_campaign = chaos_sub.add_parser(
        "campaign", help="fault-grid campaigns: run, status, report"
    )
    campaign_sub = p_campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    pc_run = campaign_sub.add_parser(
        "run",
        help="run a seeds x faults grid; non-zero exit when the error "
             "budget is exceeded",
    )
    pc_run.add_argument("--spec", default=None, metavar="PATH",
                        help="campaign spec file (JSON; YAML when PyYAML "
                             "is installed)")
    pc_run.add_argument("--fault", action="append", default=[],
                        metavar="TYPE[:SEV[:DUR]]",
                        help="typed fault for the grid (repeatable); e.g. "
                             "loss:0.6, partition, node-crash, wedge, "
                             "cache-corruption")
    pc_run.add_argument("--name", default="campaign",
                        help="campaign name (default %(default)s)")
    pc_run.add_argument("--algorithm", choices=["ssrmin", "dijkstra"],
                        default="ssrmin")
    pc_run.add_argument("-n", "--n", type=int, default=6, help="ring size")
    pc_run.add_argument("-K", type=int, default=None, help="counter modulus")
    pc_run.add_argument("--seeds", default="0", metavar="S1,S2,...",
                        help="comma-separated seeds (default %(default)s)")
    pc_run.add_argument("--budget", type=float, default=10.0,
                        help="re-stabilization budget per cell, seconds "
                             "(default %(default)s)")
    pc_run.add_argument("--error-budget", type=float, default=0.0,
                        help="fraction of cells allowed to fail "
                             "(default %(default)s)")
    pc_run.add_argument("--settle", type=float, default=1.0,
                        help="calm run-on after the last fault "
                             "(default %(default)ss)")
    pc_run.add_argument("--timer-interval", type=float, default=0.05)
    pc_run.add_argument("--transport", choices=["loopback", "udp"],
                        default="loopback")
    pc_run.add_argument("--wire", choices=["json", "binary"], default="json")
    pc_run.add_argument("--workers", type=int, default=1,
                        help="parallel cell processes (default 1)")
    pc_run.add_argument("--json", action="store_true")
    _store_args(pc_run)
    pc_run.set_defaults(fn=_cmd_chaos_campaign_run)

    pc_status = campaign_sub.add_parser(
        "status", help="list recorded campaigns"
    )
    _store_args(pc_status, toggle=False)
    pc_status.set_defaults(fn=_cmd_chaos_campaign_status)

    pc_report = campaign_sub.add_parser(
        "report", help="re-derive a campaign report from the run store"
    )
    pc_report.add_argument("name", help="campaign name")
    pc_report.add_argument("--json", action="store_true")
    _store_args(pc_report, toggle=False)
    pc_report.set_defaults(fn=_cmd_chaos_campaign_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
