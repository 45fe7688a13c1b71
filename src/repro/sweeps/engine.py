"""The sweep scheduler: batched-cell and per-cell execution with resume.

:func:`run_sweep` drives one :class:`~repro.sweeps.spec.SweepSpec` to
completion:

1. open the :class:`~repro.sweeps.store.SweepStore` (create / resume /
   fresh), reconcile already-checkpointed cells, and enumerate the
   *missing* ones;
2. execute the missing cells —

   * **batched-cell mode**: convergence cells partition into homogeneous
     groups (same ``n`` and daemon; only seeds differ) and each group
     advances in lockstep through the vectorized kernel backend
     (:func:`repro.kernels.batched.run_convergence_cells`), amortizing
     per-cell task setup into one numpy pipeline.  Counter-based per-cell
     randomness makes the results identical to running each cell alone —
     ``tests/sweeps/test_engine.py`` asserts this cell-by-cell.  Under a
     telemetry session each kernel group publishes one ``engine/run_start``
     (``engine="batched"``), its ``steps_total`` and one
     ``convergence_steps`` observation per converged cell;
   * **per-cell mode**: one task per cell through
     :func:`repro.experiments.parallel.run_tasks_parallel` (the
     pre-kernel-layer execution shape; DES cells always run this way);

3. checkpoint every completed cell the moment it finishes (a flushed
   JSONL line; its sqlite index row is committed with the next
   :data:`~repro.sweeps.store.GROUP_CHUNK` rows or at the end of the
   pass), and stream one ``("sweep", "sweep_progress")`` telemetry event
   per cell into the ambient session.

A killed run (SIGTERM mid-grid) therefore loses nothing but in-flight
cells: the next open re-indexes any checkpointed cell whose row had not
been committed, ``resume`` re-runs exactly the missing set and, because
cells are pure functions of their parameters, lands bit-identical results.

:func:`run_cells` is the store-free form of step 2: it runs a whole grid
the same way and returns the results in grid order (``run_thm4`` uses it).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.observability.store import RunStore
from repro.sweeps.spec import CellSpec, SweepSpec
from repro.sweeps.store import GROUP_CHUNK, SweepStore

#: Execution modes: ``auto`` batches whatever is batchable.
MODES = ("auto", "batched", "per-cell")


def _convergence_cell_worker(payload: tuple) -> Dict[str, Any]:
    """One convergence cell as an isolated task (module-level, picklable).

    Calls the same counter-based kernel backend as batched mode with a
    single-seed group — the construction that guarantees batched results
    match per-cell results bitwise.
    """
    n, daemon, seed, max_steps = payload
    from repro.kernels.batched import run_convergence_cells

    return run_convergence_cells(
        n, [seed], daemon, budget=max_steps or None,
    )[0]


def _des_cell_worker(payload: tuple) -> Dict[str, Any]:
    """One DES chaos-to-stabilized cell (module-level, picklable)."""
    (algorithm, n, loss, delay_scale, duplication, seed,
     slice_duration, max_time, gap_duration) = payload
    from repro.algorithms import build_algorithm
    from repro.messagepassing.coherence import CoherenceTracker
    from repro.messagepassing.cst import transformed_from_chaos
    from repro.messagepassing.links import UniformDelay
    from repro.messagepassing.modelgap import evaluate_gap

    alg = build_algorithm(algorithm, n)
    net = transformed_from_chaos(
        alg,
        seed=seed,
        loss_probability=loss,
        duplicate_probability=duplication,
        delay_model=UniformDelay(0.5 * delay_scale, 1.5 * delay_scale),
    )
    tracker = CoherenceTracker(net)
    stabilized = tracker.run_until_stabilized(
        slice_duration=slice_duration, max_time=max_time,
    )
    report = evaluate_gap(net, duration=gap_duration, warmup=net.queue.now)
    return {
        "stabilized_at": stabilized,
        "min_tokens": report.min_count,
        "max_tokens": report.max_count,
        "zero_time": report.zero_time,
        "events": net.queue.executed,
    }


def _timed(job: tuple) -> Tuple[Dict[str, Any], float]:
    """Run ``worker(payload)`` where it is scheduled; ``(result, seconds)``.

    Module-level so it pickles into pool workers; the clock covers only
    the cell itself, never the parent's recording or throttle sleep.
    """
    worker, payload = job
    t0 = time.perf_counter()
    result = worker(payload)
    return result, time.perf_counter() - t0


def _publish_progress(
    session: Any, name: str, done: int, total: int,
    cell: Optional[CellSpec], engine: str,
) -> None:
    if session is None:
        return
    fields: Dict[str, Any] = {
        "name": name, "total": total, "engine": engine,
    }
    if cell is not None:
        fields["cell_index"] = cell.index
        fields["cell_key"] = cell.key
    session.bus.publish("sweep", "sweep_progress", float(done), **fields)


def _publish_group(
    session: Any, daemon: str, results: Sequence[Dict[str, Any]]
) -> None:
    """A batched group's steps and convergence times, under the names the
    scalar engine uses (``steps_total``, ``convergence_steps``)."""
    histogram = session.registry.histogram(
        "convergence_steps", "steps until first legitimacy")
    taken = 0
    for result in results:
        if result["converged"]:
            taken += result["steps"]
            histogram.observe(float(result["steps"]), engine="batched")
        else:
            taken += result["budget"]
    session.registry.counter(
        "steps_total", "engine transitions taken").inc(taken, daemon=daemon)


def _batch_groups(
    cells: Sequence[CellSpec],
) -> List[Tuple[Tuple[int, str], List[CellSpec]]]:
    """Partition convergence cells into homogeneous (n, daemon) groups."""
    groups: Dict[Tuple[int, str], List[CellSpec]] = {}
    for cell in cells:
        key = (int(cell.params["n"]), str(cell.params["daemon"]))
        groups.setdefault(key, []).append(cell)
    return sorted(groups.items())


def _execute(
    spec: SweepSpec,
    cells: Sequence[CellSpec],
    batched: bool,
    workers: int,
    on_cell: Callable[[CellSpec, Dict[str, Any], str, float], None],
) -> None:
    """Run ``cells`` of ``spec``; ``on_cell(cell, result, engine, wall)``
    fires in the parent as each one finishes.

    Batched mode advances homogeneous convergence groups in lockstep
    through the kernel backend; per-cell mode runs one task per cell
    through :func:`~repro.experiments.parallel.run_tasks_parallel`.  Both
    import their callees here, at call time, so a patched module
    attribute reaches them.
    """
    if batched:
        from repro.kernels.batched import run_convergence_cells
        from repro.telemetry.session import current_session

        for (n, daemon), group in _batch_groups(cells):
            for lo in range(0, len(group), GROUP_CHUNK):
                chunk = group[lo:lo + GROUP_CHUNK]
                session = current_session()
                if session is not None:
                    session.bus.publish(
                        "engine", "run_start", 0.0,
                        algorithm="SSRmin", n=n, K=n + 1,
                        daemon=daemon, cells=len(chunk), engine="batched",
                    )
                g0 = time.perf_counter()
                results = run_convergence_cells(
                    n, [c.seed for c in chunk], daemon,
                    budget=spec.max_steps or None,
                )
                per_cell_wall = (time.perf_counter() - g0) / len(chunk)
                if session is not None:
                    _publish_group(session, daemon, results)
                for cell, result in zip(chunk, results):
                    on_cell(cell, result, "batched", per_cell_wall)
        return

    from repro.experiments.parallel import run_tasks_parallel

    if spec.kind == "convergence":
        worker = _convergence_cell_worker
        payloads = [
            (int(c.params["n"]), str(c.params["daemon"]), c.seed,
             spec.max_steps)
            for c in cells
        ]
    else:
        worker = _des_cell_worker
        payloads = [
            (spec.algorithm, int(c.params["n"]), float(c.params["loss"]),
             float(c.params["delay"]), float(c.params["duplication"]),
             c.seed, spec.slice_duration, spec.max_time, spec.gap_duration)
            for c in cells
        ]

    def _on_result(index, timed, _done, _total):
        result, wall = timed
        on_cell(cells[index], result, "per-cell", wall)

    run_tasks_parallel(
        _timed, [(worker, p) for p in payloads],
        workers=workers, on_result=_on_result,
    )


def _batchable(spec: SweepSpec) -> bool:
    """Whether the spec's cells have a batched (vectorized) backend."""
    return spec.kind == "convergence" and spec.algorithm == "ssrmin"


def run_cells(spec: SweepSpec, *, workers: int = 1) -> List[Dict[str, Any]]:
    """Run every cell of ``spec`` without a store; results in grid order.

    The same execution as :func:`run_sweep` (batched where the kind has a
    batched backend, else one task per cell over ``workers`` processes),
    minus checkpoints, the run store and progress events.  Each cell is a
    pure function of its parameters, so the results equal the ``result``
    fields a :func:`run_sweep` of the same spec records.
    """
    cells = spec.cells()
    results: List[Any] = [None] * len(cells)

    def _collect(cell, result, _engine, _wall):
        results[cell.index] = result

    _execute(spec, cells, _batchable(spec), workers, _collect)
    return results


def run_sweep(
    spec: SweepSpec,
    *,
    base_dir: str = "runs",
    run_store: Union[RunStore, str, None] = None,
    resume: bool = False,
    fresh: bool = False,
    mode: str = "auto",
    workers: int = 1,
    throttle: float = 0.0,
) -> Dict[str, Any]:
    """Run (or resume) one sweep to completion; returns a summary dict.

    Parameters
    ----------
    spec:
        The grid to run.
    base_dir:
        Checkpoint root (cells land under ``<base_dir>/sweeps/<name>/``).
    run_store:
        An open :class:`RunStore`, a path to one, or None for
        ``<base_dir>/store.sqlite``.
    resume, fresh:
        What to do when the named sweep already has checkpointed cells:
        keep them and run only the missing set, or discard and restart.
    mode:
        ``"auto"`` (batch whatever is batchable), ``"batched"`` (require
        the batched backend; error for DES grids) or ``"per-cell"`` (one
        task per cell — the pre-refactor execution shape).
    workers:
        Process fan-out for per-cell tasks (1 = in-process).
    throttle:
        Parent-side sleep after each recorded cell — a pacing knob for
        kill/resume tests and CI smoke jobs; 0 disables.
    """
    import os

    from repro.telemetry.session import current_session

    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    batchable = _batchable(spec)
    if mode == "batched" and not batchable:
        raise ValueError(
            f"kind {spec.kind!r}/{spec.algorithm} has no batched backend; "
            f"use mode='auto' or 'per-cell'"
        )
    use_batched = batchable and mode != "per-cell"

    owns_store = not isinstance(run_store, RunStore)
    if owns_store:
        path = run_store if isinstance(run_store, str) else os.path.join(
            base_dir, "store.sqlite"
        )
        run_store = RunStore(path)
    t0 = time.perf_counter()
    try:
        store = SweepStore.create(
            spec, base_dir, run_store, resume=resume, fresh=fresh,
        )
        with store:
            done_before = store.resumed
            cells = spec.cells()
            total = len(cells)
            missing = [c for c in cells if c.index not in done_before]
            done = len(done_before)
            session = current_session()
            _publish_progress(session, spec.name, done, total, None, mode)

            def _record(cell: CellSpec, result: Dict[str, Any],
                        engine: str, wall: float) -> None:
                nonlocal done
                store.record(cell, result, engine, wall)
                done += 1
                _publish_progress(session, spec.name, done, total, cell,
                                  engine)
                if throttle > 0.0:
                    time.sleep(throttle)

            _execute(spec, missing, use_batched, workers, _record)

            wall = time.perf_counter() - t0
            store.finish(done, wall)
            ran = done - len(done_before)
            return {
                "name": spec.name,
                "kind": spec.kind,
                "cells": total,
                "completed": done,
                "skipped": len(done_before),
                "ran": ran,
                "wall_seconds": wall,
                "cells_per_sec": (ran / wall) if wall > 0 and ran else 0.0,
                "mode": "batched" if use_batched else "per-cell",
                "status": "completed" if done >= total else "running",
                "directory": store.directory,
            }
    finally:
        if owns_store:
            run_store.close()


def resume_sweep(
    name: str,
    *,
    base_dir: str = "runs",
    run_store: Union[RunStore, str, None] = None,
    mode: str = "auto",
    workers: int = 1,
    throttle: float = 0.0,
) -> Dict[str, Any]:
    """Resume a named sweep from its recorded spec (only missing cells run)."""
    import os

    owns_store = not isinstance(run_store, RunStore)
    if owns_store:
        path = run_store if isinstance(run_store, str) else os.path.join(
            base_dir, "store.sqlite"
        )
        run_store = RunStore(path)
    try:
        store = SweepStore.attach(name, base_dir, run_store)
        spec = store.spec
        store.close()
        return run_sweep(
            spec, base_dir=base_dir, run_store=run_store, resume=True,
            mode=mode, workers=workers, throttle=throttle,
        )
    finally:
        if owns_store:
            run_store.close()


__all__ = ["GROUP_CHUNK", "MODES", "resume_sweep", "run_cells", "run_sweep"]
