"""Run registry experiments in parallel worker processes.

The experiments are independent and CPU-bound, so a process pool gives a
near-linear wall-clock win for the full report.  Workers resolve runners by
*id* through the registry (only strings cross the process boundary, so
nothing fancy needs pickling).

Observability: workers can run under their own telemetry session — with
``live_progress`` each prints throttled steps/sec + token-census lines to
stderr (see :mod:`repro.telemetry.progress`), and with ``telemetry_dir``
each records its run as a row of ``<telemetry_dir>/store.sqlite`` (every
worker writes the same store; plus an optional JSONL trace).
The parent additionally invokes ``on_result`` as experiments *complete*
(completion order), which ``repro report`` uses for its progress ticker.

``python -m repro report --parallel N`` uses this path.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.registry import ExperimentResult, list_experiments

#: Parent-side completion callback: (experiment_id, result, done, total).
OnResult = Callable[[str, ExperimentResult, int, int], None]


def _run_one(args) -> ExperimentResult:
    """Worker entry point (module-level for pickling).

    ``args`` is ``(experiment_id, fast, live_progress, telemetry_dir,
    trace)``.
    """
    experiment_id, fast, live_progress, telemetry_dir, trace = args

    subscribers = []
    if live_progress:
        from repro.telemetry.progress import ProgressEmitter

        subscribers.append(ProgressEmitter(label=experiment_id, interval=5.0))

    if telemetry_dir is not None:
        from repro.experiments.registry import run_experiment_instrumented

        result, _ = run_experiment_instrumented(
            experiment_id, fast=fast, outdir=telemetry_dir, trace=trace,
            subscribers=subscribers,
        )
        return result

    from repro.experiments.registry import run_experiment

    if subscribers:
        from repro.telemetry import telemetry_session

        with telemetry_session() as session:
            for fn in subscribers:
                session.subscribe(fn)
            return run_experiment(experiment_id, fast=fast)
    return run_experiment(experiment_id, fast=fast)


def run_experiments_parallel(
    experiment_ids: Optional[Sequence[str]] = None,
    fast: bool = False,
    workers: int = 2,
    live_progress: bool = False,
    telemetry_dir: Optional[str] = None,
    trace: bool = False,
    on_result: Optional[OnResult] = None,
) -> List[ExperimentResult]:
    """Run experiments across ``workers`` processes; results in input order.

    Parameters
    ----------
    experiment_ids:
        Ids to run (default: the whole registry).
    fast:
        Reduced trial counts.
    workers:
        Process count (>= 1; 1 degenerates to sequential in-process
        execution, useful for debugging).
    live_progress:
        Emit throttled per-experiment progress lines (stderr) from each
        worker's telemetry session.
    telemetry_dir:
        When set, each experiment records its row in
        ``<telemetry_dir>/store.sqlite`` (and, with ``trace``, writes
        ``<telemetry_dir>/<id>/trace.jsonl``).
    trace:
        Also write JSONL event traces (only meaningful with
        ``telemetry_dir``).
    on_result:
        Parent-side callback fired per completed experiment, in completion
        order.
    """
    ids = list(experiment_ids) if experiment_ids is not None else list_experiments()
    payloads = [
        (eid, fast, live_progress, telemetry_dir, trace) for eid in ids
    ]

    def _on_task(index: int, result, done: int, total: int) -> None:
        if on_result is not None:
            on_result(ids[index], result, done, total)

    return run_tasks_parallel(
        _run_one, payloads, workers=workers, on_result=_on_task,
    )


def results_by_id(results: Sequence[ExperimentResult]) -> Dict[str, ExperimentResult]:
    """Index results by experiment id."""
    return {r.experiment_id: r for r in results}


#: Parent-side completion callback for generic tasks:
#: (payload_index, result, done, total).
OnTaskResult = Callable[[int, object, int, int], None]


def run_tasks_parallel(
    worker: Callable,
    payloads: Sequence,
    workers: int = 2,
    on_result: Optional[OnTaskResult] = None,
) -> List:
    """Fan arbitrary picklable tasks across a process pool, results in
    input order.

    ``worker`` must be a module-level callable (picklable) taking one
    payload.  Used by :func:`run_experiments_parallel` (one task per
    registry experiment id) and by the sweep engine's per-cell mode
    (:mod:`repro.sweeps.engine`, one task per grid cell).

    ``workers=1`` — or any caller already inside a daemonized pool worker,
    which cannot spawn children — degenerates to sequential in-process
    execution.  ``on_result`` fires in *completion* order with
    ``(payload_index, result, done, total)``.
    """
    import multiprocessing

    payloads = list(payloads)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total = len(payloads)
    if workers == 1 or multiprocessing.current_process().daemon:
        results = []
        for k, payload in enumerate(payloads):
            result = worker(payload)
            results.append(result)
            if on_result is not None:
                on_result(k, result, k + 1, total)
        return results
    results_by_index: Dict[int, object] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(worker, payload): i
            for i, payload in enumerate(payloads)
        }
        pending = set(futures)
        done_count = 0
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures[future]
                result = future.result()
                results_by_index[index] = result
                done_count += 1
                if on_result is not None:
                    on_result(index, result, done_count, total)
    return [results_by_index[i] for i in range(total)]
