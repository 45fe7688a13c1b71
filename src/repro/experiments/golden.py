"""Golden traces: frozen seeded runs that pin figure determinism.

These runs are canonical enough to freeze byte-for-byte:

* **fig04** — the unique legitimate 16-step execution of SSRmin(5, 6)
  from gamma_0(3) (the paper's Figure 4).  Fully deterministic by
  construction (exactly one process is enabled at every step).
* **fig13** — the seeded DES run behind the Figure 13 model-gap
  experiment: SSRmin(5, 6) under the CST transform with seed 13 and
  uniform message delays in [0.5, 1.5].  Deterministic because the DES
  draws every delay from one seeded RNG stream.
* **des cells** — every cell of two chaos-start Theorem-4 ``des`` sweep
  grids (SSRmin and Dijkstra): stabilization time, token band, zero-token
  time and event count per cell.
* **convergence cells** — the batched kernel's Theorem-2 rows
  (:func:`~repro.kernels.batched.run_convergence_cells`) under every
  daemon family, on both counter widths, and with budgets that cut some
  cells off.

:func:`regenerate` rewrites the JSONL corpus under ``tests/corpus/``;
the regression test re-derives every trace from source and compares
record-for-record, so any drift in the simulator, the rule table, the
privilege predicates or the RNG discipline fails loudly with the first
diverging record.  Records hold plain JSON scalars only — Python's
``json`` round-trips floats exactly (shortest-repr), so equality after a
load is equality of the runs.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List

#: Corpus file names, relative to the corpus directory.
FIG04_FILE = "golden_fig04_trace.jsonl"
FIG13_FILE = "golden_fig13_timeline.jsonl"
DES_CELLS_FILE = "golden_des_cells.jsonl"
CONVERGENCE_CELLS_FILE = "golden_convergence_cells.jsonl"

FIG04_SCHEMA = "repro-golden-fig04/1"
FIG13_SCHEMA = "repro-golden-fig13/1"
DES_CELLS_SCHEMA = "repro-golden-des-cells/1"
CONVERGENCE_CELLS_SCHEMA = "repro-golden-convergence-cells/1"

#: Simulated duration of the frozen fig13 run (the bench's fast mode).
FIG13_DURATION = 150.0


def fig04_trace_records() -> List[dict]:
    """Per-step records of the Figure 4 execution (states + privileges)."""
    from repro.analysis.tracefmt import annotate_process
    from repro.core.ssrmin import SSRmin
    from repro.experiments.runners_figures import _canonical_execution

    alg = SSRmin(5, 6)
    result = _canonical_execution(alg, x=3, steps=15)
    records: List[dict] = [{
        "schema": FIG04_SCHEMA,
        "algorithm": "SSRmin", "n": alg.n, "K": alg.K,
        "x": 3, "steps": 15,
    }]
    moves = result.execution.moves
    for t, config in enumerate(result.execution.configurations):
        record = {
            "step": t,
            "states": [[config.x(i), config.rts(i), config.tra(i)]
                       for i in range(alg.n)],
            "cells": [annotate_process(alg, config, i)
                      for i in range(alg.n)],
            "privileged": sorted(alg.privileged(config)),
        }
        if t < len(moves):
            move = moves[t][0]
            record["move"] = {"process": move.process, "rule": move.rule}
        records.append(record)
    return records


def fig13_timeline_records(duration: float = FIG13_DURATION) -> List[dict]:
    """Change-points + sampled observations of the seeded fig13 DES run."""
    from repro.core.ssrmin import SSRmin
    from repro.messagepassing.cst import transformed
    from repro.messagepassing.links import UniformDelay
    from repro.messagepassing.modelgap import evaluate_gap

    alg = SSRmin(5, 6)
    net = transformed(alg, seed=13, delay_model=UniformDelay(0.5, 1.5))
    rep = evaluate_gap(net, duration=duration, sample_observations=True,
                       sample_every=duration / 50)
    records: List[dict] = [{
        "schema": FIG13_SCHEMA,
        "algorithm": "SSRmin", "n": alg.n, "K": alg.K,
        "seed": 13, "duration": duration, "delay": [0.5, 1.5],
        "zero_time": rep.zero_time,
        "min_count": rep.min_count, "max_count": rep.max_count,
    }]
    for point in net.timeline.points:
        records.append({
            "time": point.time,
            "holders": list(point.holders),
        })
    for obs in rep.observations:
        records.append({
            "obs_time": obs.time,
            "cached_holders": list(obs.cached_holders),
            "true_holders": list(obs.true_holders),
        })
    return records


def des_cells_records() -> List[dict]:
    """Every cell of two chaos-start ``des`` grids, SSRmin and Dijkstra.

    The chaos start (random states, random caches, random dwell) is the
    path Theorem 4's sweeps take and the fig13 golden does not; the grid
    crosses ring size, loss, duplication and delay scale, so every arm of
    the packed engine runs.  Dijkstra's cells record Figure 11's token
    extinction (``min_tokens`` 0).
    """
    from repro.sweeps import SweepSpec, run_cells

    records: List[dict] = [{"schema": DES_CELLS_SCHEMA}]
    for algorithm in ("ssrmin", "dijkstra"):
        spec = SweepSpec(
            name=f"golden-{algorithm}", kind="des", algorithm=algorithm,
            n_values=(5, 8), loss_rates=(0.0, 0.3),
            duplication_rates=(0.0, 0.2), delay_scales=(1.0, 2.0),
            seeds=(0, 1), gap_duration=50.0,
        )
        for cell, result in zip(spec.cells(), run_cells(spec)):
            records.append({"algorithm": algorithm, "cell": cell.key,
                            **result})
    return records


#: Daemon specs of the frozen convergence groups: every family, and the
#: Bernoulli daemon both below and at ``p = 1`` (where every coin hits).
CONVERGENCE_DAEMONS = ("synchronous", "central", "bernoulli:0.3",
                       "bernoulli:1.0")
#: Seeds of the frozen convergence groups; at n = 3 seeds 239 and 249
#: start legitimate (0 steps).
CONVERGENCE_SEEDS = tuple(range(224, 256))
#: ``daemon -> budget`` of the n = 8 groups that run out: each budget is
#: one cell's own step count, so one cell converges on the last step and
#: about half the group does not converge.
CONVERGENCE_BUDGETS = {"synchronous": 15, "central": 37,
                       "bernoulli:0.3": 33, "bernoulli:1.0": 15}


def convergence_cells_records() -> List[dict]:
    """Batched convergence rows: ``(n, K, daemon, seed, budget)`` groups.

    n in {3, 8, 64} under each daemon at the default ``K = n + 1`` (16
    seeds at n = 64), n = 8 at ``K`` in {255, 256} (the largest ``K`` on
    byte-wide counters and the smallest on int64 ones), and n = 8 under
    :data:`CONVERGENCE_BUDGETS`, which pins unconverged rows.
    """
    from repro.kernels.batched import run_convergence_cells

    groups = [(n, None, daemon, None)
              for n in (3, 8, 64) for daemon in CONVERGENCE_DAEMONS]
    groups += [(8, K, daemon, None)
               for K in (255, 256) for daemon in CONVERGENCE_DAEMONS]
    groups += [(8, None, daemon, budget)
               for daemon, budget in CONVERGENCE_BUDGETS.items()]
    records: List[dict] = [{"schema": CONVERGENCE_CELLS_SCHEMA}]
    for n, K, daemon, budget in groups:
        seeds = CONVERGENCE_SEEDS[:16] if n == 64 else CONVERGENCE_SEEDS
        results = run_convergence_cells(n, seeds, daemon, K=K, budget=budget)
        for seed, result in zip(seeds, results):
            records.append({"n": n, "K": n + 1 if K is None else K,
                            "daemon": daemon, "seed": seed, **result})
    return records


#: ``file name -> generator`` for every golden trace.
GOLDEN_TRACES: Dict[str, Callable[[], List[dict]]] = {
    FIG04_FILE: fig04_trace_records,
    FIG13_FILE: fig13_timeline_records,
    DES_CELLS_FILE: des_cells_records,
    CONVERGENCE_CELLS_FILE: convergence_cells_records,
}


def write_jsonl(path: str, records: List[dict]) -> str:
    """Write one sorted-key JSON record per line; returns ``path``."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_jsonl(path: str) -> List[dict]:
    """Load the records of a JSONL file written by :func:`write_jsonl`."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def regenerate(directory: str) -> List[str]:
    """(Re)write every golden trace into ``directory``; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    return [
        write_jsonl(os.path.join(directory, name), generate())
        for name, generate in sorted(GOLDEN_TRACES.items())
    ]
