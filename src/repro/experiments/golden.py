"""Golden traces: frozen seeded runs that pin figure determinism.

Three runs are canonical enough to freeze byte-for-byte:

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

FIG04_SCHEMA = "repro-golden-fig04/1"
FIG13_SCHEMA = "repro-golden-fig13/1"
DES_CELLS_SCHEMA = "repro-golden-des-cells/1"

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


#: ``file name -> generator`` for every golden trace.
GOLDEN_TRACES: Dict[str, Callable[[], List[dict]]] = {
    FIG04_FILE: fig04_trace_records,
    FIG13_FILE: fig13_timeline_records,
    DES_CELLS_FILE: des_cells_records,
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
