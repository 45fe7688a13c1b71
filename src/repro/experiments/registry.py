"""Experiment registry and result type.

An experiment runner is ``(fast: bool) -> ExperimentResult``; ``fast=True``
shrinks trial counts so the full suite stays interactive (benches use the
full size).  Register with :func:`register`; runners live in the
``repro.experiments.runners_*`` modules, which are imported lazily so
importing the registry stays cheap.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class ExperimentResult:
    """A regenerated paper artifact.

    Attributes
    ----------
    experiment_id:
        Index id (``fig04``, ``thm2``, ...), matching DESIGN.md.
    title:
        Human-readable title.
    paper_claim:
        What the paper states (quantitatively where possible).
    measured:
        What this reproduction measured, as a short sentence.
    match:
        Whether the measured behaviour reproduces the claim's *shape*.
    header, rows:
        The regenerated table (header + stringified rows).
    notes:
        Free-form caveats (substitutions, parameter choices).
    """

    experiment_id: str
    title: str
    paper_claim: str
    measured: str
    match: bool
    header: Sequence[str] = ()
    rows: List[Sequence[str]] = field(default_factory=list)
    notes: str = ""

    def table(self) -> str:
        """Fixed-width text rendering of the rows."""
        if not self.header:
            return ""
        widths = [len(h) for h in self.header]
        for row in self.rows:
            for c, cell in enumerate(row):
                widths[c] = max(widths[c], len(str(cell)))
        lines = [
            "  ".join(str(h).ljust(widths[c]) for c, h in enumerate(self.header)),
            "  ".join("-" * w for w in widths),
        ]
        for row in self.rows:
            lines.append(
                "  ".join(str(cell).ljust(widths[c]) for c, cell in enumerate(row))
            )
        return "\n".join(lines)

    def render(self) -> str:
        """Full text report of this experiment."""
        verdict = "REPRODUCED" if self.match else "MISMATCH"
        parts = [
            f"== {self.experiment_id}: {self.title} [{verdict}] ==",
            f"paper:    {self.paper_claim}",
            f"measured: {self.measured}",
        ]
        if self.notes:
            parts.append(f"notes:    {self.notes}")
        t = self.table()
        if t:
            parts.append(t)
        return "\n".join(parts)


#: experiment id -> (module name, function name); modules imported lazily.
_RUNNERS: Dict[str, tuple] = {
    "fig01": ("repro.experiments.runners_figures", "run_fig01"),
    "fig02": ("repro.experiments.runners_figures", "run_fig02"),
    "fig03": ("repro.experiments.runners_figures", "run_fig03"),
    "fig04": ("repro.experiments.runners_figures", "run_fig04"),
    "fig11": ("repro.experiments.runners_figures", "run_fig11"),
    "fig12": ("repro.experiments.runners_figures", "run_fig12"),
    "fig13": ("repro.experiments.runners_figures", "run_fig13"),
    "thm1": ("repro.experiments.runners_theorems", "run_thm1"),
    "thm2": ("repro.experiments.runners_theorems", "run_thm2"),
    "lem1": ("repro.experiments.runners_theorems", "run_lem1"),
    "lem2": ("repro.experiments.runners_theorems", "run_lem2"),
    "lem3": ("repro.experiments.runners_theorems", "run_lem3"),
    "lem4": ("repro.experiments.runners_theorems", "run_lem4"),
    "lem5": ("repro.experiments.runners_theorems", "run_lem5"),
    "thm4": ("repro.experiments.runners_theorems", "run_thm4"),
    "abl1": ("repro.experiments.runners_ablations", "run_abl1"),
    "abl2": ("repro.experiments.runners_ablations", "run_abl2"),
    "abl3": ("repro.experiments.runners_ablations", "run_abl3"),
    "abl4": ("repro.experiments.runners_ablations", "run_abl4"),
    "abl5": ("repro.experiments.runners_ablations", "run_abl5"),
    "app1": ("repro.experiments.runners_ablations", "run_app1"),
    "ext1": ("repro.experiments.runners_extensions", "run_ext1"),
    "ext2": ("repro.experiments.runners_extensions", "run_ext2"),
    "ext3": ("repro.experiments.runners_extensions", "run_ext3"),
    "ext4": ("repro.experiments.runners_extensions", "run_ext4"),
    "ext5": ("repro.experiments.runners_extensions", "run_ext5"),
    "ext6": ("repro.experiments.runners_extensions", "run_ext6"),
    "ext7": ("repro.experiments.runners_extensions", "run_ext7"),
    "ext8": ("repro.experiments.runners_extensions", "run_ext8"),
    "ext9": ("repro.experiments.runners_extensions", "run_ext9"),
}

#: Public view of the registered experiment ids.
REGISTRY = tuple(_RUNNERS)


def list_experiments() -> List[str]:
    """All registered experiment ids, in index order."""
    return list(_RUNNERS)


def get_experiment(experiment_id: str) -> Callable[[bool], ExperimentResult]:
    """Resolve a runner by id; raises :class:`KeyError` for unknown ids."""
    module_name, fn_name = _RUNNERS[experiment_id]
    module = importlib.import_module(module_name)
    return getattr(module, fn_name)


def run_experiment(experiment_id: str, fast: bool = False) -> ExperimentResult:
    """Run one experiment and return its result."""
    return get_experiment(experiment_id)(fast)


def run_experiment_instrumented(
    experiment_id: str,
    fast: bool = False,
    outdir: str = "runs",
    trace: bool = True,
    subscribers: Sequence[Callable] = (),
) -> Tuple[ExperimentResult, Optional[str]]:
    """Run one experiment under a telemetry session and record it.

    The run's record — seeds, daemon descriptors, wall-clock phases,
    package version, a full metrics snapshot and the trace's path — is
    its ``runs`` row in the run store ``<outdir>/store.sqlite``, so the
    result is reproducible from that row (``repro runs show <id>``).
    With ``trace`` the JSONL event trace is written to
    ``<outdir>/<experiment_id>/trace.jsonl``; nothing else is written.
    An unknown id raises :class:`KeyError` before anything is written.

    Parameters
    ----------
    experiment_id:
        Registry id.
    fast:
        Reduced trial counts (recorded in the row).
    outdir:
        Directory of the run store and of the per-experiment traces.
    trace:
        Whether to also write the JSONL event trace (rows alone are
        cheap; traces capture every event).
    subscribers:
        Extra event subscribers (e.g. a
        :class:`~repro.telemetry.progress.ProgressEmitter`) attached to
        the session for the duration of the run.

    Returns
    -------
    (result, trace_path):
        The experiment result and the trace's path (None without
        ``trace``).
    """
    from repro.analysis.profiling import Stopwatch
    from repro.observability import RunStore, ingest_manifest
    from repro.telemetry import build_manifest, telemetry_session

    if experiment_id not in _RUNNERS:
        raise KeyError(experiment_id)
    trace_path = None
    if trace:
        trace_path = os.path.join(outdir, experiment_id, "trace.jsonl")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with Stopwatch() as stopwatch:
        with telemetry_session(trace_path=trace_path) as session:
            for fn in subscribers:
                session.subscribe(fn)
            runner = get_experiment(experiment_id)
            stopwatch.split("resolve")
            result = runner(fast)
            stopwatch.split("run")
        manifest = build_manifest(
            session,
            experiment_id=experiment_id,
            command=f"python -m repro run {experiment_id}"
                    + (" --fast" if fast else ""),
            phases=stopwatch.splits,
            trace_file=trace_path,
            extra={"fast": fast, "title": result.title,
                   "match": result.match},
        )
    with RunStore(os.path.join(outdir, "store.sqlite")) as store:
        ingest_manifest(store, manifest, source="experiment")
    return result, trace_path
