"""Replayable conformance witnesses — the ``tests/corpus/`` file format.

A witness pins down one lockstep scenario completely: algorithm instance
``(name, n, K)``, initial configuration, fault script and concrete
schedule, plus the *expectation* (``pass`` — the oracle must report zero
divergences; ``divergence`` — the oracle must reproduce a failure, used
transiently by the mutation smoke tests).  Files are JSONL with one record
per line, written deterministically (sorted keys) so shrunk repros diff
cleanly in review:

.. code-block:: text

    {"algorithm": "ssrmin", "expect": "pass", "format": ..., "n": 3, ...}
    {"config": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]}
    {"fault": {"kind": "lose", "src": 0, "dst": 1, "step": 2}}
    {"schedule": [[0], [1], [1, 2]]}

``pytest tests/corpus`` replays every ``*.jsonl`` in the corpus directory
on each run; ``python -m repro fuzz replay <file>`` does the same from the
command line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.algorithms import build_algorithm

FORMAT = "repro-conformance-witness"
FORMAT_VERSION = 1


def _state_to_json(state: Any) -> Any:
    return list(state) if isinstance(state, tuple) else state


def _state_from_json(state: Any) -> Any:
    return tuple(state) if isinstance(state, list) else state


@dataclass
class Witness:
    """One replayable conformance scenario."""

    algorithm: str
    n: int
    K: int
    config: List[Any]
    schedule: List[Tuple[int, ...]]
    faults: List[dict] = field(default_factory=list)
    expect: str = "pass"
    seed: Optional[int] = None
    note: str = ""
    divergence: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.expect not in ("pass", "divergence"):
            raise ValueError(f"expect must be 'pass' or 'divergence', "
                             f"got {self.expect!r}")
        self.config = [_state_from_json(s) for s in self.config]
        self.schedule = [tuple(sel) for sel in self.schedule]

    # -- replay --------------------------------------------------------------
    def build(self):
        """Instantiate the algorithm this witness targets."""
        return build_algorithm(self.algorithm, self.n, self.K)

    def replay(self, use_cst: bool = True):
        """Run the witness through the oracle; returns a ConformanceReport."""
        from repro.verification.conformance.oracle import LockstepOracle

        oracle = LockstepOracle(self.build(), use_cst=use_cst)
        return oracle.run_schedule(self.config, self.schedule, self.faults)

    # -- serialization -------------------------------------------------------
    def to_lines(self) -> List[str]:
        """The witness as deterministic JSONL lines (sorted keys)."""
        header = {
            "format": FORMAT,
            "version": FORMAT_VERSION,
            "algorithm": self.algorithm,
            "n": self.n,
            "K": self.K,
            "expect": self.expect,
            "seed": self.seed,
            "note": self.note,
        }
        if self.divergence is not None:
            header["divergence"] = self.divergence
        lines = [json.dumps(header, sort_keys=True)]
        lines.append(json.dumps(
            {"config": [_state_to_json(s) for s in self.config]},
            sort_keys=True,
        ))
        for op in self.faults:
            lines.append(json.dumps({"fault": op}, sort_keys=True))
        lines.append(json.dumps(
            {"schedule": [list(sel) for sel in self.schedule]},
            sort_keys=True,
        ))
        return lines

    def save(self, path: str) -> str:
        """Write the witness to ``path`` (creating directories); returns it."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")
        return path

    @classmethod
    def load(cls, path: str) -> "Witness":
        header = None
        config: Optional[list] = None
        faults: List[dict] = []
        schedule: Optional[list] = None
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: not valid JSON: {exc}"
                    ) from None
                if "format" in record:
                    if record["format"] != FORMAT:
                        raise ValueError(
                            f"{path}: unknown format {record['format']!r}"
                        )
                    header = record
                elif "config" in record:
                    config = record["config"]
                elif "fault" in record:
                    faults.append(record["fault"])
                elif "schedule" in record:
                    schedule = record["schedule"]
                else:
                    raise ValueError(
                        f"{path}:{lineno}: unrecognized record {record!r}"
                    )
        if header is None or config is None or schedule is None:
            raise ValueError(
                f"{path}: incomplete witness (need header, config, schedule)"
            )
        return cls(
            algorithm=header["algorithm"],
            n=int(header["n"]),
            K=int(header["K"]),
            config=config,
            schedule=schedule,
            faults=faults,
            expect=header.get("expect", "pass"),
            seed=header.get("seed"),
            note=header.get("note", ""),
            divergence=header.get("divergence"),
        )


@dataclass
class ReplayOutcome:
    """Verdict of replaying one witness against its expectation."""

    path: str
    ok: bool
    message: str
    report: Any


def replay_witness_file(path: str, use_cst: bool = True) -> ReplayOutcome:
    """Load, replay and judge one corpus file against its expectation.

    The single entry point shared by ``pytest tests/corpus``, the mutation
    smoke tests and ``repro fuzz replay``.
    """
    witness = Witness.load(path)
    report = witness.replay(use_cst=use_cst)
    if witness.expect == "pass":
        if report.ok:
            return ReplayOutcome(
                path, True,
                f"pass as expected ({report.fired_steps} steps fired)",
                report,
            )
        d = report.divergences[0]
        return ReplayOutcome(
            path, False,
            f"expected pass but diverged at step {d.step} "
            f"[{d.kind}]: {d.detail}", report,
        )
    # expect == "divergence"
    if report.ok:
        return ReplayOutcome(
            path, False,
            "expected a divergence but the replay passed "
            "(stale repro? the bug it captured may be fixed — "
            "delete the file or flip expect to 'pass')", report,
        )
    d = report.divergences[0]
    return ReplayOutcome(
        path, True,
        f"divergence reproduced at step {d.step} [{d.kind}]", report,
    )


def corpus_files(directory: str) -> List[str]:
    """Sorted ``*.jsonl`` witness files under ``directory``.

    ``golden_*.jsonl`` files are skipped: those are frozen figure traces
    (:mod:`repro.experiments.golden`) that share the corpus directory but
    are replayed by their own regression test, not the witness harness.
    """
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".jsonl") and not name.startswith("golden_")
    )
