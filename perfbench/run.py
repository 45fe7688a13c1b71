#!/usr/bin/env python3
"""Repository benchmark: one workload per run, the result on the last line.

    python3 perfbench/run.py --workload convergence_grid --seed 1 \\
        --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from the
checkout's ``src/`` and nowhere else, and exits non-zero without a result
when that is missing.  Scratch files go under ``.perfbench/`` in the
checkout and are removed, except the span files of traced runs.

``--trace 0`` runs passes over the workload's units untraced for
``--seconds`` and prints every end-to-end metric of ``BENCHMARK.json``;
``setup_s`` is the median of several set-ups, each in a fresh interpreter.
Times are medians, scaled into reference seconds by a reference loop of
``reference.py`` that runs after every unit (the live ring reports all
but ``setup_s`` as measured; see ``NOTES.md``).
``--trace 1`` alternates untraced and traced passes, checks that both give
the same outputs, and prints every per-layer metric.
``NOTES.md`` describes the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Fresh-interpreter set-ups per run; their median is ``setup_s``.
SETUP_PROBES = 7
#: Fewest passes (untraced) or pass pairs (traced) in a run.
MIN_PASSES = 3
MIN_PAIRS = 2


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it.

    ``REPRO_FASTPATH*`` switches are dropped first (set-up probes inherit
    the environment), so every run measures the engine users get by
    default.
    """
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"perfbench: {package} not found; run from the root of a "
                 f"checkout of the repository")
    for name in [n for n in os.environ if n.startswith("REPRO_FASTPATH")]:
        del os.environ[name]
    sys.path.insert(0, SRC)
    import repro

    found = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    if found != SRC:
        sys.exit(f"perfbench: imported repro from {found}, not {SRC}")


def _declared():
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _probe_setup(workload: str, seed: int, seconds: float) -> float:
    """One set-up in a fresh interpreter: imports, build, store, boot."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--probe-setup"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])


def _run_pass(wl, gauge, tracer=None) -> list:
    """One pass over the units; the reference loop runs after each."""
    samples = []
    for unit in wl.units():
        samples.append(wl.run_unit(unit, tracer))
        gauge.sample(wl.ref_calls)
    return samples


def _checked_passes(wl, seconds: float, gauge, tracer=None, between=None):
    """Passes until ``seconds`` are spent, each checked as it completes.

    With a tracer, passes alternate untraced and traced (``[untraced,
    traced]`` pairs).  Outputs are dropped once checked, except the first
    pass's, so memory does not grow with the number of passes.
    ``between()`` runs after each pass, outside the timed units.
    """
    runs, first = [], None
    attempted = failed = mismatched = 0
    deadline = time.perf_counter() + seconds
    least = MIN_PAIRS if tracer else MIN_PASSES
    while len(runs) < least or time.perf_counter() < deadline:
        group = [_run_pass(wl, gauge)]
        if tracer is not None:
            tracer.pass_index = len(runs)
            tracer.install()
            try:
                group.append(_run_pass(wl, gauge, tracer))
            finally:
                tracer.uninstall()
            mismatched += not wl.same(*group)
            attempted += 1
        first = first or group[0]
        for samples in group:
            a, f = wl.check_pass(samples, first)
            attempted += a
            failed += f
            if samples is not first:
                for sample in samples:
                    sample.outputs = None
        runs.append(group)
        if between is not None:
            between()
    a, f = wl.check_end(first)
    return runs, attempted + a, failed + f + mismatched, mismatched


def _timed_run(wl, seconds: float, probe):
    """Untraced passes; set-up probes run between them, spread over the run.

    ``setup_s`` is the median probe, scaled into reference seconds like
    every other time of the run: the probes run inside it, at the host
    speed the reference loop gauges.
    """
    from reference import HostGauge

    gauge = HostGauge(wl.reference)
    setups = []

    def between():
        if len(setups) < SETUP_PROBES:
            setups.append(probe())

    runs, attempted, failed, _ = _checked_passes(wl, seconds, gauge,
                                                 between=between)
    while len(setups) < SETUP_PROBES:
        between()
    passes = [group[0] for group in runs]
    scale = gauge.scale()
    metrics = wl.metrics(passes, scale)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics["setup_s"] = statistics.median(setups) * scale[0]
    return passes, attempted, failed, metrics, setups, gauge


def _traced_run(wl, seconds: float, spans_path: str):
    from reference import HostGauge
    from tracer import Tracer, per_layer_metrics
    from workloads import cpu_per_message, median_time, pass_wall

    gauge = HostGauge(wl.reference)
    tracer = Tracer()
    runs, attempted, failed, mismatched = _checked_passes(
        wl, seconds, gauge, tracer)
    tracer.write(spans_path)
    untraced = [group[0] for group in runs]
    traced = [group[1] for group in runs]

    messages = 0
    if wl.paced:
        # Wall time is fixed by the run length; tracing shows in CPU.
        def cost(passes):
            return cpu_per_message([p[0] for p in passes])
        messages = sum(p[0].counts["messages"] for p in traced)
    else:
        def cost(passes):
            return median_time(passes)[0]
    # Both sides ran in the same run, at the same host speed.
    overhead = cost(traced) / cost(untraced) - 1.0
    metrics = per_layer_metrics(
        tracer, len(traced), statistics.fmean(map(pass_wall, traced)),
        sum(s.cpu for p in traced for s in p), messages, overhead)
    table = _layer_table(tracer, len(traced), metrics)
    return traced, attempted, failed, metrics, mismatched, table, gauge


def _layer_table(tracer, passes: int, metrics) -> list:
    lines = ["layer             self s/pass    share of timed wall"]
    for layer, seconds in tracer.layer_self_s().items():
        lines.append(f"{layer:<17} {seconds / passes:>12.4f}"
                     f"   {metrics['share.' + layer]:>8.2%}")
    lines.append(f"tracing overhead  {metrics['trace.overhead_frac']:+.2%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, args.seconds)
        if args.probe_setup:
            wl.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        end_to_end, per_layer = _declared()
        wl.setup()
        if args.trace:
            spans = os.path.join(
                WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
            passes, attempted, failed, values, mismatched, table, gauge = \
                _traced_run(wl, args.seconds, spans)
            units = per_layer
        else:
            passes, attempted, failed, values, setups, gauge = _timed_run(
                wl, args.seconds,
                lambda: _probe_setup(args.workload, args.seed, args.seconds))
            units = end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"workload produced no {sorted(missing)}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  trace {args.trace}")
    print("engine " + json.dumps(wl.engine, sort_keys=True))
    wall_scale, cpu_scale = gauge.scale()
    print(f"reference loop {gauge.kind}: {len(gauge.walls)} runs, median "
          f"{1e3 * statistics.median(gauge.walls):.3f} ms wall, "
          f"{1e3 * statistics.median(gauge.cpus):.3f} ms CPU; scale to "
          f"reference seconds {wall_scale:.4f} wall, {cpu_scale:.4f} CPU")
    if args.trace:
        print(f"traced outputs equal untraced: {mismatched == 0}"
              f"  spans: {os.path.relpath(spans, ROOT)}")
        print("\n".join(table))
    else:
        print("setup probes (s): " + " ".join(f"{s:.4f}" for s in setups))
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
