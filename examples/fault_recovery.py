#!/usr/bin/env python3
"""Fault tolerance: transient faults hit, SSRmin recovers, service continues.

Self-stabilization's promise (paper section 2.2): treat the post-fault
configuration as a fresh start and the system converges again — no global
reset.  This example demonstrates it in both models:

1. **state-reading model** — a burst of memory corruptions; we count the
   steps back to legitimacy and confirm they respect the O(n^2) worst case;
2. **periodic soft errors** — repeated single corruptions of the running
   ring, each followed by recovery;
3. **message-passing model** — corrupt both node states *and* caches of a
   live network (plus 20% message loss), then watch Theorem 4 restore the
   1..2-token guarantee.
"""

import random

from repro.core import SSRmin
from repro.daemons import RandomSubsetDaemon
from repro.messagepassing.coherence import CoherenceTracker
from repro.messagepassing.cst import transformed
from repro.messagepassing.links import UniformDelay
from repro.messagepassing.modelgap import evaluate_gap
from repro.simulation.convergence import converge
from repro.simulation.initial import perturbed_legitimate


def main() -> None:
    n, K = 8, 9
    alg = SSRmin(n, K)
    daemon = RandomSubsetDaemon(seed=0)

    # -- 1. fault bursts of increasing size ---------------------------------
    print(f"=== burst faults, n={n} (O(n^2) budget = {3 * n * n}) ===")
    for f in (1, 2, 4, n):
        config = perturbed_legitimate(alg, random.Random(f), faults=f)
        result = converge(alg, daemon, config)
        print(
            f"  {f} simultaneous corruptions -> recovered in "
            f"{result.steps} steps"
        )
    print()

    # -- 2. periodic soft errors ------------------------------------------------
    print("=== periodic single faults (20 rounds) ===")
    rng = random.Random(3)
    config = perturbed_legitimate(alg, rng, faults=0)
    recoveries = []
    for _ in range(20):
        config = alg.corrupt_process_to(
            config, rng.randrange(n), alg.random_local_state(rng))
        result = converge(alg, daemon, config)
        recoveries.append(result.steps)
        config = result.final_config
    print(f"  recovery steps per fault: {recoveries}")
    print(f"  worst: {max(recoveries)}")
    print()

    # -- 3. live message-passing network under fire ------------------------------
    print("=== live network: corrupt states+caches, 20% message loss ===")
    net = transformed(alg, seed=4, delay_model=UniformDelay(0.5, 1.5),
                      loss_probability=0.2)
    net.run(50.0)  # steady legitimate operation first
    rng = random.Random(5)
    injected = []
    for _ in range(3):
        i = rng.randrange(n)
        net.corrupt_node(i, alg.random_local_state(rng))
        injected.append(("node-state", i))
    for _ in range(4):
        i = rng.randrange(n)
        neighbor = rng.choice([(i - 1) % n, (i + 1) % n])
        net.corrupt_cache(i, neighbor, alg.random_local_state(rng))
        injected.append(("cache", (i, neighbor)))
    print(f"  injected: {injected}")
    tracker = CoherenceTracker(net)
    t = tracker.run_until_stabilized(slice_duration=5.0, max_time=20_000.0)
    print(f"  legitimate + cache-coherent again at t = {t:.1f}")
    report = evaluate_gap(net, duration=200.0, warmup=net.queue.now)
    print(
        f"  post-recovery token holders in "
        f"[{report.min_count}, {report.max_count}], "
        f"zero-token time {report.zero_time:.2f}"
    )


if __name__ == "__main__":
    main()
