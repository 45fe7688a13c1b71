"""The vectorized convergence backend vs the scalar engines.

``run_convergence_cells`` is the batched-cell workhorse of the sweep
engine; these tests pin its two load-bearing contracts:

* **group-composition invariance** — a cell's result is identical whether
  it runs alone or inside any batch (the per-cell-seed determinism the
  resumable store relies on);
* **cross-engine agreement** — a scalar-engine daemon that draws the same
  counter-keyed numbers replays every daemon family's schedule, so the
  batched backend must report exactly the step count both scalar engines
  (packed and naive) measure from the same start.
"""

import numpy as np
import pytest

from repro.core.ssrmin import SSRmin
from repro.daemons.base import Daemon
from repro.kernels.batched import (
    DAEMON_FAMILIES,
    STREAM_COINS,
    STREAM_INIT_H,
    STREAM_INIT_X,
    STREAM_PICK,
    batched_guards,
    batched_legitimate,
    parse_daemon,
    run_convergence_cells,
)
from repro.kernels.prng import grid_integers, grid_uniforms
from repro.simulation.convergence import converge


@pytest.mark.parametrize("daemon", ["synchronous", "central",
                                    "bernoulli:0.5"])
def test_group_composition_invariance(daemon):
    # n=3 over 200 seeds mixes a lane legitimate at step 0 with lanes that
    # converge late, so lanes leave the group at many different steps.
    for n, cells in ((6, 10), (3, 200)):
        seeds = list(range(cells))
        together = run_convergence_cells(n, seeds, daemon)
        for seed, expected in zip(seeds, together):
            alone = run_convergence_cells(n, [seed], daemon)[0]
            assert alone == expected
        shuffled = run_convergence_cells(n, seeds[::-1], daemon)
        assert shuffled == together[::-1]


def test_all_daemon_families_converge():
    for daemon in ("synchronous", "central", "bernoulli:0.3",
                   "bernoulli:0.9"):
        results = run_convergence_cells(5, range(6), daemon)
        assert all(r["converged"] for r in results)
        assert all(r["steps"] >= 0 for r in results)


class CounterKeyedDaemon(Daemon):
    """A scalar-engine daemon drawing the batched backend's numbers.

    Engine step ``step`` is the backend's step ``k = step + 1``; each
    choice hashes ``(seed, stream, k)`` exactly as the backend does.
    """

    def __init__(self, daemon: str, seed: int):
        self.kind, self.p = parse_daemon(daemon)
        self.seed = seed

    def _pick(self, enabled, k):
        u = grid_uniforms([self.seed], STREAM_PICK, k, 1)[0, 0]
        return (enabled[min(int(u * len(enabled)), len(enabled) - 1)],)

    def select(self, enabled, config, step):
        k = step + 1
        if self.kind == "synchronous":
            return tuple(enabled)
        if self.kind == "central":
            return self._pick(enabled, k)
        n = len(config)
        coins = grid_uniforms([self.seed], STREAM_COINS, k, n)[0] < self.p
        chosen = tuple(i for i in enabled if coins[i])
        return chosen or self._pick(enabled, k)


@pytest.mark.parametrize(
    "daemon,n",
    [("synchronous", 6), ("central", 6), ("bernoulli:0.2", 6),
     ("bernoulli:0.5", 6),
     # The central move's three columns wrap the ring at n = 3 and 4.
     ("central", 3), ("central", 4)],
    ids=["synchronous", "central", "bernoulli:0.2", "bernoulli:0.5",
         "central-n3", "central-n4"])
@pytest.mark.parametrize("use_fastpath", [True, False])
def test_agrees_with_scalar_engine(daemon, n, use_fastpath):
    K, seeds = n + 1, list(range(8))
    X = grid_integers(seeds, STREAM_INIT_X, 0, n, K)
    H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4)
    batched = run_convergence_cells(n, seeds, daemon, K=K)
    alg = SSRmin(n, K)
    for row, (seed, result) in enumerate(zip(seeds, batched)):
        init = tuple(
            (int(X[row, i]), int(H[row, i]) >> 1, int(H[row, i]) & 1)
            for i in range(n)
        )
        scalar = converge(alg, CounterKeyedDaemon(daemon, seed), init,
                          use_fastpath=use_fastpath)
        assert scalar.converged
        assert scalar.steps == result["steps"]


def test_budget_exhaustion_reports_unconverged():
    # With the median step count as the budget, about half the lanes run
    # out: those report -1, the rest keep their exact unbudgeted count.
    seeds = range(64)
    for daemon in ("synchronous", "central", "bernoulli:0.5"):
        free = [r["steps"] for r in run_convergence_cells(8, seeds, daemon)]
        budget = int(np.median(free))
        results = run_convergence_cells(8, seeds, daemon, budget=budget)
        assert any(not r["converged"] for r in results)
        for steps, r in zip(free, results):
            if steps <= budget:
                assert r == {"steps": steps, "converged": True,
                             "budget": budget}
            else:
                assert r == {"steps": -1, "converged": False,
                             "budget": budget}
        # A cell that first turns legitimate on the budget's last step
        # still converges (the configuration is checked after the last
        # step); one step less leaves it unconverged, alone or in a group.
        for seed, steps in list(zip(seeds, free))[:8]:
            assert run_convergence_cells(8, [seed], daemon, budget=steps) == [
                {"steps": steps, "converged": True, "budget": steps}]
            assert run_convergence_cells(
                8, [seed], daemon, budget=steps - 1) == [
                {"steps": -1, "converged": False, "budget": steps - 1}]
        own = sorted(free)[len(free) // 2]
        for cut in (own, own - 1):
            results = run_convergence_cells(8, seeds, daemon, budget=cut)
            assert (sum(r["converged"] for r in results)
                    == sum(steps <= cut for steps in free))


def test_wrapped_enabled_count_retires_no_lane():
    """The parallel steps count each lane's enabled processes in a byte,
    which wraps from n = 256 on: a start with all 257 processes enabled
    reads 1, a retirement candidate, and must stay live because it is not
    legitimate."""
    n, seeds = 257, np.arange(600)
    X = grid_integers(seeds, STREAM_INIT_X, 0, n, n + 1)
    H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4)
    rule = batched_guards(X, H)[1]
    full = (rule != 0).all(axis=1)
    assert full.any()
    assert ((rule[full] != 0).sum(axis=1, dtype=np.uint8) == 1).all()
    assert not batched_legitimate(X[full], H[full], n + 1).any()
    for daemon in ("synchronous", "bernoulli:0.5"):
        assert run_convergence_cells(n, seeds[full], daemon, budget=1) == [
            {"steps": -1, "converged": False, "budget": 1}] * full.sum()


def test_zero_budget_converges_only_legitimate_starts():
    # n = 3, seeds 165 and 239 start legitimate.
    seeds = list(range(160, 240))
    free = run_convergence_cells(3, seeds, "central")
    results = run_convergence_cells(3, seeds, "central", budget=0)
    starts = [r["steps"] == 0 for r in free]
    assert sum(starts) == 2
    assert [r["converged"] for r in results] == starts
    assert all(r["steps"] == (0 if legit else -1)
               for r, legit in zip(results, starts))


def test_daemon_parsing():
    assert parse_daemon("synchronous")[0] == "synchronous"
    assert parse_daemon("central")[0] == "central"
    assert parse_daemon("bernoulli:0.25") == ("bernoulli", 0.25)
    assert set(DAEMON_FAMILIES) == {"synchronous", "central", "bernoulli"}
    with pytest.raises(ValueError):
        parse_daemon("lottery")
    with pytest.raises(ValueError):
        parse_daemon("bernoulli:0")
    with pytest.raises(ValueError):
        parse_daemon("bernoulli:1.5")


def test_parameter_validation():
    with pytest.raises(ValueError):
        run_convergence_cells(2, [0])
    with pytest.raises(ValueError):
        run_convergence_cells(5, [0], K=5)
