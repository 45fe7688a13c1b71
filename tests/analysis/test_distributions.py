"""Unit tests for distribution comparisons."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.distributions import (
    DistributionComparison,
    compare_distributions,
    effect_size,
)


class TestEffectSize:
    def test_identical_samples_zero(self):
        assert effect_size([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0)

    def test_dominant_sample_positive(self):
        assert effect_size([10, 11], [1, 2]) == 1.0

    def test_dominated_sample_negative(self):
        assert effect_size([1, 2], [10, 11]) == -1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            effect_size([], [1])


class TestCompareDistributions:
    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            compare_distributions([1], [1, 2])

    def test_same_distribution_indistinguishable(self):
        rng = np.random.default_rng(0)
        a = rng.normal(10, 2, 200)
        b = rng.normal(10, 2, 200)
        cmp = compare_distributions(a, b)
        assert not cmp.distinguishable(alpha=0.001)

    def test_shifted_distribution_detected(self):
        rng = np.random.default_rng(1)
        a = rng.normal(14, 2, 200)
        b = rng.normal(10, 2, 200)
        cmp = compare_distributions(a, b)
        assert cmp.distinguishable()
        assert cmp.a_stochastically_larger()
        assert cmp.cliffs_delta > 0.5


class TestOnRealWorkloads:
    def test_adversary_is_stochastically_slower_than_random(self):
        """abl2's narrative as a statistical claim: the adversarial daemon's
        convergence-step distribution dominates the random daemon's."""
        from repro.core.ssrmin import SSRmin
        from repro.daemons.adversarial import AdversarialDaemon
        from repro.daemons.distributed import RandomSubsetDaemon
        from repro.simulation.convergence import convergence_steps

        n = 5
        adv = convergence_steps(
            algorithm_factory=lambda: SSRmin(n, n + 1),
            daemon_factory=lambda alg, s: AdversarialDaemon(alg, depth=1,
                                                            seed=s),
            trials=40,
            seed=0,
        )
        rnd = convergence_steps(
            algorithm_factory=lambda: SSRmin(n, n + 1),
            daemon_factory=lambda alg, s: RandomSubsetDaemon(seed=s),
            trials=40,
            seed=0,
        )
        cmp = compare_distributions(adv, rnd)
        assert cmp.cliffs_delta > 0  # adversary tends slower

    def test_k_insensitivity_statistically(self):
        """abl5 as a statistical claim: K=n+1 vs K=16n convergence-step
        distributions are NOT meaningfully separated."""
        from repro.simulation.batch import batch_convergence_steps

        n = 8
        a = batch_convergence_steps(n=n, trials=300, K=n + 1, seed=0)
        b = batch_convergence_steps(n=n, trials=300, K=16 * n, seed=1)
        cmp = compare_distributions(a, b)
        assert abs(cmp.cliffs_delta) < 0.3


def test_experiments_run_without_scipy(tmp_path):
    """scipy is a test-only dependency: importing repro.analysis and
    running an experiment must work where it is not installed."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any 'import scipy' now fails\n"
        "import repro.analysis\n"
        "from repro.experiments.registry import run_experiment_instrumented\n"
        f"result, _ = run_experiment_instrumented("
        f"'lem1', fast=True, outdir={str(tmp_path)!r})\n"
        "assert result.match\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir,
                                     os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
