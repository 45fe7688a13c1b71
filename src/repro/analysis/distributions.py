"""Statistical comparison of step/time distributions (scipy-backed).

Claims like "the adversary is slower than the random daemon" or "K's
magnitude does not matter" are distributional; eyeballing means is weak
evidence.  :func:`compare_distributions` wraps the two-sample
Kolmogorov-Smirnov and Mann-Whitney U tests into one verdict object, and
:func:`effect_size` gives Cliff's delta (how often one sample exceeds the
other) for magnitude alongside significance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class DistributionComparison:
    """Two-sample comparison verdict.

    Attributes
    ----------
    ks_statistic, ks_pvalue:
        Two-sample Kolmogorov-Smirnov test (distribution equality).
    mw_statistic, mw_pvalue:
        Mann-Whitney U test (stochastic ordering).
    cliffs_delta:
        Cliff's delta in ``[-1, 1]``: positive means sample A tends larger.
    """

    ks_statistic: float
    ks_pvalue: float
    mw_statistic: float
    mw_pvalue: float
    cliffs_delta: float

    def distinguishable(self, alpha: float = 0.01) -> bool:
        """Whether the KS test rejects distribution equality at ``alpha``."""
        return self.ks_pvalue < alpha

    def a_stochastically_larger(self, alpha: float = 0.01) -> bool:
        """Whether A tends larger than B (MW significant AND delta > 0)."""
        return self.mw_pvalue < alpha and self.cliffs_delta > 0


def effect_size(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta: P(a > b) - P(a < b) over random cross pairs."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be non-empty")
    # Broadcasted comparison is fine at experiment sample sizes (<= ~10^4).
    greater = (xa[:, None] > xb[None, :]).sum()
    less = (xa[:, None] < xb[None, :]).sum()
    return float((greater - less) / (xa.size * xb.size))


def compare_distributions(
    a: Sequence[float], b: Sequence[float]
) -> DistributionComparison:
    """Run KS + Mann-Whitney + Cliff's delta on two samples."""
    # Imported here: scipy is a test-only dependency, and importing
    # repro.analysis must not need it.
    from scipy import stats

    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.size < 2 or xb.size < 2:
        raise ValueError("need at least two observations per sample")
    ks = stats.ks_2samp(xa, xb)
    mw = stats.mannwhitneyu(xa, xb, alternative="two-sided")
    return DistributionComparison(
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        mw_statistic=float(mw.statistic),
        mw_pvalue=float(mw.pvalue),
        cliffs_delta=effect_size(xa, xb),
    )
