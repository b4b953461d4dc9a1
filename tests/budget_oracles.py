"""Test oracles for the high-probability type-I budget of indecide.calibration.

loop_type1_count_budget steps each level's count down from its cap one
binomial CDF at a time; ppf_type1_count_budget is the budget as it was
computed before the CDF-inversion rewrite, one binomial quantile and one
CDF per level.  The budget tests compare _type1_count_budget against both.
"""

from __future__ import annotations

import numpy as np


def loop_type1_count_budget(n1, levels, high_prob_delta):
    """The per-level loop the vectorized high-probability budget replaced."""
    from scipy.stats import binom

    counts = np.zeros(len(levels))
    for idx, p in enumerate(levels):
        j = int(np.floor(p * n1))
        while j > 0 and binom.cdf(j - 1, n1, p) > high_prob_delta:
            j -= 1
        counts[idx] = j
    return counts


def ppf_type1_count_budget(n1, levels, high_prob_delta):
    """One binomial delta-quantile m and one CDF per level: the count is m + 1
    when the CDF at m is still at most delta, else m, within the cap."""
    from scipy.stats import binom

    cap = np.floor(levels * n1)
    counts = np.zeros(len(levels))
    live = cap > 0  # a zero cap leaves no count to search
    p = levels[live]
    m = binom.ppf(high_prob_delta, n1, p)
    counts[live] = np.maximum(np.minimum(cap[live], m + (binom.cdf(m, n1, p) <= high_prob_delta)), 0)
    return counts
