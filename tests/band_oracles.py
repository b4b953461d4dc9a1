"""Test oracles for the mass-gamma band of indecide.gmm.band_for_gamma.

Before band_for_gamma, two bisections solved the same band.  The symmetric
oracle threshold_for_gamma returned the gamma = 0 point at once and
otherwise bisected from the bracket [0, delta + 2].  The plug-in risk of
the consistency study bisected the off-centre band from [0, 1], with no
gamma = 0 shortcut: there its predicate never holds and the bracket halves
down to h = 2**-111.  The band tests compare band_for_gamma against both.
"""

from __future__ import annotations

import numpy as np

from indecide import gmm
from indecide.numerics import bisect


def threshold_for_gamma_oracle(spec, gamma):
    """threshold_for_gamma's own bisection of the centred band."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if gamma == 0.0:
        return gmm.operating_point_at_t(spec, 0.0)
    (t,), _ = bisect(
        lambda ts: np.array([gmm.operating_point_at_t(spec, t).gamma < gamma for t in ts.tolist()]), [spec.delta + 2.0]
    )
    return gmm.operating_point_at_t(spec, t)


def plugin_band_oracle(center, predict1_right, delta, gamma):
    """plugin_population_risk's own bisection: its half-width h and the band's errors."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    spec = gmm.GmmSpec(delta)

    def errors(h):
        return gmm.interval_errors(spec, center - h, center + h, predict1_right)

    (h,), _ = bisect(lambda hs: np.array([errors(h)["gamma"] < gamma for h in hs.tolist()]), [1.0])
    return h, errors(h)
