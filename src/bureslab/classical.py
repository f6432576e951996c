"""Estimators for discrete distributions from iid counts.

The quantum pipeline reduces its classical step to one primitive: an
add-one smoothed estimator with chi-square control on a chosen subset.

High-probability statements are phrased through the effective sample
count m_delta = m / (CONF_SCALE * ln(1/delta)): with m samples, events
are guaranteed with failure probability delta at accuracy 1/m_delta.
"""

from __future__ import annotations

import math

import numpy as np

from . import config

__all__ = [
    "effective_samples",
    "mass_floor",
    "add_one_hybrid",
]


def effective_samples(m: int, delta: float) -> float:
    """m_delta = m / (CONF_SCALE * ln(1/delta))."""
    if m <= 0:
        raise ValueError("m must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return m / (config.CONF_SCALE * math.log(1.0 / delta))


def mass_floor(m: int, delta: float) -> float:
    """1/m_delta: the mass scale below which a subset is unresolvable."""
    return 1.0 / effective_samples(m, delta)


def add_one_hybrid(counts, m: int, subset) -> np.ndarray:
    """Add-one smoothing on a subset: q_i = (counts_i + [i in S]) / (m + |S|).

    Defined for every coordinate; only the S-block carries the guarantee
    E[chi2(p[S] || q[S])] <= 2|S|/m.  Smoothing keeps q positive on S, so
    the chi-square against the true restriction is finite no matter how
    the counts fall.
    """
    counts = np.asarray(counts, dtype=float)
    s_mask = np.zeros(counts.size, dtype=float)
    s_mask[np.asarray(subset, dtype=int)] = 1.0
    s = int(s_mask.sum())
    return (counts + s_mask) / (m + s)

