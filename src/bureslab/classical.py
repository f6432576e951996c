"""Estimators for discrete distributions from iid counts.

The quantum pipeline reduces everything to two classical primitives:
an add-one smoothed estimator (chi-square control on a chosen subset)
and a median-of-batches two-outcome estimator (high-probability
chi-square control).

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
    "two_outcome_median",
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


def two_outcome_median(draw, eps: float, delta: float):
    """High-probability chi-square estimate of a two-outcome distribution.

    ``draw(k)`` must return counts from k fresh samples.  Runs
    ceil(8 ln(1/delta)) batches of ceil(4/eps) samples, add-one estimates
    each, and returns the batch whose first-outcome weight is the lower
    median, together with the number of samples consumed.

    Each batch is good (chi2(p || q_hat) <= eps) with probability >= 3/4
    by Markov from the exact mean 1/(batch+1); goodness is an interval
    condition in q_hat[1], so the median batch is good whenever more than
    half the batches are, which fails with probability at most delta.
    """
    if not 0.0 < eps:
        raise ValueError("eps must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    n_batches = math.ceil(config.BIT_BATCHES_SCALE * math.log(1.0 / delta))
    n_batches = max(n_batches, 1)
    batch = math.ceil(config.BIT_BATCH_EPS_SCALE / eps)
    estimates = np.empty((n_batches, 2))
    for b in range(n_batches):
        counts = np.asarray(draw(batch), dtype=float)
        if counts.shape != (2,):
            raise ValueError("draw must return a length-2 count vector")
        estimates[b] = (counts + 1.0) / (batch + 2.0)
    order = np.argsort(estimates[:, 1], kind="stable")
    pick = order[(n_batches - 1) // 2]
    return estimates[pick].copy(), n_batches * batch
