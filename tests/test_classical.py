import math

import numpy as np
import pytest

from bureslab import classical, config
from bureslab.divergences import chi_sq_divergence
from oracles import analysis


def test_effective_samples_formula():
    m, delta = 100_000, 0.01
    want = m / (config.CONF_SCALE * math.log(1 / delta))
    assert classical.effective_samples(m, delta) == pytest.approx(want)
    assert classical.mass_floor(m, delta) == pytest.approx(1 / want)
    with pytest.raises(ValueError):
        classical.effective_samples(0, 0.1)
    with pytest.raises(ValueError):
        classical.effective_samples(10, 1.5)


def test_conf_scale_covers_the_floor():
    """A mass exactly at mass_floor(m, delta) is estimated within a 1.01
    factor except with probability delta: the requirement CONF_SCALE is
    sized for.  A CONF_SCALE ten times too small reads about 0.3 here."""
    delta = 0.1
    m = 20 * math.ceil(config.CONF_SCALE * math.log(1 / delta))
    p = classical.mass_floor(m, delta)
    rng = np.random.default_rng(101)
    draws = rng.binomial(m, p, size=4_000) / m
    off = np.mean((draws < p / 1.01) | (draws > 1.01 * p))
    assert off <= delta


def test_empirical_moments():
    # mean is exact, mean squared-l2 error matches the binomial identity
    rng = np.random.default_rng(101)
    p = rng.dirichlet(np.ones(5))
    m, trials = 200, 4000
    hats = rng.multinomial(m, p, size=trials) / m
    err = np.sum((hats - p) ** 2, axis=1)
    exact = np.sum(p * (1 - p)) / m
    se = err.std() / np.sqrt(trials)
    assert abs(err.mean() - exact) < 4 * se
    assert err.mean() <= 1.0 / m + 4 * se  # mass/m bound at full mass
    assert np.max(np.abs(hats.mean(axis=0) - p)) < 0.01


def _add_one_on_subset(counts, m, subset):
    """Add-one smoothing on an index subset, by a 0/1 mask: the form the
    suffix smoothing replaced, kept as its reference."""
    counts = np.asarray(counts, dtype=float)
    s_mask = np.zeros(counts.size, dtype=float)
    s_mask[np.asarray(subset, dtype=int)] = 1.0
    s = int(s_mask.sum())
    return (counts + s_mask) / (m + s)


def test_add_one_hybrid_values():
    q = classical.add_one_hybrid([1, 3, 0], m=4, start=1)
    assert np.allclose(q, [1 / 6, 4 / 6, 1 / 6])
    # full-support smoothing keeps a normalized vector
    q2 = classical.add_one_hybrid([2, 2, 0], m=4, start=0)
    assert q2.sum() == pytest.approx(1.0)
    assert np.all(q2 > 0)
    with pytest.raises(ValueError):
        classical.add_one_hybrid([2, 2, 0], m=4, start=4)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_add_one_suffix_equals_the_mask_form(d):
    """Bit for bit, at every start, on counts of every magnitude up to
    the 1e15 copies a relearning pass can draw; an empty suffix
    (start = d) smooths nothing."""
    rng = np.random.default_rng([2029, d])
    for m in (7, 10 ** 6, 10 ** 15):
        counts = rng.multinomial(m, rng.dirichlet(np.ones(d)))
        for start in range(d + 1):
            got = classical.add_one_hybrid(counts, m, start)
            want = _add_one_on_subset(counts, m, np.arange(start, d))
            assert np.array_equal(got, want), (m, start)


def test_add_one_mean_uniform_frozen():
    # frozen from tests/oracles/addone_mean_oracle.py (binomial summation)
    d, m = 10, 100
    p = np.full(d, 1.0 / d)
    exact = analysis.add_one_expected_chi2(p, m, range(d))
    assert exact == pytest.approx(0.089082875460, abs=1e-10)
    bound = analysis.add_one_chi2_bound(1.0, m, d)
    assert bound == pytest.approx(0.089108910891, abs=1e-10)
    assert bound == pytest.approx((d - 1) / (m + 1), abs=1e-12)
    assert exact <= bound
    assert bound <= 2 * d / m

    rng = np.random.default_rng(2026)
    trials = 30_000
    counts = rng.multinomial(m, p, size=trials)
    q = (counts + 1.0) / (m + d)
    vals = np.sum((p - q) ** 2 / q, axis=1)
    se = vals.std() / np.sqrt(trials)
    assert abs(vals.mean() - exact) < 4 * se
    assert vals.mean() <= bound + 3 * se


def test_add_one_mean_skewed_subset_frozen():
    # frozen from tests/oracles/addone_mean_oracle.py
    p = np.array([0.4, 0.3, 0.2, 0.05, 0.05])
    m, subset = 60, [0, 1, 3]
    exact = analysis.add_one_expected_chi2(p, m, subset)
    assert exact == pytest.approx(0.034234862230, abs=1e-10)

    rng = np.random.default_rng(2027)
    trials = 30_000
    counts = rng.multinomial(m, p, size=trials)
    q = (counts[:, subset] + 1.0) / (m + len(subset))
    vals = np.sum((p[subset] - q) ** 2 / q, axis=1)
    se = vals.std() / np.sqrt(trials)
    assert abs(vals.mean() - exact) < 4 * se
    # the subset bound needs the subset mass, not 1
    bound = analysis.add_one_chi2_bound(p[subset].sum(), m, len(subset))
    assert vals.mean() <= bound + 3 * se


def test_add_one_within_factor_four_on_resolved_coordinates():
    # every p_i in S above the per-coordinate mass floor => all q_i within
    # 4x, with failure probability well under delta
    delta, s = 0.2, 3
    p = np.array([0.3, 0.3, 0.3, 0.1])
    subset = [0, 1, 2]
    m = 400_000
    assert p[subset].min() >= classical.mass_floor(m, delta / s)
    rng = np.random.default_rng(2028)
    bad = 0
    for _ in range(200):
        counts = rng.multinomial(m, p)
        # reordered after the draw so that S is the suffix [1, 4)
        q = classical.add_one_hybrid(counts[[3, *subset]], m, 1)
        ratio = q[1:] / p[subset]
        if ratio.max() > 4.0 or ratio.min() < 0.25:
            bad += 1
    assert bad / 200 <= delta


def test_chi2_of_product_identity():
    rng = np.random.default_rng(103)
    p1, q1 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
    p2, q2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    e1 = chi_sq_divergence(p1, q1)
    e2 = chi_sq_divergence(p2, q2)
    direct = chi_sq_divergence(np.outer(p1, p2).ravel(), np.outer(q1, q2).ravel())
    assert (1.0 + e1) * (1.0 + e2) - 1.0 == pytest.approx(direct, rel=1e-12)
