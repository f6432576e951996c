"""Product testing and mutual-information control.

Mutual information is bounded by closeness to product: a joint state
within squared Hellinger eta^2 of some product state obeys an explicit
MI ceiling, so a tester that certifies closeness-to-product doubles as
a correlation detector.  No run evaluates that ceiling, so its closed
forms live with the tests' analysis references
(``tests/oracles/analysis.py``).  Both testers turn the MI gap into
one working accuracy and testing gap, learn the marginals and test the
joint against their product: the classical tester by add-one learning
and a chi-square identity test, the quantum tester by two staged runs
with a spectrum floor and a squared-Hellinger gap.  A tester spends its
copies and returns its verdict with what the verdict read, its staged
runs included; it computes no divergence of the true state beyond that.
Scoring against the truth, which only a lab knows, is the harness's
(the scores of its ``mi`` and ``classical_mi`` targets).

Everywhere below d means the marginal dimension: classical joints are
d x d tables, quantum joints live on a d^2-dimensional space.  All
entropies and divergences are in nats.
"""

from __future__ import annotations

import functools
import math
import statistics
import types
from dataclasses import dataclass

import numpy as np

from . import classical, config
from . import divergences as dv
from . import frobenius as fb
from . import linalg
from . import pipeline as pl

__all__ = [
    "TesterVerdict",
    "correlated_joint",
    "pearson_null_variance",
    "pearson_null_quantile",
    "pearson_identity_test",
    "classical_mi_plan",
    "classical_mi_test",
    "learn_product_quantum",
    "quantum_mi_test",
]


@dataclass(frozen=True)
class TesterVerdict:
    """Outcome of one product test plus everything worth logging."""

    accept: bool
    stats: dict


def _working_gap(d: int, eps: float) -> tuple:
    """(eps', eps_t) = (C_INEQ eps / ln(d/eps), 2 eps') for an MI gap eps:
    the smoothing bound on the way to a testing gap eats a ln(d/eps)
    factor, so the chain needs ln(d/eps) > 0 and a subconstant gap."""
    if d < 2:
        raise pl.ParameterError("marginal dimension must be at least 2")
    if not 0.0 < eps <= 0.5:
        raise pl.ParameterError("MI gap eps must lie in (0, 1/2]")
    eps_prime = config.C_INEQ * eps / math.log(d / eps)
    return eps_prime, 2.0 * eps_prime


# ---------------------------------------------------------------------------
# classical joint families
# ---------------------------------------------------------------------------

def correlated_joint(d: int, lam: float) -> np.ndarray:
    """Uniform product blended with a perfectly correlated diagonal.

    Both marginals stay uniform for every lam, so the family sweeps MI
    from 0 to ln d without moving anything a marginal learner can see.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    joint = np.full((d, d), (1.0 - lam) / (d * d))
    joint[np.diag_indices(d)] += lam / d
    return joint


# ---------------------------------------------------------------------------
# classical tester
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def classical_mi_plan(d: int, eps: float) -> types.MappingProxyType:
    """Working accuracies and sample sizes for one classical MI test.

    eps_dd and eps_t are the working accuracy and testing gap of the
    MI gap eps (the quantum tester's eps_prime and eps_t); the learner
    gets enough samples that each marginal lands within a third
    of the working accuracy except with small constant probability, and
    the identity test runs at the usual sqrt(#outcomes) rate.  The plan
    is solved once per (d, eps) and every call gets the same read-only
    mapping; a refused gap is not cached and raises on every call.
    """
    eps_dd, eps_t = _working_gap(d, eps)
    n_learn = math.ceil(config.C_LEARN_CLASSICAL * d / eps_dd)
    n_test = math.ceil(config.C_TEST_BUDGET * d / eps_t)
    return types.MappingProxyType({"eps_dd": eps_dd, "eps_t": eps_t,
                                   "n_learn": int(n_learn),
                                   "n_test": int(n_test)})


def pearson_null_variance(q, n: int) -> float:
    """Exact variance of the Pearson statistic under the multinomial null.

    With k bins of probability q and n samples the statistic has mean
    k - 1 and variance 2 (k - 1) + (sum 1/q_i - k^2 - 2k + 2) / n.
    """
    q = np.asarray(q, dtype=float)
    k = q.size
    return 2.0 * (k - 1) + (float(np.sum(1.0 / q)) - k * k - 2 * k + 2) / n


#: the standard normal quantile at PEARSON_NULL_LEVEL
_NULL_Z = statistics.NormalDist().inv_cdf(config.PEARSON_NULL_LEVEL)


def pearson_null_quantile(k: int, variance: float) -> float:
    """Closed-form PEARSON_NULL_LEVEL quantile of the Pearson null over
    k bins, given its variance V (:func:`pearson_null_variance`).

    A scaled chi-square c chi2_nu is matched to the null's mean k - 1
    and variance V: c = V / (2 (k - 1)) and nu = 2 (k - 1)^2 / V.  Its
    quantile comes from the Wilson-Hilferty cube-root normal
    approximation (Wilson & Hilferty 1931),

        (k - 1) (1 - a + z sqrt(a))^3,  a = 2 / (9 nu) = V / (9 (k - 1)^2),

    with z the standard normal quantile at that level (a module
    constant) and the cube's base clamped at zero.  Matching V, not just
    the mean, keeps the quantile close to the simulated one when some
    expected counts n q_i are far below one, where plain chi2(k - 1)
    sits too low.  O(1) work and no random draws.
    """
    mean = k - 1.0
    if mean < 1.0:  # one bin: the statistic is identically zero
        return 0.0
    a = variance / (9.0 * mean * mean)
    return mean * max(1.0 - a + _NULL_Z * math.sqrt(a), 0.0) ** 3


def pearson_identity_test(q, counts, n: int, eps_t: float,
                          rng: np.random.Generator,
                          sims: int = 0) -> TesterVerdict:
    """Chi-square identity test of observed counts against a reference.

    The statistic is sum (c - n q)^2 / (n q) over the support of q; the
    acceptance threshold is the null's 0.99 quantile plus a separation
    margin proportional to n eps_t, so distributions with chi-square
    divergence at least eps_t from q land above it.  With ``sims`` = 0
    the quantile is the closed form of :func:`pearson_null_quantile`,
    read off the exact null variance computed once, and no random draws
    are made; ``sims`` > 0 places it from that many simulated null
    multinomials drawn from ``rng`` instead, the reference the closed
    form is checked against.  The stats carry the null quantile and
    variance either route used.  Any observed count outside the support
    rejects outright; a reference with every cell positive is read whole,
    with no support gathers.  eps_t above 1/2 is outside the tester's
    domain.
    """
    if not 0.0 < eps_t <= 0.5:
        raise pl.ParameterError("eps_t must lie in (0, 1/2]")
    if n < 1:
        raise ValueError("need at least one test sample")
    if sims < 0:
        raise ValueError("sims must be nonnegative")
    q = np.asarray(q, dtype=float).ravel()
    counts = np.asarray(counts).ravel()
    if q.shape != counts.shape:
        raise ValueError("reference and counts disagree on outcome count")
    stats = {"n": int(n), "bins": int(q.size), "eps_t": float(eps_t),
             "escaped": 0}
    # an add-one smoothed product has every cell positive, and a NaN
    # cell counts as outside the support
    if not q.min(initial=math.inf) > 0.0:
        support = q > 0.0
        stats["escaped"] = int(np.sum(counts[~support]))
        if stats["escaped"] > 0:
            stats.update(statistic=math.inf, threshold=math.nan,
                         null_quantile=math.nan, null_variance=math.nan)
            return TesterVerdict(accept=False, stats=stats)
        q, counts = q[support], counts[support]
    qs = q / q.sum()
    expected = n * qs
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    if sims > 0:
        null = rng.multinomial(n, qs, size=sims)
        null_stats = np.sum((null - expected) ** 2 / expected, axis=1)
        quantile = float(np.quantile(null_stats, config.PEARSON_NULL_LEVEL))
        variance = float(null_stats.var())
    else:
        variance = pearson_null_variance(qs, n)
        quantile = pearson_null_quantile(qs.size, variance)
    threshold = quantile + config.PEARSON_MARGIN * n * eps_t
    stats.update(statistic=statistic, threshold=threshold,
                 null_quantile=quantile, null_variance=variance)
    return TesterVerdict(accept=bool(statistic <= threshold), stats=stats)


def classical_mi_test(joint, eps: float,
                      rng: np.random.Generator) -> TesterVerdict:
    """One round of the classical MI test on a known d x d joint table.

    Draws its own samples: a learning batch fixes add-one marginal
    estimates, then a fresh testing batch feeds the identity tester
    against their product.  Accepting certifies MI below eps with high
    probability; joints with MI at least eps reject with high
    probability.  The stats are the identity test's, the plan and the
    total sample count ``n_total``.  The joint is read only to draw
    from; scoring the learned product against it is the caller's.
    """
    p = np.asarray(joint, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"joint must be a d x d table, got shape {p.shape}")
    if not (np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError("joint must be a probability table")
    d = p.shape[0]
    plan = classical_mi_plan(d, eps)
    flat = p.ravel()
    counts_learn = rng.multinomial(plan["n_learn"], flat).reshape(p.shape)
    qa = classical.add_one_hybrid(counts_learn.sum(axis=1), plan["n_learn"], 0)
    qb = classical.add_one_hybrid(counts_learn.sum(axis=0), plan["n_learn"], 0)
    counts_test = rng.multinomial(plan["n_test"], flat)
    inner = pearson_identity_test(np.outer(qa, qb).ravel(), counts_test,
                                  plan["n_test"], plan["eps_t"], rng)
    stats = dict(inner.stats)
    stats.update(plan)
    stats["n_total"] = plan["n_learn"] + plan["n_test"]
    return TesterVerdict(accept=inner.accept, stats=stats)


# ---------------------------------------------------------------------------
# quantum tester
# ---------------------------------------------------------------------------

def learn_product_quantum(rho_joint: np.ndarray, d: int, eps_learn: float,
                          rng: np.random.Generator, r: int,
                          spec: fb.EstimatorSpec):
    """Learn both marginals of a d x d bipartite state as floored estimates.

    Each marginal gets one staged run, and ``pipeline.to_chi2`` blends
    eps_learn of uniform mass into its unresolved block, the spectrum
    floor the product decomposition needs.  The blend's chi-square error
    carries a sqrt(d/r) amplification on the blended block and a
    d^(3/4)/sqrt(r) one through the floor, so the stage scale shrinks by
    the worse of the two; both marginals share d, r and ``spec``, so
    they share one budget.  Local algorithms on disjoint subsystems can
    share copies, so the joint cost is one run's plan, not the sum.

    Returns (estimates, learning): the two estimates as decompositions,
    in ``linalg.marginals``'s order, and a dict of the two staged runs
    (``runs``) and ``floor_ok``, whether every eigenvalue of both
    estimates cleared eps_learn / d, which a fully resolved
    rank-deficient marginal will not.  Both runs spend their shared
    plan's ``total``, the joint copy count.
    """
    if not 0.0 < eps_learn < 0.5:
        raise pl.ParameterError("eps_learn must lie in (0, 1/2)")
    scale = eps_learn * min(d ** -0.5, math.sqrt(r) / d ** 0.75)
    params = pl.budget_for_scale(d, r, spec.rate(d, r), scale)
    runs = tuple(pl.staged_learn(rho, spec, params, rng)
                 for rho in linalg.marginals(rho_joint, d))
    estimates = tuple(pl.to_chi2(out, eta=eps_learn) for out in runs)
    floor = eps_learn / d - config.PSD_TOL
    return estimates, {
        "runs": runs,
        "floor_ok": all(est.values[0] >= floor for est in estimates)}


def quantum_mi_test(rho_joint, joint: linalg.SpectralDecomposition, d: int,
                    eps: float, rng: np.random.Generator, r: int,
                    spec: fb.EstimatorSpec) -> TesterVerdict:
    """One round of the quantum MI test on a known d x d bipartite state,
    given with its eigensystem ``joint``.

    Learns floored marginal estimates at eps_learn = 0.49 eps_t in Bures
    chi-square (:func:`learn_product_quantum`), each with rank cap ``r``
    and base estimator ``spec`` (a scenario's ``r`` and ``estimator``),
    and accepts when the exact squared Hellinger distance between the
    joint and their product, which the lab knows, sits below 2 eps_t.
    Accepting certifies MI below eps with high probability; states with
    MI at least eps reject with high probability.  The stats carry
    eps_prime, eps_t and eps_learn, the learning record,
    ``joint_copies`` (the runs' shared plan total), the verdict's
    input ``hellinger_sq`` and the learned product as a decomposition
    under ``product``, built from its factors' eigensystems; the joint's
    is given, so no call solves one.  Scoring the learned product
    against the true marginals is the caller's.
    """
    eps_prime, eps_t = _working_gap(d, eps)
    eps_learn = 0.49 * eps_t
    (sigma_hat, tau_hat), learning = learn_product_quantum(
        rho_joint, d, eps_learn, rng, r, spec)
    learned = linalg.kron_decomposition(sigma_hat, tau_hat)
    hellinger_sq = dv.hellinger_sq_q(joint, learned)
    return TesterVerdict(accept=bool(hellinger_sq < 2.0 * eps_t), stats={
        "eps_prime": eps_prime, "eps_t": eps_t, "eps_learn": eps_learn,
        "learning": learning,
        "joint_copies": learning["runs"][0].params.total,
        "product": learned, "hellinger_sq": hellinger_sq})
