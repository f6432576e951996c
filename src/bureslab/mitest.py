"""Product testing and mutual-information control.

Mutual information is bounded by closeness to product: a joint state
within squared Hellinger eta^2 of some product state obeys an explicit
MI ceiling, so a tester that certifies closeness-to-product doubles as
a correlation detector.  No run evaluates that ceiling, so its closed
forms live with the tests' analysis references
(``tests/oracles/analysis.py``).  This module carries the classical
tester (add-one marginal learning plus a chi-square identity test
against the learned product) and the quantum tester (marginals learned
by the staged pipeline with a spectrum floor, compared against the
joint in squared Hellinger).  A tester spends its copies and returns
its verdict with what the verdict read; it computes no divergence of
the true state beyond that.  Scoring against the truth, which only a
lab knows, is the harness's (the scores of its ``mi`` and
``classical_mi`` targets).

Everywhere below d means the marginal dimension: classical joints are
d x d tables, quantum joints live on a d^2-dimensional space.  All
entropies and divergences are in nats.
"""

from __future__ import annotations

import functools
import math
import statistics
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
    "learn_marginals",
    "pearson_null_variance",
    "pearson_null_quantile",
    "pearson_identity_test",
    "classical_mi_plan",
    "classical_mi_test",
    "quantum_mi_plan",
    "marginal_scale",
    "learn_marginal_floored",
    "learn_product_quantum",
    "hellinger_gap_verdict",
    "quantum_mi_test",
]


@dataclass(frozen=True)
class TesterVerdict:
    """Outcome of one product test plus everything worth logging."""

    accept: bool
    stats: dict


def _check_gap(d: int, eps: float) -> None:
    # the conversion chain needs ln(d/eps) > 0 and a subconstant gap
    if d < 2:
        raise pl.ParameterError("marginal dimension must be at least 2")
    if not 0.0 < eps <= 0.5:
        raise pl.ParameterError("MI gap eps must lie in (0, 1/2]")


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

def classical_mi_plan(d: int, eps: float) -> dict:
    """Working accuracies and sample sizes for one classical MI test.

    The route from an MI gap eps to a chi-square testing gap passes
    through the smoothing bound, which eats a ln(d/eps) factor; the
    learner gets enough samples that each marginal lands within a third
    of the working accuracy except with small constant probability, and
    the identity test runs at the usual sqrt(#outcomes) rate.  The plan
    is solved once per (d, eps) and each call hands out a fresh dict, so
    a caller may change its copy; a refused gap is not cached and raises
    on every call.
    """
    return dict(_solve_classical_plan(d, eps))


@functools.lru_cache(maxsize=None)
def _solve_classical_plan(d: int, eps: float) -> tuple:
    _check_gap(d, eps)
    eps_dd = config.C_INEQ * eps / math.log(d / eps)
    eps_t = 2.0 * eps_dd
    n_learn = math.ceil(config.C_LEARN_CLASSICAL * d / eps_dd)
    n_test = math.ceil(config.C_TEST_BUDGET * d / eps_t)
    return (("eps_dd", eps_dd), ("eps_t", eps_t),
            ("n_learn", int(n_learn)), ("n_test", int(n_test)))


def learn_marginals(counts: np.ndarray, n: int):
    """Add-one smoothed marginal estimates from a joint count table."""
    counts = np.asarray(counts)
    return (classical.add_one_hybrid(counts.sum(axis=1), n, 0),
            classical.add_one_hybrid(counts.sum(axis=0), n, 0))


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
    qa, qb = learn_marginals(counts_learn, plan["n_learn"])
    counts_test = rng.multinomial(plan["n_test"], flat)
    inner = pearson_identity_test(np.outer(qa, qb).ravel(), counts_test,
                                  plan["n_test"], plan["eps_t"], rng)
    stats = dict(inner.stats)
    stats.update(plan)
    stats["n_total"] = plan["n_learn"] + plan["n_test"]
    return TesterVerdict(accept=inner.accept, stats=stats)


# ---------------------------------------------------------------------------
# quantum marginal learning
# ---------------------------------------------------------------------------

def quantum_mi_plan(d: int, eps: float) -> dict:
    """Working accuracies for one quantum MI test at marginal dimension d."""
    _check_gap(d, eps)
    eps_prime = config.C_INEQ * eps / math.log(d / eps)
    eps_t = 2.0 * eps_prime
    return {"eps_prime": eps_prime, "eps_t": eps_t,
            "eps_learn": 0.49 * eps_t}


def marginal_scale(d: int, r: int, eps_learn: float) -> float:
    """Per-stage accuracy that lands a floored estimate within eps_learn.

    The cookie blend's chi-square error carries a sqrt(d/r) amplification
    on the blended block and a d^(3/4)/sqrt(r) one through the floor, so
    the stage scale shrinks by the worse of the two.
    """
    return eps_learn * min(d ** -0.5, math.sqrt(r) / d ** 0.75)


def learn_marginal_floored(rho: np.ndarray, eps_learn: float,
                           rng: np.random.Generator, r: int,
                           spec: fb.EstimatorSpec):
    """Learn one marginal with the staged pipeline and blend in a floor.

    Returns (estimate, record).  The estimate, a
    ``linalg.SpectralDecomposition`` (see ``pipeline.to_chi2``), carries
    eps_learn of uniform mass on any unresolved block, giving the
    spectrum floor the product decomposition needs; the record holds
    budgets and floor diagnostics.  floor_ok reports whether every
    eigenvalue (read off the estimate, with no new solve) cleared
    eps_learn / d, which a fully resolved rank-deficient state will not.
    """
    d = rho.shape[0]
    if not 0.0 < eps_learn < 0.5:
        raise pl.ParameterError("eps_learn must lie in (0, 1/2)")
    target = marginal_scale(d, r, eps_learn)
    params = pl.budget_for_scale(d, r, spec.rate(d, r), target)
    out = pl.staged_learn(rho, spec, params, rng)
    est = pl.to_chi2(out, eta=eps_learn)
    floor = float(est.values[0])
    record = {
        "dim": d, "rank_cap": int(r), "eps_learn": float(eps_learn),
        "eps_tilde": params.eps_tilde, "stage_budget": params.m,
        "consumed": out.consumed, "prefix": out.prefix,
        "eps_residual": out.eps_prime, "stop_reason": out.stop_reason,
        "min_eigenvalue": floor,
        "floor_ok": bool(floor >= eps_learn / d - config.PSD_TOL),
    }
    return est, record


def learn_product_quantum(rho_joint: np.ndarray, d: int, eps_learn: float,
                          rng: np.random.Generator, r: int,
                          spec: fb.EstimatorSpec):
    """Learn both marginals of a d x d bipartite state as floored estimates.

    Local algorithms on disjoint subsystems can share copies, so every
    joint copy yields one copy of each marginal and the joint cost is
    the larger of the two marginal budgets, not their sum.  Returns
    (estimates, record): the two marginals' estimates as decompositions,
    in ``linalg.marginals``'s order, and the budgets.
    """
    rho_a, rho_b = linalg.marginals(rho_joint, d)
    sigma_hat, rec_a = learn_marginal_floored(rho_a, eps_learn, rng, r, spec)
    tau_hat, rec_b = learn_marginal_floored(rho_b, eps_learn, rng, r, spec)
    record = {"a": rec_a, "b": rec_b,
              "joint_copies": max(rec_a["consumed"], rec_b["consumed"]),
              "floor_ok": rec_a["floor_ok"] and rec_b["floor_ok"]}
    return (sigma_hat, tau_hat), record


# ---------------------------------------------------------------------------
# quantum tester
# ---------------------------------------------------------------------------

def hellinger_gap_verdict(hellinger_sq: float, eps_t: float) -> bool:
    """Accept when the exact squared Hellinger distance between the joint
    and the learned product, which the lab knows, sits below 2 eps_t."""
    return bool(hellinger_sq < 2.0 * eps_t)


def quantum_mi_test(rho_joint, joint: linalg.SpectralDecomposition, d: int,
                    eps: float, rng: np.random.Generator, r: int,
                    spec: fb.EstimatorSpec) -> TesterVerdict:
    """One round of the quantum MI test on a known d x d bipartite state,
    given with its eigensystem ``joint``.

    Learns floored marginal estimates at 0.49 eps_t in Bures chi-square,
    each with rank cap ``r`` and base estimator ``spec`` (a scenario's
    ``r`` and ``estimator``), and accepts when the joint sits within
    2 eps_t of their product in squared Hellinger
    (:func:`hellinger_gap_verdict`).  Accepting certifies MI below eps
    with high probability; states with MI at least eps reject with high
    probability.  The stats carry the plan, the learning record, the
    verdict's input ``hellinger_sq`` and the learned product as a
    decomposition under ``product``, built from its factors'
    eigensystems; the joint's is given, so no call solves one.  Scoring
    the learned product against the true marginals is the caller's.
    """
    plan = quantum_mi_plan(d, eps)
    (sigma_hat, tau_hat), record = learn_product_quantum(
        rho_joint, d, plan["eps_learn"], rng, r, spec)
    learned = linalg.kron_decomposition(sigma_hat, tau_hat)
    stats = {**plan, "learning": record,
             "joint_copies": record["joint_copies"], "product": learned,
             "hellinger_sq": dv.hellinger_sq_q(joint, learned)}
    return TesterVerdict(
        accept=hellinger_gap_verdict(stats["hellinger_sq"], plan["eps_t"]),
        stats=stats)
