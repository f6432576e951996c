"""Where the frozen constants come from, with small empirical probes.

Run as ``python3 -m bureslab.calibrate``.  Each section prints one
constant from :mod:`bureslab.config`: the arithmetic that produced the
frozen value, then a quick simulation showing the value actually
covers what it promises at desk scale.  Nothing here feeds back into
the library; the probes exist so a changed constant gets noticed as a
changed report, not as a silently different experiment.
"""

from __future__ import annotations

import math

import numpy as np

from . import classical
from . import config
from . import divergences as dv
from . import frobenius as fb
from . import linalg
from . import measurement as ms
from . import pipeline as pl


def _section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def conf_scale() -> None:
    """CONF_SCALE: per-confidence-unit cost of a 1.01-factor estimate."""
    _section(f"CONF_SCALE = {config.CONF_SCALE:g}")
    eta = 1.0 - 1.0 / 1.01
    raw = 4.0 / eta ** 2
    print(f"multiplicative Chernoff with eta = 1 - 1/1.01 = {eta:.6f}")
    print(f"4 / eta^2 = {raw:.0f}, rounded up to {config.CONF_SCALE:g}")
    print("any mass at or above mass_floor(m, delta) is then estimated")
    print("within a 1.01 factor except with probability delta, which is")
    print("what lets the stop and tail rules compare masses at 1.1 scale")
    delta = 0.1
    m = 20 * math.ceil(config.CONF_SCALE * math.log(1.0 / delta))
    p = classical.mass_floor(m, delta)
    rng = np.random.default_rng(101)
    draws = rng.binomial(m, p, size=4_000) / m
    bad = float(np.mean((draws < p / 1.01) | (draws > 1.01 * p)))
    print(f"probe: p = floor = {p:.4g} at m={m}, delta={delta}: "
          f"off-by-1.01x rate {bad:.4f} (allowed {delta})")


def bit_scale() -> None:
    """Batch counts behind the median-of-batches two-outcome estimator."""
    _section(f"BIT_BATCHES_SCALE = {config.BIT_BATCHES_SCALE:g}, "
             f"BIT_BATCH_EPS_SCALE = {config.BIT_BATCH_EPS_SCALE:g}")
    print("each batch lands inside the chi-square ball with odds >= 3/4")
    print("(Markov from the add-one mean); the lower median misses only")
    print("when half the batches do, so ceil(8 ln(1/delta)) batches of")
    print("ceil(4/eps) samples give failure <= delta")
    eps, delta = 0.1, 0.05
    rng = np.random.default_rng(102)
    fails = 0
    sims = 500
    for _ in range(sims):
        p = np.array([0.23, 0.77])
        est, _ = classical.two_outcome_median(
            lambda k: rng.multinomial(k, p), eps, delta)
        fails += dv.chi_sq_divergence(p, est) > eps
    print(f"probe: eps={eps}, delta={delta}: failure rate "
          f"{fails / sims:.4f} (allowed {delta})")


def matching_rate() -> None:
    """K_ACC: the promised constant in the entrywise estimator's rate."""
    _section(f"K_ACC = {config.K_ACC:g}")
    print("pair interference rounds put avg(rho_ii, rho_jj)/shots of")
    print("variance on each off-diagonal entry; with the diagonal pass the")
    print("total is (2d-1)/shots for even d and (2d+1)/shots for odd, so")
    print("the copy-normalized constant is that times povms / d^2:")
    for d in (4, 5, 6):
        povms = 2 * ms.matching_round_count(d) + 1
        per_shot = 2 * d - 1 if d % 2 == 0 else 2 * d + 1
        exact = per_shot * povms / d ** 2
        rng = np.random.default_rng(103 + d)
        errs = []
        for _ in range(300):
            rho = linalg.random_density(d, d, rng)
            errs.append(linalg.frob_sq(
                fb.simple_frobenius(rho, 2_000, rng) - rho))
        seen = float(np.mean(errs)) * 2_000 * povms / d ** 2
        tag = "<= K_ACC" if exact <= config.K_ACC else "above K_ACC"
        print(f"  d={d}: {povms} povms, worst-case constant {exact:.4g} "
              f"({tag}), measured on random states {seen:.4g}")
    print("odd d pays for the phantom matching slot, pushing the worst")
    print("case past K_ACC; the promise is calibrated for even d, which")
    print("is all the guarantees quote")


def qubit_scale() -> None:
    """QUBIT_SCALE: copies per unit accuracy for the qubit learner."""
    _section(f"QUBIT_SCALE = {config.QUBIT_SCALE:g}")
    print("three quarter-budget Pauli passes pin the Bloch axis, the")
    print("rest feeds the median estimator at eps/2; the scale was")
    print("frozen where the measured failure rate sits well under delta")
    print("at desk accuracies (0.1 and 0.03 in the acceptance suite)")
    eps, delta, sims = 0.2, 0.05, 400
    fails = 0
    rng = np.random.default_rng(104)
    for _ in range(sims):
        rho = linalg.random_density(2, 2, rng)
        est, _ = pl.qubit_learn(rho, eps, delta, rng)
        fails += not dv.bures_chi2(rho, est) <= eps
    print(f"probe: eps={eps}, delta={delta}: failure rate "
          f"{fails / sims:.4f} (allowed {delta})")


def plan_scale() -> None:
    """K_PLAN: per-stage scale backed out of an end-to-end chi2 target."""
    _section(f"K_PLAN = {config.K_PLAN:g}")
    print("the blended estimate pays roughly sqrt(d/r) * eps_tilde * "
          "log(1/eps_tilde)")
    print("end to end, so the planner asks for stage scale "
          "eps_final * sqrt(r/d) / K_PLAN")
    spec = fb.parse_estimator("oracle:f=d")
    d, r, eps_final = 8, 2, 0.2
    params = pl.plan_budget(d, r, spec.rate(d, r), eps_final)
    rng = np.random.default_rng(105)
    ratios = []
    for _ in range(50):
        rho = linalg.random_density(d, r, rng)
        out = pl.staged_learn(rho, spec, params, rng)
        ratios.append(dv.bures_chi2(rho, pl.to_chi2(out)) / eps_final)
    floor = 2.0 * params.eps_tilde / eps_final
    print(f"probe: d={d}, r={r}, target {eps_final}: stage scale "
          f"{params.eps_tilde:.4g}, {params.l_max} stages, "
          f"{params.total:.3g} copies")
    print(f"  achieved/target max {max(ratios):.4f} over 50 trials "
          f"(must be < 1); at oracle budgets the error sits on the")
    print(f"  state-independent add-one floor 2*eps_tilde/target = "
          f"{floor:.4f}, so the margin is absorbing the worst case of")
    print("  measured estimators, not slack in the oracle run")


def tester_budgets() -> None:
    """The product-tester constants, shown as one worked budget."""
    _section(f"C_INEQ = 1/{1 / config.C_INEQ:g}, "
             f"C_LEARN_CLASSICAL = {config.C_LEARN_CLASSICAL:g}, "
             f"C_TEST_BUDGET = {config.C_TEST_BUDGET:g}, "
             f"PEARSON_MARGIN = {config.PEARSON_MARGIN:g}")
    from . import mitest as mt
    d, eps = 8, 0.5
    plan = mt.classical_mi_plan(d, eps)
    print(f"classical plan at d={d}, eps={eps}: working accuracy "
          f"{plan['eps_dd']:.4g}, identity-test gap {plan['eps_t']:.4g}")
    print(f"  learn {plan['n_learn']} samples "
          f"(= C_LEARN_CLASSICAL * d / eps_dd; add-one mean 2d/n puts "
          f"each marginal within eps_dd/3 except with odds 1/200)")
    print(f"  test  {plan['n_test']} samples "
          f"(= C_TEST_BUDGET * d / eps_t)")
    print("  threshold = closed-form null 99th percentile (moment-matched "
          "Wilson-Hilferty) + PEARSON_MARGIN * n * eps_t")
    qplan = mt.quantum_mi_plan(4, eps)
    print(f"quantum plan at d=4, eps={eps}: marginal accuracy "
          f"{qplan['eps_learn']:.4g}, gap {qplan['eps_t']:.4g}")


def main() -> int:
    print("frozen-constant calibration report")
    conf_scale()
    bit_scale()
    matching_rate()
    qubit_scale()
    plan_scale()
    tester_budgets()
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
