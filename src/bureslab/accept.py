"""Runnable acceptance checks behind the library's advertised guarantees.

Each criterion is a self-contained seeded experiment: inequality chains
on random ensembles, risk levels for the estimators, accuracy and
structure guarantees for the staged pipeline, the restriction identity,
the two product testers, and byte-stable harness reruns.
``acceptance_suite`` runs them in numeric order and returns one
CriterionResult apiece; the CLI prints ``result.line()`` for each and
exits nonzero if anything failed.

Wherever the library could be wrong in a self-consistent way, a second
route recomputes the quantity: quantum divergences through matrix
functions instead of the eigenbasis-overlap pair, estimator risk
against closed-form levels.  Criteria 7-9 (the staged pipeline) and 13
(the quantum tester) are ``harness.Scenario``s judged by their targets'
bars; their second routes live in the harness's trial bodies.

Numbers 6 and 11 are retired and unknown to ``--only``; the other
criteria keep the numbers that comments and reports cite.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import classical
from . import cli
from . import config
from . import divergences as dv
from . import frobenius as fb
from . import harness as hz
from . import linalg
from . import mitest as mt
from . import pipeline as pl

__all__ = ["CriterionResult", "acceptance_suite", "CRITERIA"]

#: root seed for every acceptance experiment; criterion number and trial
#: counters extend it, so criteria stay reproducible run in isolation
_SEED = 20260816


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"{status} criterion {self.number:2d} [{self.name}] {body}"


#: (number, name, callable) triples; callables return (passed, measured)
CRITERIA: list = []


def _criterion(number: int, name: str):
    def deco(fn):
        CRITERIA.append((number, name, fn))
        return fn
    return deco


# ---------------------------------------------------------------------------
# 1-3: divergence identities and inequalities
# ---------------------------------------------------------------------------

@_criterion(1, "divergence-chains")
def _chains():
    started = time.perf_counter()
    rng = np.random.default_rng([_SEED, 1])
    pairs = 10_000
    # the draws of a pair-at-a-time loop, in its order: p, q alternate,
    # and one batched Dirichlet call draws what the single calls do
    pq = rng.dirichlet(np.ones(64), 2 * pairs)
    states = np.array([linalg.random_density(8, 8, rng)
                       for _ in range(2 * pairs)])

    def worst(chain, quantum):
        return max(float(np.max(lhs - rhs)) for _, lhs, rhs
                   in cli._chain_verdicts(chain, quantum))

    slack = max(worst(dv.classical_chain(pq[0::2], pq[1::2]), False),
                worst(dv.quantum_chain(states[0::2], states[1::2]), True))
    elapsed = time.perf_counter() - started
    ok = slack <= cli.SLACK and elapsed < 120.0
    return ok, {"pairs": 2 * pairs, "max_slack": float(slack),
                "elapsed_s": round(elapsed, 2)}


@_criterion(2, "quantum-classical-bridge")
def _bridge():
    rng = np.random.default_rng([_SEED, 2])
    worst = 0.0
    for _ in range(100):
        rho = linalg.random_density(8, 8, rng)
        sig = linalg.random_density(8, 8, rng)
        pv, pu = np.linalg.eigh(rho)
        qv, qu = np.linalg.eigh(sig)

        # matrix-function route, never touching the overlap-pair code
        log_sig = (qu * np.log(qv)) @ qu.conj().T
        kl_mat = float(np.sum(pv * np.log(pv))
                       - np.trace(rho @ log_sig).real)
        sqrt_rho = (pu * np.sqrt(pv)) @ pu.conj().T
        sqrt_sig = (qu * np.sqrt(qv)) @ qu.conj().T
        half_mat = -2.0 * math.log(
            float(np.trace(sqrt_rho @ sqrt_sig).real))
        inv_sig = (qu / qv) @ qu.conj().T
        two_mat = math.log(float(np.trace(rho @ rho @ inv_sig).real))
        w = np.abs(pu.conj().T @ qu) ** 2
        ratios = np.where(w > config.SPECTRAL_CUTOFF ** 2,
                          np.log(pv[:, None] / qv[None, :]), -np.inf)
        inf_mat = float(np.max(ratios))

        checks = (
            (dv.relative_entropy(rho, sig), kl_mat),
            (dv.renyi_divergence_q(rho, sig, 0.5), half_mat),
            (dv.renyi_divergence_q(rho, sig, 2.0), two_mat),
            (dv.quantum_chain(rho, sig)["max_log_ratio"], inf_mat),
        )
        for a, b in checks:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
    return worst <= 1e-8, {"pairs": 100, "max_rel_err": float(worst)}


@_criterion(3, "pointwise-reverse-bound")
def _pointwise():
    # the scalar inequality behind the reverse chain link:
    # x ln x - (x - 1) <= (2 + max(ln x, 0)) (sqrt(x) - 1)^2
    x = np.logspace(-6.0, 6.0, 10_000)
    lhs = x * np.log(x) - (x - 1.0)
    rhs = (2.0 + np.maximum(np.log(x), 0.0)) * (np.sqrt(x) - 1.0) ** 2
    gap = float(np.max(lhs - rhs))
    return gap <= 0.0, {"points": x.size, "max_gap": gap}


# ---------------------------------------------------------------------------
# 4-5: estimator risk levels
# ---------------------------------------------------------------------------

@_criterion(4, "add-one-risk")
def _add_one_risk():
    rng = np.random.default_rng([_SEED, 4])
    d, m, trials = 10, 100, 100_000
    p = np.full(d, 1.0 / d)
    counts = rng.multinomial(m, p, size=trials)
    q = (counts + 1.0) / (m + d)
    route_match = all(
        np.allclose(classical.add_one_hybrid(row, m, 0),
                    (row + 1.0) / (m + d), rtol=0.0, atol=1e-15)
        for row in counts[:100])
    chi2 = np.sum((q - p) ** 2 / p, axis=1)
    mean = float(chi2.mean())
    se = float(chi2.std(ddof=1) / math.sqrt(trials))
    bound = (d - 1.0) / (m + 1.0)
    ok = route_match and mean <= bound + 3.0 * se
    return ok, {"mean_chi2": mean, "bound": bound, "se": se,
                "route_match": route_match}


@_criterion(5, "frobenius-scaling")
def _frobenius_scaling():
    spec = fb.parse_estimator("simple")
    d, trials = 4, 200
    grid = (1_000, 10_000, 100_000)
    means = []
    level_ok = True
    for j, n in enumerate(grid):
        errs = []
        for t in range(trials):
            rng = np.random.default_rng([_SEED, 5, j, t])
            rho = linalg.random_density(d, d, rng)
            est = spec.run(rho, n, rng)
            errs.append(linalg.frob_sq(est - rho))
        means.append(float(np.mean(errs)))
        level_ok = level_ok and means[-1] <= spec.rate(d, d) / n
    slope = float(np.polyfit(np.log(grid), np.log(means), 1)[0])
    ok = level_ok and abs(slope + 1.0) <= 0.15
    return ok, {"slope": slope, "level_ok": level_ok,
                "mean_n1000": means[0],
                "level_n1000": spec.rate(d, d) / grid[0]}


# ---------------------------------------------------------------------------
# 7-9: the staged pipeline, as harness scenarios
# ---------------------------------------------------------------------------

_RANKS = (1, 2, 8)


def _master_seed(*path: int) -> int:
    """The root seed extended by ``path``, folded into one master seed."""
    ss = np.random.SeedSequence([_SEED, *path])
    return int(ss.generate_state(1, np.uint64)[0])


@functools.lru_cache(maxsize=None)
def _staged(target: str, r: int) -> tuple:
    """``(scenario, records)`` of d=8 staged runs at rank r over targets
    {0.2, 0.1}, run once per process.  The chi2 and kl runs of a rank
    share a master seed, so they learn the same states from the same
    draws."""
    s = hz.Scenario(sid=f"accept-{target}-r{r}", target=target, d=8, r=r,
                    family="rank_r_random", estimator="oracle:f=d",
                    eps_grid=(0.2, 0.1), trials=100,
                    master_seed=_master_seed(7, r))
    return s, hz.run_scenario(s)


@_criterion(7, "staged-accuracy")
def _staged_accuracy():
    measured, ok = {}, True
    for r in _RANKS:
        s, records = _staged("chi2", r)
        verdicts = hz.evaluate_guarantees(s, records)  # by ascending eps
        for eps, (_, passed, rate, _) in zip(sorted(s.eps_grid), verdicts):
            measured[f"rate_r{r}_eps{eps}"] = rate
            ok = ok and passed
        # the plan alone fixes the copies; no trial is needed for them
        level = fb.parse_estimator(s.estimator, r).rate(s.d, r)
        ratio = (pl.plan_budget(s.d, r, level, 0.1).total
                 / pl.plan_budget(s.d, r, level, 0.2).total)
        measured[f"copies_ratio_r{r}"] = round(ratio, 3)
        ok = ok and ratio <= 2.5
    return ok, measured


@_criterion(8, "staged-structure")
def _staged_structure():
    # the structure flags of criterion 7's chi2 trials, pooled
    records = [rec for r in _RANKS for rec in _staged("chi2", r)[1]]
    checks = ("cardinality", "masses", "block", "tail")
    rate = sum(not all(rec.flags[k] for k in checks)
               for rec in records) / len(records)
    return rate <= 0.10, {
        "trials": len(records), "fail_rate": rate,
        **{f"fail_{k}": sum(not rec.flags[k] for rec in records)
           for k in checks}}


@_criterion(9, "kl-upgrade")
def _kl_upgrade():
    runs = [_staged("kl", r) for r in _RANKS]
    ok = all(passed for s, records in runs
             for _, passed, _, _ in hz.evaluate_guarantees(s, records))
    records = [rec for _, recs in runs for rec in recs]
    return ok, {
        "certified": sum(rec.flags["within_eps"] for rec in records),
        "violations": sum(not rec.flags["kl_within_bound"]
                          for rec in records),
        "max_kl_over_bound": max(rec.losses["kl"] / rec.losses["kl_bound"]
                                 for rec in records)}


# ---------------------------------------------------------------------------
# 10, 12, 13: restriction identity and the two testers
# ---------------------------------------------------------------------------

@_criterion(10, "restriction-fidelity")
def _restriction_fidelity():
    rng = np.random.default_rng([_SEED, 10])
    d, pairs = 8, 1_000
    worst = 0.0
    skipped = 0
    for _ in range(pairs):
        rho = linalg.random_density(d, int(rng.integers(1, d + 1)), rng)
        subset = rng.choice(d, size=int(rng.integers(1, d + 1)),
                            replace=False)
        blk = rho[np.ix_(subset, subset)]
        cond = linalg.restrict(blk)
        if cond is None:
            skipped += 1
            continue
        mass = np.trace(blk).real
        back = np.zeros((d, d), dtype=complex)
        back[np.ix_(subset, subset)] = cond
        fid = dv.fidelity(rho, back)
        worst = max(worst, abs(mass - fid ** 2))
    ok = worst <= 1e-9 and skipped == 0
    return ok, {"pairs": pairs, "max_abs_err": float(worst),
                "skipped": skipped}


@_criterion(12, "classical-tester")
def _classical_tester():
    d, eps, trials = 8, 0.5, 200
    lam = 0.5
    joint = mt.correlated_joint(d, lam)
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    mi_corr = dv.classical_chain(joint.ravel(), np.outer(pa, pb).ravel())["kl"]
    accept_hits = reject_hits = 0
    for t in range(trials):
        rng = np.random.default_rng([_SEED, 12, 0, t])
        joint = np.outer(rng.dirichlet(np.ones(d)),
                         rng.dirichlet(np.ones(d)))
        accept_hits += mt.classical_mi_test(joint, eps, rng).accept
    for t in range(trials):
        rng = np.random.default_rng([_SEED, 12, 1, t])
        v = mt.classical_mi_test(mt.correlated_joint(d, lam), eps, rng)
        reject_hits += not v.accept
    ok = (accept_hits >= 0.9 * trials and reject_hits >= 0.9 * trials
          and mi_corr >= eps)
    return ok, {"accept_rate": accept_hits / trials,
                "reject_rate": reject_hits / trials,
                "correlated_mi": float(mi_corr)}


@_criterion(13, "quantum-tester")
def _quantum_tester():
    ok, rates, runs = True, [], []
    for arm, family in enumerate(("bipartite:random_product",
                                  "bipartite:correlated")):
        # lam=0.4 mixes in an entangled state: MI 0.56, just past the gap;
        # r=4 is the full marginal rank, the tester's own default
        s = hz.Scenario(sid=f"accept-mi-{arm}", target="mi", d=4, r=4,
                        family=family, eps_grid=(0.5,), lam=0.4, trials=100,
                        master_seed=_master_seed(13, arm))
        runs.append(hz.run_scenario(s))
        (_, passed, rate, _), = hz.evaluate_guarantees(s, runs[-1])
        ok = ok and passed
        rates.append(rate)
    pooled = runs[0] + runs[1]
    product_rate = sum(rec.flags["product_within_eps_prime"]
                       for rec in pooled) / len(pooled)
    mi_corr = min(rec.losses["mi"] for rec in runs[1])
    ok = ok and product_rate >= 0.9 and mi_corr >= 0.5
    return ok, {"accept_rate": rates[0], "reject_rate": rates[1],
                "product_chi2_rate": product_rate, "correlated_mi": mi_corr}


# ---------------------------------------------------------------------------
# 14: reruns are byte-stable
# ---------------------------------------------------------------------------

@_criterion(14, "determinism")
def _determinism():
    s = hz.Scenario(sid="accept-determinism", target="chi2", d=4, r=2,
                    family="rank_r_random", estimator="oracle:f=d",
                    eps_grid=(0.25,), trials=4, master_seed=777)
    rows_a = hz.csv_rows(hz.run_scenario(s, workers=1))
    rows_b = hz.csv_rows(hz.run_scenario(s, workers=1))
    rows_c = hz.csv_rows(hz.run_scenario(s, workers=2))
    rerun = rows_a == rows_b
    parallel = rows_a == rows_c
    return rerun and parallel, {"rerun_identical": rerun,
                                "parallel_identical": parallel,
                                "trials": s.trials}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def acceptance_suite(only=None) -> list:
    """Run the numbered criteria and return a CriterionResult for each.

    ``only`` restricts to the given criterion numbers (raising on
    unknown ones).  The criteria are serial by design; the determinism
    criterion exercises the worker pool itself.
    """
    known = {number for number, _, _ in CRITERIA}
    if only is not None:
        extra = set(only) - known
        if extra:
            raise ValueError(f"unknown criterion numbers: {sorted(extra)}")
    results = []
    for number, name, fn in sorted(CRITERIA, key=lambda c: c[0]):
        if only is not None and number not in only:
            continue
        passed, measured = fn()
        # counters touched by numpy booleans promote to numpy ints,
        # which json refuses; normalize at the one exit point
        measured = {k: v.item() if isinstance(v, np.generic) else v
                    for k, v in measured.items()}
        results.append(CriterionResult(number=number, name=name,
                                       passed=bool(passed),
                                       measured=measured))
    return results
